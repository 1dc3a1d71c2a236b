//! The transport fault plane: seed-deterministic chaos injection for
//! the serving layer (DESIGN.md §17).
//!
//! The routing engine already has a [`FaultPlane`] for *engine*-level
//! failures (missing table rows, corrupt costs, stage panics). This
//! module is its transport twin: the failures a daemon actually meets
//! in production are torn TCP writes, peers that stall mid-frame,
//! slow reads, and connections that vanish mid-reply. Each is modeled
//! as a [`TransportFault`] parsed by the engine plane's own
//! `kind[:probability]` grammar ([`parse_kind_spec`]), so
//! `torn-write:0.05` reads exactly like `corrupted-row:0.05`.
//!
//! # Determinism
//!
//! Whether a fault fires is a pure function of `(plane seed, fault
//! kind, connection id, frame sequence number)`, hashed with the engine
//! plane's [`splitmix64`]. Two runs of the same soak with the same seed
//! inject byte-identical fault schedules, which is what lets CI assert
//! invariants instead of eyeballing flakes.
//!
//! # Crash-only contract
//!
//! Every write-side injection **closes the connection** after (or
//! instead of) the damaged bytes: a peer can observe a torn or
//! corrupted frame only on a connection that is already dying, never
//! on one that keeps serving. That preserves the soak invariant —
//! every accepted request is answered exactly once *or its connection
//! is closed* — by construction.
//!
//! [`FaultPlane`]: patlabor::FaultPlane

use std::time::Duration;

use patlabor::resilience::{parse_kind_spec, splitmix64, unit_interval};

/// Default injected stall/delay for [`TransportFaultKind::StallWrite`]
/// and [`TransportFaultKind::DelayRead`]. Long enough to be visible to
/// watchdogs and latency percentiles, short enough that a seeded soak
/// finishes in CI time.
pub const DEFAULT_CHAOS_DELAY: Duration = Duration::from_millis(20);

/// The transport failure modes the plane can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFaultKind {
    /// Write the frame prefix plus only part of the payload, then
    /// close: the peer sees a torn frame (`read_frame` errors).
    TornWrite,
    /// Write part of the reply, stall for the plane's delay, then
    /// close — the partial-write-then-hang peers inflict on us,
    /// reflected back.
    StallWrite,
    /// Sleep for the plane's delay before processing a received frame
    /// (a slow or congested read path).
    DelayRead,
    /// Close the connection instead of writing the reply at all.
    Disconnect,
    /// Write the full frame with corrupted payload bytes (length
    /// prefix intact), then close: the peer receives a frame that no
    /// longer parses.
    CorruptWrite,
}

impl TransportFaultKind {
    /// Number of kinds (sizes the per-kind metrics array).
    pub const COUNT: usize = 5;

    /// All kinds, in metric/index order.
    pub const ALL: [TransportFaultKind; Self::COUNT] = [
        TransportFaultKind::TornWrite,
        TransportFaultKind::StallWrite,
        TransportFaultKind::DelayRead,
        TransportFaultKind::Disconnect,
        TransportFaultKind::CorruptWrite,
    ];

    /// Stable index for metric arrays.
    pub fn index(self) -> usize {
        match self {
            TransportFaultKind::TornWrite => 0,
            TransportFaultKind::StallWrite => 1,
            TransportFaultKind::DelayRead => 2,
            TransportFaultKind::Disconnect => 3,
            TransportFaultKind::CorruptWrite => 4,
        }
    }

    /// The spec-grammar / metric label.
    pub fn label(self) -> &'static str {
        match self {
            TransportFaultKind::TornWrite => "torn-write",
            TransportFaultKind::StallWrite => "stall-write",
            TransportFaultKind::DelayRead => "delay-read",
            TransportFaultKind::Disconnect => "disconnect",
            TransportFaultKind::CorruptWrite => "corrupt-write",
        }
    }
}

/// One registered transport fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportFault {
    pub kind: TransportFaultKind,
    /// Probability a given (connection, frame) draws this fault.
    pub probability: f64,
}

impl TransportFault {
    /// Parses the `kind[:probability]` spec grammar shared with the
    /// engine plane ([`parse_kind_spec`]; no `@rung` scope: transport
    /// faults have no ladder position).
    ///
    /// `torn-write` ⇒ probability 1.0; `torn-write:0.05` ⇒ 5%.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (kind, probability) =
            parse_kind_spec(spec, &TransportFaultKind::ALL, TransportFaultKind::label)?;
        Ok(TransportFault { kind, probability })
    }
}

/// The plane: a seed plus the registered faults. Empty (the default)
/// means every hook short-circuits on [`TransportPlane::is_empty`] —
/// the clean serve path pays one branch per hook and nothing else.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TransportPlane {
    seed: u64,
    faults: Vec<TransportFault>,
    delay: Option<Duration>,
}

impl TransportPlane {
    /// An empty plane deciding under `seed`.
    pub fn seeded(seed: u64) -> Self {
        TransportPlane {
            seed,
            ..TransportPlane::default()
        }
    }

    /// Registers a fault.
    #[must_use]
    pub fn with_fault(mut self, fault: TransportFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Registers a fault from its `kind[:prob]` spec.
    pub fn with_spec(self, spec: &str) -> Result<Self, String> {
        Ok(self.with_fault(TransportFault::parse(spec)?))
    }

    /// Overrides the injected stall/delay duration.
    #[must_use]
    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = Some(delay);
        self
    }

    /// Whether no fault is registered — the clean-path short-circuit.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The plane's decision seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The injected stall/delay duration.
    pub fn delay(&self) -> Duration {
        self.delay.unwrap_or(DEFAULT_CHAOS_DELAY)
    }

    /// Whether `kind` fires for frame `frame_seq` on connection
    /// `conn_id` — deterministic in (seed, kind, conn, frame). When the
    /// same kind is registered more than once the draws are
    /// independent (distinct salt per registration index).
    pub fn fires(&self, kind: TransportFaultKind, conn_id: u64, frame_seq: u64) -> bool {
        if self.faults.is_empty() {
            return false;
        }
        self.faults
            .iter()
            .enumerate()
            .filter(|(_, f)| f.kind == kind)
            .any(|(i, f)| {
                if f.probability <= 0.0 {
                    return false;
                }
                if f.probability >= 1.0 {
                    return true;
                }
                let mut h = splitmix64(self.seed ^ (kind.index() as u64) << 32 ^ i as u64);
                h = splitmix64(h ^ conn_id);
                h = splitmix64(h ^ frame_seq);
                unit_interval(h) < f.probability
            })
    }

    /// The first write-side fault that fires for this (conn, frame),
    /// in registration order. Write hooks need *one* verdict — a frame
    /// can only die one way.
    pub fn write_fault(&self, conn_id: u64, frame_seq: u64) -> Option<TransportFaultKind> {
        if self.faults.is_empty() {
            return None;
        }
        [
            TransportFaultKind::Disconnect,
            TransportFaultKind::TornWrite,
            TransportFaultKind::StallWrite,
            TransportFaultKind::CorruptWrite,
        ]
        .into_iter()
        .find(|&k| self.fires(k, conn_id, frame_seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_round_trips_every_kind() {
        for kind in TransportFaultKind::ALL {
            let bare = TransportFault::parse(kind.label()).unwrap();
            assert_eq!(bare.kind, kind);
            assert_eq!(bare.probability, 1.0);
            let spec = format!("{}:0.25", kind.label());
            let f = TransportFault::parse(&spec).unwrap();
            assert_eq!(f.kind, kind);
            assert_eq!(f.probability, 0.25);
        }
    }

    #[test]
    fn bad_specs_name_the_problem() {
        let e = TransportFault::parse("teleport").unwrap_err();
        assert!(e.contains("teleport") && e.contains("torn-write"), "{e}");
        let e = TransportFault::parse("torn-write:nope").unwrap_err();
        assert!(e.contains("nope"), "{e}");
        let e = TransportFault::parse("torn-write:1.5").unwrap_err();
        assert!(e.contains("1.5"), "{e}");
    }

    /// Both fault grammars are one parser: the same hostile specs are
    /// structured errors (never panics) for the engine's `Fault::parse`
    /// and the transport plane's `TransportFault::parse` alike.
    #[test]
    fn hostile_specs_are_errors_in_both_grammars() {
        let engine_kind = patlabor::FaultKind::StagePanic.label();
        let transport_kind = TransportFaultKind::TornWrite.label();
        for kind in [engine_kind, transport_kind] {
            let specs = [
                String::new(),
                ":".to_string(),
                "x:".to_string(),
                format!("{kind}:NaN"),
                format!("{kind}:1e309"),
                format!("{kind}:-0.1"),
                format!("{kind}:0.5:0.5"),
            ];
            for spec in &specs {
                let engine = std::panic::catch_unwind(|| patlabor::Fault::parse(spec));
                let transport = std::panic::catch_unwind(|| TransportFault::parse(spec));
                assert!(
                    matches!(engine, Ok(Err(_))),
                    "Fault::parse({spec:?}) = {engine:?}"
                );
                assert!(
                    matches!(transport, Ok(Err(_))),
                    "TransportFault::parse({spec:?}) = {transport:?}"
                );
            }
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plane = |seed| {
            TransportPlane::seeded(seed)
                .with_spec("torn-write:0.5")
                .unwrap()
        };
        let a = plane(1);
        let b = plane(1);
        let c = plane(2);
        let mut flipped = 0;
        let mut fired = 0;
        for frame in 0..256u64 {
            let fa = a.fires(TransportFaultKind::TornWrite, 7, frame);
            assert_eq!(fa, b.fires(TransportFaultKind::TornWrite, 7, frame));
            if fa {
                fired += 1;
            }
            if fa != c.fires(TransportFaultKind::TornWrite, 7, frame) {
                flipped += 1;
            }
        }
        // p = 0.5 over 256 draws: both extremes are astronomically
        // unlikely, and two seeds must disagree somewhere.
        assert!(fired > 64 && fired < 192, "{fired}");
        assert!(flipped > 0);
        // Different connections draw independently.
        let per_conn: Vec<bool> = (0..64)
            .map(|conn| a.fires(TransportFaultKind::TornWrite, conn, 0))
            .collect();
        assert!(per_conn.iter().any(|&f| f) && per_conn.iter().any(|&f| !f));
    }

    #[test]
    fn empty_plane_never_fires_and_probability_edges_hold() {
        let empty = TransportPlane::seeded(9);
        assert!(empty.is_empty());
        assert!(!empty.fires(TransportFaultKind::Disconnect, 0, 0));
        assert!(empty.write_fault(0, 0).is_none());
        let never = TransportPlane::seeded(9).with_spec("disconnect:0").unwrap();
        assert!(!never.is_empty());
        assert!((0..128).all(|f| !never.fires(TransportFaultKind::Disconnect, 0, f)));
        let always = TransportPlane::seeded(9).with_spec("disconnect:1").unwrap();
        assert!((0..128).all(|f| always.fires(TransportFaultKind::Disconnect, 0, f)));
    }

    #[test]
    fn write_fault_picks_one_verdict() {
        let plane = TransportPlane::seeded(3)
            .with_spec("disconnect")
            .unwrap()
            .with_spec("torn-write")
            .unwrap();
        // Both always fire; disconnect wins the fixed precedence.
        assert_eq!(
            plane.write_fault(1, 1),
            Some(TransportFaultKind::Disconnect)
        );
        // DelayRead is a read-side fault and never a write verdict.
        let read_only = TransportPlane::seeded(3).with_spec("delay-read").unwrap();
        assert!(read_only.write_fault(1, 1).is_none());
        assert!(read_only.fires(TransportFaultKind::DelayRead, 1, 1));
    }
}
