//! How fast the machine runs right now, and the end-to-end timings scaled
//! to one fixed machine speed.
//!
//! On a shared host every instruction runs slower while other tenants
//! load the cores, and such periods last minutes: longer than a run, so
//! no median within a run removes them. The benchmark therefore times
//! two fixed reference computations of its own in short slices, between
//! units of the measured work, and scales each end-to-end timing by how
//! slow the references ran against [`NOMINAL_US`]. The router's code
//! mixes data-dependent branches (classification, pruning) with
//! arithmetic (scoring), and busy periods slow the two differently, so
//! there is one reference of each kind:
//!
//! - **branchy**: sorting 1,024 pseudo-random keys, mostly mispredicted
//!   compares;
//! - **arithmetic**: four independent multiply-xorshift chains.
//!
//! The reference is the geometric mean of their median slice times.
//! Stolen time hits few of the short slices, so the medians leave it
//! out. The references touch a few KiB of stack and call no allocator,
//! so no change to the program can move them.
//!
//! A serve request's latency is only partly computation: it also waits
//! for the coalescing window, thread wake-ups and the socket. Over 20
//! runs it followed the reference with a log-log slope of 0.8 (`p50_ms`)
//! and 0.35 (`p90_ms`), against 0.8–1.6 for every other timing, so it
//! is scaled by the square root of the factor.

use std::time::Instant;

use crate::report::{Better, Run, E2E};
use crate::stats::median;
use crate::workloads::Workload;

/// The reference, in µs, on the machine the benchmark was calibrated on
/// (a 2-vCPU x86-64 KVM guest) at its quiet times: the speed every
/// adjusted timing is scaled to.
pub const NOMINAL_US: f64 = 30.0;
/// End-to-end metrics that are timings and get scaled.
const ADJUSTED: [&str; 4] = ["setup_s", "ops_per_cpu_s", "p50_ms", "p90_ms"];
/// Keys sorted per branchy slice.
const SORT_KEYS: usize = 1_024;
/// Steps of each chain per arithmetic slice.
const CHAIN_STEPS: usize = 16_384;
/// Slices of each kind per [`HostSpeed::sample`]: about 1 ms together.
const SLICES: usize = 16;

/// Slice times of the two references over one run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    branchy_ns: Vec<f64>,
    arith_ns: Vec<f64>,
    state: u64,
}

impl HostSpeed {
    /// Times [`SLICES`] slices of each reference.
    pub fn sample(&mut self) {
        for _ in 0..SLICES {
            let t = Instant::now();
            self.state ^= branchy(std::hint::black_box(self.state | 1));
            self.branchy_ns.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            self.state ^= arithmetic(std::hint::black_box(self.state | 1));
            self.arith_ns.push(t.elapsed().as_nanos() as f64);
        }
    }

    /// The geometric mean of the two median slice times, in µs; `None`
    /// before the first sample.
    pub fn reference_us(&self) -> Option<f64> {
        if self.branchy_ns.is_empty() {
            return None;
        }
        let (b, a) = (median(&self.branchy_ns), median(&self.arith_ns));
        Some((b * a).sqrt() / 1e3)
    }
}

/// Sorts [`SORT_KEYS`] keys drawn from `x` and returns their middle one.
fn branchy(mut x: u64) -> u64 {
    let mut keys = [0u32; SORT_KEYS];
    for k in &mut keys {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *k = x as u32;
    }
    keys.sort_unstable();
    u64::from(keys[SORT_KEYS / 2])
}

/// [`CHAIN_STEPS`] steps of four independent chains seeded from `x`.
fn arithmetic(x: u64) -> u64 {
    let mut h = [x, x ^ 1, x ^ 2, x ^ 3];
    for _ in 0..CHAIN_STEPS {
        for v in &mut h {
            *v = v.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
            *v ^= *v >> 29;
        }
    }
    h.iter().fold(0, |acc, v| acc ^ v)
}

/// The power of the speed factor a timing is scaled by: how closely it
/// follows the machine's speed.
fn elasticity(workload: &str, metric: &str) -> f64 {
    match metric {
        "p50_ms" | "p90_ms" if workload == Workload::ServeOpenloop.name() => 0.5,
        _ => 1.0,
    }
}

/// Scales the run's end-to-end timings to [`NOMINAL_US`]: a time by
/// `(NOMINAL_US / reference)^e`, a rate by `(reference / NOMINAL_US)^e`,
/// with `e` from [`elasticity`]. Each value as measured stays printed as
/// `raw.<name>`, and the reference as `host.reference_us`.
pub fn adjust(run: &mut Run) {
    let Some(reference) = run.host.reference_us() else {
        return;
    };
    run.push("host.reference_us", reference, "us");
    for def in E2E.iter().filter(|d| ADJUSTED.contains(&d.name)) {
        let Some(raw) = run.get(def.name) else {
            continue;
        };
        run.push(format!("raw.{}", def.name), raw, def.unit);
        let slower = reference / NOMINAL_US;
        let factor = match def.better {
            Better::Lower => 1.0 / slower,
            Better::Higher => slower,
        };
        run.push(
            def.name,
            raw * factor.powf(elasticity(run.workload, def.name)),
            def.unit,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_slices_take_time_and_repeat_their_work() {
        let mut host = HostSpeed::default();
        assert_eq!(host.reference_us(), None);
        host.sample();
        assert_eq!(host.branchy_ns.len(), SLICES);
        assert!(host.reference_us().unwrap() > 0.0);
        assert_eq!(branchy(7), branchy(7));
        assert_ne!(arithmetic(7), arithmetic(8));
    }

    #[test]
    fn a_slow_host_scales_times_down_and_rates_up() {
        let mut run = Run::default();
        for (name, value, unit) in [
            ("setup_s", 4.0, "s"),
            ("ops_per_cpu_s", 1_000.0, "1/s"),
            ("p50_ms", 2.0, "ms"),
            ("peak_rss_mb", 64.0, "MiB"),
        ] {
            run.push(name, value, unit);
        }
        // Both references ran at twice the nominal time.
        run.host.branchy_ns = vec![2e3 * NOMINAL_US; 3];
        run.host.arith_ns = vec![2e3 * NOMINAL_US; 3];
        adjust(&mut run);
        assert_eq!(run.get("host.reference_us"), Some(2.0 * NOMINAL_US));
        assert_eq!(run.get("setup_s"), Some(2.0));
        assert_eq!(run.get("raw.setup_s"), Some(4.0));
        assert_eq!(run.get("ops_per_cpu_s"), Some(2_000.0));
        assert_eq!(run.get("p50_ms"), Some(1.0));
        assert_eq!(run.get("peak_rss_mb"), Some(64.0), "memory is not a timing");
        assert_eq!(run.get("raw.peak_rss_mb"), None);

        // Serve latency follows the speed by the square root.
        let mut serve = Run {
            workload: Workload::ServeOpenloop.name(),
            ..Run::default()
        };
        serve.push("p50_ms", 2.0, "ms");
        serve.push("ops_per_cpu_s", 1_000.0, "1/s");
        serve.host.branchy_ns = vec![4e3 * NOMINAL_US; 3];
        serve.host.arith_ns = vec![4e3 * NOMINAL_US; 3];
        adjust(&mut serve);
        assert_eq!(serve.get("p50_ms"), Some(1.0));
        assert_eq!(serve.get("ops_per_cpu_s"), Some(4_000.0));
    }
}
