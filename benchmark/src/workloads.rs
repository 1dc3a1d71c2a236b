//! The five workloads and their seeded input generators.
//!
//! Every generator is a pure function of `(seed, index)`: batch `k` of a
//! run is the same nets whether the run stops after two batches or
//! twenty, so a time-bounded run and its frontier digest stay
//! reproducible.

use patlabor::{DeltaKind, Net, Point};
use patlabor_netgen::uniform_net;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// λ of the lookup table every workload serves from.
pub const LAMBDA: u8 = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LutCongruent,
    LutUnique,
    DesignIccad,
    EcoRounds,
    ServeOpenloop,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::LutCongruent,
        Workload::LutUnique,
        Workload::DesignIccad,
        Workload::EcoRounds,
        Workload::ServeOpenloop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LutCongruent => "lut_congruent",
            Workload::LutUnique => "lut_unique",
            Workload::DesignIccad => "design_iccad",
            Workload::EcoRounds => "eco_rounds",
            Workload::ServeOpenloop => "serve_openloop",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed a run uses when none is given.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::LutCongruent => 0x1c0,
            Workload::LutUnique => 0x1c1,
            Workload::DesignIccad => 0x1cad,
            Workload::EcoRounds => 0xec0,
            Workload::ServeOpenloop => 0x5e4e,
        }
    }
}

/// A generator stream keyed by `(seed, stream, index)`: independent
/// streams for independent uses of one seed.
pub fn rng(seed: u64, stream: u64, index: u64) -> StdRng {
    let mut x = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ index;
    StdRng::seed_from_u64(x)
}

const STREAM_MASTERS: u64 = 1;
const STREAM_TABULATED: u64 = 2;
const STREAM_ECO: u64 = 3;
const STREAM_SERVE: u64 = 4;

/// Masters in the congruence pool of the tabulated workloads.
pub const MASTERS: usize = 256;

/// The seeded master pool: degree 3–6 nets spread over a 10,000 span.
pub fn masters(seed: u64) -> Vec<Net> {
    let mut rng = rng(seed, STREAM_MASTERS, 0);
    (0..MASTERS)
        .map(|_| {
            let degree = rng.gen_range(3..=LAMBDA as usize);
            uniform_net(&mut rng, degree, 10_000)
        })
        .collect()
}

/// A fresh degree 3–6 net whose pins span 24 (even `g`) or 10,000 (odd
/// `g`) tracks: dense nets with many coincident rows and columns next to
/// sparse ones.
fn fresh_net(rng: &mut StdRng, g: u64) -> Net {
    let degree = rng.gen_range(3..=LAMBDA as usize);
    uniform_net(rng, degree, if g.is_multiple_of(2) { 24 } else { 10_000 })
}

/// One of the eight D4 symmetries of the plane, then a translation: the
/// result is congruent to `net`, so it shares `net`'s cache key.
pub fn congruent_copy(net: &Net, rng: &mut StdRng) -> Net {
    let t = rng.gen_range(0..8u8);
    let (dx, dy) = (
        rng.gen_range(-1_000_000..=1_000_000i64),
        rng.gen_range(-1_000_000..=1_000_000i64),
    );
    net.map_points(|p| {
        let (mut x, mut y) = if t & 4 != 0 { (p.y, p.x) } else { (p.x, p.y) };
        if t & 1 != 0 {
            x = -x;
        }
        if t & 2 != 0 {
            y = -y;
        }
        Point::new(x + dx, y + dy)
    })
}

/// Net `g` of a tabulated (degree 3–6) stream in which every
/// `congruent_of` nets out of 3 are congruent copies of a pool master.
/// Returns the net and its master's index when it has one.
pub fn tabulated_net(seed: u64, pool: &[Net], congruent_of_3: u64, g: u64) -> (Net, Option<usize>) {
    let mut rng = rng(seed, STREAM_TABULATED, g);
    if g % 3 < congruent_of_3 {
        let m = rng.gen_range(0..pool.len());
        (congruent_copy(&pool[m], &mut rng), Some(m))
    } else {
        (fresh_net(&mut rng, g), None)
    }
}

/// Batch `k` (of `size` nets) of the `lut_congruent` (2/3 congruent) or
/// `lut_unique` (all fresh) stream.
pub fn lut_batch(seed: u64, pool: &[Net], congruent_of_3: u64, k: usize, size: usize) -> Vec<Net> {
    let first = (k * size) as u64;
    (first..first + size as u64)
        .map(|g| tabulated_net(seed, pool, congruent_of_3, g).0)
        .collect()
}

/// Batch `k` of `design_iccad`: `iccad_like_suite(seed + k, size, 32)`.
pub fn design_batch(seed: u64, k: usize, size: usize) -> Vec<Net> {
    patlabor_netgen::iccad_like_suite(seed.wrapping_add(k as u64), size, 32)
}

/// The edit applied to `net` by edit `e` of an ECO round: 50% translate,
/// 20% ±1-track pin move, 10% far pin move, 10% add-sink (degree < 6),
/// 5% remove-sink (degree > 3), 5% blockage mask. Add and remove fall
/// back to a translate when they would leave the tabulated range.
pub fn eco_edit(seed: u64, round: u64, e: u64, net: &Net) -> DeltaKind {
    let mut rng = rng(seed, STREAM_ECO, (round << 32) | e);
    let pins = net.pins();
    let pin = rng.gen_range(0..pins.len());
    let p = pins[pin];
    let translate = |rng: &mut StdRng| DeltaKind::Translate {
        dx: rng.gen_range(-1_000..=1_000),
        dy: rng.gen_range(-1_000..=1_000),
    };
    match rng.gen_range(0..100u32) {
        0..=49 => translate(&mut rng),
        50..=69 => {
            let step = if rng.gen_bool(0.5) { 1 } else { -1 };
            let to = if rng.gen_bool(0.5) {
                Point::new(p.x + step, p.y)
            } else {
                Point::new(p.x, p.y + step)
            };
            DeltaKind::MovePin { index: pin, to }
        }
        70..=79 => DeltaKind::MovePin {
            index: pin,
            to: Point::new(
                p.x + rng.gen_range(-5_000..=5_000i64),
                p.y + rng.gen_range(-5_000..=5_000i64),
            ),
        },
        80..=89 if pins.len() < LAMBDA as usize => DeltaKind::AddSink {
            at: Point::new(
                p.x + rng.gen_range(-500..=500i64),
                p.y + rng.gen_range(-500..=500i64),
            ),
        },
        90..=94 if pins.len() > 3 => DeltaKind::RemoveSink {
            index: rng.gen_range(0..pins.len() - 1),
        },
        95..=99 => {
            let half = rng.gen_range(2..=200i64);
            DeltaKind::BlockageMask {
                min: Point::new(p.x - half, p.y - half),
                max: Point::new(p.x + half, p.y + half),
            }
        }
        _ => translate(&mut rng),
    }
}

/// `count` distinct indices out of `0..n` for ECO round `round`.
pub fn eco_targets(seed: u64, round: u64, n: usize, count: usize) -> Vec<usize> {
    let mut rng = rng(seed, STREAM_ECO, u64::MAX - round);
    let mut idx: Vec<usize> = (0..n).collect();
    for j in 0..count.min(n) {
        let k = rng.gen_range(j..n);
        idx.swap(j, k);
    }
    idx.truncate(count.min(n));
    idx
}

/// Arrival offsets, in seconds from the phase start, of a Poisson
/// process whose rate is `rates[i]` during the `i`-th `period` of the
/// phase (cycling through `rates`) over `duration` seconds. A constant
/// rate is a one-element `rates`. Exact for piecewise-constant rates:
/// an inter-arrival draw that crosses a rate boundary is discarded and
/// redrawn from the boundary, which the process's memorylessness
/// allows.
pub fn poisson_schedule(
    seed: u64,
    stream: u64,
    rates: &[f64],
    period: f64,
    duration: f64,
) -> Vec<f64> {
    let mut rng = rng(seed, STREAM_SERVE, stream);
    let mut out = Vec::new();
    let mut t = 0.0;
    while t < duration {
        let segment = (t / period).floor();
        let end = ((segment + 1.0) * period).min(duration);
        let rate = rates[segment as usize % rates.len()];
        // Uniform in (0, 1]: 53 random bits, shifted off zero.
        let u = ((rng.gen_range(0..1u64 << 53) + 1) as f64) / (1u64 << 53) as f64;
        let next = t - u.ln() / rate;
        if next >= end {
            t = end;
            continue;
        }
        out.push(next);
        t = next;
    }
    out
}

/// One request of the open-loop traffic: a fresh route or an ECO edit
/// of an earlier request's net.
#[derive(Debug, Clone)]
pub enum Traffic {
    Route(Net),
    Reroute { base: usize, kind: DeltaKind },
}

/// Serve traffic for a schedule: 80% fresh `route`s of
/// `iccad_like_suite(seed, ·, 9)` nets (degrees 4–10), 20% `reroute`s
/// (translate or ±1-track pin move) of a route request that was due at
/// least 200 ms earlier in the same schedule. Returns the routed nets
/// (a reroute names its base by index into them) and the requests.
pub fn serve_traffic(seed: u64, stream: u64, due: &[f64]) -> (Vec<Net>, Vec<Traffic>) {
    let pool = patlabor_netgen::iccad_like_suite(seed ^ stream.rotate_left(17), due.len(), 9);
    let mut pool = pool.into_iter();
    let mut rng = rng(seed, STREAM_SERVE, stream | 1 << 63);
    let mut nets: Vec<Net> = Vec::new();
    let mut routed_due: Vec<f64> = Vec::new();
    let traffic = due
        .iter()
        .map(|&t| {
            let eligible = routed_due.partition_point(|&d| d <= t - 0.2);
            if eligible > 0 && rng.gen_bool(0.2) {
                let base = rng.gen_range(0..eligible);
                let net = &nets[base];
                let pin = rng.gen_range(0..net.degree());
                let p = net.pins()[pin];
                let kind = if rng.gen_bool(0.5) {
                    DeltaKind::Translate {
                        dx: rng.gen_range(-1_000..=1_000),
                        dy: rng.gen_range(-1_000..=1_000),
                    }
                } else {
                    DeltaKind::MovePin {
                        index: pin,
                        to: Point::new(p.x + 1, p.y),
                    }
                };
                Traffic::Reroute { base, kind }
            } else {
                nets.push(pool.next().expect("one pool net per request"));
                routed_due.push(t);
                Traffic::Route(nets[nets.len() - 1].clone())
            }
        })
        .collect();
    (nets, traffic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Fnv;
    use patlabor::cache::CacheKey;
    use patlabor_geom::NetClass;

    fn key(net: &Net) -> CacheKey {
        CacheKey::from_class(&NetClass::of(net).expect("degree 3..=6 classifies"))
    }

    fn digest(nets: &[Net]) -> u64 {
        let mut h = Fnv::default();
        for net in nets {
            for p in net.pins() {
                h.push(p.x);
                h.push(p.y);
            }
        }
        h.finish()
    }

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        let pool = masters(7);
        assert_eq!(digest(&pool), digest(&masters(7)));
        assert_ne!(digest(&pool), digest(&masters(8)));
        for of3 in [2, 0] {
            let a = lut_batch(7, &pool, of3, 3, 300);
            assert_eq!(digest(&a), digest(&lut_batch(7, &pool, of3, 3, 300)));
            assert_ne!(digest(&a), digest(&lut_batch(8, &masters(8), of3, 3, 300)));
            assert_ne!(
                digest(&a),
                digest(&lut_batch(7, &pool, of3, 4, 300)),
                "batches differ"
            );
        }
        let d = design_batch(7, 1, 200);
        assert_eq!(digest(&d), digest(&design_batch(7, 1, 200)));
        assert_ne!(digest(&d), digest(&design_batch(9, 1, 200)));
        let base = &pool[0];
        let edits = |seed| {
            (0..64)
                .map(|e| eco_edit(seed, 2, e, base))
                .collect::<Vec<_>>()
        };
        assert_eq!(edits(7), edits(7));
        assert_ne!(edits(7), edits(8));
        assert_eq!(eco_targets(7, 1, 1000, 100), eco_targets(7, 1, 1000, 100));
        assert_ne!(eco_targets(7, 1, 1000, 100), eco_targets(8, 1, 1000, 100));
    }

    #[test]
    fn two_thirds_of_lut_congruent_share_a_key_with_their_master() {
        let pool = masters(11);
        let pool_keys: Vec<CacheKey> = pool.iter().map(key).collect();
        let n = 3_000u64;
        let mut sharing = 0;
        for g in 0..n {
            let (net, master) = tabulated_net(11, &pool, 2, g);
            match master {
                Some(m) => {
                    assert_eq!(key(&net), pool_keys[m], "net {g} lost its class");
                    sharing += 1;
                }
                None => assert!(
                    !pool_keys.contains(&key(&net)),
                    "fresh net {g} hit the pool"
                ),
            }
        }
        assert_eq!(sharing, 2 * n / 3);
        // lut_unique has no masters at all.
        assert!((0..300).all(|g| tabulated_net(11, &pool, 0, g).1.is_none()));
    }

    #[test]
    fn eco_edits_stay_in_the_tabulated_range() {
        let pool = masters(3);
        for (i, net) in pool.iter().enumerate() {
            for e in 0..50 {
                let kind = eco_edit(3, i as u64, e, net);
                let degree = patlabor::NetDelta::new(net.clone(), kind).apply().degree();
                assert!(
                    (3..=LAMBDA as usize).contains(&degree),
                    "{kind:?} → degree {degree}"
                );
            }
        }
        let targets = eco_targets(3, 0, 500, 200);
        let mut unique = targets.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 200);
    }

    #[test]
    fn modulated_poisson_schedule_is_seeded_and_averages_4000_rps() {
        let rates = [2_000.0, 6_000.0];
        let a = poisson_schedule(5, 0, &rates, 0.25, 20.0);
        assert_eq!(a, poisson_schedule(5, 0, &rates, 0.25, 20.0));
        assert_ne!(a, poisson_schedule(6, 0, &rates, 0.25, 20.0));
        let mean_rate = a.len() as f64 / 20.0;
        assert!(
            (mean_rate - 4_000.0).abs() / 4_000.0 < 0.02,
            "mean rate {mean_rate}"
        );
        assert!(a.windows(2).all(|w| w[0] < w[1]) && a[a.len() - 1] < 20.0);
        // The modulation is real: high-rate periods carry ~3× the load.
        let in_period = |p: usize| a.iter().filter(|&&t| (t / 0.25) as usize % 2 == p).count();
        let ratio = in_period(1) as f64 / in_period(0) as f64;
        assert!(
            (2.7..3.3).contains(&ratio),
            "6000/2000 period ratio {ratio}"
        );
    }

    #[test]
    fn reroutes_target_requests_due_200ms_earlier() {
        let due = poisson_schedule(9, 1, &[4_000.0], 1.0, 2.0);
        let (nets, traffic) = serve_traffic(9, 1, &due);
        let mut routed_at = Vec::new();
        let mut reroutes = 0;
        for (t, req) in due.iter().zip(&traffic) {
            match req {
                Traffic::Route(_) => routed_at.push(*t),
                Traffic::Reroute { base, .. } => {
                    assert!(routed_at[*base] <= t - 0.2);
                    reroutes += 1;
                }
            }
        }
        let share = reroutes as f64 / traffic.len() as f64;
        assert!((0.15..0.22).contains(&share), "reroute share {share}");
        assert_eq!(nets.len(), routed_at.len());
    }
}
