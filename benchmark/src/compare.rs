//! `benchmark compare A.json… -- B.json…`: per workload and end-to-end
//! metric, each side's median and quartiles, the share of (A, B) run
//! pairs B wins, and a verdict; then the per-layer medians beside it, so
//! a claimed gain names the layer that moved and shows the ones that
//! did not.

use std::collections::BTreeMap;

use patlabor_serve::Json;

use crate::report::{Better, Def, E2E};
use crate::stats::{median, quartiles};
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric on one workload, A (baseline) against B (change).
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    pub median_a: f64,
    pub quartiles_a: (f64, f64),
    pub median_b: f64,
    pub quartiles_b: (f64, f64),
    /// Share of all (a, b) pairs in which b is better; ties count for
    /// neither side.
    pub wins: f64,
    pub verdict: Verdict,
}

/// The verdict rules:
/// - `unresolved` when either side's quartile spread (relative to its
///   median) is wider than the bound and the runs interleave — not every
///   B run is better, nor every B run worse, than every A run;
/// - `improved` when B's median is better, B wins at least nine tenths
///   of the pairs, and the medians differ by more than A's own quartile
///   spread;
/// - `regressed` when B's median is worse than A's by more than the
///   bound;
/// - `unchanged` otherwise.
pub fn compare(def: &Def, a: &[f64], b: &[f64]) -> Comparison {
    let better = |x: f64, y: f64| match def.better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    let pairs = (a.len() * b.len()).max(1) as f64;
    let won = a
        .iter()
        .map(|&x| b.iter().filter(|&&y| better(y, x)).count())
        .sum::<usize>() as f64;
    let lost = a
        .iter()
        .map(|&x| b.iter().filter(|&&y| better(x, y)).count())
        .sum::<usize>() as f64;
    let (median_a, median_b) = (median(a), median(b));
    let (quartiles_a, quartiles_b) = (quartiles(a), quartiles(b));
    let spread = |(q1, q3): (f64, f64), m: f64| (q3 - q1) / m.abs().max(f64::MIN_POSITIVE);
    let wide = spread(quartiles_a, median_a).max(spread(quartiles_b, median_b)) > def.bound;
    let gain = (median_b - median_a) / median_a.abs().max(f64::MIN_POSITIVE)
        * if def.better == Better::Higher {
            1.0
        } else {
            -1.0
        };
    let verdict = if wide && won < pairs && lost < pairs {
        Verdict::Unresolved
    } else if gain > 0.0
        && won / pairs >= 0.9
        && (median_b - median_a).abs() > quartiles_a.1 - quartiles_a.0
    {
        Verdict::Improved
    } else if gain < -def.bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Comparison {
        median_a,
        quartiles_a,
        median_b,
        quartiles_b,
        wins: won / pairs,
        verdict,
    }
}

/// One results row as `compare` needs it.
#[derive(Debug)]
struct Row {
    workload: String,
    seed: u64,
    digest: String,
    metrics: BTreeMap<String, f64>,
}

fn read_rows(paths: &[String]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let json = patlabor_serve::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
            let field = |k: &str| {
                json.get(k)
                    .ok_or_else(|| format!("{path}:{}: no \"{k}\"", n + 1))
            };
            let metrics = match field("metrics")? {
                Json::Obj(pairs) => pairs
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                    .collect(),
                _ => BTreeMap::new(),
            };
            rows.push(Row {
                workload: field("workload")?.as_str().unwrap_or_default().to_string(),
                seed: field("seed")?.as_u64().unwrap_or_default(),
                digest: field("frontier_digest")?
                    .as_str()
                    .unwrap_or_default()
                    .to_string(),
                metrics,
            });
        }
    }
    Ok(rows)
}

fn rows_of<'a>(rows: &'a [Row], workload: &str) -> Vec<&'a Row> {
    rows.iter().filter(|r| r.workload == workload).collect()
}

fn values(rows: &[&Row], name: &str) -> Vec<f64> {
    rows.iter()
        .filter_map(|r| r.metrics.get(name).copied())
        .collect()
}

/// Runs `compare`; returns the exit code (1 if any metric regressed).
pub fn main(args: &[String]) -> i32 {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: benchmark compare A.json… -- B.json…");
        return 2;
    };
    let (a, b) = match (read_rows(&args[..split]), read_rows(&args[split + 1..])) {
        (Ok(a), Ok(b)) if !a.is_empty() && !b.is_empty() => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return 2;
        }
        _ => {
            eprintln!("benchmark compare: each side needs at least one row");
            return 2;
        }
    };
    let mut regressed = false;
    for workload in Workload::ALL.iter().map(|w| w.name()) {
        let (ra, rb) = (rows_of(&a, workload), rows_of(&b, workload));
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        println!("{workload}: {} runs (A) vs {} runs (B)", ra.len(), rb.len());
        println!(
            "  {:<12} {:>12} {:>25}   {:>12} {:>25}   {:>5}  verdict",
            "metric", "A median", "A quartiles", "B median", "B quartiles", "wins"
        );
        for def in &E2E {
            let (va, vb) = (values(&ra, def.name), values(&rb, def.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let c = compare(def, &va, &vb);
            regressed |= c.verdict == Verdict::Regressed;
            println!(
                "  {:<12} {:>12.5} [{:>11.5}, {:>11.5}]   {:>12.5} [{:>11.5}, {:>11.5}]   {:>4.0}%  {} ({} is better, bound {:.0}%)",
                def.name,
                c.median_a,
                c.quartiles_a.0,
                c.quartiles_a.1,
                c.median_b,
                c.quartiles_b.0,
                c.quartiles_b.1,
                c.wins * 100.0,
                c.verdict.label(),
                def.better.label(),
                def.bound * 100.0
            );
        }
        let mut shared = 0;
        let mut differing = Vec::new();
        for x in &ra {
            for y in rb.iter().filter(|y| y.seed == x.seed) {
                shared += 1;
                if x.digest != y.digest {
                    differing.push(x.seed);
                }
            }
        }
        if shared > 0 {
            println!(
                "  frontier_digest: {} of {shared} same-seed pairs identical{}",
                shared - differing.len(),
                if differing.is_empty() {
                    String::new()
                } else {
                    format!(" (differs for seeds {differing:?})")
                }
            );
        }
        println!("  per-layer medians (A → B):");
        let names: std::collections::BTreeSet<&String> =
            ra.iter().flat_map(|r| r.metrics.keys()).collect();
        for name in names
            .into_iter()
            .filter(|n| !E2E.iter().any(|d| d.name == n.as_str()))
        {
            let (va, vb) = (values(&ra, name), values(&rb, name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let (q1, q3) = quartiles(&va);
            let moved = (mb - ma).abs() > (q3 - q1) && ma != mb;
            let delta = if ma == 0.0 {
                String::from("     —")
            } else {
                format!("{:+6.1}%", (mb - ma) / ma.abs() * 100.0)
            };
            println!(
                "    {name:<36} {ma:>14.5} → {mb:>14.5}  {delta}{}",
                if moved { "  moved" } else { "" }
            );
        }
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const THROUGHPUT: Def = Def {
        name: "ops_per_cpu_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.05,
    };
    const LATENCY: Def = Def {
        name: "p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.05,
    };

    #[test]
    fn same_distribution_is_unchanged() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let c = compare(&THROUGHPUT, &a, &a);
        assert_eq!(c.verdict, Verdict::Unchanged);
        assert_eq!(c.median_a, c.median_b);
    }

    #[test]
    fn clear_gain_is_improved_and_clear_loss_regressed() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [110.0, 111.0, 109.0, 110.5, 109.5];
        let c = compare(&THROUGHPUT, &a, &b);
        assert_eq!((c.verdict, c.wins), (Verdict::Improved, 1.0));
        assert_eq!(compare(&THROUGHPUT, &b, &a).verdict, Verdict::Regressed);
        // Direction follows `better`: higher latency is the regression.
        assert_eq!(compare(&LATENCY, &a, &b).verdict, Verdict::Regressed);
        assert_eq!(compare(&LATENCY, &b, &a).verdict, Verdict::Improved);
    }

    #[test]
    fn a_small_loss_within_the_bound_is_unchanged() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [97.0, 98.0, 96.0, 97.5, 96.5];
        assert_eq!(compare(&THROUGHPUT, &a, &b).verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_gain_needing_nine_tenths_of_pairs() {
        // Medians 3% apart but B wins only some pairs: not a gain.
        let a = [100.0, 102.0, 98.0, 103.0, 97.0];
        let b = [103.0, 101.0, 104.0, 99.0, 106.0];
        let c = compare(&THROUGHPUT, &a, &b);
        assert!(c.wins < 0.9);
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn wide_interleaved_spread_is_unresolved_unless_b_wins_every_pair() {
        let a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let b = [70.0, 95.0, 115.0, 85.0, 60.0];
        assert_eq!(compare(&THROUGHPUT, &a, &b).verdict, Verdict::Unresolved);
        // Just as wide, but every B run beats every A run.
        let b = [130.0, 150.0, 170.0, 140.0, 160.0];
        let c = compare(&THROUGHPUT, &a, &b);
        assert_eq!((c.verdict, c.wins), (Verdict::Improved, 1.0));
        // Every B run loses to every A run: a resolved regression.
        let b = [30.0, 50.0, 70.0, 40.0, 60.0];
        assert_eq!(compare(&THROUGHPUT, &a, &b).verdict, Verdict::Regressed);
    }
}
