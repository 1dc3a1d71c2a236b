//! Metric definitions, a run's measured values, and the three ways a run
//! is written out: `name value unit` lines, the final JSON line, and the
//! `--out` results row.

use std::fmt::Write as _;

use patlabor_serve::Json;

use crate::host::HostSpeed;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric the final JSON line carries. `bound` is the share of the
/// baseline median an end-to-end metric may worsen by before a change
/// counts as a regression (0 for per-layer metrics, which have none).
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off on every workload. The
/// timings are scaled to a fixed machine speed (see `host`). On a
/// shared 2-vCPU machine whole runs still spread by up to ~15% after
/// that, so every bound is 25% (see README.md).
pub const E2E: [Def; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_cpu_s", "1/s", Higher, 0.25),
    e2e("p50_ms", "ms", Lower, 0.25),
    e2e("p90_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Per-layer metrics of the traced run's final line. A counter or ratio
/// of a layer the workload does not exercise reads 0 there. Layer times
/// that only some workloads exercise (local search, ECO, serve, loadgen)
/// are printed as lines and written to results rows, but kept out of this
/// list: on most workloads they would read 0 on every run. `p99_ms`
/// leads the list: it is the end-to-end tail, demoted because a run's
/// p99 swings with a few stalls on a shared machine.
pub const PER_LAYER: [Def; 44] = [
    layer("p99_ms", "ms", Lower),
    layer("lut.build_s", "s", Lower),
    layer("lut.open_ms", "ms", Lower),
    layer("lut.classify_ns", "ns", Lower),
    layer("lut.lookup_ns", "ns", Lower),
    layer("lut.score_ns", "ns", Lower),
    layer("lut.materialize_ns", "ns", Lower),
    layer("lut.candidates_per_net", "count", Lower),
    layer("lut.survivors_per_net", "count", Lower),
    layer("lut.survivor_ratio", "ratio", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.bypassed", "count", Lower),
    layer("cache.contended", "count", Lower),
    layer("cache.probe_ns", "ns", Lower),
    layer("cache.insert_ns", "ns", Lower),
    layer("engine.route_us_p50", "us", Lower),
    layer("engine.route_us_p99", "us", Lower),
    layer("engine.validate_ns", "ns", Lower),
    layer("engine.source.exact-lut_ratio", "ratio", Lower),
    layer("engine.source.cache-hit_ratio", "ratio", Higher),
    layer("engine.source.local-search_ratio", "ratio", Lower),
    layer("engine.source.reused_ratio", "ratio", Higher),
    layer("engine.source.numeric-dw_ratio", "ratio", Lower),
    layer("engine.source.baseline_ratio", "ratio", Lower),
    layer("local_search.rounds_per_net", "count", Lower),
    layer("local_search.candidates_per_net", "count", Lower),
    layer("local_search.hypervolume", "ratio", Higher),
    layer("batch.utilization", "ratio", Higher),
    layer("batch.min_worker_utilization", "ratio", Higher),
    layer("batch.steals", "count", Lower),
    layer("batch.failed_steals", "count", Lower),
    layer("eco.preserving_ratio", "ratio", Higher),
    layer("eco.replay_ratio", "ratio", Higher),
    layer("serve.batch_mean", "count", Higher),
    layer("serve.queue_depth_mean", "count", Lower),
    layer("serve.queue_depth_max", "count", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.slo_rps", "1/s", Higher),
    layer("wire.request_encode_us", "us", Lower),
    layer("wire.request_parse_us", "us", Lower),
    layer("wire.reply_render_us", "us", Lower),
    layer("wire.reply_parse_us", "us", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub hardware_threads: usize,
    /// Every metric measured, in the order measured.
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub digest: u64,
    pub trace_path: Option<String>,
    /// The machine's speed over the run, which the end-to-end timings are
    /// scaled by.
    pub host: HostSpeed,
}

impl Run {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        debug_assert!(value.is_finite(), "{name} = {value}");
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// The `name value unit` lines.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{name} {value} {unit}");
        }
        let _ = writeln!(out, "fail_ratio {} fraction", self.fail_ratio());
        let _ = writeln!(out, "hardware_threads {} count", self.hardware_threads);
        let _ = writeln!(out, "frontier_digest {:016x} hex", self.digest);
        out
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The final JSON line: the end-to-end metrics, or the per-layer
    /// ones for a traced run. An end-to-end metric the run did not
    /// measure is an error; a per-layer one reads 0.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let defs: &[Def] = if traced { &PER_LAYER } else { &E2E };
        let mut metrics = Vec::with_capacity(defs.len());
        for def in defs {
            let value = match self.get(def.name) {
                None if traced => 0.0,
                v => v
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| format!("metric {} was not measured", def.name))?,
            };
            metrics.push((
                def.name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Float(value)),
                    ("unit".to_string(), Json::Str(def.unit.to_string())),
                ]),
            ));
        }
        Ok(Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Int(self.attempted as i64)),
            ("failed".to_string(), Json::Int(self.failed as i64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .render())
    }

    /// One results row for `--out`, read back by `compare`.
    pub fn row(&self, git_rev: &str) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Float(*value)),
                        ("unit".to_string(), Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("workload".to_string(), Json::Str(self.workload.to_string())),
            ("seed".to_string(), Json::Int(self.seed as i64)),
            (
                "hardware_threads".to_string(),
                Json::Int(self.hardware_threads as i64),
            ),
            ("git_rev".to_string(), Json::Str(git_rev.to_string())),
            ("run_seconds".to_string(), Json::Float(self.seconds)),
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Int(self.attempted as i64)),
            ("failed".to_string(), Json::Int(self.failed as i64)),
            ("metrics".to_string(), Json::Obj(metrics)),
            (
                "frontier_digest".to_string(),
                Json::Str(format!("{:016x}", self.digest)),
            ),
            (
                "trace_path".to_string(),
                self.trace_path.clone().map_or(Json::Null, Json::Str),
            ),
        ])
        .render()
    }
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// metrics, with these units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = patlabor_serve::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", &E2E[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = doc.get(key).and_then(Json::as_array).expect("metric list");
            assert_eq!(listed.len(), defs.len(), "{key} count");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(def.better.label())
                );
                if key == "end_to_end" {
                    assert_eq!(
                        entry.get("bound").and_then(Json::as_f64),
                        Some(def.bound),
                        "{}",
                        def.name
                    );
                }
            }
        }
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_requires_every_end_to_end_metric() {
        let mut run = Run {
            correct: true,
            attempted: 10,
            ..Run::default()
        };
        for def in E2E {
            run.push(def.name, 1.5, def.unit);
        }
        let line = run.result_line(false).unwrap();
        let parsed = patlabor_serve::parse(&line).unwrap();
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(10));
        let value = parsed
            .get("metrics")
            .and_then(|m| m.get("p90_ms"))
            .and_then(|m| m.get("value"));
        assert_eq!(value.and_then(Json::as_f64), Some(1.5));
        run.push("trace.coverage", 0.9, "ratio");
        let traced = patlabor_serve::parse(&run.result_line(true).unwrap()).unwrap();
        let layer = |name: &str| traced.get("metrics")?.get(name)?.get("value")?.as_f64();
        assert_eq!(
            (layer("trace.coverage"), layer("serve.slo_rps")),
            (Some(0.9), Some(0.0))
        );
        run.metrics.retain(|(name, _, _)| name != "p90_ms");
        assert!(
            run.result_line(false).is_err(),
            "an end-to-end metric missing"
        );
    }
}
