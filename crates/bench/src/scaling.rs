//! Shared schema for the parallel-scaling benches.
//!
//! `BENCH_PR7.json` (`bin/scaling.rs`) sweeps the batch driver across
//! thread counts; `BENCH_PR8.json` (`bin/loadgen.rs`) and
//! `BENCH_PR9.json` (`bin/eco.rs`) reuse the same report layout. The
//! schema's load-bearing rule: **oversubscribed
//! rows are structurally separated**. A run with more worker threads
//! than hardware threads measures scheduler time-slicing, not scaling,
//! so it lives in a distinct `oversubscribed_runs` array that no
//! consumer can mistake for the scaling curve — the separation is a
//! field, not a prose caveat.

use std::fmt::Write as _;

/// One measured batch-routing run at a fixed thread count.
///
/// The first five fields are the common core; the `Option` telemetry
/// (worker utilization, steal counts, lock contention) comes from
/// `route_batch_with_stats`. `None` fields are absent from the JSON
/// rather than zero-filled, so "not measured" and "measured zero"
/// stay distinguishable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScalingRun {
    /// Worker threads requested.
    pub threads: usize,
    /// Frontier cache enabled.
    pub cache: bool,
    /// Nets routed per wall-clock second.
    pub nets_per_sec: f64,
    /// Aggregate cache hit rate (0 when the cache is off).
    pub cache_hit_rate: f64,
    /// Throughput relative to the serial cache-off baseline.
    pub speedup_vs_serial: f64,
    /// Mean worker utilization: Σ busy-ns / (elapsed × workers).
    pub utilization: Option<f64>,
    /// The least-utilized worker's busy fraction (a load-balance floor).
    pub min_worker_utilization: Option<f64>,
    /// Successful interval steals across all workers.
    pub steals: Option<u64>,
    /// Lost steal races across all workers.
    pub failed_steals: Option<u64>,
    /// Cache read-lock acquisitions that found the shard lock held.
    pub contended_reads: Option<u64>,
    /// Cache write-lock acquisitions that found the shard lock held.
    pub contended_writes: Option<u64>,
}

impl ScalingRun {
    /// Whether this run used more workers than the machine has hardware
    /// threads.
    pub fn oversubscribed(&self, hardware_threads: usize) -> bool {
        self.threads > hardware_threads
    }

    /// The row as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"threads\": {}, \"cache\": {}, \"nets_per_sec\": {:.2}, \
             \"cache_hit_rate\": {:.4}, \"speedup_vs_serial\": {:.4}",
            self.threads, self.cache, self.nets_per_sec, self.cache_hit_rate, self.speedup_vs_serial
        );
        if let Some(u) = self.utilization {
            let _ = write!(s, ", \"utilization\": {u:.4}");
        }
        if let Some(u) = self.min_worker_utilization {
            let _ = write!(s, ", \"min_worker_utilization\": {u:.4}");
        }
        if let Some(n) = self.steals {
            let _ = write!(s, ", \"steals\": {n}");
        }
        if let Some(n) = self.failed_steals {
            let _ = write!(s, ", \"failed_steals\": {n}");
        }
        if let Some(n) = self.contended_reads {
            let _ = write!(s, ", \"contended_reads\": {n}");
        }
        if let Some(n) = self.contended_writes {
            let _ = write!(s, ", \"contended_writes\": {n}");
        }
        s.push('}');
        s
    }
}

/// Renders a JSON array of rows at the given indent.
fn rows_json(rows: &[&ScalingRun], indent: &str) -> String {
    if rows.is_empty() {
        return "[]".to_string();
    }
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(s, "{indent}  {}{comma}", r.to_json());
    }
    let _ = write!(s, "{indent}]");
    s
}

/// One measured serving run — the serve bench's (`bin/loadgen.rs`,
/// `BENCH_PR8.json`) row type. It rides the
/// same `scaling-v1` report as [`ScalingRun`]: loadgen reports its
/// serve rows through [`render_report`]'s `extra` splice (rendered by
/// [`serve_rows_json`]) so the preamble, schema tag, and notes field
/// stay byte-compatible with the batch benches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeRun {
    /// Closed-loop client connections driving the daemon.
    pub connections: usize,
    /// Requests sent (valid route requests only).
    pub requests: usize,
    /// Replies with `ok: true`.
    pub ok: u64,
    /// Ok replies that were served degraded (a lower rung answered).
    pub degraded: u64,
    /// Admission-control rejections (`"overloaded"`).
    pub rejected: u64,
    /// Completed requests per wall-clock second at saturation.
    pub throughput_rps: f64,
    /// Fresh connection: connect + first request + first reply, µs.
    pub open_to_first_response_us: f64,
    /// Request-to-reply latency percentiles under load, µs.
    pub p50_us: f64,
    /// 99th percentile latency, µs.
    pub p99_us: f64,
    /// 99.9th percentile latency, µs.
    pub p999_us: f64,
    /// Mean nets per coalesced batch (batched_nets / batches), when the
    /// daemon's metrics plane was scraped.
    pub mean_batch: Option<f64>,
    /// Backoff retries clients spent on `overloaded` rejections before
    /// an answer — `None` for rows measured before retry budgets
    /// existed (absent, not zeroed, like `mean_batch`).
    pub retries: Option<u64>,
}

impl ServeRun {
    /// The row as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"connections\": {}, \"requests\": {}, \
             \"ok\": {}, \"degraded\": {}, \"rejected\": {}, \
             \"throughput_rps\": {:.2}, \"open_to_first_response_us\": {:.1}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}",
            self.connections,
            self.requests,
            self.ok,
            self.degraded,
            self.rejected,
            self.throughput_rps,
            self.open_to_first_response_us,
            self.p50_us,
            self.p99_us,
            self.p999_us,
        );
        if let Some(b) = self.mean_batch {
            let _ = write!(s, ", \"mean_batch\": {b:.2}");
        }
        if let Some(r) = self.retries {
            let _ = write!(s, ", \"retries\": {r}");
        }
        s.push('}');
        s
    }
}

/// Renders serve rows as a JSON array at the given indent — the value
/// side of a `"serve_runs": ...` line in [`render_report`]'s `extra`.
pub fn serve_rows_json(rows: &[ServeRun], indent: &str) -> String {
    if rows.is_empty() {
        return "[]".to_string();
    }
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(s, "{indent}  {}{comma}", r.to_json());
    }
    let _ = write!(s, "{indent}]");
    s
}

/// The preamble fields both benches agree on.
pub struct ReportHeader<'a> {
    pub bench: &'a str,
    pub nets: usize,
    pub seed: u64,
    pub hardware_threads: usize,
    pub serial_nets_per_sec: f64,
}

/// Renders the shared report body: the header preamble, plus runs
/// split into `scaling_runs` (threads ≤ hardware — real scaling data)
/// and `oversubscribed_runs` (kept for the record, never scaling
/// data). `extra` is spliced verbatim after the split arrays for
/// bench-specific fields (headline, verdicts, sweeps); pass complete
/// `  "key": value,`-style lines or an empty string.
pub fn render_report(
    header: &ReportHeader<'_>,
    runs: &[ScalingRun],
    extra: &str,
    notes: &str,
) -> String {
    let hardware_threads = header.hardware_threads;
    let scaling: Vec<&ScalingRun> = runs
        .iter()
        .filter(|r| !r.oversubscribed(hardware_threads))
        .collect();
    let oversub: Vec<&ScalingRun> = runs
        .iter()
        .filter(|r| r.oversubscribed(hardware_threads))
        .collect();
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"{}\",", header.bench);
    let _ = writeln!(json, "  \"schema\": \"scaling-v1\",");
    let _ = writeln!(json, "  \"nets\": {},", header.nets);
    let _ = writeln!(json, "  \"seed\": {},", header.seed);
    let _ = writeln!(json, "  \"hardware_threads\": {hardware_threads},");
    let _ = writeln!(
        json,
        "  \"serial_nets_per_sec\": {:.2},",
        header.serial_nets_per_sec
    );
    let _ = writeln!(json, "  \"scaling_runs\": {},", rows_json(&scaling, "  "));
    let _ = writeln!(
        json,
        "  \"oversubscribed_runs\": {},",
        rows_json(&oversub, "  ")
    );
    json.push_str(extra);
    let _ = writeln!(json, "  \"notes\": \"{notes}\"");
    let _ = writeln!(json, "}}");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(hardware_threads: usize) -> ReportHeader<'static> {
        ReportHeader {
            bench: "t",
            nets: 10,
            seed: 1,
            hardware_threads,
            serial_nets_per_sec: 100.0,
        }
    }

    fn run(threads: usize) -> ScalingRun {
        ScalingRun {
            threads,
            cache: false,
            nets_per_sec: 100.0,
            cache_hit_rate: 0.0,
            speedup_vs_serial: 1.0,
            ..ScalingRun::default()
        }
    }

    #[test]
    fn oversubscription_is_a_structural_split_not_a_caveat() {
        let runs = vec![run(1), run(2), run(8)];
        let json = render_report(&header(2), &runs, "", "n");
        // Rows with threads ≤ hardware land in scaling_runs; the
        // 8-thread row must be in oversubscribed_runs only.
        let scaling_part = json
            .split("\"oversubscribed_runs\"")
            .next()
            .unwrap()
            .to_string();
        assert!(scaling_part.contains("\"threads\": 1"));
        assert!(scaling_part.contains("\"threads\": 2"));
        assert!(!scaling_part.contains("\"threads\": 8"));
        let oversub_part = json.split("\"oversubscribed_runs\"").nth(1).unwrap();
        assert!(oversub_part.contains("\"threads\": 8"));
        assert!(json.contains("\"schema\": \"scaling-v1\""));
    }

    #[test]
    fn optional_telemetry_is_absent_not_zeroed() {
        let bare = run(1).to_json();
        assert!(!bare.contains("steals"));
        assert!(!bare.contains("utilization"));
        let full = ScalingRun {
            steals: Some(3),
            utilization: Some(0.5),
            contended_writes: Some(0),
            ..run(1)
        }
        .to_json();
        assert!(full.contains("\"steals\": 3"));
        assert!(full.contains("\"utilization\": 0.5000"));
        assert!(full.contains("\"contended_writes\": 0"));
    }

    #[test]
    fn serve_rows_splice_into_the_shared_report() {
        let rows = vec![
            ServeRun {
                connections: 4,
                requests: 500,
                ok: 500,
                throughput_rps: 1234.5,
                open_to_first_response_us: 321.0,
                p50_us: 100.0,
                p99_us: 900.0,
                p999_us: 1500.0,
                mean_batch: Some(3.2),
                retries: Some(7),
                ..ServeRun::default()
            },
            ServeRun::default(),
        ];
        let extra = format!("  \"serve_runs\": {},\n", serve_rows_json(&rows, "  "));
        let json = render_report(&header(4), &[], &extra, "n");
        assert!(json.contains("\"schema\": \"scaling-v1\""));
        assert!(json.contains("\"serve_runs\": ["));
        assert!(json.contains("\"throughput_rps\": 1234.50"));
        assert!(json.contains("\"mean_batch\": 3.20"));
        assert!(json.contains("\"retries\": 7"));
        // The unscraped row omits mean_batch instead of zero-filling
        // it, and pre-retry-budget rows omit retries the same way.
        let bare = ServeRun::default().to_json();
        assert!(!bare.contains("mean_batch"));
        assert!(!bare.contains("retries"));
        // Splicing keeps the report a single well-formed object: the
        // notes line still closes it.
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn empty_split_renders_an_empty_array() {
        let json = render_report(&header(4), &[run(1)], "", "n");
        assert!(json.contains("\"oversubscribed_runs\": [],"));
    }
}
