//! The serving metrics plane: lock-free counters and a log₂ latency
//! histogram, rendered as Prometheus-style text exposition.
//!
//! Routing outcomes (responses, route errors, deadline hits, served by
//! rung) are not counted here: `/metrics` renders those families from
//! the server's [`ResilienceReport`], the same tally the shutdown
//! summary returns, so the two can never disagree. A scrape holds the
//! report's lock while it renders the exposition.
//!
//! Every counter is a plain relaxed `AtomicU64` — the hot path (request
//! accept, batch close, reply send) only ever increments, and the
//! scrape path only ever reads. The histogram buckets latencies by
//! `floor(log₂(ns))`: 64 fixed buckets cover 1 ns to ~584 years with
//! ~2× resolution, which is exactly the precision a percentile over a
//! serving distribution needs (p99 at 2× resolution distinguishes
//! "microseconds" from "milliseconds" from "seconds", the operational
//! question), for 512 bytes of memory and one atomic add per sample.

use std::sync::atomic::{AtomicU64, Ordering};

use patlabor::{CacheStats, ResilienceReport, Rung};

use crate::chaos::TransportFaultKind;

use std::fmt::Write as _;

/// Latency histogram with power-of-two buckets.
///
/// `record` is wait-free (one relaxed fetch-add); `quantile` takes a
/// relaxed snapshot and scans 64 words. Concurrent recording during a
/// scan can skew a quantile by at most the samples that arrived
/// mid-scan — acceptable for monitoring, which is this type's only
/// consumer.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. Zero-nanosecond samples land in bucket 0.
    pub fn record(&self, ns: u64) {
        let bucket = 63 - ns.max(1).leading_zeros() as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// The geometric midpoint (in ns) of the bucket containing the
    /// `q`-th quantile (`0.0 ≤ q ≤ 1.0`), or `None` with no samples.
    ///
    /// The midpoint `√(lo·hi) = lo·√2` is the minimax estimator for a
    /// log₂ bucket: the true quantile lies within √2 (~41%) of the
    /// reported value in either direction. Reporting the bucket's
    /// *upper* bound — the previous behavior — biased every quantile
    /// high by up to 2×, which made p50 read as double the real median
    /// for workloads sitting at the bottom of a bucket.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        let snapshot: [u64; 64] = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let total: u64 = snapshot.iter().sum();
        if total == 0 {
            return None;
        }
        // ceil(q × total), clamped to [1, total]: the rank of the
        // sample we want.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, n) in snapshot.iter().enumerate() {
            seen += n;
            if seen >= rank {
                if i >= 63 {
                    // The top bucket's upper edge overflows u64; keep
                    // the sentinel rather than a fabricated midpoint.
                    return Some(u64::MAX);
                }
                let lo = 1u64 << i;
                return Some(lo + (lo as f64 * (std::f64::consts::SQRT_2 - 1.0)) as u64);
            }
        }
        None
    }
}

/// The transport and admission counters. One instance per server,
/// shared by every connection thread and the batcher.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests admitted into the queue.
    pub requests: AtomicU64,
    /// Admission-control rejections (`"error": "overloaded"`).
    pub rejected: AtomicU64,
    /// Drain-mode rejections (`"error": "shutting-down"`).
    pub shed_shutdown: AtomicU64,
    /// Unparseable frames (`"error": "malformed"`).
    pub malformed: AtomicU64,
    /// Batches the batcher routed through the batch driver.
    pub batches: AtomicU64,
    /// Requests routed in those batches.
    pub batched_nets: AtomicU64,
    /// Current queue depth (gauge, not a counter).
    pub queue_depth: AtomicU64,
    /// Enqueue-to-reply latency of successful responses.
    pub latency: LatencyHistogram,
    /// Enqueue-to-batch-start wait of every request routed in a batch:
    /// the part of a request's latency spent queued before routing.
    pub queue_wait: LatencyHistogram,
    /// Connections killed by the mid-frame read watchdog (a peer sent
    /// part of a frame and stalled past the stall budget).
    pub read_timeouts: AtomicU64,
    /// Connections whose write half hit the socket write deadline
    /// (the peer stopped reading its replies).
    pub write_timeouts: AtomicU64,
    /// Slow clients evicted because their bounded reply buffer filled
    /// (the batcher never blocks on one connection).
    pub evicted: AtomicU64,
    /// Successful hot table reloads.
    pub reloads: AtomicU64,
    /// Rejected hot table reloads — the old table kept serving.
    pub reload_failed: AtomicU64,
    /// Chaos-plane injections by [`TransportFaultKind::index`].
    pub chaos_injected: [AtomicU64; TransportFaultKind::COUNT],
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Relaxed add on a named counter (the only mutation idiom).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Relaxed read.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Renders the Prometheus text exposition. `report` is the server's
    /// tally of routed requests; `cache` is the engine's live cache
    /// counters (absent when the frontier cache is disabled);
    /// `table_epoch` is the engine's serving table generation.
    pub fn render(
        &self,
        report: &ResilienceReport,
        cache: Option<&CacheStats>,
        table_epoch: u64,
    ) -> String {
        let mut out = String::new();
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter(
            &mut out,
            "patlabor_requests_total",
            "Requests admitted into the batch queue.",
            Self::get(&self.requests),
        );
        counter(
            &mut out,
            "patlabor_responses_total",
            "Requests answered with a frontier.",
            report.served,
        );
        counter(
            &mut out,
            "patlabor_route_errors_total",
            "Responses carrying a structured routing error.",
            report.errors,
        );
        let _ = writeln!(
            out,
            "# HELP patlabor_rejected_total Requests rejected before routing, by reason."
        );
        let _ = writeln!(out, "# TYPE patlabor_rejected_total counter");
        let _ = writeln!(
            out,
            "patlabor_rejected_total{{reason=\"overloaded\"}} {}",
            Self::get(&self.rejected)
        );
        let _ = writeln!(
            out,
            "patlabor_rejected_total{{reason=\"shutting-down\"}} {}",
            Self::get(&self.shed_shutdown)
        );
        let _ = writeln!(
            out,
            "patlabor_rejected_total{{reason=\"malformed\"}} {}",
            Self::get(&self.malformed)
        );
        counter(
            &mut out,
            "patlabor_deadline_hits_total",
            "Routed requests whose degradation trace recorded an expired deadline.",
            report.deadline_hits,
        );
        counter(
            &mut out,
            "patlabor_batches_total",
            "Batches routed through the batch driver.",
            Self::get(&self.batches),
        );
        counter(
            &mut out,
            "patlabor_batched_nets_total",
            "Requests routed in those batches.",
            Self::get(&self.batched_nets),
        );
        let _ = writeln!(out, "# HELP patlabor_queue_depth Requests currently queued.");
        let _ = writeln!(out, "# TYPE patlabor_queue_depth gauge");
        let _ = writeln!(out, "patlabor_queue_depth {}", Self::get(&self.queue_depth));
        let _ = writeln!(
            out,
            "# HELP patlabor_served_by_rung_total Served responses by degradation-ladder rung."
        );
        let _ = writeln!(out, "# TYPE patlabor_served_by_rung_total counter");
        for rung in Rung::ALL {
            let _ = writeln!(
                out,
                "patlabor_served_by_rung_total{{rung=\"{}\"}} {}",
                rung.label(),
                report.served_by[rung.index()]
            );
        }
        let _ = writeln!(
            out,
            "# HELP patlabor_conn_timeouts_total Connections killed by a socket deadline, by side."
        );
        let _ = writeln!(out, "# TYPE patlabor_conn_timeouts_total counter");
        let _ = writeln!(
            out,
            "patlabor_conn_timeouts_total{{side=\"read\"}} {}",
            Self::get(&self.read_timeouts)
        );
        let _ = writeln!(
            out,
            "patlabor_conn_timeouts_total{{side=\"write\"}} {}",
            Self::get(&self.write_timeouts)
        );
        counter(
            &mut out,
            "patlabor_evicted_total",
            "Slow clients evicted (bounded reply buffer filled).",
            Self::get(&self.evicted),
        );
        let _ = writeln!(
            out,
            "# HELP patlabor_reloads_total Hot table reload attempts, by result."
        );
        let _ = writeln!(out, "# TYPE patlabor_reloads_total counter");
        let _ = writeln!(
            out,
            "patlabor_reloads_total{{result=\"ok\"}} {}",
            Self::get(&self.reloads)
        );
        let _ = writeln!(
            out,
            "patlabor_reloads_total{{result=\"failed\"}} {}",
            Self::get(&self.reload_failed)
        );
        let _ = writeln!(
            out,
            "# HELP patlabor_table_epoch The serving table generation (0 = boot table)."
        );
        let _ = writeln!(out, "# TYPE patlabor_table_epoch gauge");
        let _ = writeln!(out, "patlabor_table_epoch {table_epoch}");
        let _ = writeln!(
            out,
            "# HELP patlabor_chaos_injected_total Transport faults injected by the chaos plane, by kind."
        );
        let _ = writeln!(out, "# TYPE patlabor_chaos_injected_total counter");
        for kind in TransportFaultKind::ALL {
            let _ = writeln!(
                out,
                "patlabor_chaos_injected_total{{kind=\"{}\"}} {}",
                kind.label(),
                Self::get(&self.chaos_injected[kind.index()])
            );
        }
        summary(
            &mut out,
            "patlabor_latency_seconds",
            "Enqueue-to-reply latency quantiles",
            &self.latency,
        );
        summary(
            &mut out,
            "patlabor_queue_wait_seconds",
            "Enqueue-to-batch-start wait quantiles",
            &self.queue_wait,
        );
        if let Some(stats) = cache {
            counter(
                &mut out,
                "patlabor_cache_hits_total",
                "Frontier-cache hits.",
                stats.hits,
            );
            counter(
                &mut out,
                "patlabor_cache_misses_total",
                "Frontier-cache misses.",
                stats.misses,
            );
            let probes = stats.hits + stats.misses;
            let rate = if probes == 0 {
                0.0
            } else {
                stats.hits as f64 / probes as f64
            };
            let _ = writeln!(
                out,
                "# HELP patlabor_cache_hit_rate Frontier-cache hit rate over all probes."
            );
            let _ = writeln!(out, "# TYPE patlabor_cache_hit_rate gauge");
            let _ = writeln!(out, "patlabor_cache_hit_rate {rate:.6}");
            let _ = writeln!(
                out,
                "# HELP patlabor_cache_bypassed Whether the adaptive bypass retired the cache."
            );
            let _ = writeln!(out, "# TYPE patlabor_cache_bypassed gauge");
            let _ = writeln!(out, "patlabor_cache_bypassed {}", u64::from(stats.bypassed));
            counter(
                &mut out,
                "patlabor_cache_contended_reads_total",
                "Cache shard read locks found held.",
                stats.contended_reads,
            );
            counter(
                &mut out,
                "patlabor_cache_contended_writes_total",
                "Cache shard write locks found held.",
                stats.contended_writes,
            );
        }
        out
    }
}

/// Renders one histogram as a Prometheus summary: p50/p99/p999 (when
/// there are samples), `_sum` and `_count`, in seconds.
fn summary(out: &mut String, name: &str, help: &str, histogram: &LatencyHistogram) {
    let _ = writeln!(
        out,
        "# HELP {name} {help} (log2-bucket geometric midpoints, true value within sqrt(2))."
    );
    let _ = writeln!(out, "# TYPE {name} summary");
    for (label, q) in [("0.5", 0.5), ("0.99", 0.99), ("0.999", 0.999)] {
        if let Some(ns) = histogram.quantile_ns(q) {
            let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {:.9}", ns as f64 / 1e9);
        }
    }
    let _ = writeln!(out, "{name}_sum {:.9}", histogram.sum_ns() as f64 / 1e9);
    let _ = writeln!(out, "{name}_count {}", histogram.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_land_in_the_right_bucket() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_ns(0.5), None);
        // 90 samples at ~1µs, 10 at ~1ms: p50 must report the µs
        // bucket's midpoint, p999 the ms bucket's. 1 000 ns lands in
        // bucket 9 ([512, 1024)) whose geometric midpoint is 512·√2 ≈
        // 724; 1 000 000 ns lands in bucket 19 ([524288, 1048576)),
        // midpoint ≈ 741 455. The old upper-bound report would have
        // claimed 1 024 and 1 048 576 — overstating p50 by ~2×.
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let p50 = h.quantile_ns(0.5).unwrap();
        assert!((512..=1_024).contains(&p50), "{p50}");
        assert_eq!(p50, 724);
        let p999 = h.quantile_ns(0.999).unwrap();
        assert!((524_288..=1_048_576).contains(&p999), "{p999}");
        assert_eq!(p999, 741_455);
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum_ns(), 90 * 1_000 + 10 * 1_000_000);
        // q=0 is the minimum bucket, q=1 the maximum.
        assert!(h.quantile_ns(0.0).unwrap() <= 1_024);
        assert!(h.quantile_ns(1.0).unwrap() >= 524_288);
    }

    #[test]
    fn zero_and_max_samples_do_not_panic() {
        let h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_ns(1.0), Some(u64::MAX));
    }

    #[test]
    fn render_lists_every_documented_family() {
        let m = Metrics::new();
        Metrics::add(&m.requests, 3);
        Metrics::add(&m.rejected, 1);
        m.latency.record(5_000);
        m.queue_wait.record(2_000);
        m.queue_wait.record(3_000);
        let cache = CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        };
        let mut report = ResilienceReport {
            nets: 2,
            served: 2,
            ..ResilienceReport::default()
        };
        report.served_by[Rung::Lut.index()] = 2;
        let text = m.render(&report, Some(&cache), 3);
        for family in [
            "patlabor_requests_total 3",
            "patlabor_rejected_total{reason=\"overloaded\"} 1",
            "patlabor_rejected_total{reason=\"malformed\"} 0",
            "patlabor_responses_total 2",
            "patlabor_route_errors_total 0",
            "patlabor_deadline_hits_total 0",
            "patlabor_served_by_rung_total{rung=\"lut\"} 2",
            "patlabor_latency_seconds{quantile=\"0.5\"}",
            "patlabor_latency_seconds_count 1",
            "# TYPE patlabor_queue_wait_seconds summary",
            "patlabor_queue_wait_seconds{quantile=\"0.5\"}",
            "patlabor_queue_wait_seconds{quantile=\"0.999\"}",
            "patlabor_queue_wait_seconds_sum 0.000005000",
            "patlabor_queue_wait_seconds_count 2",
            "patlabor_queue_depth 0",
            "patlabor_cache_hit_rate 0.75",
            "patlabor_batches_total 0",
            "patlabor_conn_timeouts_total{side=\"read\"} 0",
            "patlabor_conn_timeouts_total{side=\"write\"} 0",
            "patlabor_evicted_total 0",
            "patlabor_reloads_total{result=\"ok\"} 0",
            "patlabor_reloads_total{result=\"failed\"} 0",
            "patlabor_table_epoch 3",
            "patlabor_chaos_injected_total{kind=\"torn-write\"} 0",
            "patlabor_chaos_injected_total{kind=\"corrupt-write\"} 0",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        // Cache families vanish when the cache is disabled.
        assert!(!m.render(&report, None, 0).contains("patlabor_cache"));
    }
}
