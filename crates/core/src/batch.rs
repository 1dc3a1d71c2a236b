//! Multithreaded batch routing.
//!
//! VLSI designs contain millions of nets and every net routes
//! independently, so the paper evaluates all methods with multithreading
//! (its footnote 4 chides YSD for comparing GPU batches against serial
//! SALT). This module provides the high-throughput driver,
//! [`Engine::route_batch_by`], that every batch entry point and the
//! serve daemon call: a shared queue of output chunks drained by scoped
//! threads over one [`Engine`] handle (the lookup tables are immutable
//! after construction, so one engine serves every thread).
//!
//! # Design
//!
//! The output vector is cut into fixed-size chunks with `chunks_mut`,
//! and the enumerated chunk iterator sits behind one `Mutex`. Each
//! worker takes the next chunk, fills its slots, and exits when the
//! iterator is empty. The lock is held only for the `next()` call, once
//! per chunk, never while a net routes. Because the chunks are disjoint
//! `&mut` slices, the borrow checker proves that no two workers write
//! one slot, and results come back in input order, bit-identical to a
//! serial loop, without any `unsafe`.
//!
//! Chunk size trades lock acquisitions against the tail: the worker
//! that takes the last chunk may still be routing it after the others
//! have finished. It is derived from the batch by one rule (see
//! [`auto_chunk`]).
//!
//! Every batch also returns per-worker telemetry ([`BatchStats`]): busy
//! nanoseconds, chunks and nets executed — the raw material of the
//! `scaling` bench's table and the `route --threads` report.

use std::any::Any;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use patlabor_geom::Net;

use crate::eco::DeltaJob;
use crate::engine::Engine;
use crate::pipeline::{RouteError, RouteResult};

/// Hard ceiling on the chunk size, and so on the nets one late claim can
/// leave running after the queue is empty.
const MAX_CHUNK: usize = 64;

/// Nets per chunk for a batch of `len` nets over `workers` workers:
/// `len / (workers × 4)`, clamped to `[1, 64]`.
///
/// Four chunks per worker keeps lock acquisitions few on small batches,
/// and the 64-net cap bounds how much work the last chunk claimed can
/// add after every other worker has run out.
fn auto_chunk(len: usize, workers: usize) -> usize {
    (len / (workers.max(1) * 4)).clamp(1, MAX_CHUNK)
}

/// One worker's telemetry for a batch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Nanoseconds spent executing chunks (routing nets), excluding
    /// queue waits and scheduler wait.
    pub busy_ns: u64,
    /// Chunks this worker executed.
    pub chunks: u64,
    /// Nets this worker routed.
    pub nets: u64,
}

/// Batch-level telemetry from the batch driver ([`Engine::route_batch_by`]):
/// what actually happened on each worker, so scaling claims can be
/// checked against per-thread utilization instead of inferred from
/// wall-clock alone.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Workers actually spawned (`min(threads, nets)`; 1 = serial path).
    pub workers: usize,
    /// Chunk size used: `nets / (workers × 4)` clamped to `[1, 64]`
    /// (the whole batch on the serial path).
    pub chunk_size: usize,
    /// Total chunks the batch was cut into.
    pub chunks: usize,
    /// Wall-clock time of the whole batch.
    pub elapsed_ns: u64,
    /// Per-worker telemetry, indexed by worker id.
    pub per_worker: Vec<WorkerStats>,
}

impl BatchStats {
    /// Wall-clock elapsed as a `Duration`.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.elapsed_ns)
    }

    /// Always 0 (the driver no longer steals); kept for the benchmark's `batch.steals`.
    pub fn total_steals(&self) -> u64 {
        0
    }

    /// Always 0 (the driver no longer steals); kept for the benchmark's `batch.failed_steals`.
    pub fn total_failed_steals(&self) -> u64 {
        0
    }

    /// Mean worker utilization: busy time across workers divided by
    /// `workers × elapsed`. 1.0 means every worker routed nets for the
    /// whole wall-clock window; the gap to 1.0 is scheduler wait, queue
    /// waits and exit skew. Meaningless (and typically ≪ 1) when the
    /// process is oversubscribed — more workers than hardware threads.
    pub fn utilization(&self) -> f64 {
        if self.workers == 0 || self.elapsed_ns == 0 {
            return 0.0;
        }
        let busy: u64 = self.per_worker.iter().map(|w| w.busy_ns).sum();
        busy as f64 / (self.elapsed_ns as f64 * self.workers as f64)
    }

    /// The least-utilized worker's busy fraction (the straggler bound:
    /// how much of the window the worst worker actually worked).
    pub fn min_worker_utilization(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.per_worker
            .iter()
            .map(|w| w.busy_ns as f64 / self.elapsed_ns as f64)
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }
}

/// Fills a `len`-slot output vector across `workers` scoped threads that
/// share one queue of `chunk`-slot output slices; `fill(i)` produces slot
/// `i`. Results are in index order, identical to a serial loop. Returns
/// the values and the per-worker telemetry.
///
/// Panic safety: if a `fill` call panics, the panicking worker unwinds,
/// the surviving workers keep draining every remaining chunk, the scope
/// joins and re-panics, and the unwind drops the output vector with
/// every slot already filled — nothing leaks.
fn fill_slots_parallel<T, F>(
    len: usize,
    workers: usize,
    chunk: usize,
    fill: F,
) -> (Vec<T>, Vec<WorkerStats>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(len, || None);
    let queue = Mutex::new(slots.chunks_mut(chunk).enumerate());
    let stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut stats = WorkerStats::default();
                    loop {
                        // The guard is a temporary of this statement, so
                        // the lock is released before the chunk is filled.
                        // `next()` is the only update and cannot panic, so
                        // a poisoned lock still guards a valid iterator.
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((c, out)) = next else { break };
                        let t0 = Instant::now();
                        for (slot, i) in out.iter_mut().zip(c * chunk..) {
                            *slot = Some(fill(i));
                        }
                        stats.busy_ns += t0.elapsed().as_nanos() as u64;
                        stats.chunks += 1;
                        stats.nets += out.len() as u64;
                    }
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let values = slots
        .into_iter()
        .map(|slot| slot.expect("every chunk is filled before its worker exits"))
        .collect();
    (values, stats)
}

/// Renders a caught panic payload for [`RouteError::Panicked`] (panics
/// raise `&str` or `String` in practice; anything else gets a marker).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Engine {
    /// Routes every net, spreading work over `threads` OS threads.
    ///
    /// `threads` is clamped to at least 1 (a zero request degrades to
    /// serial routing instead of panicking). Results are in input order
    /// and bit-identical to calling [`Engine::route`] per net (routing
    /// is deterministic, with or without the opt-in frontier cache, at
    /// every thread count).
    ///
    /// Each slot is that net's own [`RouteResult`]: a net the tables
    /// cannot serve yields `Err` in its slot without poisoning the rest
    /// of the batch, and a panic that escapes the routing ladder is
    /// caught per net ([`RouteError::Panicked`]) — one pathological net
    /// never takes the batch down.
    pub fn route_batch(&self, nets: &[Net], threads: usize) -> Vec<RouteResult> {
        self.route_batch_with_stats(nets, threads).0
    }

    /// [`Engine::route_batch`] plus the driver telemetry: per-worker
    /// busy time and chunk/net tallies ([`BatchStats`]). The scaling
    /// bench and `route --threads` read utilization from here instead of
    /// inferring it from wall clock.
    pub fn route_batch_with_stats(
        &self,
        nets: &[Net],
        threads: usize,
    ) -> (Vec<RouteResult>, BatchStats) {
        self.route_batch_by(nets.len(), threads, |i| self.route(&nets[i]))
    }

    /// Reroutes a batch of edits: [`Engine::route_batch_by`] over
    /// [`Engine::reroute_with_staleness`]. Each slot is one route of its
    /// edited net; only on an engine that opted into the frontier cache
    /// do class-preserving edits replay instead (provenance
    /// [`crate::RouteSource::Reused`]).
    pub fn route_batch_deltas(
        &self,
        jobs: &[DeltaJob],
        threads: usize,
    ) -> (Vec<RouteResult>, BatchStats) {
        self.route_batch_by(jobs.len(), threads, |i| {
            let job = &jobs[i];
            self.reroute_with_staleness(&job.delta, job.prior_edits, &job.session)
        })
    }

    /// The batch driver: fills `len` independent slots, slot `i` with
    /// `route(i)`, over `threads` OS threads (clamped to at least 1),
    /// and returns the results in index order with the driver telemetry.
    /// Every batch entry point is one call of this; the serve layer
    /// routes each batch of queued requests, routes and reroutes alike,
    /// through one call too.
    ///
    /// One thread, or at most one slot, routes serially on the calling
    /// thread; otherwise `min(threads, len)` scoped workers drain one
    /// shared queue of output chunks. `route` is called once per slot and
    /// its result lands in that slot, whichever worker runs it.
    /// A panic that escapes `route` is caught for its slot and becomes
    /// [`RouteError::Panicked`]: one pathological request never takes
    /// the batch down.
    pub fn route_batch_by(
        &self,
        len: usize,
        threads: usize,
        route: impl Fn(usize) -> RouteResult + Sync,
    ) -> (Vec<RouteResult>, BatchStats) {
        let fill = |i| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(i))).unwrap_or_else(
                |payload| {
                    Err(RouteError::Panicked {
                        payload: panic_message(payload.as_ref()),
                    })
                },
            )
        };
        let threads = threads.max(1);
        let t0 = Instant::now();
        if threads == 1 || len <= 1 {
            let busy = Instant::now();
            let results: Vec<RouteResult> = (0..len).map(fill).collect();
            let busy_ns = busy.elapsed().as_nanos() as u64;
            let stats = BatchStats {
                workers: 1,
                chunk_size: len.max(1),
                chunks: 1,
                elapsed_ns: t0.elapsed().as_nanos() as u64,
                per_worker: vec![WorkerStats {
                    busy_ns,
                    chunks: 1,
                    nets: len as u64,
                }],
            };
            return (results, stats);
        }
        let workers = threads.min(len);
        let chunk = auto_chunk(len, workers);
        let (results, per_worker) = fill_slots_parallel(len, workers, chunk, fill);
        let stats = BatchStats {
            workers,
            chunk_size: chunk,
            chunks: len.div_ceil(chunk),
            elapsed_ns: t0.elapsed().as_nanos() as u64,
            per_worker,
        };
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::RouteError;
    use crate::resilience::ResilienceReport;
    use crate::RouterConfig;
    use patlabor_pareto::ParetoSet;
    use patlabor_tree::RoutingTree;

    fn engine4() -> Engine {
        Engine::with_table(crate::LutBuilder::new(4).build())
    }

    /// The frontiers of a batch result, panicking on any per-net error.
    ///
    /// Comparisons use frontiers rather than whole outcomes: on an
    /// engine with the opt-in cache, provenance legitimately differs
    /// between runs (a serial pass warms the shared cache, turning the
    /// batch pass's `ExactLut` answers into `CacheHit`s) while the
    /// frontiers stay bit-identical.
    fn frontiers(results: Vec<RouteResult>) -> Vec<ParetoSet<RoutingTree>> {
        results
            .into_iter()
            .map(|r| r.expect("batch net failed").frontier)
            .collect()
    }

    #[test]
    fn batch_matches_sequential_and_is_order_stable() {
        let engine = engine4();
        let nets = patlabor_netgen::iccad_like_suite(0xba7c4, 24, 12);
        let sequential: Vec<_> = nets
            .iter()
            .map(|n| engine.route(n).expect("serial net failed").frontier)
            .collect();
        for threads in [1, 2, 4, 7] {
            let batch = frontiers(engine.route_batch(&nets, threads));
            assert_eq!(batch, sequential, "threads = {threads}");
        }
    }

    /// Satellite: the determinism matrix. Bit-identical frontiers at
    /// thread counts {1, 2, 4, 16, N, N+3} (N = hardware threads). At 16
    /// workers the chunk rule gives single-net chunks on these 60 nets,
    /// the finest claim granularity there is.
    #[test]
    fn determinism_matrix_across_thread_counts() {
        let hardware = std::thread::available_parallelism().map_or(1, |p| p.get());
        let engine = engine4();
        let nets = patlabor_netgen::iccad_like_suite(0xde7e2, 60, 10);
        let sequential: Vec<_> = nets
            .iter()
            .map(|n| engine.route(n).expect("serial net failed").frontier)
            .collect();
        for threads in [1, 2, 4, 16, hardware, hardware + 3] {
            let (results, stats) = engine.route_batch_with_stats(&nets, threads);
            assert_eq!(frontiers(results), sequential, "threads = {threads}");
            assert_eq!(stats.workers, threads.min(nets.len()).max(1));
            if threads == 16 {
                assert_eq!(stats.chunk_size, 1, "60 nets over 16 workers");
            }
            let routed: u64 = stats.per_worker.iter().map(|w| w.nets).sum();
            assert_eq!(routed as usize, nets.len(), "threads = {threads}");
        }
    }

    #[test]
    fn chunk_size_follows_the_auto_rule() {
        let engine = engine4();
        let nets = patlabor_netgen::iccad_like_suite(0xc4u64, 20, 8);
        let (results, stats) = engine.route_batch_with_stats(&nets, 2);
        assert_eq!(stats.chunk_size, auto_chunk(nets.len(), 2));
        assert_eq!(stats.chunks, nets.len().div_ceil(stats.chunk_size));
        assert_eq!(results.len(), nets.len());
        // The rule: nets/(workers·4) clamped to [1, 64].
        assert_eq!(auto_chunk(1000, 4), 62);
        assert_eq!(auto_chunk(10, 8), 1);
        assert_eq!(auto_chunk(1_000_000, 2), 64);
        assert_eq!(auto_chunk(10, 0), 2);
    }

    #[test]
    fn zero_threads_clamps_to_serial() {
        let engine = engine4();
        let nets = patlabor_netgen::iccad_like_suite(0x21, 5, 8);
        // With no cache, provenance is a function of the net alone, so
        // whole outcomes compare.
        let serial: Vec<_> = nets.iter().map(|n| engine.route(n)).collect();
        assert_eq!(engine.route_batch(&nets, 0), serial);
        assert!(engine.route_batch(&[], 0).is_empty());
    }

    #[test]
    fn more_threads_than_nets_is_fine() {
        let engine = engine4();
        let nets = patlabor_netgen::iccad_like_suite(0x5e5e, 3, 6);
        let serial: Vec<_> = nets
            .iter()
            .map(|n| engine.route(n).expect("serial net failed").frontier)
            .collect();
        assert_eq!(frontiers(engine.route_batch(&nets, 64)), serial);
    }

    /// Regression for the mid-batch panic leak: every slot filled before
    /// a worker panic must still be dropped during the unwind.
    #[test]
    fn panic_mid_batch_drops_initialized_slots() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::atomic::Ordering::SeqCst;

        struct CountsDrops<'a>(&'a AtomicUsize);
        impl Drop for CountsDrops<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, SeqCst);
            }
        }

        let created = AtomicUsize::new(0);
        let dropped = AtomicUsize::new(0);
        let len = 97usize;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fill_slots_parallel(len, 4, 3, |i| {
                if i == 41 {
                    panic!("injected worker failure");
                }
                created.fetch_add(1, SeqCst);
                CountsDrops(&dropped)
            })
        }));
        assert!(result.is_err(), "the injected panic must propagate");
        assert_eq!(
            created.load(SeqCst),
            dropped.load(SeqCst),
            "every initialized slot must be dropped during unwind"
        );
        // Sanity: the batch got far enough for the unwind to matter.
        assert!(created.load(SeqCst) > 0);
    }

    /// Satellite: a worker dying mid-batch. The survivors keep taking
    /// chunks from the shared queue and fill every other slot —
    /// slot isolation holds through worker death.
    #[test]
    fn panicking_worker_leaves_every_other_slot_filled() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::atomic::Ordering::SeqCst;

        let filled = AtomicUsize::new(0);
        let len = 400usize;
        // Chunk 1 with 4 workers: whichever worker takes slot 0 dies on
        // it; the other three drain the rest of the queue.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fill_slots_parallel(len, 4, 1, |i| {
                if i == 0 {
                    panic!("worker 0 dies immediately");
                }
                filled.fetch_add(1, SeqCst);
                i
            })
        }));
        assert!(result.is_err(), "the worker death must propagate");
        // Every slot except the poisoned one was produced by the
        // survivors.
        assert_eq!(filled.load(SeqCst), len - 1);
    }

    /// The happy path: values transfer out exactly once, in index order,
    /// and the per-worker tallies cover the batch.
    #[test]
    fn fill_slots_parallel_matches_serial_and_owns_results() {
        let (squares, stats) = fill_slots_parallel(1000, 7, 16, |i| i * i);
        assert_eq!(squares.len(), 1000);
        assert!(squares.iter().enumerate().all(|(i, &v)| v == i * i));
        assert_eq!(stats.len(), 7);
        assert_eq!(stats.iter().map(|w| w.nets).sum::<u64>(), 1000);
        assert_eq!(
            stats.iter().map(|w| w.chunks).sum::<u64>(),
            1000u64.div_ceil(16)
        );
    }

    /// Load balance on a skewed workload (all cost in the last quarter of
    /// the batch): the expensive quarter must not be left to one worker.
    #[test]
    fn skewed_workloads_spread_over_workers() {
        use std::collections::HashSet;

        let (fillers, stats) = fill_slots_parallel(256, 4, 1, |i| {
            (i >= 192).then(|| {
                // The expensive quarter: ≈ 1 ms per slot, past any OS
                // timeslice, so other workers get to take chunks even
                // on a single hardware thread.
                let t0 = Instant::now();
                while t0.elapsed() < Duration::from_millis(1) {
                    std::hint::spin_loop();
                }
                std::thread::current().id()
            })
        });
        let workers: HashSet<_> = fillers.into_iter().flatten().collect();
        assert!(
            workers.len() >= 2,
            "one worker filled the expensive quarter: {stats:?}"
        );
        assert_eq!(stats.iter().map(|w| w.nets).sum::<u64>(), 256);
    }

    /// Regression: a net the tables cannot serve must produce an `Err` in
    /// its own slot and leave every other slot intact — no batch
    /// poisoning, no worker panic. Routed strictly (no fallback rungs),
    /// since the default ladder would absorb the missing degree.
    #[test]
    fn degenerate_net_fails_its_slot_only() {
        let mut table = crate::LutBuilder::new(4).threads(1).build();
        // Simulate a truncated table: degree 3 is gone, degree 4 intact.
        table.remove_degree(3);
        let engine = Engine::with_table_and_config(
            table,
            RouterConfig {
                resilience: crate::ResilienceConfig::strict(),
                ..RouterConfig::default()
            },
        );

        let mut nets = patlabor_netgen::iccad_like_suite(0xdead, 12, 4);
        nets.retain(|n| n.degree() == 4);
        assert!(nets.len() >= 4, "suite should contain degree-4 nets");
        let bad_index = nets.len() / 2;
        let bad = patlabor_geom::Net::new(vec![
            crate::Point::new(0, 0),
            crate::Point::new(5, 2),
            crate::Point::new(2, 7),
        ])
        .unwrap();
        nets.insert(bad_index, bad);

        for threads in [1, 4] {
            let results = engine.route_batch(&nets, threads);
            assert_eq!(results.len(), nets.len());
            for (i, result) in results.iter().enumerate() {
                if i == bad_index {
                    assert_eq!(
                        *result,
                        Err(RouteError::MissingDegree { degree: 3, lambda: 4 }),
                        "threads = {threads}"
                    );
                } else {
                    let outcome = result.as_ref().expect("valid net poisoned by neighbor");
                    assert!(!outcome.frontier.is_empty());
                }
            }
        }
    }

    /// Satellite regression for panic isolation: an `AllRungs` stage
    /// panic (nothing in the ladder can absorb it) must surface as
    /// `Err(RouteError::Panicked)` in exactly the faulted nets' slots
    /// while every other slot matches a clean engine bit-for-bit.
    #[test]
    fn stage_panic_isolates_to_its_slot() {
        use crate::resilience::{net_key, Fault, FaultKind, FaultPlane, FaultScope, Rung};

        let clean = engine4();
        let faults = FaultPlane::seeded(0x5eed).with_fault(Fault {
            kind: FaultKind::StagePanic,
            scope: FaultScope::AllRungs,
            probability: 0.3,
        });
        let faulty = clean.clone().with_faults(faults.clone());
        let nets = patlabor_netgen::iccad_like_suite(0xfa11, 40, 8);

        for threads in [1, 4] {
            let results = faulty.route_batch(&nets, threads);
            assert_eq!(results.len(), nets.len());
            let mut panicked = 0usize;
            for (net, result) in nets.iter().zip(&results) {
                // AllRungs decisions are rung-independent, so probing any
                // rung tells us whether this net was hit. Degree-2 nets
                // route closed-form, outside every fault site.
                let hit = net.degree() > 2
                    && faults.fires(FaultKind::StagePanic, Rung::Lut, net_key(net));
                if hit {
                    match result {
                        Err(RouteError::Panicked { payload }) => {
                            assert!(payload.contains("injected fault"), "{payload}");
                            panicked += 1;
                        }
                        other => panic!("expected a panicked slot, got {other:?}"),
                    }
                } else {
                    let outcome = result.as_ref().expect("unfaulted net poisoned by neighbor");
                    let expected = clean.route(net).expect("clean route");
                    assert_eq!(outcome.frontier.cost_vec(), expected.frontier.cost_vec());
                }
            }
            assert!(panicked >= 1, "the seeded plane should hit at least one net");
            assert!(panicked < nets.len(), "not every net should be hit at p = 0.3");

            // The aggregate report sees the same picture.
            let report = ResilienceReport::from_results(&results);
            assert_eq!(report.nets as usize, nets.len());
            assert_eq!(report.served + report.errors, report.nets);
            assert_eq!(report.errors, report.panicked);
            assert_eq!(report.panicked as usize, panicked);
        }
    }
}
