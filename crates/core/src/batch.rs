//! Multithreaded batch routing.
//!
//! VLSI designs contain millions of nets and every net routes
//! independently, so the paper evaluates all methods with multithreading
//! (its footnote 4 chides YSD for comparing GPU batches against serial
//! SALT). This module provides the high-throughput driver: a
//! work-stealing chunked distributor over a shared [`Engine`] handle
//! (the lookup tables are immutable after construction, so one engine
//! serves every thread).
//!
//! # Design
//!
//! The net list is cut into fixed-size chunks and the chunk index space
//! is pre-partitioned into one contiguous interval per worker. Each
//! worker owns a lock-free deque holding its remaining interval, packed
//! `(next, end)` into a single cache-line-padded `AtomicU64`
//! ([`ChunkDeque`]): the owner pops chunks from the front with a CAS,
//! and a worker that runs dry steals the back half of the fullest-
//! looking victim's interval with a CAS on the same word. In the steady
//! state every worker touches only its own padded cursor — zero shared
//! write traffic — and the steal path only activates when the static
//! partition turns out imbalanced (expensive nets clustered in one
//! worker's span). Compare the previous design, where every chunk claim
//! bounced one global cursor line between all cores.
//!
//! Results are still published in input order and bit-identical to a
//! serial loop: workers write each result directly into its final slot
//! of the (uninitialized) output vector — slots are disjoint by
//! construction (chunks are claimed exactly once; see the ABA argument
//! on [`ChunkDeque`]), so no locks and no post-hoc reordering are
//! needed.
//!
//! Chunk size trades deque traffic against steal granularity; with
//! stealing, it no longer has to bound tail imbalance the way the old
//! `nets.len() / (threads × 8)` heuristic did. It is derived from the
//! batch by one rule, grounded in measured steal rates (see
//! [`auto_chunk`]).
//!
//! Every batch also returns per-worker telemetry ([`BatchStats`]): busy
//! nanoseconds, chunks and nets executed, successful and failed steals —
//! the raw material of the `scaling` bench's table and the
//! `route --threads` report.

use std::any::Any;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use patlabor_geom::Net;

use crate::eco::DeltaJob;
use crate::engine::{Engine, Session};
use crate::pad::CachePadded;
use crate::pipeline::{RouteError, RouteResult};

/// Hard ceiling on the chunk size.
///
/// Measured on the `scaling` bench's workload: above ~64 nets per chunk
/// the steal granularity gets coarse enough that one late steal of a
/// chunk of expensive nets re-creates the tail imbalance stealing exists
/// to fix, while deque CAS traffic is already unmeasurable at 64 (one CAS
/// per chunk ≈ one per 64 routed nets).
const MAX_CHUNK: usize = 64;

/// Nets per work-stealing chunk for a batch of `len` nets over
/// `workers` workers: `len / (workers × 4)`, clamped to `[1, 64]`.
///
/// Rationale, re-derived from measured steal rates on the `scaling`
/// bench's mixed-degree workload: with work stealing the chunk size no
/// longer bounds tail imbalance (steals rebalance any leftover work), so
/// the old ~8-chunks-per-worker rule only bought extra cursor traffic. Four
/// chunks per worker keeps the initial partition coarse — on a balanced
/// workload the steady state is *zero* steals and every worker walks
/// its own span — while the 64-net cap keeps what a steal transfers
/// fine-grained enough that measured steal counts stay in the single
/// digits per worker on skewed workloads instead of one worker dragging
/// a mega-chunk.
fn auto_chunk(len: usize, workers: usize) -> usize {
    (len / (workers.max(1) * 4)).clamp(1, MAX_CHUNK)
}

/// One worker's telemetry for a batch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Nanoseconds spent executing chunks (routing nets), excluding
    /// deque traffic, steal scans and scheduler wait.
    pub busy_ns: u64,
    /// Chunks this worker executed (own and stolen).
    pub chunks: u64,
    /// Nets this worker routed.
    pub nets: u64,
    /// Successful steals: intervals taken from another worker's deque.
    pub steals: u64,
    /// Steal probes that found the victim's deque empty (or lost the
    /// race for its last chunks).
    pub failed_steals: u64,
}

/// Batch-level telemetry from [`Engine::route_batch_with_stats`]:
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

    /// Successful steals across all workers.
    pub fn total_steals(&self) -> u64 {
        self.per_worker.iter().map(|w| w.steals).sum()
    }

    /// Failed steal probes across all workers.
    pub fn total_failed_steals(&self) -> u64 {
        self.per_worker.iter().map(|w| w.failed_steals).sum()
    }

    /// Mean worker utilization: busy time across workers divided by
    /// `workers × elapsed`. 1.0 means every worker routed nets for the
    /// whole wall-clock window; the gap to 1.0 is scheduler wait, steal
    /// scans and exit skew. Meaningless (and typically ≪ 1) when the
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

/// A worker's remaining chunk interval `[next, end)`, packed into one
/// cache-line-padded atomic word (`next` in the high 32 bits).
///
/// The owner pops from the front (`next += 1`), thieves take the back
/// half (`end → mid`), both via CAS on the same word, so every claim is
/// linearizable and each chunk index is handed out exactly once.
///
/// No ABA: intervals are only ever split, never merged, and a chunk
/// index is claimed (popped or handed to exactly one thief) at most
/// once. For a CAS to succeed on a stale read `(a, b)`, the word would
/// have to hold `(a, b)` again later — impossible, because leaving state
/// `(a, b)` either claims chunk `a` (pop) or shrinks `end` below `b`
/// with `a` still queued here, and a new interval is stored into this
/// deque only by its owner after the previous interval emptied, which
/// claims `a` first. A claimed index never re-enters any interval.
struct ChunkDeque(CachePadded<AtomicU64>);

/// `u32` is plenty: chunk counts are bounded by net counts, and a batch
/// of 4 billion nets would not fit in memory anyway (checked at entry).
fn pack(next: u32, end: u32) -> u64 {
    (u64::from(next) << 32) | u64::from(end)
}

fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

impl ChunkDeque {
    fn new(next: u32, end: u32) -> Self {
        ChunkDeque(CachePadded::new(AtomicU64::new(pack(next, end))))
    }

    /// Owner-side pop of the front chunk.
    fn pop_front(&self) -> Option<u32> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (next, end) = unpack(cur);
            if next >= end {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(next + 1, end),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(next),
                Err(now) => cur = now,
            }
        }
    }

    /// Thief-side steal of the back half (all of a 1-chunk remainder);
    /// returns the stolen interval.
    fn steal_half(&self) -> Option<(u32, u32)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (next, end) = unpack(cur);
            if next >= end {
                return None;
            }
            // The owner keeps the front floor(half); the thief takes the
            // back ceil(half) so a 1-chunk interval is stealable too.
            let mid = next + (end - next) / 2;
            match self.0.compare_exchange_weak(
                cur,
                pack(next, mid),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((mid, end)),
                Err(now) => cur = now,
            }
        }
    }

    /// How many chunks remain (steal-victim selection heuristic; racy
    /// by nature, which is fine — a stale read only picks a worse
    /// victim).
    fn remaining(&self) -> u32 {
        let (next, end) = unpack(self.0.load(Ordering::Relaxed));
        end.saturating_sub(next)
    }

    /// Owner-side replacement of an emptied interval with a stolen one.
    /// A plain store suffices: only the owner stores, and thieves never
    /// modify an empty deque (their CAS is preceded by the emptiness
    /// check), so no concurrent writer exists while this runs.
    fn refill(&self, interval: (u32, u32)) {
        self.0.store(pack(interval.0, interval.1), Ordering::Release);
    }
}

/// Shares a raw pointer to the output slots between workers.
///
/// Safety contract: every index is written by exactly one worker (chunk
/// claims are disjoint), and the owning vector outlives the thread
/// scope.
struct OutputSlots<T>(*mut MaybeUninit<T>);

// SAFETY: workers write disjoint slots; the pointer itself is only copied.
unsafe impl<T: Send> Sync for OutputSlots<T> {}

/// Drops the already-initialized output slots if a worker panic unwinds
/// the batch mid-fill.
///
/// `Vec<MaybeUninit<T>>` never drops its contents, so without this guard
/// every `T` written before the panic would leak (routing results hold
/// heap-allocated frontiers, so the leak is real memory, not just a
/// formality). Workers flag each slot *after* writing it; the guard runs
/// on the spawning thread after `thread::scope` has joined every worker
/// (the join provides the happens-before edge for the flagged writes) and
/// drops exactly the flagged slots. The success path defuses the guard
/// with `mem::forget` before assuming ownership of the values.
struct SlotDropGuard<'a, T> {
    slots: *mut MaybeUninit<T>,
    init: &'a [AtomicBool],
}

impl<T> Drop for SlotDropGuard<'_, T> {
    fn drop(&mut self) {
        for (i, flag) in self.init.iter().enumerate() {
            if flag.load(Ordering::Acquire) {
                // SAFETY: the flag is set only after slot `i` was fully
                // written, and no other code drops it (the success path
                // forgets this guard before taking ownership).
                unsafe { (*self.slots.add(i)).assume_init_drop() };
            }
        }
    }
}

/// Fills a `len`-slot output vector across `workers` scoped threads via
/// per-worker chunk deques with work stealing; `fill(i)` produces slot
/// `i`. Results are in index order, identical to a serial loop. Returns
/// the values and the per-worker telemetry.
///
/// Panic safety: if a `fill` call panics, the panicking worker unwinds,
/// the surviving workers keep draining every remaining chunk (steals
/// from the dead worker's deque included — its unprocessed interval is
/// still claimable), the scope joins and re-panics, and the
/// [`SlotDropGuard`] drops every slot that was initialized before the
/// unwind — nothing leaks.
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
    assert!(
        u32::try_from(len).is_ok(),
        "batch of {len} nets exceeds the u32 chunk index space"
    );
    let mut results: Vec<MaybeUninit<T>> = Vec::with_capacity(len);
    let slots = OutputSlots(results.as_mut_ptr());
    let init: Box<[AtomicBool]> = (0..len).map(|_| AtomicBool::new(false)).collect();
    // Armed before any worker runs; declared after `results` so an unwind
    // drops the initialized contents first, then the vector frees the
    // (by then inert) buffer.
    let guard = SlotDropGuard {
        slots: results.as_mut_ptr(),
        init: &init,
    };
    // Static partition: worker `w` starts with the contiguous chunk
    // interval [w·n/W, (w+1)·n/W) — balanced to within one chunk.
    let nchunks = len.div_ceil(chunk);
    let deques: Box<[ChunkDeque]> = (0..workers)
        .map(|w| {
            ChunkDeque::new(
                (w * nchunks / workers) as u32,
                ((w + 1) * nchunks / workers) as u32,
            )
        })
        .collect();
    let stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let slots = &slots;
                let init = &init;
                let fill = &fill;
                let deques = &deques;
                scope.spawn(move || {
                    let mut stats = WorkerStats::default();
                    loop {
                        // Drain the own deque front-to-back.
                        while let Some(c) = deques[w].pop_front() {
                            let start = (c as usize) * chunk;
                            let end = (start + chunk).min(len);
                            let t0 = Instant::now();
                            for i in start..end {
                                let value = fill(i);
                                // SAFETY: chunk `c` was claimed exactly
                                // once (deque CAS), so slot `i` has a
                                // unique writer, inside the vector's
                                // allocated capacity.
                                unsafe { (*slots.0.add(i)).write(value) };
                                // Publish only after the write completes,
                                // so the guard never drops a half-written
                                // slot.
                                init[i].store(true, Ordering::Release);
                            }
                            stats.busy_ns += t0.elapsed().as_nanos() as u64;
                            stats.chunks += 1;
                            stats.nets += (end - start) as u64;
                        }
                        // Own deque empty: steal the back half of the
                        // fullest victim. Exiting requires observing
                        // every other deque empty — losing a race for a
                        // victim's last chunks rescans, because another
                        // victim may still hold work. Once all deques
                        // read empty, the remaining work (if any) is
                        // already claimed by its holders, so exiting
                        // never orphans a chunk.
                        let mut stolen = None;
                        loop {
                            let victim = (0..workers)
                                .filter(|&v| v != w)
                                .max_by_key(|&v| deques[v].remaining());
                            match victim {
                                Some(v) if deques[v].remaining() > 0 => {
                                    if let Some(interval) = deques[v].steal_half() {
                                        stolen = Some(interval);
                                        break;
                                    }
                                    stats.failed_steals += 1;
                                }
                                _ => break,
                            }
                        }
                        match stolen {
                            Some(interval) => {
                                stats.steals += 1;
                                deques[w].refill(interval);
                            }
                            None => break,
                        }
                    }
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(stats) => stats,
                // Re-raise inside the scope: the scope has already joined
                // this worker; re-panicking here unwinds through the
                // scope (joining the rest) into the guard.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    // Every worker joined without panicking and the deques drained
    // 0..nchunks, so all slots are initialized; ownership passes to the
    // returned vector and the guard must not double-drop.
    std::mem::forget(guard);
    // SAFETY: all `len` slots were written exactly once (see above).
    unsafe { results.set_len(len) };
    // MaybeUninit<T> → T is a transparent no-op once initialized.
    let values = results
        .into_iter()
        .map(|slot| unsafe { slot.assume_init() })
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
    /// [`Engine::route_session`] with batch-level panic isolation: a
    /// panic that escapes the degradation ladder (a fault no rung could
    /// absorb) is converted into [`RouteError::Panicked`] for this net's
    /// slot instead of unwinding — and thereby poisoning — the whole
    /// batch.
    fn route_caught(&self, net: &Net, session: &Session) -> RouteResult {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.route_session(net, session)
        })) {
            Ok(result) => result,
            Err(payload) => Err(RouteError::Panicked {
                payload: panic_message(payload.as_ref()),
            }),
        }
    }

    /// Routes every net, spreading work over `threads` OS threads.
    ///
    /// `threads` is clamped to at least 1 (a zero request degrades to
    /// serial routing instead of panicking). Results are in input order
    /// and bit-identical to calling [`Engine::route`] per net (routing
    /// is deterministic, with or without the frontier cache, at every
    /// thread count, steals included).
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
    /// busy time, chunk/net tallies and steal counts ([`BatchStats`]).
    /// The scaling bench and `route --threads` read utilization from
    /// here instead of inferring it from wall clock.
    pub fn route_batch_with_stats(
        &self,
        nets: &[Net],
        threads: usize,
    ) -> (Vec<RouteResult>, BatchStats) {
        let default = Session::default();
        self.drive_batch(nets.len(), threads, |i| self.route_caught(&nets[i], &default))
    }

    /// Routes a batch of requests, each under its own [`Session`], over
    /// the same work-stealing driver. Results are in input order, one
    /// slot per request, and each request's frontier is bit-identical to
    /// routing it alone via [`Engine::route_session`] — batching changes
    /// latency, never answers. The serve layer routes each batch of
    /// queued requests through this call.
    pub fn route_batch_sessions(
        &self,
        requests: &[(Net, Session)],
        threads: usize,
    ) -> (Vec<RouteResult>, BatchStats) {
        self.drive_batch(requests.len(), threads, |i| {
            let (net, session) = &requests[i];
            self.route_caught(net, session)
        })
    }

    /// [`Engine::reroute_with_staleness`] with batch-level panic
    /// isolation, mirroring [`Engine::route_caught`].
    fn reroute_caught(&self, job: &DeltaJob) -> RouteResult {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.reroute_with_staleness(&job.delta, job.prior_edits, &job.session)
        })) {
            Ok(result) => result,
            Err(payload) => Err(RouteError::Panicked {
                payload: panic_message(payload.as_ref()),
            }),
        }
    }

    /// Reroutes a batch of edits over the same work-stealing driver as
    /// [`Engine::route_batch_sessions`]. Results are in input order, one
    /// slot per job; class-preserving edits replay from the frontier
    /// cache (provenance [`crate::RouteSource::Reused`]) and everything
    /// else falls through the ordinary ladder. The serve layer batches
    /// `reroute` wire requests with fresh routes and routes the reroutes
    /// of a mixed batch through this call.
    pub fn route_batch_deltas(
        &self,
        jobs: &[DeltaJob],
        threads: usize,
    ) -> (Vec<RouteResult>, BatchStats) {
        self.drive_batch(jobs.len(), threads, |i| self.reroute_caught(&jobs[i]))
    }

    /// The shared driver body: serial fast path or work-stealing fill
    /// over `len` independent slots.
    fn drive_batch(
        &self,
        len: usize,
        threads: usize,
        fill: impl Fn(usize) -> RouteResult + Sync,
    ) -> (Vec<RouteResult>, BatchStats) {
        let threads = threads.max(1);
        let t0 = Instant::now();
        if threads == 1 || len <= 1 {
            let busy = Instant::now();
            let results: Vec<RouteResult> = (0..len).map(&fill).collect();
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
                    ..WorkerStats::default()
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

    /// The frontiers of a batch result, panicking on any per-net error.
    ///
    /// Comparisons use frontiers rather than whole outcomes: provenance
    /// legitimately differs between runs (a serial pass warms the shared
    /// cache, turning the batch pass's `ExactLut` answers into
    /// `CacheHit`s) while the frontiers stay bit-identical.
    fn frontiers(results: Vec<RouteResult>) -> Vec<ParetoSet<RoutingTree>> {
        results
            .into_iter()
            .map(|r| r.expect("batch net failed").frontier)
            .collect()
    }

    #[test]
    fn deque_pop_and_steal_partition_the_interval() {
        let deque = ChunkDeque::new(0, 10);
        assert_eq!(deque.pop_front(), Some(0));
        assert_eq!(deque.remaining(), 9);
        // Thief takes the back ceil(half) of [1, 10).
        assert_eq!(deque.steal_half(), Some((5, 10)));
        assert_eq!(deque.remaining(), 4);
        for expect in 1..5 {
            assert_eq!(deque.pop_front(), Some(expect));
        }
        assert_eq!(deque.pop_front(), None);
        assert_eq!(deque.steal_half(), None);
        // A 1-chunk interval is stealable whole.
        let last = ChunkDeque::new(7, 8);
        assert_eq!(last.steal_half(), Some((7, 8)));
        assert_eq!(last.pop_front(), None);
    }

    /// Hammer one deque from many threads (owner pops, thieves steal):
    /// every chunk index must be claimed exactly once.
    #[test]
    fn deque_claims_are_disjoint_under_contention() {
        use std::sync::atomic::AtomicUsize;
        const CHUNKS: u32 = 10_000;
        let deque = ChunkDeque::new(0, CHUNKS);
        let claims: Box<[AtomicUsize]> =
            (0..CHUNKS).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|scope| {
            // One owner popping the front...
            scope.spawn(|| {
                while let Some(c) = deque.pop_front() {
                    claims[c as usize].fetch_add(1, Ordering::Relaxed);
                }
            });
            // ...and thieves carving up the back.
            for _ in 0..3 {
                scope.spawn(|| {
                    while let Some((lo, hi)) = deque.steal_half() {
                        for c in lo..hi {
                            claims[c as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        for (c, claim) in claims.iter().enumerate() {
            assert_eq!(claim.load(Ordering::Relaxed), 1, "chunk {c} claim count");
        }
    }

    #[test]
    fn batch_matches_sequential_and_is_order_stable() {
        let engine = Engine::with_config(RouterConfig {
            lambda: 4,
            ..RouterConfig::default()
        });
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
    /// thread counts {1, 2, 4, 16, N, N+3} (N = hardware threads) under
    /// work stealing. At 16 workers the chunk rule gives single-net
    /// chunks on these 60 nets, the finest steal granularity there is.
    #[test]
    fn determinism_matrix_across_thread_counts() {
        let hardware = std::thread::available_parallelism().map_or(1, |p| p.get());
        let engine = Engine::with_config(RouterConfig {
            lambda: 4,
            ..RouterConfig::default()
        });
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
        let engine = Engine::with_config(RouterConfig {
            lambda: 4,
            ..RouterConfig::default()
        });
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
        let engine = Engine::with_config(RouterConfig {
            lambda: 4,
            ..RouterConfig::default()
        });
        let nets = patlabor_netgen::iccad_like_suite(0x21, 5, 8);
        // Second route of the same nets hits the warm cache, so both
        // passes see identical provenance too — whole outcomes compare.
        let _warmup = engine.route_batch(&nets, 1);
        let serial: Vec<_> = nets.iter().map(|n| engine.route(n)).collect();
        assert_eq!(engine.route_batch(&nets, 0), serial);
        assert!(engine.route_batch(&[], 0).is_empty());
    }

    #[test]
    fn more_threads_than_nets_is_fine() {
        let engine = Engine::with_config(RouterConfig {
            lambda: 4,
            ..RouterConfig::default()
        });
        let nets = patlabor_netgen::iccad_like_suite(0x5e5e, 3, 6);
        let serial: Vec<_> = nets
            .iter()
            .map(|n| engine.route(n).expect("serial net failed").frontier)
            .collect();
        assert_eq!(frontiers(engine.route_batch(&nets, 64)), serial);
    }

    /// Regression for the mid-batch panic leak: every `RouteResult` slot
    /// initialized before a worker panic must still be dropped during the
    /// unwind. Before the [`SlotDropGuard`], `Vec<MaybeUninit<_>>` leaked
    /// all of them.
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
        // Sanity: the batch got far enough for the guard to matter.
        assert!(created.load(SeqCst) > 0);
    }

    /// Satellite: a worker dying mid-steal. The panicking worker's
    /// still-queued interval stays claimable, the survivors steal and
    /// finish every other slot, and the unwind drops exactly the
    /// initialized ones — slot isolation holds through worker death.
    #[test]
    fn worker_death_mid_steal_leaves_other_slots_claimed() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::atomic::Ordering::SeqCst;

        let filled = AtomicUsize::new(0);
        let len = 400usize;
        // Chunk 1 with 4 workers: worker 0 owns [0, 100) and dies on its
        // very first net; the other three keep draining their own spans
        // and then steal the dead worker's remainder.
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
        // Every slot except the poisoned one was produced: the dead
        // worker's interval was stolen and finished by the survivors.
        assert_eq!(filled.load(SeqCst), len - 1);
    }

    /// The happy path through the guard: values transfer out exactly once
    /// (each slot dropped once by the caller, never by the guard), and
    /// the per-worker tallies cover the batch.
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

    /// A deliberately skewed workload (all cost in the last quarter of
    /// the batch) must trigger steals: the statically-partitioned owner
    /// of the expensive span cannot be left to finish alone.
    #[test]
    fn skewed_workloads_actually_steal() {
        let (_, stats) = fill_slots_parallel(256, 4, 1, |i| {
            if i >= 192 {
                // The expensive span: burn enough real time (≈ 1 ms per
                // net, past any OS timeslice) that the other three
                // workers drain their cheap spans first and go stealing
                // — even on a single hardware thread.
                std::hint::black_box((0..2_000_000u64).sum::<u64>());
            }
            i
        });
        let steals: u64 = stats.iter().map(|w| w.steals).sum();
        assert!(steals > 0, "no steals on a 4:1 skewed workload: {stats:?}");
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

        let clean = Engine::with_config(RouterConfig {
            lambda: 4,
            ..RouterConfig::default()
        });
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
