//! The socket server.
//!
//! Route, reroute and reload requests enter only through the framed
//! socket; the HTTP adapter (the private `http` module) serves
//! `/metrics` and `/healthz` and routes nothing.
//!
//! # Architecture
//!
//! ```text
//! conn reader ──┐                      ┌── conn writer (mpsc drain)
//! conn reader ──┼─► bounded queue ─► batcher ─► route_batch_by
//! conn reader ──┘   (admission)        │          (shared chunk queue)
//!                                      └─► report fold (+ latency)
//! ```
//!
//! One reader thread per connection parses frames and **admits** them
//! into the shared bounded queue: a full queue rejects immediately with
//! `"overloaded"` + `retry_after_ms` (the request is never routed, the
//! queue never grows past `queue_depth` — memory is bounded by
//! construction), a draining server rejects with `"shutting-down"`,
//! and an unparseable frame answers `"malformed"` without touching the
//! queue. Rejections are written through the same per-connection
//! channel as real replies, so one writer thread per connection owns
//! the socket's write half and frames are never interleaved.
//!
//! The single **batcher** thread turns the queue into
//! [`Engine::route_batch_by`] calls. It waits for work, takes whatever
//! is queued, up to `max_batch` requests, and routes that batch, routes
//! and reroutes mixed, with one driver call; requests that arrive
//! meanwhile form the next batch. A lone request is routed at once, and
//! batches grow only under load. Every net is answered on its own, so
//! batching moves latency, never an answer.
//!
//! Every accepted socket has Nagle's algorithm off, and each writer
//! flushes once its channel is empty: a lone reply leaves at once and
//! a burst of replies leaves together.
//!
//! # Shutdown
//!
//! [`Server::begin_shutdown`] flips `draining` under the queue lock
//! (so no admission can race past it), pokes the acceptor awake with a
//! loopback connect, and half-closes every registered connection's
//! read side. The batcher then drains what was already admitted —
//! the batch in flight completes, nothing queued is dropped — and
//! [`Server::shutdown`] joins everything and returns the final
//! [`ResilienceReport`].
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use patlabor::{Engine, Net, NetDelta, ResilienceReport, Session};

use crate::chaos::{TransportFaultKind, TransportPlane};
use crate::http;
use crate::json::Json;
use crate::metrics::Metrics;
use crate::wire::{
    evicted_json, malformed_json, overloaded_json, parse_any_request, reload_failed_json,
    reload_ok_json, reloading_json, result_to_json, shutting_down_json, write_frame, Request,
    MAX_FRAME,
};

/// Server tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Socket-protocol bind address. Port 0 picks a free port
    /// (read it back from [`Server::addr`]).
    pub addr: String,
    /// HTTP adapter bind address (`GET /metrics`, `GET /healthz`);
    /// `None` disables the adapter. Routes travel only over the framed
    /// socket at [`ServeConfig::addr`].
    pub http_addr: Option<String>,
    /// Worker threads per batch (0 ⇒ all hardware threads).
    pub threads: usize,
    /// Most requests routed in one batch (0 acts as 1).
    pub max_batch: usize,
    /// Admission bound: requests queued beyond this are rejected with
    /// `"overloaded"`. This is the server's entire buffering — there is
    /// no hidden unbounded buffer behind it.
    pub queue_depth: usize,
    /// Mid-frame read stall budget (the watchdog): a peer that has
    /// sent part of a frame and then stalls longer than this is
    /// evicted with a `read` timeout metric and a closed connection.
    /// A connection **idle at a frame boundary** may wait forever —
    /// long-lived clients that route occasionally are legitimate.
    pub read_stall: Duration,
    /// Socket write deadline: a peer that stops reading its replies
    /// holds the writer at most this long before the connection is
    /// closed (`write` timeout metric). This is what keeps one stalled
    /// peer from holding drain hostage.
    pub write_timeout: Duration,
    /// Bounded per-connection reply buffer, in frames. When a client
    /// falls this far behind its replies, the batcher drops the reply
    /// and evicts the connection instead of blocking the batcher —
    /// per-connection memory is bounded by construction.
    ///
    /// The default, 1,024, is the admission bound
    /// ([`ServeConfig::queue_depth`]'s default). The buffer also fills
    /// while the connection's own writer thread waits for a CPU, so a
    /// smaller one evicts clients that read every reply as it arrives:
    /// at 128 frames, a client pacing 8,000–20,000 requests/s over one
    /// connection on a 2-vCPU host was evicted in 3 of 7 runs. A peer that
    /// stops reading is still evicted once this many replies wait, and
    /// [`ServeConfig::write_timeout`] still closes it. The channel
    /// allocates every slot up front (32 B each), so a connection holds
    /// 32 KiB of reply slots.
    pub reply_buffer: usize,
    /// The transport fault plane (chaos injection) for the framed
    /// socket: its readers and writers are the only hooks. Empty — the
    /// default — means every hook short-circuits; see
    /// [`TransportPlane`].
    pub chaos: TransportPlane,
}

/// Upper clamp on computed `retry_after_ms` hints. A second of backoff
/// is already "come back much later"; anything larger would just park
/// clients on a transient spike.
pub const RETRY_AFTER_CAP_MS: u64 = 1_000;

/// The `retry_after_ms` hint sent with `"overloaded"` rejections before
/// the first batch has been routed (cold start), when there is no drain
/// rate to price the backlog with yet.
const COLD_START_RETRY_AFTER_MS: u64 = 5;

/// The backoff hint for an `"overloaded"` rejection: how long the
/// current occupancy takes to drain at the recently observed rate, so a
/// client backing off by the hint retries roughly when the queue has
/// actually drained.
///
/// `drain_ns_per_net == 0` means no batch has been routed yet — fall
/// back to [`COLD_START_RETRY_AFTER_MS`]. Otherwise
/// `ceil(occupancy × per-net ns)` in milliseconds, clamped to
/// `[1, RETRY_AFTER_CAP_MS]`. Monotone in both occupancy and drain time
/// by construction (a fuller queue or a slower engine can only raise
/// the hint until the cap).
fn computed_retry_after_ms(occupancy: usize, drain_ns_per_net: u64) -> u64 {
    if drain_ns_per_net == 0 {
        return COLD_START_RETRY_AFTER_MS;
    }
    let drain_ns = occupancy as u128 * drain_ns_per_net as u128;
    let ms = u64::try_from(drain_ns.div_ceil(1_000_000)).unwrap_or(u64::MAX);
    ms.clamp(1, RETRY_AFTER_CAP_MS)
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            http_addr: None,
            threads: 0,
            max_batch: 64,
            queue_depth: 1024,
            read_stall: Duration::from_secs(2),
            write_timeout: Duration::from_secs(5),
            reply_buffer: 1024,
            chaos: TransportPlane::default(),
        }
    }
}

/// What an admitted request asks the engine to do: route a net, or
/// apply an ECO edit to a prior route's net and reroute it.
enum Job {
    Route(Net),
    Reroute { delta: NetDelta, prior_edits: u32 },
}

/// One admitted request waiting for a batch.
struct Pending {
    job: Job,
    session: Session,
    enqueued: Instant,
    /// Bounded: a full buffer means the client stopped reading and is
    /// evicted rather than buffered into.
    reply: mpsc::SyncSender<Vec<u8>>,
    /// The owning connection, for slow-client eviction through the
    /// registry.
    conn: u64,
}

/// Queue state guarded by one mutex: the pending requests and the
/// draining flag. Keeping `draining` under the same lock as the queue
/// closes the shutdown race — an admission that saw `draining ==
/// false` has already enqueued before `begin_shutdown` can flip it, so
/// the batcher is guaranteed to drain it.
struct QueueState {
    pending: VecDeque<Pending>,
    draining: bool,
}

pub(crate) struct Shared {
    engine: Engine,
    config: ServeConfig,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    metrics: Metrics,
    /// The one tally of routed requests: `/metrics` renders its
    /// families from it and [`Server::shutdown`] returns it.
    report: Mutex<ResilienceReport>,
    /// Live connections by id, for shutdown unblocking. Entries are
    /// removed when the connection finishes — keeping a clone of the
    /// fd here past close would hold the socket ESTABLISHED (the peer
    /// never sees FIN) and leak one fd per connection served.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Per-connection thread handles, joined at shutdown; finished
    /// handles are pruned on registration so the vec tracks live
    /// connections, not lifetime connection count.
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
    /// Recent per-net batch drain time, nanoseconds (EWMA, α = ¼).
    /// Zero until the first batch is routed; read by admission control
    /// to compute `retry_after_ms`.
    drain_ns_per_net: AtomicU64,
    /// Guards against concurrent hot reloads: a second reload verb
    /// while one validates answers `"reloading"` instead of racing.
    reload_in_flight: AtomicBool,
}

/// Mutex lock that shrugs off poisoning: the protected state (a queue
/// of requests, a metrics report) stays coherent even if a holder
/// panicked between operations, and a serving daemon must keep
/// answering rather than propagate the poison.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why a request was turned away at admission.
enum Rejection {
    /// Queue full; carries the computed backoff hint.
    Overloaded { retry_after_ms: u64 },
    ShuttingDown,
}

impl Shared {
    /// Admission control: enqueue or reject, atomically with the
    /// draining check.
    fn submit(&self, p: Pending) -> Result<(), Rejection> {
        let mut q = lock(&self.queue);
        if q.draining {
            return Err(Rejection::ShuttingDown);
        }
        if q.pending.len() >= self.config.queue_depth {
            let retry_after_ms = computed_retry_after_ms(
                q.pending.len(),
                self.drain_ns_per_net.load(std::sync::atomic::Ordering::Relaxed),
            );
            return Err(Rejection::Overloaded { retry_after_ms });
        }
        q.pending.push_back(p);
        Metrics::add(&self.metrics.requests, 1);
        self.metrics
            .queue_depth
            .store(q.pending.len() as u64, std::sync::atomic::Ordering::Relaxed);
        drop(q);
        self.queue_cv.notify_all();
        Ok(())
    }

    /// The batcher body: wait for work, take up to `max_batch` queued
    /// requests, route them, reply, fold the report. Returns when
    /// draining and empty.
    fn run_batcher(&self) {
        let threads = if self.config.threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            self.config.threads
        };
        loop {
            let mut q = lock(&self.queue);
            while q.pending.is_empty() && !q.draining {
                q = self
                    .queue_cv
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            // Woken with nothing queued: the server is draining.
            if q.pending.is_empty() {
                return;
            }
            // At least one: a `max_batch` of 0 would route empty batches
            // forever and never drain the queue.
            let take = q.pending.len().min(self.config.max_batch.max(1));
            let batch: Vec<Pending> = q.pending.drain(..take).collect();
            self.metrics
                .queue_depth
                .store(q.pending.len() as u64, std::sync::atomic::Ordering::Relaxed);
            drop(q);
            self.route_batch(batch, threads);
        }
    }

    /// Routes one batch with one batch-driver call and replies per
    /// request. A batch may mix fresh routes and ECO reroutes; each slot
    /// routes its own request's job under its own session.
    fn route_batch(&self, batch: Vec<Pending>, threads: usize) {
        if batch.is_empty() {
            return;
        }
        let started = Instant::now();
        // Workers are spawned only when one kind of job has two or more
        // requests, so no batch spawns workers that the driver would not
        // spawn for its routes or its reroutes alone: a lone route with a
        // lone reroute is routed on this thread.
        let routes = batch.iter().filter(|p| matches!(p.job, Job::Route(_))).count();
        let threads = if routes.max(batch.len() - routes) > 1 { threads } else { 1 };
        let (results, _stats) = self.engine.route_batch_by(batch.len(), threads, |i| {
            let pending = &batch[i];
            match &pending.job {
                Job::Route(net) => self.engine.route_session(net, &pending.session),
                Job::Reroute { delta, prior_edits } => {
                    self.engine
                        .reroute_with_staleness(delta, *prior_edits, &pending.session)
                }
            }
        });
        // Fold the batch's wall time into the drain-rate EWMA that
        // admission control prices rejections with.
        let per_net_ns = u64::try_from(
            started.elapsed().as_nanos() / batch.len() as u128,
        )
        .unwrap_or(u64::MAX)
        .max(1);
        let ordering = std::sync::atomic::Ordering::Relaxed;
        let old = self.drain_ns_per_net.load(ordering);
        let blended = if old == 0 {
            per_net_ns
        } else {
            old - old / 4 + per_net_ns / 4
        };
        self.drain_ns_per_net.store(blended.max(1), ordering);
        // Batch counters and queue waits are recorded under the report
        // lock that `/metrics` renders under, so one scrape always sees
        // as many queue-wait samples as batched nets.
        let mut report = lock(&self.report);
        Metrics::add(&self.metrics.batches, 1);
        Metrics::add(&self.metrics.batched_nets, batch.len() as u64);
        for pending in &batch {
            let waited = started.saturating_duration_since(pending.enqueued);
            self.metrics
                .queue_wait
                .record(u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX));
        }
        for (pending, result) in batch.iter().zip(&results) {
            report.record(result);
            if result.is_ok() {
                let ns = pending.enqueued.elapsed().as_nanos();
                self.metrics
                    .latency
                    .record(u64::try_from(ns).unwrap_or(u64::MAX));
            }
            let payload = result_to_json(pending.session.id, result).render();
            match pending.reply.try_send(payload.into_bytes()) {
                Ok(()) => {}
                // The client stopped draining replies: drop the reply
                // and close its connection rather than park the batcher
                // (every other batch would pay for one slow peer). The
                // crash-only contract holds — the request is not
                // answered, but its connection is visibly closed.
                Err(mpsc::TrySendError::Full(_)) => {
                    Metrics::add(&self.metrics.evicted, 1);
                    if let Some(conn) = lock(&self.conns).get(&pending.conn) {
                        let _ = conn.shutdown(Shutdown::Both);
                    }
                }
                // Receiver gone (client disconnected mid-flight): not an
                // error; the route still counted.
                Err(mpsc::TrySendError::Disconnected(_)) => {}
            }
        }
    }

    /// One connection's read loop: parse frames (under the mid-frame
    /// stall watchdog), admit, send immediate rejections through the
    /// writer channel. `conn_id` keys the chaos plane's read-side
    /// decisions and the eviction registry.
    fn run_reader(&self, conn_id: u64, stream: TcpStream, reply_tx: mpsc::SyncSender<Vec<u8>>) {
        let chaos = &self.config.chaos;
        let mut reader = io::BufReader::new(stream);
        let mut frame_seq = 0u64;
        loop {
            let payload = match read_frame_watchdog(&mut reader) {
                Ok(Some(p)) => p,
                // Clean EOF, torn frame or reset: either way this
                // connection is done reading.
                Ok(None) | Err(ReadFrameError::Io) => return,
                // The watchdog fired: the peer stalled mid-frame past
                // the budget. Best-effort eviction notice, then close
                // the read side; replies already owed still flow out.
                Err(ReadFrameError::Stalled) => {
                    Metrics::add(&self.metrics.read_timeouts, 1);
                    let notice = evicted_json(0, "mid-frame read stalled past the watchdog budget");
                    let _ = reply_tx.try_send(notice.render().into_bytes());
                    return;
                }
            };
            if !chaos.is_empty() && chaos.fires(TransportFaultKind::DelayRead, conn_id, frame_seq) {
                Metrics::add(
                    &self.metrics.chaos_injected[TransportFaultKind::DelayRead.index()],
                    1,
                );
                std::thread::sleep(chaos.delay());
            }
            frame_seq += 1;
            if let Some(reply) = self.admit(conn_id, &payload, &reply_tx) {
                if reply_tx.try_send(reply.render().into_bytes()).is_err() {
                    return;
                }
            }
        }
    }

    /// Queues one request frame, or returns the reply it gets at once:
    /// `"malformed"`, an admission rejection, or the answer to a reload.
    /// The reload verb is handled inline on the connection's reader
    /// thread: validation is file I/O, never touches the batcher, and a
    /// stall here harms only the connection that asked for it.
    fn admit(
        &self,
        conn_id: u64,
        payload: &[u8],
        reply: &mpsc::SyncSender<Vec<u8>>,
    ) -> Option<Json> {
        let (id, deadline_ms, job) = match parse_any_request(payload) {
            Err(m) => {
                Metrics::add(&self.metrics.malformed, 1);
                return Some(malformed_json(&m));
            }
            Ok(Request::Route(r)) => (r.id, r.deadline_ms, Job::Route(r.net)),
            Ok(Request::Reroute(r)) => (
                r.id,
                r.deadline_ms,
                Job::Reroute { delta: r.delta, prior_edits: r.prior_edits },
            ),
            Ok(Request::Reload(r)) => {
                return Some(match self.reload(&r.path) {
                    ReloadOutcome::Swapped(epoch) => reload_ok_json(r.id, epoch),
                    ReloadOutcome::InFlight => reloading_json(r.id),
                    ReloadOutcome::Rejected(detail) => reload_failed_json(r.id, &detail),
                });
            }
        };
        let mut session = Session::new(id);
        if let Some(ms) = deadline_ms {
            session = session.with_deadline(Duration::from_millis(ms));
        }
        let pending = Pending {
            job,
            session,
            enqueued: Instant::now(),
            reply: reply.clone(),
            conn: conn_id,
        };
        match self.submit(pending) {
            Ok(()) => None,
            Err(Rejection::Overloaded { retry_after_ms }) => {
                Metrics::add(&self.metrics.rejected, 1);
                Some(overloaded_json(id, retry_after_ms))
            }
            Err(Rejection::ShuttingDown) => {
                Metrics::add(&self.metrics.shed_shutdown, 1);
                Some(shutting_down_json(id))
            }
        }
    }

    /// One connection's write loop, the sole owner of the socket's
    /// write half. It writes every reply already waiting in the
    /// channel and flushes once the channel is empty: a lone reply
    /// leaves at once (the socket has Nagle off), and a burst leaves in
    /// as few syscalls and segments as the buffer allows. Returns when
    /// every sender (the reader and its queued requests) has dropped or
    /// a write fails, then closes the socket so the peer sees FIN after
    /// the final reply. `frame_seq` keys the chaos plane's write-side
    /// decisions, one per frame in order.
    fn run_writer(&self, conn_id: u64, stream: TcpStream, replies: &mpsc::Receiver<Vec<u8>>) {
        let chaos = &self.config.chaos;
        let mut out = io::BufWriter::new(stream);
        let mut frame_seq = 0u64;
        let mut next = replies.recv().ok();
        while let Some(payload) = next {
            if let Some(kind) = chaos.write_fault(conn_id, frame_seq) {
                Metrics::add(&self.metrics.chaos_injected[kind.index()], 1);
                inject_write_fault(kind, &mut out, &payload, chaos.delay());
                // Every write-side fault is crash-only: the peer only
                // ever observes a damaged frame on a connection that is
                // closing.
                break;
            }
            frame_seq += 1;
            if let Err(e) = write_frame(&mut out, &payload) {
                note_write_error(self, &e);
                break;
            }
            next = match replies.try_recv() {
                Ok(payload) => Some(payload),
                Err(mpsc::TryRecvError::Disconnected) => None,
                Err(mpsc::TryRecvError::Empty) => {
                    if let Err(e) = out.flush() {
                        note_write_error(self, &e);
                        break;
                    }
                    replies.recv().ok()
                }
            };
        }
        let _ = out.flush();
        let _ = out.get_ref().shutdown(Shutdown::Both);
    }

    /// The guarded hot-reload path shared by the wire verb and
    /// [`Server::reload_table`] (the CLI's SIGHUP handler). Updates the
    /// reload metrics; on any rejection the old table keeps serving.
    pub(crate) fn reload(&self, path: &str) -> ReloadOutcome {
        if self.reload_in_flight.swap(true, Ordering::AcqRel) {
            return ReloadOutcome::InFlight;
        }
        let outcome = match self.engine.reload_table(path) {
            Ok(epoch) => {
                Metrics::add(&self.metrics.reloads, 1);
                ReloadOutcome::Swapped(epoch)
            }
            Err(e) => {
                Metrics::add(&self.metrics.reload_failed, 1);
                ReloadOutcome::Rejected(e.to_string())
            }
        };
        self.reload_in_flight.store(false, Ordering::Release);
        outcome
    }
}

/// What a hot-reload attempt did.
pub(crate) enum ReloadOutcome {
    /// The candidate passed validation and is now serving; carries the
    /// new table epoch.
    Swapped(u64),
    /// Another reload is validating right now; retry shortly.
    InFlight,
    /// The candidate was rejected; the old table keeps serving.
    Rejected(String),
}

/// Why [`read_frame_watchdog`] gave up on a connection. The I/O
/// details are deliberately dropped: the reader's only move either way
/// is to stop, and only the stall distinction changes metrics.
enum ReadFrameError {
    /// The mid-frame stall watchdog fired.
    Stalled,
    /// Ordinary I/O failure (reset, torn frame, oversized prefix).
    Io,
}

/// [`crate::wire::read_frame`] under the mid-frame stall watchdog.
///
/// The socket's read timeout (set at accept to the configured
/// `read_stall`) converts a stalled peer into `WouldBlock`/`TimedOut`
/// errors. At a frame boundary with nothing read those are an **idle**
/// connection and we simply wait again — long-lived clients are
/// legitimate. Once any byte of a frame has arrived, a timeout means
/// the peer stalled mid-frame past the budget: that is the attack (or
/// failure) the watchdog exists for, and the connection is evicted.
fn read_frame_watchdog(
    reader: &mut io::BufReader<TcpStream>,
) -> Result<Option<Vec<u8>>, ReadFrameError> {
    let mut prefix = [0u8; 4];
    if read_exact_watchdog(reader, &mut prefix, true)?.is_none() {
        return Ok(None);
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(ReadFrameError::Io);
    }
    let mut payload = vec![0u8; len];
    read_exact_watchdog(reader, &mut payload, false)?;
    Ok(Some(payload))
}

/// Fills `buf` from the reader. `idle_ok` marks a frame boundary:
/// there, a clean EOF returns `None` and timeouts loop forever;
/// mid-frame, EOF is an I/O error and a timeout trips the watchdog.
fn read_exact_watchdog(
    reader: &mut io::BufReader<TcpStream>,
    buf: &mut [u8],
    idle_ok: bool,
) -> Result<Option<()>, ReadFrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && idle_ok {
                    return Ok(None);
                }
                return Err(ReadFrameError::Io);
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if filled == 0 && idle_ok {
                    continue;
                }
                return Err(ReadFrameError::Stalled);
            }
            Err(_) => return Err(ReadFrameError::Io),
        }
    }
    Ok(Some(()))
}

pub(crate) fn render_metrics(shared: &Shared) -> String {
    let cache = shared.engine.cache_stats();
    // Rendered under the report lock: the batcher records a reply's
    // latency in the same critical section as its report entry, so the
    // latency count always equals the served count in one scrape.
    let report = lock(&shared.report);
    shared
        .metrics
        .render(&report, cache.as_ref(), shared.engine.table_epoch())
}

/// Whether shutdown draining has begun (checked by the acceptors).
pub(crate) fn is_draining(shared: &Shared) -> bool {
    lock(&shared.queue).draining
}

/// Readies an accepted socket and registers it for shutdown
/// unblocking; returns the connection's id. Must be paired with
/// [`deregister_conn`] when the connection finishes.
///
/// Every accepted socket, framed or HTTP, gets the watchdog deadlines
/// and has Nagle's algorithm off. The read timeout is the mid-frame
/// stall budget (idle at a frame boundary waits forever, see
/// `read_frame_watchdog`); the write timeout bounds a peer that stops
/// reading while replies are owed. With Nagle on, a reply written
/// while an earlier one is unacknowledged waits for the peer's next
/// request or its delayed ACK (tens of milliseconds). The writers
/// flush once per burst of replies, so with Nagle off a busy
/// connection still does not send one segment per reply.
pub(crate) fn register_conn(shared: &Shared, stream: &TcpStream) -> u64 {
    let _ = stream.set_read_timeout(Some(shared.config.read_stall));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        lock(&shared.conns).insert(id, clone);
    }
    id
}

/// Drops the registry's handle on a finished connection, releasing
/// the fd so the peer sees FIN once the conn threads drop theirs.
pub(crate) fn deregister_conn(shared: &Shared, id: u64) {
    lock(&shared.conns).remove(&id);
}

/// Registers one connection's threads for joining at shutdown, reaping
/// already-finished ones so the registry stays proportional to live
/// connections. A connection's handles are registered together: reaping
/// between them could drop a writer that finished before its reader was
/// registered.
pub(crate) fn register_threads(
    shared: &Shared,
    handles: impl IntoIterator<Item = JoinHandle<()>>,
) {
    let mut threads = lock(&shared.conn_threads);
    threads.retain(|h| !h.is_finished());
    threads.extend(handles);
}

/// A running server. Dropping it shuts it down (draining the queue).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    batcher: Option<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    http_acceptor: Option<JoinHandle<()>>,
}

/// What the server did over its lifetime, returned by
/// [`Server::shutdown`].
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// The ladder/fault aggregate over every routed request — the same
    /// tally `/metrics` renders its response, error, deadline and
    /// served-by-rung families from.
    pub report: ResilienceReport,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Frames rejected as malformed.
    pub malformed: u64,
    /// Connections evicted for a full reply buffer or a stalled read.
    pub evicted: u64,
    /// Mid-frame read watchdog firings.
    pub read_timeouts: u64,
    /// Write deadline firings (peer stopped reading).
    pub write_timeouts: u64,
    /// Transport faults injected by the chaos plane, summed over kinds.
    pub chaos_injected: u64,
}

/// Starts serving `engine` per `config`. Binds synchronously (so the
/// caller can read back [`Server::addr`]) and spawns the acceptor,
/// batcher and optional HTTP adapter threads.
pub fn serve(engine: Engine, config: ServeConfig) -> io::Result<Server> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let http_listener = match &config.http_addr {
        Some(a) => Some(TcpListener::bind(a)?),
        None => None,
    };
    let http_addr = match &http_listener {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };
    let shared = Arc::new(Shared {
        engine,
        config,
        queue: Mutex::new(QueueState {
            pending: VecDeque::new(),
            draining: false,
        }),
        queue_cv: Condvar::new(),
        metrics: Metrics::new(),
        report: Mutex::new(ResilienceReport::default()),
        conns: Mutex::new(HashMap::new()),
        conn_threads: Mutex::new(Vec::new()),
        next_conn: AtomicU64::new(0),
        drain_ns_per_net: AtomicU64::new(0),
        reload_in_flight: AtomicBool::new(false),
    });
    let batcher = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("patlabor-batcher".to_string())
            .spawn(move || shared.run_batcher())?
    };

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("patlabor-accept".to_string())
            .spawn(move || accept_loop(&shared, &listener))?
    };

    let http_acceptor = match http_listener {
        Some(listener) => {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("patlabor-http".to_string())
                    .spawn(move || http::accept_loop(&shared, &listener))?,
            )
        }
        None => None,
    };

    Ok(Server {
        shared,
        addr,
        http_addr,
        batcher: Some(batcher),
        acceptor: Some(acceptor),
        http_acceptor: Some(http_acceptor).flatten(),
    })
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if is_draining(shared) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let conn_id = register_conn(shared, &stream);
        let (reply_tx, reply_rx) =
            mpsc::sync_channel::<Vec<u8>>(shared.config.reply_buffer.max(1));
        let write_half = stream.try_clone();
        let writer = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("patlabor-conn-{conn_id}-w"))
                .spawn(move || {
                    if let Ok(write_half) = write_half {
                        shared.run_writer(conn_id, write_half, &reply_rx);
                    }
                    deregister_conn(&shared, conn_id);
                })
        };
        let reader = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("patlabor-conn-{conn_id}-r"))
                .spawn(move || {
                    shared.run_reader(conn_id, stream, reply_tx);
                })
        };
        register_threads(shared, [writer, reader].into_iter().flatten());
    }
}

/// Counts a writer-side failure against the watchdog metric when it
/// was the write deadline firing (a peer that stopped reading).
fn note_write_error(shared: &Shared, e: &io::Error) {
    if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut {
        Metrics::add(&shared.metrics.write_timeouts, 1);
    }
}

/// Applies one write-side transport fault to the outgoing frame. The
/// caller closes the connection immediately after, so damaged bytes
/// are only ever seen on a dying connection (crash-only contract).
fn inject_write_fault(
    kind: TransportFaultKind,
    out: &mut io::BufWriter<TcpStream>,
    payload: &[u8],
    delay: Duration,
) {
    match kind {
        // Vanish mid-reply: the peer sees the connection close with no
        // frame at all.
        TransportFaultKind::Disconnect => {}
        // Torn frame: full length prefix, half the payload, then FIN.
        // A stalled write is a torn frame whose peer waits out the
        // delay before seeing FIN — it exercises client read deadlines.
        TransportFaultKind::TornWrite | TransportFaultKind::StallWrite => {
            let _ = out.write_all(&(payload.len() as u32).to_le_bytes());
            let _ = out.write_all(&payload[..payload.len() / 2]);
            let _ = out.flush();
            if kind == TransportFaultKind::StallWrite {
                std::thread::sleep(delay);
            }
        }
        // Flipped bytes inside an otherwise well-formed frame: the
        // peer's parser, not its framing layer, must catch this.
        TransportFaultKind::CorruptWrite => {
            let mut corrupted = payload.to_vec();
            for byte in corrupted.iter_mut().take(8) {
                *byte ^= 0xA5;
            }
            let _ = write_frame(out, &corrupted);
            let _ = out.flush();
        }
        // Read-side fault; never returned by `write_fault`.
        TransportFaultKind::DelayRead => {}
    }
}

impl Server {
    /// The bound socket-protocol address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound HTTP-adapter address, when enabled.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// The live metrics plane (what `/metrics` renders).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The engine being served.
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// Starts draining: no new admissions, the batch in flight and
    /// everything already queued still complete. Idempotent.
    pub fn begin_shutdown(&self) {
        {
            let mut q = lock(&self.shared.queue);
            if q.draining {
                return;
            }
            q.draining = true;
        }
        self.shared.queue_cv.notify_all();
        // Poke the acceptors awake so their `incoming()` loops observe
        // the flag (accept(2) has no timeout).
        let _ = TcpStream::connect(self.addr);
        if let Some(addr) = self.http_addr {
            let _ = TcpStream::connect(addr);
        }
        // Half-close every registered connection's read side: blocked
        // reader threads see EOF and exit; replies still flow out.
        for conn in lock(&self.shared.conns).values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
    }

    /// Drains and stops the server, returning the lifetime summary.
    pub fn shutdown(mut self) -> ServeSummary {
        self.finish()
    }

    fn finish(&mut self) -> ServeSummary {
        self.begin_shutdown();
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.http_acceptor.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *lock(&self.shared.conn_threads));
        for h in handles {
            let _ = h.join();
        }
        let metrics = &self.shared.metrics;
        ServeSummary {
            report: *lock(&self.shared.report),
            rejected: Metrics::get(&metrics.rejected),
            malformed: Metrics::get(&metrics.malformed),
            evicted: Metrics::get(&metrics.evicted),
            read_timeouts: Metrics::get(&metrics.read_timeouts),
            write_timeouts: Metrics::get(&metrics.write_timeouts),
            chaos_injected: metrics.chaos_injected.iter().map(Metrics::get).sum(),
        }
    }

    /// Hot-reloads the serving table from `path` — the programmatic
    /// twin of the wire `reload` verb, used by the CLI's SIGHUP
    /// handler. Validation runs off the hot path; on any error the old
    /// table keeps serving. Returns the new table epoch on success.
    pub fn reload_table(&self, path: &str) -> Result<u64, String> {
        match self.shared.reload(path) {
            ReloadOutcome::Swapped(epoch) => Ok(epoch),
            ReloadOutcome::InFlight => Err("another reload is already in flight".to_string()),
            ReloadOutcome::Rejected(detail) => Err(detail),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.batcher.is_some() {
            let _ = self.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RouteClient;
    use crate::json::Json;
    use crate::wire::RouteRequest;
    use patlabor::LutBuilder;

    fn test_server(http: bool) -> Server {
        let engine = Engine::with_table(LutBuilder::new(4).threads(2).build());
        let config = ServeConfig {
            http_addr: http.then(|| "127.0.0.1:0".to_string()),
            ..ServeConfig::default()
        };
        serve(engine, config).expect("bind")
    }

    fn wait_for(mut cond: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(10) {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        cond()
    }

    /// Regression: a finished framed connection's writer and reader
    /// handles are pruned when the next connection registers,
    /// so the registry tracks live connections, not every connection
    /// ever served.
    #[test]
    fn finished_framed_connections_release_their_thread_handles() {
        let server = test_server(false);
        let nets = patlabor_netgen::iccad_like_suite(0x7ead, 16, 4);
        for (id, net) in (0u64..).zip(&nets) {
            let mut client = RouteClient::connect(server.addr()).expect("connect");
            let request = RouteRequest {
                id,
                net: net.clone(),
                deadline_ms: None,
            };
            let reply = client.route(&request).expect("route");
            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
            client.finish_writes().expect("half-close");
            assert!(
                client.recv().expect("eof").is_none(),
                "connection {id} kept replying"
            );
            // Connection ids count from 0 here (no HTTP adapter), and
            // thread names carry them: wait until this connection's two
            // handles are registered and every handle has exited.
            let prefix = format!("patlabor-conn-{id}-");
            assert!(
                wait_for(|| {
                    let threads = lock(&server.shared.conn_threads);
                    let mine = threads
                        .iter()
                        .filter(|h| h.thread().name().is_some_and(|n| n.starts_with(&prefix)))
                        .count();
                    mine == 2 && threads.iter().all(JoinHandle::is_finished)
                }),
                "connection {id}'s threads never exited"
            );
        }
        let kept = lock(&server.shared.conn_threads).len();
        assert!(kept <= 2, "{kept} thread handles kept after 16 finished connections");
        server.shutdown();
    }

    /// Every accepted socket, framed or HTTP, has Nagle's algorithm
    /// off. The registry's clone shares the socket, so it reads the
    /// option the connection threads write with.
    #[test]
    fn every_accepted_socket_has_nagle_off() {
        let server = test_server(true);
        let _framed = TcpStream::connect(server.addr()).expect("framed connect");
        let http_addr = server.http_addr().expect("http adapter");
        let _http = TcpStream::connect(http_addr).expect("http connect");
        assert!(wait_for(|| lock(&server.shared.conns).len() == 2));
        for (id, stream) in lock(&server.shared.conns).iter() {
            assert!(
                matches!(stream.nodelay(), Ok(true)),
                "connection {id}: nodelay() = {:?}",
                stream.nodelay()
            );
        }
        server.shutdown();
    }

    /// Satellite regression: the overload hint must track how long the
    /// queue actually takes to drain, not a constant.
    #[test]
    fn retry_after_is_monotone_in_occupancy_and_drain_time() {
        // Cold start (no batch routed yet) sends the fixed hint.
        assert_eq!(computed_retry_after_ms(1024, 0), COLD_START_RETRY_AFTER_MS);
        // 100 queued × 1 ms/net = 100 ms.
        assert_eq!(computed_retry_after_ms(100, 1_000_000), 100);
        // Sub-millisecond drains round up, never to zero, so "retry
        // immediately" is never sent.
        assert_eq!(computed_retry_after_ms(1, 10_000), 1);
        assert_eq!(computed_retry_after_ms(0, 10_000), 1);
        // Monotone in occupancy at a fixed drain rate…
        let mut last = 0;
        for occupancy in [1, 4, 64, 512, 4096] {
            let hint = computed_retry_after_ms(occupancy, 250_000);
            assert!(hint >= last, "occupancy {occupancy}: {hint} < {last}");
            last = hint;
        }
        // …and in drain time at a fixed occupancy.
        let mut last = 0;
        for drain_ns in [1_000, 50_000, 1_000_000, 20_000_000] {
            let hint = computed_retry_after_ms(64, drain_ns);
            assert!(hint >= last, "drain {drain_ns}: {hint} < {last}");
            last = hint;
        }
        // The documented cap bounds even pathological backlogs.
        assert_eq!(
            computed_retry_after_ms(1_000_000, u64::MAX),
            RETRY_AFTER_CAP_MS
        );
    }
}
