//! `serve_openloop`: open-loop traffic from one generator — one sender
//! thread (this one) and one receiver thread — over one connection to
//! the in-process daemon started by the set-up.
//!
//! The run is a fixed number of rounds, enough for the open-loop parts
//! to last twice `--seconds`. Each round has two parts:
//!
//! - **Open loop**: 2 s of Poisson arrivals at a rate that alternates
//!   between 500 and 1,500 requests/s every 250 ms, so a queue builds
//!   and drains twice a second. Latency (`p50_ms`, `p90_ms`, `p99_ms`)
//!   is timed from each request's *due* time to its reply, over the
//!   requests no stolen time came near (see [`calm_latencies`]).
//! - **Saturation**: 5,000 requests kept 96 deep, below the admission
//!   bound; `ops_per_cpu_s` is requests per second of the process's CPU
//!   time, client and daemon together.
//!
//! With `--trace` the SLO ladder follows: steady Poisson load from 8,000
//! requests/s upwards in 1,000-request/s steps, stopping at the first
//! step that misses the limit twice; `serve.slo_rps` is the last step
//! that met it.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{self, Receiver};
use std::thread;
use std::time::{Duration, Instant};

use patlabor::{Engine, Net, NetDelta};
use patlabor_serve::{
    read_frame, write_frame, Json, Metrics, RerouteRequest, RouteRequest, Server,
};

use crate::check::Gate;
use crate::cpu;
use crate::report::Run;
use crate::run::{push_cache_metrics, push_latency, Ctx, Op, Setup, Tally, Throughput};
use crate::stats::{mean, sorted, tail};
use crate::workloads::{poisson_schedule, serve_traffic, Traffic};

/// The open-loop parts of all rounds last this many times `--seconds`.
const OPEN_LOOP_SHARE: f64 = 2.0;
/// Seconds of open-loop traffic per round: four rate cycles.
const ROUND_OPEN_S: f64 = 2.0;
/// Requests of each round's saturation part.
const ROUND_SATURATED: usize = 5_000;
/// Most requests the saturation part leaves unanswered. It stays below
/// the default per-connection reply buffer (128 frames), which the
/// daemon evicts a connection for overflowing, and far below the
/// admission bound (1,024), so nothing is refused.
const SATURATION_WINDOW: usize = 96;
/// Traffic streams of round `r`: open loop `OPEN_STREAM + r`,
/// saturation `SATURATION_STREAM + r`. The ladder uses streams below
/// both.
const OPEN_STREAM: u64 = 2_000;
const SATURATION_STREAM: u64 = 1_000;
/// The open loop's arrival rates, alternating every half cycle. The
/// high rate stays far below what the daemon answers (over 10,000
/// requests/s), so the queue drains within each cycle, and the vCPUs
/// idle often enough that many requests see no stolen time.
const MAIN_RATES: [f64; 2] = [500.0, 1_500.0];
/// One open-loop rate cycle, in seconds: a queue builds and drains.
const CYCLE_S: f64 = 0.5;
/// How far before and after its due time stolen time counts against a
/// request (see [`calm_latencies`]).
const STEAL_WINDOW: Duration = Duration::from_millis(50);
/// Open-loop requests the latency percentiles are taken over at the
/// least.
const MIN_CALM: usize = 1_000;
/// The SLO a ladder step must meet: p99 from due time to reply.
const SLO_P99_MS: f64 = 10.0;
/// ... and its last reply no later than this after its last due time.
/// The daemon's sockets leave Nagle's algorithm on, so a step's final
/// replies wait for the client's delayed ACK (40–50 ms measured); the
/// limit sits above that so the artifact does not decide steps.
const SLO_DRAIN_MS: f64 = 100.0;
const LADDER_START: u32 = 8_000;
const LADDER_STEP: u32 = 1_000;
const LADDER_MAX: u32 = 20_000;
/// Seconds each ladder step offers load.
const STEP_S: f64 = 0.5;
/// How long after its last due time a phase waits for missing replies.
const REPLY_GRACE: Duration = Duration::from_secs(5);
/// Open-loop requests of the first round the traced run replays in
/// process.
const TRACE_OPS: usize = 4_000;

/// The client side of the one connection.
struct Conn {
    writer: BufWriter<TcpStream>,
    replies: Receiver<(Instant, Vec<u8>)>,
    next_id: u64,
}

/// A phase's requests: what was sent, when it was due, and its reply.
/// An open-loop phase also samples the daemon's queue depth and the
/// machine's stolen time every 10 ms.
struct Phase {
    due: Vec<Instant>,
    sent: Vec<Instant>,
    replies: Vec<Option<(Instant, Json)>>,
    queue_depth: Vec<f64>,
    /// `(when, cpu::steal_ticks())`, in time order.
    steal: Vec<(Instant, u64)>,
}

/// How one reply compared to the in-process answer.
#[derive(Debug, Default)]
struct Outcome {
    /// Latency from due time of every answered request; refused and
    /// unanswered requests count as missing the limit (infinite).
    latency_ms: Vec<f64>,
    rejected: u64,
    failed: u64,
    last_reply: Option<Instant>,
}

impl Conn {
    /// Sends `payloads` on the schedule `due` (seconds from now), then
    /// collects every reply. Requests carry ids `next_id..`.
    fn run_phase(
        &mut self,
        metrics: &Metrics,
        due: &[f64],
        payloads: &[Vec<u8>],
    ) -> io::Result<Phase> {
        let start = Instant::now() + Duration::from_millis(5);
        let due: Vec<Instant> = due
            .iter()
            .map(|&s| start + Duration::from_secs_f64(s))
            .collect();
        let mut sent = Vec::with_capacity(due.len());
        let (mut queue_depth, mut steal) = (Vec::new(), Vec::new());
        let mut next_sample = start;
        while sent.len() < due.len() {
            let now = Instant::now();
            if now >= next_sample {
                queue_depth.push(Metrics::get(&metrics.queue_depth) as f64);
                steal.push((now, cpu::steal_ticks()));
                next_sample += Duration::from_millis(10);
            }
            let next_due = due[sent.len()];
            if next_due > now {
                self.writer.flush()?;
                thread::sleep(next_due.min(next_sample).saturating_duration_since(now));
                continue;
            }
            while sent.len() < due.len() && due[sent.len()] <= now {
                write_frame(&mut self.writer, &payloads[sent.len()])?;
                sent.push(now);
            }
        }
        self.writer.flush()?;
        let mut replies = Replies::new(self.next_id, due.len());
        self.next_id += due.len() as u64;
        let deadline = due.last().map_or(start, |&d| d + REPLY_GRACE);
        while replies.missing > 0 && self.take_reply(&mut replies, deadline) {}
        steal.push((Instant::now(), cpu::steal_ticks()));
        Ok(Phase {
            due,
            sent,
            replies: replies.slots,
            queue_depth,
            steal,
        })
    }

    /// Sends `payloads` as fast as the daemon answers, keeping
    /// [`SATURATION_WINDOW`] unanswered: every reply is answered with
    /// the next request. A request's due time is its send time.
    fn run_saturated(&mut self, payloads: &[Vec<u8>]) -> io::Result<Phase> {
        let mut replies = Replies::new(self.next_id, payloads.len());
        self.next_id += payloads.len() as u64;
        let mut sent: Vec<Instant> = Vec::with_capacity(payloads.len());
        loop {
            let answered = payloads.len() - replies.missing;
            if sent.len() < payloads.len() && sent.len() - answered < SATURATION_WINDOW {
                let now = Instant::now();
                let burst =
                    (SATURATION_WINDOW - (sent.len() - answered)).min(payloads.len() - sent.len());
                for _ in 0..burst {
                    write_frame(&mut self.writer, &payloads[sent.len()])?;
                    sent.push(now);
                }
                self.writer.flush()?;
            }
            if replies.missing == 0 || !self.take_reply(&mut replies, Instant::now() + REPLY_GRACE)
            {
                break;
            }
        }
        Ok(Phase {
            due: sent.clone(),
            sent,
            replies: replies.slots,
            queue_depth: Vec::new(),
            steal: Vec::new(),
        })
    }

    /// Waits until `deadline` for one reply and files it by id. False
    /// when none came.
    fn take_reply(&mut self, replies: &mut Replies, deadline: Instant) -> bool {
        let Ok((at, payload)) = self
            .replies
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
        else {
            return false;
        };
        let json = std::str::from_utf8(&payload)
            .ok()
            .and_then(|t| patlabor_serve::parse(t).ok());
        let slot = json
            .as_ref()
            .and_then(|j| j.get("id")?.as_u64())
            .and_then(|id| id.checked_sub(replies.first_id))
            .and_then(|i| replies.slots.get_mut(i as usize));
        if let (Some(slot @ None), Some(json)) = (slot, json) {
            *slot = Some((at, json));
            replies.missing -= 1;
        }
        true
    }
}

/// A phase's reply slots, indexed by request id minus the first id.
struct Replies {
    first_id: u64,
    slots: Vec<Option<(Instant, Json)>>,
    missing: usize,
}

impl Replies {
    fn new(first_id: u64, n: usize) -> Self {
        Replies {
            first_id,
            slots: vec![None; n],
            missing: n,
        }
    }
}

/// A phase's requests: the routed nets, the wire payloads, and the net
/// each request routes (a reroute routes its edited net).
fn requests(traffic: &[Traffic], nets: &[Net], first_id: u64) -> (Vec<Vec<u8>>, Vec<Net>, Vec<Op>) {
    let mut payloads = Vec::with_capacity(traffic.len());
    let mut targets = Vec::with_capacity(traffic.len());
    let mut ops = Vec::with_capacity(traffic.len());
    for (i, t) in traffic.iter().enumerate() {
        let id = first_id + i as u64;
        match t {
            Traffic::Route(net) => {
                payloads.push(
                    RouteRequest {
                        id,
                        net: net.clone(),
                        deadline_ms: None,
                    }
                    .to_json()
                    .render()
                    .into_bytes(),
                );
                targets.push(net.clone());
                ops.push(Op::Route(net.clone()));
            }
            Traffic::Reroute { base, kind } => {
                let delta = NetDelta::new(nets[*base].clone(), *kind);
                let request = RerouteRequest {
                    id,
                    delta: delta.clone(),
                    prior_edits: 0,
                    deadline_ms: None,
                };
                payloads.push(request.to_json().render().into_bytes());
                targets.push(delta.apply());
                ops.push(Op::Reroute(delta, 0));
            }
        }
    }
    (payloads, targets, ops)
}

/// Checks every reply against the in-process answer for its net and
/// times it from its due time.
fn judge(
    phase: &Phase,
    expected: &[patlabor::RouteResult],
    gate: &mut Gate,
    tally: Option<&mut Tally>,
    digest: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let mut sources = Vec::new();
    for (i, reply) in phase.replies.iter().enumerate() {
        let Some((at, json)) = reply else {
            out.failed += 1;
            out.latency_ms.push(f64::INFINITY);
            if digest {
                gate.digest_costs([(i64::MIN, i64::MIN)]);
            }
            continue;
        };
        out.last_reply = Some(out.last_reply.map_or(*at, |l: Instant| l.max(*at)));
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            if json.get("error").and_then(Json::as_str) == Some("overloaded") {
                out.rejected += 1;
            } else {
                out.failed += 1;
                eprintln!("benchmark: request {i} failed: {}", json.render());
            }
            out.latency_ms.push(f64::INFINITY);
            if digest {
                gate.digest_costs([(i64::MIN, i64::MIN)]);
            }
            continue;
        }
        out.latency_ms
            .push(at.saturating_duration_since(phase.due[i]).as_secs_f64() * 1e3);
        let served: Vec<(i64, i64)> = json
            .get("frontier")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|p| Some((p.get("w")?.as_i64()?, p.get("d")?.as_i64()?)))
            .collect();
        let want: Option<Vec<(i64, i64)>> = expected[i].as_ref().ok().map(|o| {
            o.frontier
                .costs()
                .map(|c| (c.wirelength, c.delay))
                .collect()
        });
        gate.check(want.as_ref() == Some(&served), || {
            format!("request {i}: served frontier {served:?} != in-process {want:?}")
        });
        if digest {
            gate.digest_costs(served);
        }
        sources.push(
            json.get("source")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        );
    }
    if let Some(tally) = tally {
        for label in &sources {
            tally.record_source(label);
        }
    }
    out
}

/// The stolen time, in ticks, the machine saw around each request of an
/// open-loop phase: between the last sample at or before `due −
/// STEAL_WINDOW` (else the first sample) and the first at or after `due
/// + STEAL_WINDOW` (else the last).
fn window_steal(phase: &Phase) -> Vec<u64> {
    let samples = &phase.steal;
    if samples.is_empty() {
        return vec![0; phase.due.len()];
    }
    phase
        .due
        .iter()
        .map(|&due| {
            let (lo, hi) = (
                due.checked_sub(STEAL_WINDOW).unwrap_or(due),
                due + STEAL_WINDOW,
            );
            let first = samples.partition_point(|(t, _)| *t <= lo).saturating_sub(1);
            let last = samples
                .partition_point(|(t, _)| *t < hi)
                .min(samples.len() - 1);
            samples[last].1.saturating_sub(samples[first].1)
        })
        .collect()
}

/// The latencies the percentiles are taken over: those of the requests
/// whose windows saw the least stolen time. That is every request whose
/// window saw none, and at least [`MIN_CALM`] (or all) requests.
///
/// On a shared virtual machine the hypervisor takes the vCPUs away for
/// milliseconds at a time while other tenants run. A request in flight
/// then waits, and so does every request queued behind it, so whole
/// stretches of a run read several times slower. The guest kernel counts
/// that time as stolen, so requests far from any of it show what the
/// daemon itself costs.
fn calm_latencies(latency_ms: &[f64], steal: &[u64]) -> Vec<f64> {
    let mut by_steal: Vec<u64> = steal.to_vec();
    by_steal.sort_unstable();
    let limit = by_steal
        .get(MIN_CALM.min(by_steal.len()).saturating_sub(1))
        .map_or(0, |&s| s);
    latency_ms
        .iter()
        .zip(steal)
        .filter(|&(_, &s)| s <= limit)
        .map(|(&ms, _)| ms)
        .collect()
}

/// Server counters summed over the open-loop parts.
#[derive(Debug, Default)]
struct ServerSums {
    latency_ns: u64,
    responses: u64,
    batched_nets: u64,
    batches: u64,
}

impl ServerSums {
    fn read(m: &Metrics) -> Self {
        ServerSums {
            latency_ns: m.latency.sum_ns(),
            responses: m.latency.count(),
            batched_nets: Metrics::get(&m.batched_nets),
            batches: Metrics::get(&m.batches),
        }
    }

    fn add_since(&mut self, before: &Self, after: &Self) {
        self.latency_ns += after.latency_ns - before.latency_ns;
        self.responses += after.responses - before.responses;
        self.batched_nets += after.batched_nets - before.batched_nets;
        self.batches += after.batches - before.batches;
    }
}

/// Runs the rounds, then with `--trace` the SLO ladder. Returns the
/// first round's first open-loop operations for the traced run.
pub fn serve_workload(
    ctx: &Ctx,
    setup: &Setup,
    run: &mut Run,
    gate: &mut Gate,
) -> io::Result<Vec<Op>> {
    let server: &Server = setup
        .server
        .as_ref()
        .expect("the serve set-up starts the daemon");
    let reference: Engine = setup.fresh_engine(false);
    let stream = TcpStream::connect(server.addr())?;
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    let (tx, rx) = mpsc::channel();
    let receiver = thread::spawn(move || {
        let mut reader = BufReader::new(read_half);
        while let Ok(Some(payload)) = read_frame(&mut reader) {
            if tx.send((Instant::now(), payload)).is_err() {
                break;
            }
        }
    });
    let mut conn = Conn {
        writer: BufWriter::new(stream),
        replies: rx,
        next_id: 0,
    };
    let metrics = server.metrics();
    let mut tally = Tally::default();

    let rounds = (OPEN_LOOP_SHARE * ctx.seconds / ROUND_OPEN_S)
        .ceil()
        .max(1.0) as u64;
    let wall = Instant::now();
    let mut ops = Vec::new();
    let (mut latency_ms, mut steal, mut throughput) =
        (Vec::new(), Vec::new(), Throughput::default());
    let (mut lag, mut rtt, mut queue_depth) = (Vec::new(), Vec::new(), Vec::new());
    let mut sums = ServerSums::default();
    let (mut open_requests, mut saturated_requests) = (0, 0);
    for round in 0..rounds {
        // Open loop.
        let due = poisson_schedule(
            ctx.seed,
            OPEN_STREAM + round,
            &MAIN_RATES,
            CYCLE_S / 2.0,
            ROUND_OPEN_S,
        );
        let (nets, traffic) = serve_traffic(ctx.seed, OPEN_STREAM + round, &due);
        let (payloads, targets, round_ops) = requests(&traffic, &nets, conn.next_id);
        if round == 0 {
            ops = round_ops;
            ops.truncate(TRACE_OPS);
        }
        let before = ServerSums::read(metrics);
        let phase = conn.run_phase(metrics, &due, &payloads)?;
        sums.add_since(&before, &ServerSums::read(metrics));
        run.host.sample();
        let expected = reference.route_batch(&targets, ctx.threads);
        for result in &expected {
            tally.record_work(result);
        }
        let out = judge(&phase, &expected, gate, Some(&mut tally), true);
        run.attempted += due.len() as u64;
        run.failed += out.failed + out.rejected;
        open_requests += due.len();
        latency_ms.extend(out.latency_ms);
        steal.extend(window_steal(&phase));
        lag.extend(
            phase
                .sent
                .iter()
                .zip(&phase.due)
                .map(|(s, d)| s.saturating_duration_since(*d).as_secs_f64() * 1e3),
        );
        rtt.extend(phase.replies.iter().zip(&phase.sent).filter_map(|(r, s)| {
            Some(r.as_ref()?.0.saturating_duration_since(*s).as_secs_f64() * 1e3)
        }));
        queue_depth.extend(phase.queue_depth);

        // Saturation: a fixed number of requests kept SATURATION_WINDOW deep.
        let due: Vec<f64> = (0..ROUND_SATURATED).map(|i| i as f64 / 10_000.0).collect();
        let (nets, traffic) = serve_traffic(ctx.seed, SATURATION_STREAM + round, &due);
        let (payloads, targets, _) = requests(&traffic, &nets, conn.next_id);
        let phase = throughput.time(payloads.len(), || conn.run_saturated(&payloads))?;
        run.host.sample();
        let expected = reference.route_batch(&targets, ctx.threads);
        let out = judge(&phase, &expected, gate, None, false);
        run.attempted += payloads.len() as u64;
        run.failed += out.failed + out.rejected;
        saturated_requests += payloads.len();
    }
    let calm = calm_latencies(&latency_ms, &steal);
    run.push(
        "loadgen.calm_share",
        steal.iter().filter(|&&s| s == 0).count() as f64 / steal.len().max(1) as f64,
        "ratio",
    );
    push_latency(run, calm.into_iter().filter(|ms| ms.is_finite()).collect());
    throughput.push_metrics(run);
    eprintln!(
        "benchmark: {rounds} rounds in {:.1} s: {open_requests} open-loop requests, \
         {saturated_requests} saturated; p50 {:.3} ms, {:.0} requests per CPU-second",
        wall.elapsed().as_secs_f64(),
        run.get("p50_ms").unwrap_or(0.0),
        run.get("ops_per_cpu_s").unwrap_or(0.0),
    );
    run.push(
        "loadgen.lag_ms_p99",
        tail(&sorted(lag)).map_or(0.0, |(_, v)| v),
        "ms",
    );
    let server_ms = sums.latency_ns as f64 / sums.responses.max(1) as f64 / 1e6;
    run.push("serve.server_ms_mean", server_ms, "ms");
    run.push("serve.transport_ms_mean", mean(&rtt) - server_ms, "ms");
    run.push(
        "serve.batch_mean",
        sums.batched_nets as f64 / sums.batches.max(1) as f64,
        "count",
    );
    run.push("serve.queue_depth_mean", mean(&queue_depth), "count");
    run.push(
        "serve.queue_depth_max",
        queue_depth.iter().copied().fold(0.0, f64::max),
        "count",
    );

    if ctx.trace {
        ladder(ctx, &mut conn, metrics, &reference, run, gate)?;
    }
    run.push(
        "serve.rejected",
        Metrics::get(&metrics.rejected) as f64,
        "count",
    );

    // Hang up: the daemon finishes this connection's replies and closes
    // it, which ends the receiver.
    conn.writer.flush()?;
    conn.writer.get_ref().shutdown(Shutdown::Write)?;
    receiver
        .join()
        .map_err(|_| io::Error::other("receiver thread panicked"))?;

    tally.push_metrics(run);
    push_cache_metrics(server.engine(), run);
    Ok(ops)
}

/// The SLO ladder: steady Poisson load in rising steps. A step gets a
/// second try before the ladder stops, so one burst of outside load
/// does not end it. Pushes `serve.slo_rps`, the last step that met the
/// SLO.
fn ladder(
    ctx: &Ctx,
    conn: &mut Conn,
    metrics: &Metrics,
    reference: &Engine,
    run: &mut Run,
    gate: &mut Gate,
) -> io::Result<()> {
    let mut slo_rps = 0.0;
    'ladder: for (step, rate) in (LADDER_START..=LADDER_MAX)
        .step_by(LADDER_STEP as usize)
        .enumerate()
    {
        for attempt in 0..2 {
            let stream_id = 1 + 2 * step as u64 + attempt;
            let due = poisson_schedule(ctx.seed, stream_id, &[f64::from(rate)], STEP_S, STEP_S);
            let (nets, traffic) = serve_traffic(ctx.seed, stream_id, &due);
            let (payloads, targets, _) = requests(&traffic, &nets, conn.next_id);
            let phase = conn.run_phase(metrics, &due, &payloads)?;
            let expected = reference.route_batch(&targets, ctx.threads);
            let out = judge(&phase, &expected, gate, None, false);
            let p99 = tail(&sorted(out.latency_ms.clone())).map_or(f64::INFINITY, |(_, v)| v);
            let drain_ms = match (out.last_reply, phase.due.last()) {
                (Some(last), Some(&due)) => last.saturating_duration_since(due).as_secs_f64() * 1e3,
                _ => f64::INFINITY,
            };
            let met = p99 <= SLO_P99_MS
                && out.rejected == 0
                && out.failed == 0
                && drain_ms <= SLO_DRAIN_MS;
            eprintln!(
                "benchmark: ladder {rate} req/s: p99 {p99:.2} ms, drain {drain_ms:.1} ms, {} rejected{}",
                out.rejected,
                if met { "" } else { " — missed" }
            );
            run.attempted += due.len() as u64;
            // Refusals are the daemon's correct answer past its capacity;
            // only wrong or missing answers are failures.
            run.failed += out.failed;
            if met {
                slo_rps = f64::from(rate);
                continue 'ladder;
            }
        }
        break;
    }
    run.push("serve.slo_rps", slo_rps, "1/s");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_judged_against_the_in_process_answer() {
        let engine = Engine::with_table(patlabor::LutBuilder::new(4).threads(1).build());
        let net = Net::new(vec![
            patlabor::Point::new(0, 0),
            patlabor::Point::new(5, 9),
            patlabor::Point::new(9, 4),
        ])
        .unwrap();
        let result = engine.route(&net);
        let reply = patlabor_serve::result_to_json(0, &result);
        let now = Instant::now();
        let phase = |json: Json| Phase {
            due: vec![now],
            sent: vec![now],
            replies: vec![Some((now, json))],
            queue_depth: vec![],
            steal: vec![],
        };
        let mut gate = Gate::default();
        let out = judge(
            &phase(reply),
            std::slice::from_ref(&result),
            &mut gate,
            None,
            false,
        );
        assert!(gate.passed());
        assert_eq!((out.failed, out.rejected, out.latency_ms.len()), (0, 0, 1));
        let refused = patlabor_serve::parse(r#"{"id":0,"ok":false,"error":"overloaded"}"#).unwrap();
        let out = judge(
            &phase(refused),
            std::slice::from_ref(&result),
            &mut gate,
            None,
            false,
        );
        assert_eq!((out.failed, out.rejected), (0, 1));
        assert!(out.latency_ms[0].is_infinite());
        let wrong =
            patlabor_serve::parse(r#"{"id":0,"ok":true,"frontier":[{"w":1,"d":1}]}"#).unwrap();
        judge(
            &phase(wrong),
            std::slice::from_ref(&result),
            &mut gate,
            None,
            false,
        );
        assert!(!gate.passed());
    }

    #[test]
    fn stolen_time_counts_against_requests_within_the_window() {
        let t0 = Instant::now() + Duration::from_secs(1);
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Samples every 10 ms over 0..=500 ms; 3 ticks are stolen between
        // 200 and 210 ms.
        let steal = (0..=50)
            .map(|i| (at(10 * i), if i > 20 { 103 } else { 100 }))
            .collect();
        let due: Vec<Instant> = [0, 100, 145, 155, 205, 255, 265, 500]
            .into_iter()
            .map(at)
            .collect();
        let phase = Phase {
            sent: due.clone(),
            replies: vec![None; due.len()],
            due,
            queue_depth: vec![],
            steal,
        };
        assert_eq!(window_steal(&phase), [0, 0, 0, 3, 3, 3, 0, 0]);
    }

    #[test]
    fn calm_latencies_keep_the_least_stolen_requests() {
        // Plenty of untouched requests: exactly those are kept.
        let latency: Vec<f64> = (0..3 * MIN_CALM).map(|i| i as f64).collect();
        let steal: Vec<u64> = (0..3 * MIN_CALM).map(|i| u64::from(i % 3 == 0)).collect();
        let calm = calm_latencies(&latency, &steal);
        assert_eq!(calm.len(), 2 * MIN_CALM);
        assert!(calm.iter().all(|&ms| !(ms as usize).is_multiple_of(3)));
        // Few untouched requests: the least stolen make up MIN_CALM.
        let steal: Vec<u64> = (0..3 * MIN_CALM as u64).map(|i| 10 - i % 11).collect();
        let calm = calm_latencies(&latency, &steal);
        assert!(calm.len() >= MIN_CALM);
        let limit = calm.iter().map(|&ms| steal[ms as usize]).max().unwrap();
        assert!(steal.iter().filter(|&&s| s < limit).count() < MIN_CALM);
    }
}
