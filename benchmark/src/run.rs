//! Set-up, the in-process workloads (`lut_*`, `design_iccad`,
//! `eco_rounds`) and the traced run every workload ends with under
//! `--trace`.

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use patlabor::cache::CacheKey;
use patlabor::{
    BatchStats, CacheConfig, Cost, DeltaJob, Engine, LookupTable, LutBuilder, Net, NetDelta,
    RouteResult, RouteSource, Session,
};
use patlabor_baselines::rsmt::rsmt_tree;
use patlabor_geom::NetClass;
use patlabor_pareto::metrics::hypervolume;
use patlabor_serve::{parse_any_request, result_to_json, RerouteRequest, RouteRequest, Server};

use crate::check::{DwSample, Gate, WITNESS_STRIDE};
use crate::cpu;
use crate::recompose::{Answer, Recomposer};
use crate::report::Run;
use crate::stats::{median, sorted, tail};
use crate::trace::{self_times, total_times, Recorder};
use crate::workloads::{self, Workload, LAMBDA};

/// Times the whole set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed phase measures, in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Routing threads: all hardware threads.
    pub threads: usize,
    pub process_start: Instant,
}

impl Ctx {
    /// Whether the measuring loop should run another unit of work: always
    /// until `min` units are done, then while the loop, started at
    /// `start`, has run for less than `--seconds`.
    fn more(&self, done: usize, min: usize, start: Instant) -> bool {
        done < min || start.elapsed().as_secs_f64() < self.seconds
    }
}

/// The ready state: the engine every timed call goes through and, for
/// `serve_openloop`, the listening daemon around it.
pub struct Setup {
    pub engine: Engine,
    pub server: Option<Server>,
}

impl Setup {
    /// Another engine over the same mapped table, with a cold cache of
    /// its own (or none).
    pub fn fresh_engine(&self, cache: bool) -> Engine {
        let config = if cache {
            self.engine.config().cache
        } else {
            CacheConfig::disabled()
        };
        self.engine.clone().with_cache(config)
    }
}

/// Builds the λ = 6 table and saves it as v4 in a child process, maps it
/// and wraps it in an engine (and, for `serve_openloop`, starts the
/// daemon on it), three times. The first repetition is timed from
/// process start. Reports the median of each phase; the last
/// repetition's state is kept. The file is unlinked once mapped, so the
/// next repetition writes a new one and nothing is left behind.
pub fn set_up(ctx: &Ctx, run: &mut Run) -> io::Result<Setup> {
    let dir = PathBuf::from("target/benchmark");
    std::fs::create_dir_all(&dir)?;
    let table_path = dir.join(format!("lut{LAMBDA}-{}.plut", std::process::id()));
    let (mut setup_s, mut build_s, mut open_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 {
            ctx.process_start
        } else {
            Instant::now()
        };
        let t = Instant::now();
        build_table_in_child(ctx.threads, &table_path)?;
        build_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let mapped = LookupTable::open_mmap(&table_path)
            .map_err(|e| io::Error::other(format!("open {}: {e}", table_path.display())))?;
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::fs::remove_file(&table_path)?;
        let engine = Engine::with_table(mapped);
        let server = match ctx.workload {
            Workload::ServeOpenloop => {
                Some(patlabor_serve::serve(engine.clone(), Default::default())?)
            }
            _ => None,
        };
        setup_s.push(start.elapsed().as_secs_f64());
        run.host.sample();
        if let Some(Setup {
            server: Some(old), ..
        }) = ready.replace(Setup { engine, server })
        {
            old.shutdown();
        }
    }
    run.push("setup_s", median(&setup_s), "s");
    run.push("lut.build_s", median(&build_s), "s");
    run.push("lut.open_ms", median(&open_ms), "ms");
    Ok(ready.expect("at least one set-up repetition"))
}

/// Runs `benchmark build-table` as a child process and waits for it, as
/// a deployment runs `patlabor lut build` before the router or daemon
/// maps the file. The builder's threads leave a transient heap whose
/// retained size depends on their timing (about 2 MiB either way);
/// building elsewhere keeps it out of the measured process's
/// `peak_rss_mb`.
fn build_table_in_child(threads: usize, path: &Path) -> io::Result<()> {
    let status = Command::new(std::env::current_exe()?)
        .arg("build-table")
        .arg(threads.to_string())
        .arg(path)
        .status()?;
    if status.success() {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "table build exited with {status}"
        )))
    }
}

/// `benchmark build-table THREADS PATH`: builds the λ = 6 table with
/// `THREADS` threads and saves it as v4 at `PATH`.
pub fn build_table(threads: usize, path: &Path) -> io::Result<()> {
    LutBuilder::new(LAMBDA).threads(threads).build().save(path)
}

/// Provenance tallies over routed results: which rung served, and the
/// work the LUT and local-search stages did.
#[derive(Debug, Default)]
pub struct Tally {
    pub ops: u64,
    pub failed: u64,
    sources: [u64; SOURCES.len()],
    lut_nets: u64,
    candidates: u64,
    survivors: u64,
    ls_nets: u64,
    ls_rounds: u64,
    ls_candidates: u64,
}

const SOURCES: [&str; 7] = [
    "exact-lut",
    "cache-hit",
    "local-search",
    "reused",
    "numeric-dw",
    "baseline",
    "closed-form",
];

impl Tally {
    pub fn record(&mut self, result: &RouteResult) {
        let Ok(outcome) = result else {
            self.ops += 1;
            self.failed += 1;
            return;
        };
        let p = &outcome.provenance;
        self.record_source(p.source.label());
        self.record_work(result);
    }

    /// Counts one answer by the label of the rung that served it.
    pub fn record_source(&mut self, label: &str) {
        self.ops += 1;
        if let Some(i) = SOURCES.iter().position(|&s| s == label) {
            self.sources[i] += 1;
        }
    }

    /// Counts the stage work of one answer without counting it as an
    /// operation (serve takes the rung from the reply and the work from
    /// the in-process reference route).
    pub fn record_work(&mut self, result: &RouteResult) {
        let Ok(outcome) = result else { return };
        let (p, c) = (&outcome.provenance, &outcome.provenance.counters);
        match p.source {
            RouteSource::ExactLut => {
                self.lut_nets += 1;
                self.candidates += u64::from(c.candidates_scored);
                self.survivors += u64::from(c.trees_materialized);
            }
            RouteSource::LocalSearch => {
                self.ls_nets += 1;
                self.ls_rounds += u64::from(c.local_search_rounds);
                self.ls_candidates += u64::from(c.local_search_candidates);
            }
            _ => {}
        }
    }

    pub fn push_metrics(&self, run: &mut Run) {
        let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        for (label, &count) in SOURCES.iter().zip(&self.sources).take(6) {
            run.push(
                format!("engine.source.{label}_ratio"),
                per(count, self.ops),
                "ratio",
            );
        }
        run.push(
            "lut.candidates_per_net",
            per(self.candidates, self.lut_nets),
            "count",
        );
        run.push(
            "lut.survivors_per_net",
            per(self.survivors, self.lut_nets),
            "count",
        );
        run.push(
            "lut.survivor_ratio",
            per(self.survivors, self.candidates),
            "ratio",
        );
        run.push(
            "local_search.rounds_per_net",
            per(self.ls_rounds, self.ls_nets),
            "count",
        );
        run.push(
            "local_search.candidates_per_net",
            per(self.ls_candidates, self.ls_nets),
            "count",
        );
    }
}

/// Batch-driver telemetry folded over every timed batch.
#[derive(Debug, Default)]
pub struct BatchTally {
    batches: u64,
    busy_weighted: f64,
    elapsed: f64,
    min_utilization: f64,
    steals: u64,
    failed_steals: u64,
}

impl BatchTally {
    pub fn record(&mut self, stats: &BatchStats) {
        let elapsed = stats.elapsed_ns as f64;
        self.batches += 1;
        self.busy_weighted += stats.utilization() * elapsed;
        self.elapsed += elapsed;
        self.min_utilization += stats.min_worker_utilization();
        self.steals += stats.total_steals();
        self.failed_steals += stats.total_failed_steals();
    }

    /// Utilization weighted by batch time; the rest are means per batch.
    pub fn push_metrics(&self, run: &mut Run) {
        let n = self.batches.max(1) as f64;
        run.push(
            "batch.utilization",
            self.busy_weighted / self.elapsed.max(1.0),
            "ratio",
        );
        run.push(
            "batch.min_worker_utilization",
            self.min_utilization / n,
            "ratio",
        );
        run.push("batch.steals", self.steals as f64 / n, "count");
        run.push(
            "batch.failed_steals",
            self.failed_steals as f64 / n,
            "count",
        );
    }
}

/// Frontier-cache counters of the engine that served the run.
pub fn push_cache_metrics(engine: &Engine, run: &mut Run) {
    let stats = engine.cache_stats().unwrap_or_default();
    run.push("cache.hit_ratio", stats.hit_rate(), "ratio");
    run.push(
        "cache.bypassed",
        f64::from(u8::from(stats.bypassed)),
        "count",
    );
    run.push(
        "cache.contended",
        (stats.contended_reads + stats.contended_writes) as f64,
        "count",
    );
}

/// Pushes `p50_ms`, `p90_ms` and `p99_ms` over every per-operation
/// latency of the run, in ms. `p99_ms` reports the highest of p99, p90
/// and p50 that leaves ten samples beyond it.
pub fn push_latency(run: &mut Run, latencies_ms: Vec<f64>) {
    let samples = sorted(latencies_ms);
    let p50 = crate::stats::quantile(&samples, 0.5);
    let p90 = crate::stats::quantile(&samples, 0.9);
    match (p50, p90, tail(&samples)) {
        (Some(p50), Some(p90), Some((_, p99))) => {
            run.push("p50_ms", p50, "ms");
            run.push("p90_ms", p90, "ms");
            run.push("p99_ms", p99, "ms");
            run.push("latency_samples", samples.len() as f64, "count");
        }
        _ => eprintln!("benchmark: too few latency samples ({})", samples.len()),
    }
}

/// Operations of the timed calls into a workload's entry point, and the
/// wall and CPU time those calls took.
#[derive(Debug, Default)]
pub struct Throughput {
    ops: u64,
    wall_s: f64,
    cpu_s: f64,
}

impl Throughput {
    /// Runs and times `call`, which performs `ops` operations.
    pub fn time<T>(&mut self, ops: usize, call: impl FnOnce() -> T) -> T {
        let (cpu, wall) = (cpu::process_s(), Instant::now());
        let out = call();
        self.wall_s += wall.elapsed().as_secs_f64();
        self.cpu_s += cpu::process_s() - cpu;
        self.ops += ops as u64;
        out
    }

    /// Pushes `ops_per_cpu_s`, operations per second of CPU time summed
    /// over the process's threads, and `ops_per_s`, operations per
    /// second of wall time.
    pub fn push_metrics(&self, run: &mut Run) {
        run.push("ops_per_cpu_s", self.ops as f64 / self.cpu_s, "1/s");
        run.push("ops_per_s", self.ops as f64 / self.wall_s, "1/s");
    }
}

/// The per-result checks every workload applies: failed slots are
/// counted, every [`WITNESS_STRIDE`]-th frontier has its witnesses
/// checked, and tabulated nets are offered to the DW sample.
fn check_result(
    gate: &mut Gate,
    dw: &mut DwSample,
    what: &str,
    i: usize,
    net: &Net,
    result: &RouteResult,
) {
    match result {
        Ok(outcome) if i.is_multiple_of(WITNESS_STRIDE) => {
            gate.witnesses(&format!("{what} {i}"), net, &outcome.frontier)
        }
        Ok(_) => {}
        Err(e) => eprintln!("benchmark: {what} {i} failed: {e}"),
    }
    dw.offer(net, result);
}

/// Sizes of the batch workloads.
struct BatchPlan {
    batch: usize,
    /// Batches routed before timing starts: they fill the frontier cache
    /// to its steady state, and they alone feed the frontier digest.
    warmup: usize,
    trace_nets: usize,
}

/// Batch `k` of `n` nets of a workload's stream.
type Generator = Box<dyn Fn(usize, usize) -> Vec<Net>>;

/// Serial operations timed after each batch or round for the latency
/// percentiles. Slices spread the samples over the whole run.
const LATENCY_SLICE: usize = 1_000;
/// Batches or rounds a run measures at the least, however long they take.
const MIN_UNITS: usize = 3;
/// Offset of the latency slices in a generator's batch index space, far
/// from any batch a run reaches.
const LATENCY_STREAM: usize = 1 << 20;

/// `lut_congruent`, `lut_unique` and `design_iccad`: time
/// `Engine::route_batch` over freshly generated batches, each followed
/// by a slice of single `Engine::route` calls through the warm engine.
pub fn batch_workload(ctx: &Ctx, setup: &Setup, run: &mut Run, gate: &mut Gate) -> Vec<Op> {
    let pool = workloads::masters(ctx.seed);
    let seed = ctx.seed;
    let (plan, generate): (BatchPlan, Generator) = match ctx.workload {
        Workload::LutCongruent | Workload::LutUnique => {
            let of3 = if ctx.workload == Workload::LutCongruent {
                2
            } else {
                0
            };
            (
                // Four batches put 67k distinct classes through the 64k-entry cache.
                BatchPlan {
                    batch: 50_000,
                    warmup: 4,
                    trace_nets: 20_000,
                },
                Box::new(move |k, n| workloads::lut_batch(seed, &pool, of3, k, n)),
            )
        }
        _ => (
            BatchPlan {
                batch: 2_500,
                warmup: 4,
                trace_nets: 1_000,
            },
            Box::new(move |k, n| workloads::design_batch(seed, k, n)),
        ),
    };
    let engine = &setup.engine;
    let mut dw = DwSample::default();
    for k in 0..plan.warmup {
        let nets = generate(k, plan.batch);
        let results = engine.route_batch(&nets, ctx.threads);
        for (i, (net, result)) in nets.iter().zip(&results).enumerate() {
            gate.digest(result);
            check_result(gate, &mut dw, "warm-up net", i, net, result);
        }
        run.attempted += results.len() as u64;
        run.failed += results.iter().filter(|r| r.is_err()).count() as u64;
        if k == 0 && ctx.workload == Workload::DesignIccad {
            run.push(
                "local_search.hypervolume",
                ls_hypervolume(&nets, &results),
                "ratio",
            );
        }
    }

    let (mut tally, mut batches) = (Tally::default(), BatchTally::default());
    let (mut throughput, mut latencies) = (Throughput::default(), Vec::new());
    let start = Instant::now();
    let mut k = plan.warmup;
    while ctx.more(k - plan.warmup, MIN_UNITS, start) {
        let nets = generate(k, plan.batch);
        let (results, stats) = throughput.time(nets.len(), || {
            engine.route_batch_with_stats(&nets, ctx.threads)
        });
        batches.record(&stats);
        run.host.sample();
        for (i, (net, result)) in nets.iter().zip(&results).enumerate() {
            tally.record(result);
            check_result(gate, &mut dw, "batch net", i, net, result);
        }

        let sample = generate(LATENCY_STREAM + k, LATENCY_SLICE);
        for (i, net) in sample.iter().enumerate() {
            let t = Instant::now();
            let result = engine.route(net);
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            check_result(
                gate,
                &mut DwSample::default(),
                "latency net",
                i,
                net,
                &result,
            );
            run.attempted += 1;
            run.failed += u64::from(result.is_err());
        }
        run.host.sample();
        k += 1;
    }
    throughput.push_metrics(run);
    eprintln!(
        "benchmark: {} nets in {} timed batches over {:.1} s",
        tally.ops,
        k - plan.warmup,
        start.elapsed().as_secs_f64()
    );
    push_latency(run, latencies);

    dw.verify(gate, ctx.threads);
    finish_counts(run, &tally, engine);
    batches.push_metrics(run);
    generate(0, plan.trace_nets)
        .into_iter()
        .map(Op::Route)
        .collect()
}

fn finish_counts(run: &mut Run, tally: &Tally, engine: &Engine) {
    run.attempted += tally.ops;
    run.failed += tally.failed;
    tally.push_metrics(run);
    push_cache_metrics(engine, run);
}

/// Local-search quality: the mean, over the above-λ nets, of the
/// frontier's hypervolume up to `(2·w_RSMT, 2·d_lb)` divided by
/// `w_RSMT·d_lb`, where `w_RSMT` is the RSMT heuristic's wirelength and
/// `d_lb` the net's delay lower bound. It keeps a speed-up from being
/// bought with worse trees.
fn ls_hypervolume(nets: &[Net], results: &[RouteResult]) -> f64 {
    let scores: Vec<f64> = nets
        .iter()
        .zip(results)
        .filter(|(net, _)| net.degree() > LAMBDA as usize)
        .filter_map(|(net, result)| {
            let frontier = &result.as_ref().ok()?.frontier;
            let (w, d) = (rsmt_tree(net).objectives().0, net.delay_lower_bound());
            (w > 0 && d > 0).then(|| {
                hypervolume(frontier, Cost::new(2 * w, 2 * d)) as f64 / (w as f64 * d as f64)
            })
        })
        .collect();
    crate::stats::mean(&scores)
}

/// Nets in the routed ECO design.
const ECO_DESIGN: usize = 200_000;
/// Edits per ECO round.
const ECO_EDITS: usize = 20_000;
/// Every this-many-th edit is checked against a fresh route.
const ECO_FRESH_STRIDE: usize = 64;
/// Every this-many-th edit is classified to tell class-preserving edits.
const ECO_CLASS_STRIDE: usize = 8;

/// `eco_rounds`: route a 200k-net design untimed, then time rounds of
/// `Engine::route_batch_deltas` over 20k distinct edited nets each, every
/// net's lineage chained from its previous outcome.
pub fn eco_workload(ctx: &Ctx, setup: &Setup, run: &mut Run, gate: &mut Gate) -> Vec<Op> {
    let engine = &setup.engine;
    let fresh = setup.fresh_engine(false);
    let pool = workloads::masters(ctx.seed);
    let design: Vec<Net> = (0..ECO_DESIGN as u64)
        .map(|g| workloads::tabulated_net(ctx.seed, &pool, 1, g).0)
        .collect();
    let mut base_tally = Tally::default();
    let mut dw = DwSample::default();
    for (c, chunk) in design.chunks(50_000).enumerate() {
        let results = engine.route_batch(chunk, ctx.threads);
        for (j, (net, result)) in chunk.iter().zip(&results).enumerate() {
            base_tally.record(result);
            gate.digest(result);
            check_result(gate, &mut dw, "design net", c * 50_000 + j, net, result);
        }
    }
    run.attempted += base_tally.ops;
    run.failed += base_tally.failed;

    let mut current = design.clone();
    let mut prior = vec![0u32; ECO_DESIGN];
    let (mut tally, mut batches) = (Tally::default(), BatchTally::default());
    let (mut sampled, mut preserving, mut replayed) = (0u64, 0u64, 0u64);
    let mut edit_no = 0usize;
    let mut round = 0usize;
    let mut apply_round = |jobs: &[(usize, DeltaJob)],
                           results: &[RouteResult],
                           digest: bool,
                           gate: &mut Gate,
                           tally: &mut Tally,
                           current: &mut [Net],
                           prior: &mut [u32]| {
        for ((i, job), result) in jobs.iter().zip(results) {
            tally.record(result);
            let mutated = job.delta.apply();
            if digest {
                gate.digest(result);
            }
            check_result(
                gate,
                &mut DwSample::default(),
                "edit",
                edit_no,
                &mutated,
                result,
            );
            if let Ok(outcome) = result {
                if edit_no.is_multiple_of(ECO_FRESH_STRIDE) {
                    let again = fresh.route(&mutated);
                    gate.check(again.as_ref().is_ok_and(|f| f.frontier == outcome.frontier), || {
                        format!("edit {edit_no}: delta frontier differs from a fresh route of the edited net")
                    });
                }
                let reused = matches!(outcome.provenance.source, RouteSource::Reused { .. });
                if edit_no.is_multiple_of(ECO_CLASS_STRIDE) {
                    sampled += 1;
                    if class_preserving(&job.delta.base, &mutated) {
                        preserving += 1;
                        replayed += u64::from(reused);
                    }
                }
                prior[*i] = match outcome.provenance.source {
                    RouteSource::Reused { staleness } => staleness,
                    _ => 0,
                };
            } else {
                prior[*i] = 0;
            }
            current[*i] = mutated;
            edit_no += 1;
        }
    };
    let jobs_for =
        |round: u64, count: usize, current: &[Net], prior: &[u32]| -> Vec<(usize, DeltaJob)> {
            workloads::eco_targets(ctx.seed, round, ECO_DESIGN, count)
                .into_iter()
                .enumerate()
                .map(|(e, i)| {
                    let kind = workloads::eco_edit(ctx.seed, round, e as u64, &current[i]);
                    let delta = NetDelta::new(current[i].clone(), kind);
                    (
                        i,
                        DeltaJob {
                            delta,
                            prior_edits: prior[i],
                            session: Session::default(),
                        },
                    )
                })
                .collect()
        };
    let trace_jobs = jobs_for(0, ECO_EDITS, &current, &prior);
    let (mut throughput, mut latencies) = (Throughput::default(), Vec::new());
    let start = Instant::now();
    while ctx.more(round, MIN_UNITS, start) {
        let jobs = jobs_for(round as u64, ECO_EDITS, &current, &prior);
        let slots: Vec<DeltaJob> = jobs.iter().map(|(_, j)| j.clone()).collect();
        let (results, stats) = throughput.time(slots.len(), || {
            engine.route_batch_deltas(&slots, ctx.threads)
        });
        batches.record(&stats);
        run.host.sample();
        apply_round(
            &jobs,
            &results,
            round < 3,
            gate,
            &mut tally,
            &mut current,
            &mut prior,
        );

        // A slice of single edits through the warm engine.
        let jobs = jobs_for(
            (LATENCY_STREAM + round) as u64,
            LATENCY_SLICE,
            &current,
            &prior,
        );
        let mut results = Vec::with_capacity(jobs.len());
        for (_, job) in &jobs {
            let t = Instant::now();
            let result = engine.reroute_with_staleness(&job.delta, job.prior_edits, &job.session);
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            results.push(result);
        }
        run.host.sample();
        apply_round(
            &jobs,
            &results,
            false,
            gate,
            &mut tally,
            &mut current,
            &mut prior,
        );
        round += 1;
    }
    throughput.push_metrics(run);
    eprintln!(
        "benchmark: {} edits in {round} rounds over {:.1} s",
        tally.ops,
        start.elapsed().as_secs_f64()
    );
    push_latency(run, latencies);

    dw.verify(gate, ctx.threads);
    finish_counts(run, &tally, engine);
    batches.push_metrics(run);
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    run.push("eco.preserving_ratio", per(preserving, sampled), "ratio");
    run.push("eco.replay_ratio", per(replayed, preserving), "ratio");

    // The traced prefix: the first 10k edits of round 0, after routing
    // their base nets on the trace engine.
    let traced: Vec<(usize, DeltaJob)> = trace_jobs.into_iter().take(10_000).collect();
    let mut ops: Vec<Op> = traced
        .iter()
        .map(|(i, _)| Op::Route(design[*i].clone()))
        .collect();
    ops.extend(
        traced
            .into_iter()
            .map(|(_, job)| Op::Reroute(job.delta, job.prior_edits)),
    );
    ops
}

/// Whether an edit kept its net in the same congruence class (both
/// tabulated and canonicalizing to one cache key).
fn class_preserving(base: &Net, mutated: &Net) -> bool {
    let key = |net: &Net| {
        (3..=LAMBDA as usize)
            .contains(&net.degree())
            .then(|| NetClass::of(net).map(|c| CacheKey::from_class(&c)))
            .flatten()
    };
    matches!((key(base), key(mutated)), (Some(a), Some(b)) if a == b)
}

/// One operation of a traced prefix.
#[derive(Debug, Clone)]
pub enum Op {
    Route(Net),
    Reroute(NetDelta, u32),
}

/// Repetitions of each pass of the traced run; totals are their medians.
const TRACE_REPS: usize = 3;

/// The traced run over a workload's prefix. After one untimed warm-up
/// pass, each repetition runs three passes, each on a cold frontier
/// cache: (A) `Engine::route` / `Engine::reroute_with_staleness`
/// serially, timed per operation; (B) the same operations recomposed
/// from the layers' public calls with the recorder off, for the tracing
/// overhead; (C) the recomposition with a span around each call, every
/// answer asserted equal to (A)'s. The last (C) pass's spans, plus the
/// wire layer's four calls per operation, are the trace.
pub fn traced(
    ctx: &Ctx,
    setup: &Setup,
    ops: &[Op],
    run: &mut Run,
    gate: &mut Gate,
) -> io::Result<()> {
    let table = setup.engine.table();
    let session = Session::default();
    let engine_pass = |op_ns: &mut Vec<f64>| -> (f64, Vec<RouteResult>) {
        let engine = setup.fresh_engine(true);
        let mut total = 0.0;
        let results = ops
            .iter()
            .map(|op| {
                let t = Instant::now();
                let result = match op {
                    Op::Route(net) => engine.route(net),
                    Op::Reroute(delta, prior) => {
                        engine.reroute_with_staleness(delta, *prior, &session)
                    }
                };
                let ns = t.elapsed().as_nanos() as f64;
                op_ns.push(ns);
                total += ns;
                result
            })
            .collect();
        (total, results)
    };
    let recompose_pass = |rec: &mut Recorder| -> (f64, Vec<Answer>) {
        let recomposer = Recomposer::new(&setup.engine, &table);
        let t = Instant::now();
        let answers = ops
            .iter()
            .enumerate()
            .map(|(i, op)| match op {
                Op::Route(net) => recomposer.route(rec, i as u64, net),
                Op::Reroute(delta, prior) => recomposer.reroute(rec, i as u64, delta, *prior),
            })
            .collect();
        (t.elapsed().as_nanos() as f64, answers)
    };

    // Touches the table's pages and warms the allocator, so the first
    // timed pass does not pay for what the others get free.
    recompose_pass(&mut Recorder::new(false));
    let (mut op_ns, mut engine_ns, mut untraced_ns, mut traced_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut outcomes = Vec::new();
    let mut rec = Recorder::new(true);
    for rep in 0..TRACE_REPS {
        let (ns, results) = engine_pass(&mut op_ns);
        engine_ns.push(ns);
        if rep == 0 {
            outcomes = results;
        }
        untraced_ns.push(recompose_pass(&mut Recorder::new(false)).0);
        rec = Recorder::new(true);
        let (ns, answers) = recompose_pass(&mut rec);
        traced_ns.push(ns);
        for (i, (outcome, (frontier, source))) in outcomes.iter().zip(&answers).enumerate() {
            gate.check(
                outcome.as_ref().is_ok_and(|o| o.frontier == *frontier && o.provenance.source == *source),
                || format!("traced op {i}: recomposed {source} frontier differs from the engine's answer"),
            );
        }
    }
    for (i, (op, outcome)) in ops.iter().zip(&outcomes).enumerate() {
        wire_spans(&mut rec, gate, i as u64, op, outcome);
    }
    let (engine_ns, untraced_ns, traced_ns) =
        (median(&engine_ns), median(&untraced_ns), median(&traced_ns));

    let spans = rec.spans();
    let selfs = self_times(spans);
    let totals = total_times(spans);
    let per_span = |name: &str, scale: f64| {
        selfs
            .get(name)
            .map_or(0.0, |&(ns, n)| ns as f64 / n as f64 / scale)
    };
    for (name, metric) in [
        ("lut.classify", "lut.classify_ns"),
        ("lut.lookup", "lut.lookup_ns"),
        ("lut.score", "lut.score_ns"),
        ("lut.materialize", "lut.materialize_ns"),
        ("cache.probe", "cache.probe_ns"),
        ("cache.insert", "cache.insert_ns"),
        ("engine.validate", "engine.validate_ns"),
    ] {
        run.push(metric, per_span(name, 1.0), "ns");
    }
    for (name, metric) in [
        ("wire.request_encode", "wire.request_encode_us"),
        ("wire.request_parse", "wire.request_parse_us"),
        ("wire.reply_render", "wire.reply_render_us"),
        ("wire.reply_parse", "wire.reply_parse_us"),
    ] {
        run.push(metric, per_span(name, 1e3), "us");
    }
    if let Some(&(ns, n)) = totals.get("local_search") {
        run.push("local_search.us_per_net", ns as f64 / n as f64 / 1e3, "us");
        for (name, metric) in [
            ("local_search.seed", "local_search.seed_us"),
            ("local_search.refine", "local_search.refine_us"),
            ("local_search.select", "local_search.select_us"),
            ("local_search.reroute", "local_search.reroute_us"),
            ("local_search.prune", "local_search.prune_us"),
        ] {
            let self_ns = selfs.get(name).map_or(0, |s| s.0);
            run.push(metric, self_ns as f64 / n as f64 / 1e3, "us");
        }
    }
    if selfs.contains_key("eco.apply") {
        run.push("eco.apply_ns", per_span("eco.apply", 1.0), "ns");
        let fall = totals
            .get("eco.fallthrough")
            .map_or(0.0, |&(ns, n)| ns as f64 / n as f64 / 1e3);
        run.push("eco.fallthrough_us", fall, "us");
    }
    let layer_ns: u64 = selfs
        .iter()
        .filter(|(name, _)| !matches!(**name, "route" | "reroute") && !name.starts_with("wire."))
        .map(|(_, &(ns, _))| ns)
        .sum();
    run.push("trace.coverage", layer_ns as f64 / engine_ns, "ratio");
    run.push(
        "trace.overhead_pct",
        (traced_ns - untraced_ns) / untraced_ns * 100.0,
        "%",
    );
    let us = sorted(op_ns.iter().map(|ns| ns / 1e3).collect());
    run.push(
        "engine.route_us_p50",
        crate::stats::quantile(&us, 0.5).unwrap_or(0.0),
        "us",
    );
    run.push(
        "engine.route_us_p99",
        tail(&us).map_or(0.0, |(_, v)| v),
        "us",
    );
    eprintln!(
        "benchmark: traced {} operations, {} spans",
        ops.len(),
        spans.len()
    );
    for (name, (ns, n)) in &selfs {
        eprintln!(
            "  self {name:<24} {:>14.0} ns total {:>9} spans {:>10.1} ns/span",
            *ns as f64,
            n,
            *ns as f64 / *n as f64
        );
    }

    let path = PathBuf::from(format!(
        "target/benchmark/trace-{}-{}.json",
        ctx.workload.name(),
        ctx.seed
    ));
    crate::trace::write(&path, ctx.workload.name(), ctx.seed, spans)
        .map_err(|e| io::Error::other(format!("could not write {}: {e}", path.display())))?;
    run.trace_path = Some(path.display().to_string());
    Ok(())
}

/// The wire layer's four calls for one operation: encode the request,
/// parse it back, render the reply, parse the reply.
fn wire_spans(rec: &mut Recorder, gate: &mut Gate, id: u64, op: &Op, outcome: &RouteResult) {
    let payload = match op {
        Op::Route(net) => {
            let request = RouteRequest {
                id,
                net: net.clone(),
                deadline_ms: None,
            };
            rec.span("wire.request_encode", id, |_| request.to_json().render())
        }
        Op::Reroute(delta, prior) => {
            let request = RerouteRequest {
                id,
                delta: delta.clone(),
                prior_edits: *prior,
                deadline_ms: None,
            };
            rec.span("wire.request_encode", id, |_| request.to_json().render())
        }
    };
    let parsed = rec.span("wire.request_parse", id, |_| {
        parse_any_request(payload.as_bytes())
    });
    gate.check(parsed.is_ok(), || {
        format!("request {id} does not parse back")
    });
    let reply = rec.span("wire.reply_render", id, |_| {
        result_to_json(id, outcome).render()
    });
    let back = rec.span("wire.reply_parse", id, |_| patlabor_serve::parse(&reply));
    gate.check(back.is_ok(), || format!("reply {id} does not parse back"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_pool_every_sample() {
        // 4,000 samples spread evenly over [1, 2) ms, in any order.
        let mut samples: Vec<f64> = (0..4_000).map(|i| 1.0 + f64::from(i) / 4_000.0).collect();
        samples.reverse();
        let mut run = Run::default();
        push_latency(&mut run, samples);
        let near = |name: &str, want: f64| (run.get(name).unwrap() - want).abs() < 1e-9;
        assert!(near("p50_ms", 1.49975), "{:?}", run.get("p50_ms"));
        assert!(near("p90_ms", 1.89975), "{:?}", run.get("p90_ms"));
        assert!(near("p99_ms", 1.98975), "{:?}", run.get("p99_ms"));
        assert_eq!(run.get("latency_samples"), Some(4_000.0));
        // Too few samples for ten beyond p99: p99_ms falls back to p90.
        let mut run = Run::default();
        push_latency(&mut run, (1..=200).map(f64::from).collect());
        assert_eq!(run.get("p99_ms"), Some(180.0));
    }

    #[test]
    fn throughput_counts_operations_over_the_timed_calls() {
        let mut throughput = Throughput::default();
        let sum = throughput.time(1_000, || {
            let t = Instant::now();
            let mut x = 0u64;
            while t.elapsed().as_millis() < 20 {
                x = std::hint::black_box(x + 1);
            }
            x
        });
        assert!(sum > 0);
        let mut run = Run::default();
        throughput.push_metrics(&mut run);
        let wall = run.get("ops_per_s").unwrap();
        assert!(wall > 0.0 && wall <= 1_000.0 / 0.02, "{wall}");
        assert!(run.get("ops_per_cpu_s").unwrap().is_finite());
    }
}
