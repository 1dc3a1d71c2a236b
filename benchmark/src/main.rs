//! `benchmark` — the repository's one benchmark.
//!
//! ```text
//! benchmark [run] --workload W [--seed S] [--seconds N] [--trace [0|1]] [--out F.json]
//! benchmark run --all [--seed S] [--seconds N] [--trace [0|1]] [--out F.json]
//! benchmark compare A.json… -- B.json…
//! ```
//!
//! One process runs one workload: it sets up (table build and v4 save in
//! a child `benchmark build-table THREADS PATH`, then mmap and engine;
//! the daemon too for `serve_openloop`), measures the
//! workload's entry point for `--seconds` of timed work, checks every
//! answer it can, and prints each metric as `name value unit` followed
//! by one JSON line `{"correct", "attempted", "failed", "metrics"}` —
//! the end-to-end metrics, or with `--trace` the per-layer ones. It
//! exits non-zero when a correctness check fails. See README.md.

mod check;
mod compare;
mod cpu;
mod host;
mod recompose;
mod report;
mod run;
mod serve_load;
mod stats;
mod trace;
mod workloads;

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::{exit, Command};
use std::time::Instant;

use check::Gate;
use report::Run;
use run::Ctx;
use workloads::Workload;

/// Timed seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 5.0;

const USAGE: &str = "usage:
  benchmark [run] --workload W [--seed S] [--seconds N] [--trace [0|1]] [--out F.json]
  benchmark run --all [--seed S] [--seconds N] [--trace [0|1]] [--out F.json]
  benchmark compare A.json... -- B.json...
workloads: lut_congruent lut_unique design_iccad eco_rounds serve_openloop";

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    all: bool,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args
        .iter()
        .skip(usize::from(args.first().is_some_and(|a| a == "run")))
        .peekable();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--all" => out.all = true,
            "--seed" => {
                let s = value()?;
                let parsed = match s.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => s.parse(),
                };
                out.seed = Some(parsed.map_err(|_| format!("bad seed {s}"))?);
            }
            "--seconds" => {
                let s = value()?;
                out.seconds = Some(
                    s.parse()
                        .ok()
                        .filter(|&v: &f64| v > 0.0)
                        .ok_or_else(|| format!("bad seconds {s}"))?,
                );
            }
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => out.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.all == out.workload.is_some() {
        return Err("give exactly one of --workload W and --all".to_string());
    }
    Ok(out)
}

fn main() {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        exit(compare::main(&args[1..]));
    }
    if let [cmd, threads, path] = &args[..] {
        if cmd == "build-table" {
            let threads = threads.parse().unwrap_or(1);
            if let Err(e) = run::build_table(threads, path.as_ref()) {
                eprintln!("benchmark: could not build the table at {path}: {e}");
                exit(1);
            }
            exit(0);
        }
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            exit(2);
        }
    };
    if args.all {
        exit(run_all(&args));
    }
    let workload = args.workload.expect("checked by parse_args");
    let ctx = Ctx {
        workload,
        seed: args.seed.unwrap_or_else(|| workload.default_seed()),
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: args.trace,
        threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        process_start,
    };
    let run = match execute(&ctx) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("benchmark: {} failed: {e}", workload.name());
            exit(1);
        }
    };
    print!("{}", run.lines());
    let line = match run.result_line(ctx.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("benchmark: {e}");
            exit(1);
        }
    };
    println!("{line}");
    if let Some(path) = &args.out {
        if let Err(e) = append_row(path, &run.row(&report::git_rev())) {
            eprintln!("benchmark: could not write {}: {e}", path.display());
            exit(1);
        }
    }
    exit(if run.correct { 0 } else { 1 });
}

/// One workload, set-up to teardown.
fn execute(ctx: &Ctx) -> io::Result<Run> {
    let mut run = Run {
        workload: ctx.workload.name(),
        seed: ctx.seed,
        seconds: ctx.seconds,
        hardware_threads: ctx.threads,
        ..Run::default()
    };
    let mut gate = Gate::default();
    eprintln!(
        "benchmark: {} seed {} for {} s on {} hardware threads{}",
        ctx.workload.name(),
        ctx.seed,
        ctx.seconds,
        ctx.threads,
        if ctx.trace { ", traced" } else { "" }
    );
    let mut setup = run::set_up(ctx, &mut run)?;
    let ops = match ctx.workload {
        Workload::LutCongruent | Workload::LutUnique | Workload::DesignIccad => {
            run::batch_workload(ctx, &setup, &mut run, &mut gate)
        }
        Workload::EcoRounds => run::eco_workload(ctx, &setup, &mut run, &mut gate),
        Workload::ServeOpenloop => serve_load::serve_workload(ctx, &setup, &mut run, &mut gate)?,
    };
    // Peak memory of the measured work, before a traced pass adds to it.
    run.push("peak_rss_mb", report::peak_rss_mb().unwrap_or(0.0), "MiB");
    host::adjust(&mut run);
    if ctx.trace {
        run::traced(ctx, &setup, &ops, &mut run, &mut gate)?;
    }
    if let Some(server) = setup.server.take() {
        server.shutdown();
    }
    run.correct = gate.passed();
    run.digest = gate.digest_value();
    eprintln!(
        "benchmark: {} checks, {}",
        gate.checks,
        if run.correct { "all passed" } else { "FAILED" }
    );
    Ok(run)
}

fn append_row(path: &PathBuf, row: &str) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{row}")?;
    file.sync_all()
}

/// `run --all`: every workload in its own child process, one after
/// another, so each reports its own set-up time and peak memory.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for workload in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", workload.name()]);
        if let Some(seed) = args.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        if let Some(seconds) = args.seconds {
            cmd.args(["--seconds", &seconds.to_string()]);
        }
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(out) = &args.out {
            cmd.arg("--out").arg(out);
        }
        println!("== {}", workload.name());
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("benchmark: {} exited with {status}", workload.name());
                code = 1;
            }
            Err(e) => {
                eprintln!("benchmark: could not start {}: {e}", workload.name());
                code = 1;
            }
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_bare_and_the_run_forms() {
        let a = args("--workload eco_rounds --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::EcoRounds), Some(7), Some(10.0), false)
        );
        let a = args("run --workload lut_unique --trace --out rows.json").unwrap();
        assert!(a.trace && a.out.is_some());
        let a = args("run --all --seed 0x10").unwrap();
        assert_eq!((a.all, a.seed), (true, Some(16)));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err(), "a workload or --all is required");
        assert!(args("--workload lut_unique --all").is_err());
        assert!(args("--workload lut_unique --seconds 0").is_err());
    }
}
