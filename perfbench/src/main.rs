//! FlowKV benchmark: NEXMark workloads end to end, and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--store flowkv|lsm] \
//!     [--lookup-rate <n>]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --selftest
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced runs, each in a
//! child process of its own (`--fresh-run`, see `fresh.rs`);
//! `--trace 1` prints the per-layer metrics of a traced run and writes its
//! spans as Chrome trace-event JSON. The last line of standard output is
//! the result object; the line before it records the environment. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod fresh;
mod job;
mod layers;
mod procstat;
mod recorder;
mod report;
mod serve_load;
mod source;
mod stats;
mod workloads;
mod wrap;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use flowkv_common::telemetry::HistogramSnapshot;
use job::{Env, JobRun, Store};
use procstat::Sampler;
use recorder::Recorder;
use report::{Metrics, Record};
use serve_load::LoadStats;
use workloads::{Workload, DEFAULT_SEED, PACED_LAG_BOUND};

/// Fewest unpaced job runs per benchmark run.
const MIN_MAX_RUNS: usize = 3;
/// Most unpaced job runs per benchmark run.
const MAX_RUNS: usize = 40;
/// Relative slack for store counts that vary between identical runs.
const COUNT_TOLERANCE: f64 = 0.10;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--store flowkv|lsm] [--lookup-rate <n>]\n       perfbench --selftest";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    store: Store,
    /// Overrides the workload's serve-client rate; 0 is closed loop.
    lookup_rate: Option<u64>,
    /// Set in a child started for one `max` run: the reference output
    /// (rows, CRC32) it checks against.
    fresh_run: Option<(u64, u32)>,
    selftest: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            store: Store::FlowKv,
            lookup_rate: None,
            fresh_run: None,
            selftest: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            if flag == "--selftest" {
                args.selftest = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && s.is_finite())
                        .ok_or_else(bad)?
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--store" => args.store = Store::parse(&value).ok_or_else(bad)?,
                "--lookup-rate" => args.lookup_rate = Some(value.parse().map_err(|_| bad())?),
                "--fresh-run" => {
                    let (rows, crc) = value.split_once(':').ok_or_else(bad)?;
                    let rows = rows.parse().map_err(|_| bad())?;
                    args.fresh_run = Some((rows, crc.parse().map_err(|_| bad())?));
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !args.selftest && args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.selftest {
        return selftest();
    }
    let Some(mut workload) = workloads::by_name(&args.workload) else {
        let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {}; one of {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    if let Some(rate) = args.lookup_rate {
        workload.lookup_rate = rate;
    }
    let outcome = match args.fresh_run {
        Some(reference) => fresh_run(&workload, &args, reference),
        None => bench(&workload, &args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where outputs (data dirs, span files) go: the build directory the
/// benchmark runs from.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
        .join("perfbench")
}

/// Counts operations and failures; a failure is printed, never averaged.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    /// Checks a job's success and output against the reference.
    fn job(&mut self, label: &str, run: &JobRun, reference: (u64, u32)) {
        let ok = match &run.result {
            Ok(_) => (run.outputs, run.crc) == reference,
            Err(_) => false,
        };
        self.check(ok, || match &run.result {
            Err(e) => format!("{label}: job failed: {e}"),
            Ok(_) => format!(
                "{label}: output {} rows crc32 {:08x}, reference {} rows crc32 {:08x}",
                run.outputs, run.crc, reference.0, reference.1
            ),
        });
        if let Some(load) = &run.load {
            self.attempted += load.attempted;
            self.failed += load.failed;
            if load.failed > 0 {
                eprintln!(
                    "perfbench: FAILED: {label}: {} of {} lookups failed, first: {}",
                    load.failed,
                    load.attempted,
                    load.first_error.as_deref().unwrap_or("?")
                );
            }
        }
    }
}

fn bench(wl: &Workload, args: &Args) -> Result<(), String> {
    let out = out_dir();
    let data_root = out.join(format!("data-{}", std::process::id()));
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;

    let sampler = Sampler::start(args.trace);
    let mut ledger = Ledger::default();
    let mut index = 0;
    let mut next = || {
        index += 1;
        index
    };

    // The reference output: an in-memory run of the same input, which at
    // the default seed must also match the committed output.
    let reference = {
        let mem = Env::new(wl, args.seed, Store::InMemory, &data_root)
            .map_err(|e| format!("set-up failed: {e}"))?;
        let run = job::run(&mem, mem.input.clone(), &sampler, false, None, next());
        if let Err(e) = &run.result {
            return Err(format!("in-memory reference run failed: {e}"));
        }
        if args.seed == DEFAULT_SEED {
            let committed = (wl.reference.outputs, wl.reference.crc32);
            ledger.job("in-memory reference run", &run, committed);
            committed
        } else {
            (run.outputs, run.crc)
        }
    };

    let mut metrics = Metrics::default();
    let mut env_record = Record::default();
    let started = Instant::now();
    let last = if !args.trace {
        // Unpaced runs, each in a fresh process, until the time is spent.
        // Each reports its own set-up; every metric is a median.
        let mut runs: Vec<fresh::FreshRun> = Vec::new();
        while runs.len() < MIN_MAX_RUNS
            || (runs.len() < MAX_RUNS
                && started.elapsed().as_secs_f64() + mean_cost(&runs) < args.seconds)
        {
            match fresh::run(wl, args.seed, args.store, reference) {
                Ok(run) => {
                    ledger.attempted += run.attempted;
                    ledger.failed += run.failed;
                    runs.push(run);
                }
                Err(e) => {
                    ledger.check(false, || format!("max run {}: {e}", runs.len() + 1));
                    break;
                }
            }
        }
        let median =
            |f: fn(&fresh::FreshRun) -> f64| stats::median(&runs.iter().map(f).collect::<Vec<_>>());
        metrics.put("throughput_eps", median(fresh::FreshRun::throughput), "1/s");
        metrics.put("setup_s", median(|r| r.setup_s), "s");
        metrics.put("rss_peak_mb", median(|r| r.rss_growth as f64 / 1e6), "MB");
        metrics.put("disk_peak_mb", median(|r| r.disk_peak as f64 / 1e6), "MB");
        env_record.num("max_runs", runs.len() as f64);
        let run = runs.last().copied().unwrap_or_default();
        Summary {
            outputs: run.outputs,
            firings: run.firings,
            crc: run.crc,
            round_trips_per_s: run.round_trips_per_s,
        }
    } else {
        let env = Env::new(wl, args.seed, args.store, &data_root)
            .map_err(|e| format!("set-up failed: {e}"))?;
        // Untraced and traced unpaced runs in pairs; the last traced run
        // gives the layer numbers, the medians the tracing overhead.
        let mut max_runs: Vec<JobRun> = Vec::new();
        let mut traced_runs: Vec<(JobRun, Arc<Recorder>)> = Vec::new();
        while traced_runs.is_empty()
            || (traced_runs.len() < MAX_RUNS
                && started.elapsed().as_secs_f64() + 2.0 * mean_wall(&max_runs)
                    < args.seconds - wl.paced_seconds())
        {
            let plain = job::run(&env, env.input.clone(), &sampler, false, None, next());
            ledger.job("untraced run", &plain, reference);
            let rec = Arc::new(Recorder::new());
            let traced = job::run(&env, env.input.clone(), &sampler, false, Some(&rec), next());
            ledger.job("traced run", &traced, reference);
            self_test(&mut ledger, wl.tier_hot_bytes.is_some(), &plain, &traced);
            max_runs.push(plain);
            traced_runs.push((traced, rec));
        }
        // The paced run stays untraced: its numbers (source lag, response
        // latency, client timings) are taken from outside the program.
        let paced = job::run(&env, env.input.clone(), &sampler, true, None, next());
        ledger.job("paced run", &paced, reference);
        check_schedule(&mut ledger, wl, &paced);

        let untraced_tp =
            stats::median(&max_runs.iter().map(JobRun::throughput).collect::<Vec<_>>());
        let traced_tp = stats::median(
            &traced_runs
                .iter()
                .map(|(r, _)| r.throughput())
                .collect::<Vec<_>>(),
        );
        let (traced, rec) = traced_runs.last().expect("one traced run");
        layers::metrics(&mut metrics, wl, traced, rec, &paced);
        metrics.put("bench.trace_overhead", untraced_tp / traced_tp, "ratio");
        let trace_file = out.join(format!("trace-{}-seed{}.json", wl.name, args.seed));
        rec.write_chrome_trace(&trace_file)
            .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
        metrics.put("bench.dropped_spans", rec.dropped_spans() as f64, "count");
        env_record
            .str("trace_file", trace_file.display().to_string())
            .num("max_runs", max_runs.len() as f64);
        Summary {
            outputs: paced.outputs,
            firings: paced.firings,
            crc: paced.crc,
            round_trips_per_s: paced
                .load
                .as_ref()
                .map_or(0.0, LoadStats::round_trips_per_s),
        }
    };
    let error_rate = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    if args.trace {
        metrics.put("error_rate", error_rate, "ratio");
    }
    drop(sampler);
    let fs = procstat::fs_type(&data_root);
    let _ = std::fs::remove_dir_all(&data_root);

    environment(&mut env_record, wl, args, &fs);
    env_record
        .num("output_rows", last.outputs as f64)
        .num("firings", last.firings as f64)
        .num("output_crc32", last.crc as f64)
        .num("lookup_round_trips_per_s", last.round_trips_per_s)
        .num("error_rate", error_rate);
    eprint!("{}", metrics.table());
    println!("{{\"env\": {}}}", env_record.json());
    println!(
        "{}",
        report::result_line(
            ledger.failed == 0,
            ledger.attempted,
            ledger.failed,
            &metrics
        )
    );
    Ok(())
}

/// The output of the last job run, for the environment record.
struct Summary {
    outputs: u64,
    firings: u64,
    crc: u32,
    round_trips_per_s: f64,
}

/// One `max` run in a fresh process: sets up, runs the job once, checks
/// its output against `reference`, and prints its report line.
fn fresh_run(wl: &Workload, args: &Args, reference: (u64, u32)) -> Result<(), String> {
    let data_root = out_dir().join(format!("data-{}", std::process::id()));
    let sampler = Sampler::start(false);
    let started = Instant::now();
    let env = Env::new(wl, args.seed, args.store, &data_root)
        .map_err(|e| format!("set-up failed: {e}"))?;
    let setup_s = started.elapsed().as_secs_f64();
    // The input copy is made before the memory baseline, so that the
    // growth counts only what the job allocates.
    let input = env.input.clone();
    let baseline = sampler.reset_rss();
    let run = job::run(&env, input, &sampler, false, None, 1);
    let rss_growth = sampler.rss_peak().saturating_sub(baseline);
    let mut ledger = Ledger::default();
    ledger.job("max run", &run, reference);
    drop(env);
    drop(sampler);
    let _ = std::fs::remove_dir_all(&data_root);
    let report = fresh::FreshRun {
        setup_s,
        wall_s: run.wall,
        pulls: run.source.pulls,
        disk_peak: run.disk_peak,
        rss_growth,
        attempted: ledger.attempted,
        failed: ledger.failed,
        outputs: run.outputs,
        firings: run.firings,
        crc: run.crc,
        round_trips_per_s: run.load.as_ref().map_or(0.0, LoadStats::round_trips_per_s),
    };
    println!("{}", report.to_line());
    Ok(())
}

/// Expected cost of one more fresh run: its set-up and its job.
fn mean_cost(runs: &[fresh::FreshRun]) -> f64 {
    if runs.is_empty() {
        0.0
    } else {
        runs.iter().map(|r| r.setup_s + r.wall_s).sum::<f64>() / runs.len() as f64
    }
}

fn mean_wall(runs: &[JobRun]) -> f64 {
    if runs.is_empty() {
        0.0
    } else {
        runs.iter().map(|r| r.wall).sum::<f64>() / runs.len() as f64
    }
}

/// A paced run must end on schedule within [`PACED_LAG_BOUND`].
fn check_schedule(ledger: &mut Ledger, wl: &Workload, paced: &JobRun) {
    let late = paced.source.final_lag.as_secs_f64();
    let bound = PACED_LAG_BOUND * wl.paced_seconds();
    ledger.check(late <= bound, || {
        format!("paced run ended {late:.3} s behind schedule (bound {bound:.3} s)")
    });
}

/// Traced and untraced runs must give the same output and the same
/// store counts. Records written and read repeat exactly between runs of
/// a hot store; flushes, compactions, prefetch hits, and the records of a
/// tiered store depend on how the two upstream workers' tuples
/// interleave, so two untraced runs already differ in them by a few
/// percent. Those are checked within [`COUNT_TOLERANCE`].
fn self_test(ledger: &mut Ledger, tiered: bool, plain: &JobRun, traced: &JobRun) {
    let (Ok(a), Ok(b)) = (&plain.result, &traced.result) else {
        return;
    };
    let (a, b) = (&a.store_metrics, &b.store_metrics);
    let close =
        |x: u64, y: u64| x.abs_diff(y) as f64 <= (COUNT_TOLERANCE * x.max(y) as f64).max(2.0);
    let records_ok = if tiered {
        close(a.records_written, b.records_written) && close(a.records_read, b.records_read)
    } else {
        a.records_written == b.records_written && a.records_read == b.records_read
    };
    let ok = plain.crc == traced.crc
        && records_ok
        && close(a.flushes, b.flushes)
        && close(a.compactions, b.compactions)
        && close(a.prefetch_hits, b.prefetch_hits);
    let counts = |m: &flowkv_common::metrics::MetricsSnapshot| {
        (
            m.records_written,
            m.records_read,
            m.flushes,
            m.compactions,
            m.prefetch_hits,
        )
    };
    ledger.check(ok, || {
        format!(
            "traced run differs from untraced: crc {:08x} vs {:08x}, \
             (written, read, flushes, compactions, prefetch hits) {:?} vs {:?}",
            plain.crc,
            traced.crc,
            counts(a),
            counts(b)
        )
    });
}

/// Response latency of one paced run: watermark to output for the
/// window workloads; on q12-serve, whose global window fires only at end
/// of stream, the lookup round trip from its scheduled send.
fn response_latency(run: &JobRun) -> HistogramSnapshot {
    match (&run.load, &run.result) {
        (Some(load), _) => load.all.clone(),
        (None, Ok(result)) => result.latency_histogram.clone(),
        (None, Err(_)) => HistogramSnapshot::default(),
    }
}

/// Records what the numbers depend on.
fn environment(r: &mut Record, wl: &Workload, args: &Args, fs: &str) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    r.str("workload", wl.name)
        .str("store", format!("{:?}", args.store).to_lowercase())
        .flag("traced", args.trace)
        .num("seed", args.seed as f64)
        .num("seconds", args.seconds)
        .num("nproc", nproc as f64)
        .str(
            "git_rev",
            command_output("git", &["rev-parse", "--short", "HEAD"], true),
        )
        .str("rustc", command_output("rustc", &["-V"], false))
        .str("data_fs", fs)
        .num("events", wl.events as f64)
        .num("paced_rate_eps", wl.paced_rate as f64)
        .num("lookup_rate_per_s", wl.lookup_rate as f64)
        .num("parallelism", workloads::PARALLELISM as f64)
        .num("io_threads", wl.io_threads as f64)
        .num("tier_hot_bytes", wl.tier_hot_bytes.unwrap_or(0) as f64)
        .num("write_buffer_bytes", wl.write_buffer as f64);
}

/// First line of a command's output, or `"unknown"`. With `local_git`,
/// git looks only at a `.git` in the current directory.
fn command_output(program: &str, args: &[&str], local_git: bool) -> String {
    let mut cmd = std::process::Command::new(program);
    cmd.args(args).stderr(std::process::Stdio::null());
    if local_git {
        if !Path::new(".git").exists() {
            return "unknown".into();
        }
        cmd.env("GIT_DIR", ".git");
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Small-scale check that the wrappers are transparent: for every
/// workload, a traced and an untraced run give the in-memory reference
/// output and the same store counts.
fn selftest() -> ExitCode {
    let root = out_dir().join(format!("selftest-{}", std::process::id()));
    let sampler = Sampler::start(false);
    let mut ledger = Ledger::default();
    for wl in workloads::all() {
        let small = Workload {
            events: wl.events / 10,
            ..wl.clone()
        };
        let envs = Env::new(&small, DEFAULT_SEED, Store::InMemory, &root)
            .and_then(|mem| Ok((mem, Env::new(&small, DEFAULT_SEED, Store::FlowKv, &root)?)));
        let (mem, env) = match envs {
            Ok(envs) => envs,
            Err(e) => {
                eprintln!("perfbench: selftest set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let reference = job::run(&mem, mem.input.clone(), &sampler, false, None, 0);
        let reference = (reference.outputs, reference.crc);
        let plain = job::run(&env, env.input.clone(), &sampler, false, None, 1);
        let rec = Arc::new(Recorder::new());
        let traced = job::run(&env, env.input.clone(), &sampler, false, Some(&rec), 2);
        let before = ledger.failed;
        ledger.job(&format!("{} untraced", wl.name), &plain, reference);
        ledger.job(&format!("{} traced", wl.name), &traced, reference);
        self_test(&mut ledger, wl.tier_hot_bytes.is_some(), &plain, &traced);
        let verdict = if ledger.failed == before {
            "PASS"
        } else {
            "FAIL"
        };
        println!(
            "{verdict} {}: {} rows, crc32 {:08x}",
            wl.name, reference.0, reference.1
        );
    }
    let _ = std::fs::remove_dir_all(&root);
    if ledger.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
