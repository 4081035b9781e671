//! `campaignbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path campaignbench/Cargo.toml -- \
//!     --workload <plane-provision|tiny-flight|plane-attack|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--rounds R]
//! ```
//!
//! `--trace 0` runs the workload as real campaigns through `campaignd`'s
//! public API (store create → session build → run → merge) in a closed
//! loop: one process, `threads` = available cores. The first repetition
//! is a discarded warm-up; repetitions then continue until `--seconds` of
//! measurement have passed, and every end-to-end metric is the median
//! over the measured repetitions. `--trace 1` runs the same campaign,
//! then replays its jobs stage by stage (see `replay.rs`) and prints the
//! per-layer metrics. `--workload all` runs every workload, each in a
//! fresh process (so `peak_rss_mib` is the workload's own), in
//! round-robin order over `--rounds` rounds.
//!
//! Every run prints a host stamp, each metric's median, quartiles and
//! sample count, and as its last line one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. The run
//! exits non-zero when an output check fails.

mod campaign;
mod replay;
mod stats;
mod workload;

use campaign::{run_rep, Rep};
use mavr_campaignd::json::Json;
use replay::{Fixture, Layers};
use stats::{after_warmup, interleave, median, Summary};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Workload, DEFAULT_SEED, WORKLOADS};

/// Repetitions discarded before measuring.
const WARMUP_REPS: usize = 1;
/// Measured repetitions a run makes at least, however long they take.
const MIN_REPS: usize = 3;
/// Measured repetitions the traced run makes for its per-job thread time.
const TRACE_REPS: usize = 2;
/// Times the traced run rebuilds the firmware and rediscovers gadgets.
const SETUP_SAMPLES: usize = 5;
/// Set-up samples an untraced run takes at least.
const SETUP_MIN_SAMPLES: usize = 15;
/// Times the traced run encodes and re-saves each shard.
const STORE_SAMPLES: usize = 5;

/// Command-line options.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        rounds: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--rounds" => args.rounds = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// First line of stdout for a command, or `unknown`.
fn command_line(program: &str, argv: &[&str]) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    Command::new(program)
        .args(argv)
        // Never look for a repository above the benchmark's own checkout.
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host stamp every output carries.
fn host_stamp(args: &Args) -> String {
    format!(
        "# host nproc={} rustc=\"{}\" commit={} threads={} seed={} seconds={} workload={} trace={}",
        threads(),
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "HEAD"]),
        threads(),
        args.seed,
        args.seconds,
        args.workload,
        u8::from(args.trace),
    )
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".into())
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// The result line: the last line of stdout.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics}}}}}"
    )
}

/// A run's verdict on its repetitions: every one must merge to the same
/// digest, the pinned one at the default seed, with no failed job.
struct Gate {
    expect: Option<String>,
    pinned: Option<&'static str>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn new(w: &Workload, seed: u64) -> Self {
        let pinned = w.pinned_digest(seed);
        if seed == DEFAULT_SEED && pinned.is_none() {
            println!("# FAIL no pinned digest for {} at seed {seed}", w.name);
        }
        Gate {
            expect: None,
            pinned,
            correct: seed != DEFAULT_SEED || pinned.is_some(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Check one repetition; `Err` ends the run.
    fn check(&mut self, w: &Workload, rep: Result<Rep, String>) -> Result<Rep, ()> {
        self.attempted += w.total_jobs();
        let rep = rep.map_err(|e| {
            println!("# FAIL {}: {e}", w.name);
            self.failed += w.total_jobs();
            self.correct = false;
        })?;
        self.failed += rep.failed;
        if rep.failed > 0 {
            println!(
                "# FAIL {}: {} failed jobs or skipped checkpoints",
                w.name, rep.failed
            );
            self.correct = false;
        }
        let expect = self.expect.get_or_insert_with(|| rep.digest.clone());
        if *expect != rep.digest {
            println!(
                "# FAIL {}: report digest {} != {expect}",
                w.name, rep.digest
            );
            self.correct = false;
        }
        if let Some(pinned) = self.pinned.filter(|p| *p != rep.digest) {
            println!(
                "# FAIL {}: report digest {} != pinned {pinned}",
                w.name, rep.digest
            );
            self.correct = false;
        }
        if self.correct {
            Ok(rep)
        } else {
            Err(())
        }
    }
}

/// Run repetitions until `seconds` of measured repetitions (at least
/// `min_reps`) have passed, after [`WARMUP_REPS`] discarded ones; returns
/// every repetition, warm-up first.
fn repetitions(
    root: &Path,
    w: &Workload,
    spec: &str,
    seconds: f64,
    min_reps: usize,
    gate: &mut Gate,
) -> Vec<Rep> {
    let mut reps = Vec::new();
    let mut measured_s = 0.0;
    while reps.len() < WARMUP_REPS + min_reps || measured_s < seconds {
        let t = Instant::now();
        let Ok(rep) = gate.check(w, run_rep(root, w, spec)) else {
            break;
        };
        if reps.len() >= WARMUP_REPS {
            measured_s += t.elapsed().as_secs_f64();
        }
        reps.push(rep);
    }
    reps
}

fn print_summary(name: &str, unit: &str, samples: &[f64]) -> f64 {
    let s = Summary::of(samples);
    println!("{name:<36} {unit:<8} {}", s.render());
    s.median
}

fn run_untraced(args: &Args, w: &Workload, root: &Path) -> (Gate, Vec<Metric>) {
    let spec = w.spec_json(args.seed, threads());
    println!("# spec {spec}");
    let mut gate = Gate::new(w, args.seed);
    let all = repetitions(root, w, &spec, args.seconds, MIN_REPS, &mut gate);
    let reps = if gate.correct {
        after_warmup(&all, WARMUP_REPS)
    } else {
        &[]
    };
    if let Some(digest) = &gate.expect {
        // `digests.txt` format, so a deliberate result change can re-pin.
        println!("# digest: {} {} {digest}", w.name, args.seed);
    }
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let mut metrics = Vec::new();
    if !reps.is_empty() {
        let jobs = per_rep(&|r| r.jobs as f64 / r.window.as_secs_f64());
        let mcycles = per_rep(&|r| r.sim_cycles as f64 / r.window.as_secs_f64() / 1e6);
        let mut setup = per_rep(&|r| r.setup.as_secs_f64());
        // Set-up is one sample per repetition; top it up so its median
        // rests on as many samples whatever the workload's pace.
        let probe = root.join("setup");
        while setup.len() < SETUP_MIN_SAMPLES {
            match campaign::set_up(&probe, &spec) {
                Ok((_, t)) => setup.push(t.as_secs_f64()),
                Err(e) => {
                    println!("# FAIL set-up: {e}");
                    gate.correct = false;
                    break;
                }
            }
        }
        let _ = std::fs::remove_dir_all(&probe);
        metrics.push(Metric {
            name: "jobs_per_s",
            unit: "1/s",
            value: print_summary("jobs_per_s", "1/s", &jobs),
        });
        metrics.push(Metric {
            name: "sim_mcycles_per_s",
            unit: "Mcycles/s",
            value: print_summary("sim_mcycles_per_s", "Mcycles/s", &mcycles),
        });
        metrics.push(Metric {
            name: "setup_s",
            unit: "s",
            value: print_summary("setup_s", "s", &setup),
        });
    }
    match peak_rss_mib() {
        Ok(mib) => {
            println!(
                "{:<36} {:<8} {mib:.3} (VmHWM, whole process)",
                "peak_rss_mib", "MiB"
            );
            metrics.push(Metric {
                name: "peak_rss_mib",
                unit: "MiB",
                value: mib,
            });
        }
        Err(e) => {
            println!("# FAIL {e}");
            gate.correct = false;
        }
    }
    let completed =
        (gate.attempted - gate.failed.min(gate.attempted)) as f64 / gate.attempted.max(1) as f64;
    println!(
        "{:<36} {:<8} {completed} ({} failed of {} attempted)",
        "completed_job_share", "share", gate.failed, gate.attempted
    );
    metrics.push(Metric {
        name: "completed_job_share",
        unit: "share",
        value: completed,
    });
    (gate, metrics)
}

/// Per-job mean of an engine outcome count.
fn per_job(
    outcomes: &[mavr_fleet::BoardOutcome],
    f: impl Fn(&mavr_fleet::BoardOutcome) -> f64,
) -> f64 {
    outcomes.iter().map(f).sum::<f64>() / outcomes.len().max(1) as f64
}

fn run_traced(args: &Args, w: &Workload, root: &Path) -> (Gate, Vec<Metric>) {
    let spec = w.spec_json(args.seed, threads());
    println!("# spec {spec}");
    let mut gate = Gate::new(w, args.seed);
    let all = repetitions(root, w, &spec, 0.0, TRACE_REPS, &mut gate);
    let reps = after_warmup(&all, WARMUP_REPS);
    let Some(last) = reps.last().filter(|_| gate.correct) else {
        return (gate, Vec::new());
    };
    let jobs = last.jobs as f64;
    let window_ms = median(
        &reps
            .iter()
            .map(|r| r.window.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );
    let merge_ms = median(
        &reps
            .iter()
            .map(|r| r.merge.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );
    let thread_ms_per_job = threads() as f64 * window_ms / jobs;

    let mut layers = Layers::default();
    let cfg = &last.session.cfg;
    let fixture = match Fixture::build(cfg, SETUP_SAMPLES, &mut layers) {
        Ok(f) => f,
        Err(e) => {
            println!("# FAIL {e}");
            gate.correct = false;
            return (gate, Vec::new());
        }
    };

    // Replay every job at least once, then keep cycling until --seconds.
    let t = Instant::now();
    let mut passes = 0;
    'replay: while passes == 0 || t.elapsed().as_secs_f64() < args.seconds {
        for outcome in &last.outcomes {
            if let Err(e) = replay::replay_job(cfg, &fixture, outcome, &mut layers) {
                println!("# FAIL replay {}: {e}", w.name);
                gate.correct = false;
                break 'replay;
            }
        }
        passes += 1;
    }

    // Outcome encode, store write and merge, timed on the finished store.
    let store = &last.session.store;
    let mut shards = 0u64;
    for index in 0..store.plan().shard_count() {
        let shard = match store.load_shard(cfg, index) {
            Ok(s) => s,
            Err(e) => {
                println!("# FAIL {e}");
                gate.correct = false;
                return (gate, Vec::new());
            }
        };
        for _ in 0..STORE_SAMPLES {
            let t = Instant::now();
            let lines: usize = shard
                .outcomes
                .values()
                .map(|o| o.to_json_line().len())
                .sum();
            let blob = shard.to_bytes();
            std::hint::black_box((lines, blob.len()));
            let per_job_us = t.elapsed().as_secs_f64() * 1e6 / shard.outcomes.len().max(1) as f64;
            layers.push("fleet.outcome_encode_us", per_job_us);
            // Re-saving a complete shard rewrites the same bytes.
            if let Err(e) = layers.time("campaignd.store_write_ms", || store.save_shard(&shard)) {
                println!("# FAIL {e}");
                gate.correct = false;
            }
        }
        shards += 1;
    }

    let outcomes = &last.outcomes;
    let sample = |name: &str| layers.samples.get(name).cloned().unwrap_or_default();
    let med = |name: &str| {
        let v = sample(name);
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let store_write_ms = med("campaignd.store_write_ms");
    let encode = med("fleet.outcome_encode_us");
    let replayed_ms_per_job = layers.job_ms / layers.jobs.max(1) as f64
        + encode / 1e3
        + store_write_ms * shards as f64 / jobs
        + merge_ms / jobs;
    let warm_rate = if layers.warm_s > 0.0 {
        layers.warm_cycles as f64 / layers.warm_s / 1e6
    } else {
        0.0
    };

    let timed: &[(&'static str, &'static str)] = &[
        ("firmware.build_ms", "ms"),
        ("rop.discover_ms", "ms"),
        ("mavr.preprocess_ms", "ms"),
        ("board.ext_flash_upload_ms", "ms"),
        ("board.ext_flash_read_ms", "ms"),
        ("mavr.randomize_ms", "ms"),
        ("board.bootloader_stream_ms", "ms"),
        ("board.bootloader_apply_ms", "ms"),
        ("board.bootloader_verify_ms", "ms"),
        ("board.provision_ms", "ms"),
        ("board.recover_ms", "ms"),
        ("avr-sim.fly_cold_ms", "ms"),
        ("mavlink.link_ms", "ms"),
        ("campaignd.store_write_ms", "ms"),
        ("fleet.outcome_encode_us", "us"),
    ];
    let mut metrics = Vec::new();
    for &(name, unit) in timed {
        let v = sample(name);
        if v.is_empty() {
            println!("{name:<36} {unit:<8} no samples (reported as 0)");
        } else {
            print_summary(name, unit, &v);
        }
        metrics.push(Metric {
            name,
            unit,
            value: med(name),
        });
    }
    let counts: [(&'static str, &'static str, f64); 8] = [
        ("campaignd.merge_ms_per_kjob", "ms", merge_ms / (jobs / 1e3)),
        ("avr-sim.fly_warm_mcycles_per_s", "Mcycles/s", warm_rate),
        (
            "avr-sim.blocks_compiled_per_job",
            "count",
            per_job(outcomes, |o| {
                (o.sim_block_count + o.sim_block_invalidations) as f64
            }),
        ),
        (
            "avr-sim.block_invalidations_per_job",
            "count",
            per_job(outcomes, |o| o.sim_block_invalidations as f64),
        ),
        (
            "board.recoveries_per_job",
            "count",
            per_job(outcomes, |o| o.recoveries as f64),
        ),
        (
            "board.reflash_retries_per_job",
            "count",
            per_job(outcomes, |o| o.reflash_retries as f64),
        ),
        (
            "mavlink.packets_lost_per_job",
            "count",
            per_job(outcomes, |o| o.packets_lost as f64),
        ),
        (
            "trace.coverage",
            "share",
            replayed_ms_per_job / thread_ms_per_job,
        ),
    ];
    for (name, unit, value) in counts {
        println!("{name:<36} {unit:<9} {value:.4}");
        metrics.push(Metric { name, unit, value });
    }
    println!(
        "# replayed {} jobs ({passes} passes); untraced thread time {thread_ms_per_job:.3} ms/job \
         over {} reps, replayed layers {replayed_ms_per_job:.3} ms/job",
        layers.jobs,
        reps.len()
    );
    (gate, metrics)
}

/// `--workload all`: every workload in its own process, interleaved.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    for name in interleave(&names, args.rounds.max(1)) {
        println!("## {name}");
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let last = text.lines().last().unwrap_or_default();
        let Ok(result) = Json::parse(last) else {
            println!("# FAIL {name}: no result line ({})", out.status);
            correct = false;
            continue;
        };
        correct &= out.status.success() && result.get("correct") == Some(&Json::Bool(true));
        attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(metrics)) = result.get("metrics") {
            for (metric, m) in metrics {
                let key = format!("{name}.{metric}");
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                match values.iter_mut().find(|(k, _, _)| *k == key) {
                    Some((_, _, vs)) => vs.push(v),
                    None => values.push((key, unit, vec![v])),
                }
            }
        }
    }
    println!("## summary over {} round(s)", args.rounds.max(1));
    let metrics: Vec<String> = values
        .iter()
        .map(|(key, unit, vs)| {
            let m = print_summary(key, unit, vs);
            format!("\"{key}\": {{\"value\": {m}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campaignbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_stamp(&args));
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("campaignbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(w) = Workload::by_name(&args.workload) else {
        eprintln!(
            "campaignbench: unknown workload {} (plane-provision, tiny-flight, plane-attack, all)",
            args.workload
        );
        return ExitCode::from(2);
    };
    // Campaign stores live under the checkout and are removed on exit.
    let root: PathBuf = Path::new(".bench_work").join(format!("{}-{}", w.name, std::process::id()));
    let (gate, metrics) = if args.trace {
        run_traced(&args, &w, &root)
    } else {
        run_untraced(&args, &w, &root)
    };
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(".bench_work");
    println!(
        "{}",
        result_json(gate.correct, gate.attempted, gate.failed, &metrics)
    );
    if gate.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
