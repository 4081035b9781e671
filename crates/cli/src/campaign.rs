//! Campaign commands: fleet, chaos, serve, submit, status, merge.

use crate::args::{Args, OptValue};
use crate::{fail, CliError};

/// The fault-rate sweep `mavr chaos` runs when `--fault` is not given:
/// a clean baseline plus rates spanning "occasional retry" to "degraded
/// boots and the odd brick".
pub(crate) const DEFAULT_FAULT_SWEEP: &[f64] = &[0.0, 0.00005, 0.0001, 0.0002, 0.0005];

/// The `--dir DIR` campaign root every service subcommand operates under.
fn campaign_root(args: &Args) -> Result<std::path::PathBuf, CliError> {
    args.value("--dir")
        .map(std::path::PathBuf::from)
        .ok_or_else(|| CliError::Usage("needs --dir DIR (the campaign root)".into()))
}

/// Read a campaign spec file and apply the `--shard-jobs` / `--tenant`
/// command-line overrides.
fn load_spec(args: &Args, path: &str) -> Result<mavr_campaignd::CampaignSpec, CliError> {
    let text = std::fs::read_to_string(path).map_err(fail)?;
    let mut spec = mavr_campaignd::CampaignSpec::from_json(&text).map_err(CliError::Usage)?;
    spec.shard_jobs = args.get("--shard-jobs")?.unwrap_or(spec.shard_jobs);
    spec.tenant = args.get("--tenant")?.unwrap_or(spec.tenant);
    Ok(spec)
}

/// What a command does over `--socket PATH`.
enum SocketOp<'a> {
    /// Serve the control protocol on the socket.
    Serve(&'a mavr_campaignd::Service),
    /// Send one request line to the service listening there.
    Request(String),
}

/// Run `op` over the Unix socket at `sock` (a usage error elsewhere).
fn over_socket(sock: &str, op: SocketOp) -> Result<String, CliError> {
    #[cfg(unix)]
    {
        let path = std::path::Path::new(sock);
        match op {
            SocketOp::Serve(service) => mavr_campaignd::server::serve_socket(
                service,
                path,
                std::io::stderr(),
                &mavr_campaignd::ServeOptions::default(),
            )
            .map(|()| String::new()),
            SocketOp::Request(line) => {
                mavr_campaignd::server::request(path, &line).map(|resp| format!("{resp}\n"))
            }
        }
        .map_err(CliError::Failed)
    }
    #[cfg(not(unix))]
    {
        let _ = (sock, op);
        Err(CliError::Usage("--socket needs a Unix platform".into()))
    }
}

pub(crate) fn cmd_serve(args: &Args) -> Result<String, CliError> {
    use mavr_campaignd::{merge_store, CampaignSession, CampaignStore, FaultFs, Service};
    let root = campaign_root(args)?;
    let interrupt = mavr_campaignd::signal::install();

    let fault_fs = match args.get::<f64>("--store-fault")? {
        None => FaultFs::none(),
        Some(rate) if (0.0..=1.0).contains(&rate) => {
            FaultFs::seeded(args.get("--store-fault-seed")?.unwrap_or(0), rate)
        }
        Some(_) => {
            return Err(CliError::Usage(
                "bad --store-fault (probability 0..=1)".into(),
            ))
        }
    };
    if let Some(secs) = args.get("--deadline-s")? {
        let flag = std::sync::Arc::clone(&interrupt);
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_secs(secs));
            flag.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    }

    if let Some(spec_path) = args.value("--spec") {
        let spec = load_spec(args, spec_path)?;
        let store = CampaignStore::create(&root, spec)
            .map_err(CliError::Failed)?
            .with_faults(fault_fs.clone());
        let telemetry = if args.flag("progress") {
            telemetry::Telemetry::new(ProgressPrinter::default())
        } else {
            telemetry::Telemetry::off()
        };
        let session =
            CampaignSession::new(store, telemetry, interrupt).map_err(CliError::Failed)?;
        let outcome = session
            .run(args.get("--max-jobs")?, None)
            .map_err(CliError::Failed)?;
        if outcome.complete {
            let (report_path, _metrics) = merge_store(&session.store).map_err(CliError::Failed)?;
            return Ok(format!(
                "campaign {} complete: {} jobs; report merged to {}\n",
                session.store.spec.name,
                outcome.total_jobs,
                report_path.display(),
            ));
        }
        return Ok(format!(
            "campaign {} {}: {}/{} jobs done (+{} this run); \
             rerun the same command to continue\n",
            session.store.spec.name,
            if outcome.interrupted {
                "interrupted"
            } else {
                "paused"
            },
            outcome.done_jobs,
            outcome.total_jobs,
            outcome.jobs_run,
        ));
    }

    let service = Service::new(root, interrupt).with_store_faults(fault_fs);
    if let Some(sock) = args.value("--socket") {
        return over_socket(sock, SocketOp::Serve(&service));
    }
    if args.flag("stdio") {
        let stdin = std::io::stdin();
        mavr_campaignd::server::serve_lines(&service, stdin.lock(), std::io::stdout())
            .map_err(CliError::Failed)?;
        return Ok(String::new());
    }

    Err(CliError::Usage(
        "serve needs one of --spec FILE, --socket PATH, or --stdio".into(),
    ))
}

pub(crate) fn cmd_submit(args: &Args) -> Result<String, CliError> {
    let spec = load_spec(args, args.required("a spec file")?)?;

    if let Some(sock) = args.value("--socket") {
        let line = format!(r#"{{"op":"submit","spec":{}}}"#, spec.to_json());
        return over_socket(sock, SocketOp::Request(line));
    }

    let root = campaign_root(args)?;
    let store = mavr_campaignd::CampaignStore::create(&root, spec).map_err(CliError::Failed)?;
    let plan = store.plan();
    Ok(format!(
        "submitted campaign {}: {} jobs in {} shards under {}\n",
        store.spec.name,
        plan.total_jobs,
        plan.shard_count(),
        store.dir.display(),
    ))
}

pub(crate) fn cmd_status(args: &Args) -> Result<String, CliError> {
    use mavr_campaignd::CampaignStore;

    if let Some(sock) = args.value("--socket") {
        let line = match args.value("--campaign") {
            Some(name) => format!(r#"{{"op":"status","campaign":"{name}"}}"#),
            None => r#"{"op":"status"}"#.to_string(),
        };
        return over_socket(sock, SocketOp::Request(line));
    }

    let root = campaign_root(args)?;
    let stores = match args.value("--campaign") {
        Some(name) => vec![CampaignStore::open(&root.join(name)).map_err(CliError::Failed)?],
        None => CampaignStore::list(&root).map_err(CliError::Failed)?,
    };
    if stores.is_empty() {
        return Ok(format!("no campaigns under {}\n", root.display()));
    }
    let mut out = String::new();
    for store in stores {
        let status = store.status().map_err(CliError::Failed)?;
        if args.flag("json") {
            out.push_str(&status.to_json().to_text());
            out.push('\n');
        } else {
            out.push_str(&format!(
                "{}: {}/{} jobs, {}/{} shards complete{}\n",
                status.name,
                status.done_jobs,
                status.total_jobs,
                status.shards_complete,
                status.shards_total,
                if status.report_written {
                    ", report merged"
                } else {
                    ""
                },
            ));
        }
    }
    Ok(out)
}

/// Holds one shard in memory at a time, so the report of a million-board
/// campaign streams to disk in constant memory. Refuses incomplete or
/// inconsistent shard sets.
pub(crate) fn cmd_merge(args: &Args) -> Result<String, CliError> {
    use mavr_campaignd::{merge_store, CampaignStore};
    let dir = args.value("--campaign").ok_or_else(|| {
        CliError::Usage("merge needs --campaign DIR (one campaign's directory)".into())
    })?;
    let store = CampaignStore::open(std::path::Path::new(dir)).map_err(CliError::Failed)?;
    let (report_path, metrics) = merge_store(&store).map_err(CliError::Failed)?;
    let mut note = String::new();
    if let Some(out) = args.out() {
        std::fs::copy(&report_path, out).map_err(fail)?;
        note.push_str(&format!("copied report to {out}\n"));
    }
    if let Some(mpath) = args.value("--metrics-out") {
        write_metrics(mpath, &metrics)?;
        note.push_str(&format!("wrote campaign metrics to {mpath}\n"));
    }
    Ok(format!(
        "merged {} shards of {}: report at {}\n{note}",
        store.plan().shard_count(),
        store.spec.name,
        report_path.display(),
    ))
}

/// Parse a `--loss` / `--fault` style comma-separated number list.
fn f64_list(args: &Args, key: &str) -> Result<Option<Vec<f64>>, CliError> {
    args.value(key)
        .map(|list| {
            list.split(',')
                .map(str::trim)
                .filter(|p| !p.is_empty())
                .map(|p| {
                    f64::parse_opt(p).ok_or_else(|| CliError::Usage(format!("bad {key} `{p}`")))
                })
                .collect()
        })
        .transpose()
}

/// Stderr sink for `--progress`: renders each campaign heartbeat as one
/// status line. Wall-clock numbers are confined to this stream; they never
/// reach the report or the metrics registry.
#[derive(Default)]
struct ProgressPrinter {
    seen: u64,
}

impl telemetry::Recorder for ProgressPrinter {
    fn record(&mut self, event: telemetry::Event) {
        self.seen += 1;
        if event.kind != telemetry::kinds::CAMPAIGN_PROGRESS {
            return;
        }
        let u = |name: &str| match event.field(name) {
            Some(telemetry::Value::U64(v)) => *v,
            _ => 0,
        };
        let f = |name: &str| match event.field(name) {
            Some(telemetry::Value::F64(v)) => *v,
            _ => 0.0,
        };
        eprintln!(
            "progress: {}/{} jobs | {:.1} Mcycles at {:.2} Mcyc/s | \
             {} attacks landed, {} recovered, {} bricked | {:.1}s, eta {:.0}s",
            u("jobs_done"),
            u("jobs_total"),
            u("sim_cycles") as f64 / 1e6,
            f("boards_cycles_per_sec") / 1e6,
            u("attack_successes"),
            u("recoveries"),
            u("bricked"),
            f("elapsed_ms") / 1000.0,
            f("eta_s"),
        );
    }
    fn events_emitted(&self) -> u64 {
        self.seen
    }
}

/// Write a metrics registry to `path`: Prometheus text exposition when the
/// file name ends in `.prom`, JSON lines otherwise.
fn write_metrics(
    path: &str,
    metrics: &telemetry::metrics::MetricsRegistry,
) -> Result<(), CliError> {
    let payload = if path.ends_with(".prom") {
        metrics.to_prometheus()
    } else {
        metrics.to_jsonl()
    };
    std::fs::write(path, payload).map_err(fail)
}

/// Shared implementation of `fleet` and `chaos` — the two differ only in
/// the default fault sweep. The flags fill a campaign spec, whose
/// `to_config` is the only way to an engine config, so a fleet run and
/// `serve --spec` of the same spec produce the same report; `--no-fusion`
/// and `--progress` are engine knobs outside the campaign's identity.
pub(crate) fn run_campaign_cmd(args: &Args, default_faults: &[f64]) -> Result<String, CliError> {
    use std::io::Write;

    let mut spec = mavr_campaignd::CampaignSpec::named("fleet");
    if let Some(app) = args.positional.first() {
        spec.app = app.clone();
    }
    if let Some(list) = args.value("--scenario") {
        spec.scenarios = mavr_fleet::parse_scenarios(list).map_err(CliError::Usage)?;
    }
    spec.loss_levels = f64_list(args, "--loss")?.unwrap_or(spec.loss_levels);
    spec.fault_levels = f64_list(args, "--fault")?.unwrap_or_else(|| default_faults.to_vec());
    spec.seed = args.get("--seed")?.unwrap_or(spec.seed);
    spec.boards = args.get("--boards")?.unwrap_or(spec.boards);
    spec.warmup_cycles = args.get("--warmup")?.unwrap_or(spec.warmup_cycles);
    spec.attack_cycles = args.get("--cycles")?.unwrap_or(spec.attack_cycles);
    spec.threads = args.get("--threads")?.unwrap_or(spec.threads);
    spec.tenant = args.get("--tenant")?.unwrap_or(spec.tenant);
    spec.physics = args.flag("physics");
    let mut cfg = spec.to_config().map_err(CliError::Usage)?;
    cfg.block_fusion = !args.flag("no-fusion");
    if args.flag("progress") {
        cfg.telemetry = telemetry::Telemetry::new(ProgressPrinter::default());
    }

    let file_out = args.out();
    let jsonl = args.flag("jsonl");
    // `--jsonl -o FILE` streams outcome lines to the file *as boards
    // finish* (tail -f friendly); the final bytes are to_jsonl()'s, line
    // for line.
    let mut sink = file_out
        .filter(|_| jsonl)
        .map(|path| std::fs::File::create(path).map(std::io::BufWriter::new))
        .transpose()
        .map_err(fail)?;
    let mut stream_err = None;
    let report = mavr_fleet::run_campaign_streaming(&cfg, |o| {
        if let (Some(w), None) = (sink.as_mut(), &stream_err) {
            stream_err = writeln!(w, "{}", o.to_json_line()).err();
        }
    });
    if let Some(e) = stream_err {
        return Err(fail(e));
    }
    if let Some(mut w) = sink {
        w.flush().map_err(fail)?;
    }
    let mut metrics_note = String::new();
    if let Some(mpath) = args.value("--metrics-out") {
        write_metrics(mpath, &report.metrics())?;
        metrics_note = format!("wrote campaign metrics to {mpath}\n");
    }
    if let Some(path) = file_out {
        // A file sink gets the machine-readable form.
        let done = if jsonl {
            "streamed campaign outcomes"
        } else {
            std::fs::write(path, report.to_json()).map_err(fail)?;
            "wrote campaign report"
        };
        return Ok(format!(
            "{}{done} to {path}\n{metrics_note}",
            report.render()
        ));
    }
    // Machine-readable stdout stays pure JSON.
    Ok(if jsonl {
        report.to_jsonl()
    } else if args.flag("json") {
        report.to_json()
    } else {
        format!("{}{metrics_note}", report.render())
    })
}

#[cfg(test)]
mod tests {
    use crate::test_util::{s, tmp};
    use crate::{run, CliError};

    #[test]
    fn fleet_runs_a_small_campaign() {
        let out_path = tmp("fleet.json");
        let out = run(&s(&[
            "fleet",
            "--boards",
            "1",
            "--scenario",
            "stealthy",
            "--cycles",
            "4000000",
            "--threads",
            "1",
            "-o",
            &out_path,
        ]))
        .unwrap();
        assert!(out.contains("Fleet campaign"), "{out}");
        assert!(out.contains("stealthy"), "{out}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        assert!(json.contains("\"attack_successes\":0"), "{json}");
        // Bad arguments are caught before any board is provisioned.
        assert!(matches!(
            run(&s(&["fleet", "--scenario", "frob"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["fleet", "--loss", "2.0"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["fleet", "--boards", "0"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn chaos_is_deterministic_and_fault_zero_matches_fleet() {
        let common = [
            "--boards",
            "1",
            "--scenario",
            "stealthy",
            "--cycles",
            "3000000",
            "--threads",
            "1",
        ];
        // Same seed twice: byte-identical chaos reports.
        let a_path = tmp("chaos-a.json");
        let b_path = tmp("chaos-b.json");
        for path in [&a_path, &b_path] {
            let mut a = vec!["chaos"];
            a.extend(common);
            a.extend(["--fault", "0.0005", "-o", path]);
            run(&s(&a)).unwrap();
        }
        let a_json = std::fs::read_to_string(&a_path).unwrap();
        assert_eq!(a_json, std::fs::read_to_string(&b_path).unwrap());
        assert!(a_json.contains("\"reflash_retry_rate\""), "{a_json}");
        assert!(a_json.contains("\"degraded_rate\""), "{a_json}");
        assert!(a_json.contains("\"brick_rate\""), "{a_json}");

        // `chaos --fault 0` is the chaos-free engine, byte for byte.
        let chaos0 = tmp("chaos-zero.json");
        let mut a = vec!["chaos"];
        a.extend(common);
        a.extend(["--fault", "0", "-o", &chaos0]);
        run(&s(&a)).unwrap();
        let fleet0 = tmp("fleet-zero.json");
        let mut a = vec!["fleet"];
        a.extend(common);
        a.extend(["-o", &fleet0]);
        run(&s(&a)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&chaos0).unwrap(),
            std::fs::read_to_string(&fleet0).unwrap(),
            "chaos at fault rate 0 must match the plain fleet report"
        );

        assert!(matches!(
            run(&s(&["chaos", "--fault", "1.5"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn fleet_no_fusion_report_is_byte_identical() {
        // Block fusion is an engine knob: the JSON report (outcomes, cells,
        // totals) must not change a byte when it is turned off.
        let base = [
            "fleet",
            "tiny",
            "--boards",
            "1",
            "--scenario",
            "benign",
            "--cycles",
            "300000",
            "--warmup",
            "200000",
            "--threads",
            "1",
            "--json",
        ];
        let fused = run(&s(&base)).unwrap();
        let mut no_fusion: Vec<&str> = base.to_vec();
        no_fusion.push("--no-fusion");
        let unfused = run(&s(&no_fusion)).unwrap();
        assert_eq!(fused, unfused);
    }

    #[test]
    fn fleet_metrics_out_is_thread_invariant() {
        let prom1 = tmp("fleet-metrics-1.prom");
        let prom4 = tmp("fleet-metrics-4.prom");
        let base = [
            "fleet",
            "tiny",
            "--boards",
            "1",
            "--scenario",
            "benign",
            "--cycles",
            "300000",
            "--warmup",
            "200000",
        ];
        let mut one: Vec<&str> = base.to_vec();
        one.extend(["--threads", "1", "--metrics-out", &prom1]);
        let mut four: Vec<&str> = base.to_vec();
        four.extend(["--threads", "4", "--metrics-out", &prom4]);
        let out = run(&s(&one)).unwrap();
        assert!(out.contains(&format!("wrote campaign metrics to {prom1}")));
        run(&s(&four)).unwrap();
        let text = std::fs::read_to_string(&prom1).unwrap();
        assert_eq!(text, std::fs::read_to_string(&prom4).unwrap());
        assert!(text.contains("# TYPE campaign_boards_total counter"));
        // A .jsonl sink switches exposition format.
        let jsonl = tmp("fleet-metrics.jsonl");
        let mut jrun: Vec<&str> = base.to_vec();
        jrun.extend(["--threads", "1", "--metrics-out", &jsonl]);
        run(&s(&jrun)).unwrap();
        let lines = std::fs::read_to_string(&jsonl).unwrap();
        assert!(lines
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn serve_one_shot_resumes_and_merges_byte_identical_to_fleet_json() {
        let root = tmp("serve-e2e-root");
        let _ = std::fs::remove_dir_all(&root);
        let spec_path = tmp("serve-e2e-spec.json");
        std::fs::write(
            &spec_path,
            r#"{
                "name": "cli-e2e",
                "seed": 18446744073709551615,
                "boards": 2,
                "scenarios": ["benign", "v2"],
                "warmup_cycles": 200000,
                "attack_cycles": 300000,
                "shard_jobs": 3
            }"#,
        )
        .unwrap();

        // Slice 1 stops mid-shard: shards hold 3 jobs, the budget is 2.
        let out = run(&s(&[
            "serve",
            "--dir",
            &root,
            "--spec",
            &spec_path,
            "--max-jobs",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("paused: 2/4 jobs done"), "{out}");

        // Status reads shard checkpoints directly, no service needed.
        let out = run(&s(&["status", "--dir", &root])).unwrap();
        assert!(
            out.contains("cli-e2e: 2/4 jobs, 0/2 shards complete"),
            "{out}"
        );

        // Merging an incomplete campaign is refused.
        let dir = format!("{root}/cli-e2e");
        assert!(matches!(
            run(&s(&["merge", "--campaign", &dir])),
            Err(CliError::Failed(_))
        ));

        // Slice 2 (same command, no budget) completes and auto-merges.
        let out = run(&s(&["serve", "--dir", &root, "--spec", &spec_path])).unwrap();
        assert!(out.contains("complete: 4 jobs"), "{out}");

        // The merged report is byte-identical to one uninterrupted,
        // unsharded fleet run of the same parameters.
        let fleet_json = tmp("serve-e2e-fleet.json");
        let fleet_prom = tmp("serve-e2e-fleet.prom");
        run(&s(&[
            "fleet",
            "tiny",
            "--seed",
            "18446744073709551615",
            "--boards",
            "2",
            "--scenario",
            "benign,v2",
            "--cycles",
            "300000",
            "--warmup",
            "200000",
            "--json",
            "-o",
            &fleet_json,
            "--metrics-out",
            &fleet_prom,
        ]))
        .unwrap();
        let report = std::fs::read_to_string(format!("{dir}/report.json")).unwrap();
        assert_eq!(report, std::fs::read_to_string(&fleet_json).unwrap());

        // An explicit `merge` reproduces the same bytes, metrics included.
        let merged_json = tmp("serve-e2e-merged.json");
        let merged_prom = tmp("serve-e2e-merged.prom");
        let out = run(&s(&[
            "merge",
            "--campaign",
            &dir,
            "-o",
            &merged_json,
            "--metrics-out",
            &merged_prom,
        ]))
        .unwrap();
        assert!(out.contains("merged 2 shards"), "{out}");
        assert_eq!(
            std::fs::read_to_string(&merged_json).unwrap(),
            std::fs::read_to_string(&fleet_json).unwrap()
        );
        assert_eq!(
            std::fs::read_to_string(&merged_prom).unwrap(),
            std::fs::read_to_string(&fleet_prom).unwrap()
        );

        let out = run(&s(&[
            "status",
            "--dir",
            &root,
            "--campaign",
            "cli-e2e",
            "--json",
        ]))
        .unwrap();
        assert!(
            out.contains(r#""complete":true"#) && out.contains(r#""report_written":true"#),
            "{out}"
        );
    }

    #[test]
    fn fleet_jsonl_file_sink_streams_byte_identical_lines() {
        let streamed = tmp("fleet-stream.jsonl");
        let base = [
            "fleet",
            "tiny",
            "--boards",
            "2",
            "--scenario",
            "benign",
            "--cycles",
            "300000",
            "--warmup",
            "200000",
        ];
        let mut stream_run: Vec<&str> = base.to_vec();
        stream_run.extend(["--jsonl", "-o", &streamed]);
        let out = run(&s(&stream_run)).unwrap();
        assert!(
            out.contains(&format!("streamed campaign outcomes to {streamed}")),
            "{out}"
        );
        // The streamed file (written line-by-line as boards finish) is
        // byte-identical to the accumulated to_jsonl() form.
        let mut stdout_run: Vec<&str> = base.to_vec();
        stdout_run.push("--jsonl");
        let expected = run(&s(&stdout_run)).unwrap();
        assert_eq!(std::fs::read_to_string(&streamed).unwrap(), expected);
    }

    #[test]
    fn submit_is_idempotent_and_tenant_namespaces_change_results() {
        let root = tmp("submit-root");
        let _ = std::fs::remove_dir_all(&root);
        let spec_path = tmp("submit-spec.json");
        std::fs::write(
            &spec_path,
            r#"{"name": "sub", "boards": 1, "scenarios": ["benign"],
                "warmup_cycles": 200000, "attack_cycles": 300000}"#,
        )
        .unwrap();
        let out = run(&s(&["submit", &spec_path, "--dir", &root])).unwrap();
        assert!(
            out.contains("submitted campaign sub: 1 jobs in 1 shards"),
            "{out}"
        );
        // Identical resubmission is idempotent...
        run(&s(&["submit", &spec_path, "--dir", &root])).unwrap();
        // ...but a --tenant override mutates the campaign's identity.
        assert!(run(&s(&["submit", &spec_path, "--dir", &root, "--tenant", "7"])).is_err());

        // Tenant namespaces derive disjoint seed streams: the same campaign
        // under a different tenant flies different boards.
        let base = [
            "fleet",
            "tiny",
            "--boards",
            "1",
            "--scenario",
            "v2",
            "--cycles",
            "300000",
            "--warmup",
            "200000",
            "--json",
        ];
        let t0 = run(&s(&base)).unwrap();
        let mut with_tenant: Vec<&str> = base.to_vec();
        with_tenant.extend(["--tenant", "7"]);
        let t7 = run(&s(&with_tenant)).unwrap();
        assert_ne!(t0, t7);
    }
}
