//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p mavr-bench --bin tables --release            # everything
//! cargo run -p mavr-bench --bin tables --release -- table2  # one experiment
//! ```
//!
//! Experiments: `table1 table2 table3 effectiveness bruteforce entropy
//! software-only fig2 gadgets fig6 counters ablations`. The full
//! `effectiveness` run uses the paper-scale SynthPlane target; pass
//! `effectiveness-quick` for the small test app.
//!
//! Benches run only when named, as `bench-<name>` or `bench-<name>-quick`
//! (fewer samples and smaller inputs, for CI smoke), and are not part of
//! `all`. Each one prints its record and rewrites `BENCH_<name>.json` in
//! the working directory, host-stamped:
//!
//! - `simulator`: uncached vs predecoded vs block-fused interpreter;
//! - `campaignd`: sharded campaigns two orders of magnitude apart through
//!   the campaign service, with peak RSS per size;
//! - `robust`: kill-to-progress MTTR under injected disk faults, and
//!   quarantine overhead under a seeded poison-job sweep;
//! - `chaos`: a fault-rate sweep through a V1 crash fleet campaign;
//! - `telemetry`: null-recorder simulator overhead, metrics record/merge
//!   throughput and exposition cost;
//! - `world`: what closing the physical loop costs the fused fast path.

use mavr_bench as exp;
use mavr_bench::Json;
use synth_firmware::{apps, build, BuildOptions};

/// A bench: `quick` in, record out.
type Bench = fn(bool) -> Json;

/// Every bench: its `BENCH_<name>.json` name and the function that runs it.
const BENCHES: &[(&str, Bench)] = &[
    ("simulator", exp::simulator_throughput),
    ("campaignd", exp::campaignd_memory),
    ("robust", exp::robust_service),
    ("chaos", exp::chaos_resilience),
    ("telemetry", exp::telemetry_overhead),
    ("world", exp::world_throughput),
];

fn mavr_repro_leak(n: usize) -> f64 {
    rop::brute::expected_incremental_leak(n as f64)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| all || args.iter().any(|a| a == name);

    if want("table1") {
        println!(
            "{}",
            exp::render(
                "Table I: number of functions (paper: 917 / 1030 / 800)",
                &["Functions"],
                &exp::table1()
            )
        );
        let rows = exp::table1();
        let mut v: Vec<f64> = rows.iter().map(|r| r.values[0]).collect();
        v.sort_by(f64::total_cmp);
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        println!(
            "  mean {mean:.0} (paper: avg 915)   median {} (paper: 917)\n",
            v[v.len() / 2]
        );
    }

    if want("table2") {
        println!(
            "{}",
            exp::render(
                "Table II: MAVR startup overhead, ms (paper: 19209 / 21206 / 15412)",
                &["Time (ms)"],
                &exp::table2()
            )
        );
        println!(
            "{}",
            exp::render(
                "Table II production estimate (paper: ~4000 ms)",
                &["Time (ms)"],
                &exp::table2_production()
            )
        );
    }

    if want("table3") {
        println!(
            "{}",
            exp::render(
                "Table III: code size, bytes (paper: 221608/221294, 244532/244292, 177870/177556)",
                &["Stock", "MAVR"],
                &exp::table3()
            )
        );
    }

    if want("effectiveness") || want("effectiveness-quick") {
        let quick = args.iter().any(|a| a == "effectiveness-quick");
        let (spec, trials) = if quick {
            (apps::tiny_test_app(), 10)
        } else {
            (apps::synth_plane(), 10)
        };
        println!("== Effectiveness (§VII-A) on {} ==", spec.name);
        let e = exp::effectiveness(&spec, trials);
        println!("  gadgets found (unique sequences) : {}", e.gadgets_unique);
        println!("  gadgets found (all start addrs)  : {}", e.gadgets_total);
        println!("  paper reports                    : 953");
        println!(
            "  stealthy attack vs unprotected   : {}/{} succeeded",
            e.stock_successes, e.stock_attempts
        );
        println!(
            "  stealthy attack vs randomized    : {}/{} succeeded (paper: none)",
            e.randomized_successes, e.randomized_attempts
        );
        println!(
            "  failed attacks detected+reflashed: {}/{}",
            e.randomized_detected, e.randomized_attempts
        );
        println!(
            "  gadget addresses surviving shuffle: {} of {} start addrs\n",
            e.gadget_survivors, e.gadgets_total
        );
    }

    if want("bruteforce") {
        println!("== Brute force effort (§V-D), n = 4 functions (N = 24 permutations) ==");
        let (mf, ef, mr, er) = exp::bruteforce(4, 50_000);
        println!("  fixed permutation   : simulated {mf:.2}, theory (N+1)/2 = {ef:.2}");
        println!("  with re-randomize   : simulated {mr:.2}, theory N = {er:.2}");
        println!("  -> re-randomization doubles the expected effort; for the real");
        println!("     apps N = n! is astronomically large (see entropy).\n");
    }

    if want("software-only") || want("viii-a") {
        println!(
            "== Software-only ablation (§VIII-A): fixed permutation vs re-randomizing MAVR =="
        );
        println!(
            "{:<14}{:>26}{:>26}",
            "Application", "leak probes (fixed)", "entropy (re-rand), bits"
        );
        for spec in apps::all_paper_apps() {
            println!(
                "{:<14}{:>26.0}{:>26.0}",
                spec.name,
                mavr_repro_leak(spec.functions),
                mavr::math::entropy_bits(spec.functions as u64)
            );
        }
        println!("  -> with crash feedback a fixed layout falls in ~n(n+3)/4 probes;");
        println!("     re-randomization keeps the cost at ~n! — the dual-processor design.\n");
    }

    if want("entropy") {
        println!(
            "{}",
            exp::render(
                "Entropy (§VIII-B): log2(n!) bits (paper: 800 fns => 6567 bits)",
                &["Bits"],
                &exp::entropy()
            )
        );
    }

    if want("fig2") {
        println!("{}", exp::fig2());
    }

    if want("gadgets") || want("fig4") || want("fig5") {
        let fw = build(&apps::synth_plane(), &BuildOptions::vulnerable_mavr()).unwrap();
        println!("{}", exp::gadget_listings(&fw.image));
    }

    if want("counters") {
        println!(
            "{}",
            exp::render(
                "Activity counters over 2M cycles on a provisioned board (null recorder)",
                &["Insns retired", "Interrupts", "UART TX bytes", "Events"],
                &exp::counters(2_000_000)
            )
        );
        println!(
            "  events flow through a NullRecorder: counted, then discarded — the\n  \
             configuration `bench-telemetry` shows costs ~0 vs. telemetry off.\n"
        );
    }

    if want("ablations") {
        println!("== Ablations (DESIGN.md §4) ==\n{}", exp::ablations());
    }

    // Explicitly requested only (each writes a file; excluded from `all`).
    for &(name, run) in BENCHES {
        let quick = args.contains(&format!("bench-{name}-quick"));
        if !quick && !args.contains(&format!("bench-{name}")) {
            continue;
        }
        println!("== bench-{name}{} ==", if quick { "-quick" } else { "" });
        let record = run(quick);
        if let Json::Obj(fields) = &record {
            for (key, value) in fields {
                println!("  {key}: {}", value.to_text());
            }
        }
        let path = exp::write_bench(name, record, quick).expect("write BENCH file");
        println!("  wrote {path}\n");
    }

    if want("fig6") {
        println!("== Fig. 6: stack progression during the stealthy attack ==");
        for s in exp::fig6(&apps::tiny_test_app()) {
            println!("{}", s.dump());
        }
    }
}
