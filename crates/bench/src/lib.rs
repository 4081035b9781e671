//! Experiment drivers that regenerate every table and figure of the
//! paper's evaluation (§VII), the design-choice ablations, and the
//! host-side benches, all driven by the `tables` binary.
//!
//! | Experiment | Paper artifact | Driver |
//! |---|---|---|
//! | E1 | Table I — number of functions | [`table1`] |
//! | E2 | Table II — startup overhead | [`table2`] |
//! | E3 | Table III — code size change | [`table3`] |
//! | E4 | §VII-A — effectiveness (953 gadgets; attacks fail) | [`effectiveness`] |
//! | E5 | §V-D — brute-force effort | [`bruteforce`] |
//! | E6 | §VIII-B — entropy | [`entropy`] |
//! | F1 | Fig. 2 — MAVLink packet structure | [`fig2`] |
//! | F2 | Figs. 4–5 — gadget listings | [`gadget_listings`] |
//! | F3 | Fig. 6 — stack progression during the stealthy attack | [`fig6`] |
//! | A1 | DESIGN.md §4 — ablations | [`ablations`] |
//!
//! Every bench times through one helper (`time_arms`) and returns its
//! record as a JSON object, which [`write_bench`] host-stamps and writes
//! to `BENCH_<name>.json`.

#![forbid(unsafe_code)]

use avr_core::image::FirmwareImage;
use mavlink_lite::GroundStation;
use mavr::policy::RandomizationPolicy;
use mavr_board::{FaultPlan, MavrBoard, SerialLink};
pub use mavr_campaignd::json::Json;
use mavr_fleet::{fly, FlightPlan, Flyer, Links};
use rop::attack::AttackContext;
use rop::scanner::{self, ScanOptions};
use synth_firmware::{apps, build, layout as l, AppSpec, BuildOptions, FirmwareBuild};

/// One row of a numeric table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Application name.
    pub app: String,
    /// Values, column order per experiment.
    pub values: Vec<f64>,
}

/// Render rows with a header, paper-style.
pub fn render(title: &str, columns: &[&str], rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "== {title} ==").unwrap();
    write!(out, "{:<14}", "Application").unwrap();
    for c in columns {
        write!(out, "{c:>20}").unwrap();
    }
    out.push('\n');
    for r in rows {
        write!(out, "{:<14}", r.app).unwrap();
        for v in &r.values {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                write!(out, "{:>20}", *v as i64).unwrap();
            } else {
                write!(out, "{v:>20.1}").unwrap();
            }
        }
        out.push('\n');
    }
    out
}

/// Build the calibrated paper apps under a given option set. Building a
/// full app takes ~0.5 s; callers should reuse the results.
pub fn paper_builds(options: &BuildOptions) -> Vec<FirmwareBuild> {
    apps::all_paper_apps()
        .iter()
        .map(|spec| build(spec, options).expect("calibrated app builds"))
        .collect()
}

/// **Table I** — number of randomizable function symbols per application.
/// Paper: ArduPlane 917, ArduCopter 1030, ArduRover 800 (avg 915.67,
/// median 917).
pub fn table1() -> Vec<Row> {
    paper_builds(&BuildOptions::safe_mavr())
        .iter()
        .map(|fw| Row {
            app: fw.spec.name.to_string(),
            values: vec![fw.image.function_count() as f64],
        })
        .collect()
}

/// **Table II** — startup overhead in ms when the application is
/// randomized and reprogrammed at boot. Paper: 19209 / 21206 / 15412
/// (avg 18609, median 19209) at 115200 baud.
pub fn table2() -> Vec<Row> {
    let link = SerialLink::prototype();
    paper_builds(&BuildOptions::safe_mavr())
        .iter()
        .map(|fw| Row {
            app: fw.spec.name.to_string(),
            values: vec![link.transfer_ms(fw.image.code_size()).round()],
        })
        .collect()
}

/// **Table II (production estimate)** — §VII-B1's ~4 s figure on a
/// production PCB where flash page writes are the bottleneck.
pub fn table2_production() -> Vec<Row> {
    let link = SerialLink::production();
    paper_builds(&BuildOptions::safe_mavr())
        .iter()
        .map(|fw| Row {
            app: fw.spec.name.to_string(),
            values: vec![link.programming_ms(fw.image.code_size()).round()],
        })
        .collect()
}

/// **Table III** — code size, stock toolchain vs MAVR custom toolchain.
/// Paper: 221608→221294, 244532→244292, 177870→177556.
pub fn table3() -> Vec<Row> {
    let stock = paper_builds(&BuildOptions::safe_stock());
    let mavr = paper_builds(&BuildOptions::safe_mavr());
    stock
        .iter()
        .zip(&mavr)
        .map(|(s, m)| Row {
            app: s.spec.name.to_string(),
            values: vec![
                f64::from(s.image.code_size()),
                f64::from(m.image.code_size()),
            ],
        })
        .collect()
}

/// Outcome of the §VII-A effectiveness experiment.
#[derive(Debug, Clone)]
pub struct Effectiveness {
    /// Unique gadgets found in the unprotected target (paper: 953).
    pub gadgets_unique: usize,
    /// Total ret-reaching start addresses (no dedup).
    pub gadgets_total: usize,
    /// Attack attempts against the *unprotected* image.
    pub stock_attempts: usize,
    /// … of which succeeded (sensor set, no crash).
    pub stock_successes: usize,
    /// Attack attempts against *randomized* images (fresh permutation each).
    pub randomized_attempts: usize,
    /// … of which succeeded. The paper's result: none.
    pub randomized_successes: usize,
    /// … of which crashed visibly and were detected + reflashed by the
    /// master.
    pub randomized_detected: usize,
    /// Gadget addresses from the unprotected image that still host the same
    /// gadget after one randomization (should be near zero).
    pub gadget_survivors: usize,
}

/// **§VII-A effectiveness**: scan the target for gadgets, run the stealthy
/// V2 attack against the unprotected image (expect success) and against
/// `trials` freshly randomized boards (expect zero successes; majority
/// detected and recovered).
///
/// Pass [`apps::tiny_test_app`] for fast runs, [`apps::synth_plane`] for
/// the paper-scale target.
pub fn effectiveness(spec: &AppSpec, trials: u64) -> Effectiveness {
    let fw = build(spec, &BuildOptions::vulnerable_mavr()).expect("build");
    let scan = scanner::scan(&fw.image, &ScanOptions::default());
    let scan_all = scanner::scan(
        &fw.image,
        &ScanOptions {
            dedup: false,
            ..Default::default()
        },
    );
    let one_shuffle = mavr::randomize(
        &fw.image,
        &mut mavr::seeded_rng(0x5caa),
        &mavr::RandomizeOptions::default(),
    )
    .expect("randomize");
    let gadget_survivors =
        scanner::survivors(&fw.image, &one_shuffle.image, &ScanOptions::default());
    let ctx = AttackContext::discover(&fw.image).expect("attack discovery");
    let frames = [ctx
        .v2_payload(&[(l::GYRO + 3, [0xde, 0xad, 0x42])])
        .expect("payload")];

    // Against the unprotected binary.
    let mut stock_successes = 0;
    {
        let mut m = avr_sim::Machine::new_atmega2560();
        m.load_flash(0, &fw.image.bytes);
        m.run(200_000);
        let mut gcs = GroundStation::new();
        m.uart0.inject(&gcs.exploit_packet(&frames[0]).unwrap());
        let exit = m.run(2_000_000);
        if exit.is_healthy() && m.peek_range(l::GYRO + 3, 3) == vec![0xde, 0xad, 0x42] {
            stock_successes = 1;
        }
    }

    // Against randomized boards.
    let mut randomized_successes = 0;
    let mut randomized_detected = 0;
    let plan = FlightPlan {
        warmup: 300_000,
        frames: &frames,
        gap: 0,
        attack: 6_000_000,
    };
    for seed in 0..trials {
        let board = MavrBoard::provision(&fw.image, seed, RandomizationPolicy::default())
            .expect("provision");
        let mut flyer = Flyer::Plain(Box::new(board));
        let flight = fly(&plan, &mut flyer, &mut Links::perfect(), |_| {});
        assert_eq!(flight.bricked, None, "the master recovers every failure");
        let board = flyer.board();
        if board.app.machine.peek_range(l::GYRO + 3, 3) == vec![0xde, 0xad, 0x42] {
            randomized_successes += 1;
        }
        if board.recoveries() >= 1 {
            randomized_detected += 1;
        }
    }
    Effectiveness {
        gadgets_unique: scan.len(),
        gadgets_total: scan_all.len(),
        stock_attempts: 1,
        stock_successes,
        randomized_attempts: trials as usize,
        randomized_successes,
        randomized_detected,
        gadget_survivors,
    }
}

/// **§V-D brute force**: Monte-Carlo means vs the closed forms for a small
/// function count where simulation is feasible. Trials fan out across the
/// available cores with deterministic per-trial seeds (see
/// [`rop::brute::run_trials`]), so the numbers are reproducible regardless
/// of the host's parallelism. Returns
/// `(sim_fixed, theory_fixed, sim_rerandomized, theory_rerandomized)`.
pub fn bruteforce(n_functions: usize, trials: u64) -> (f64, f64, f64, f64) {
    use rop::brute::BruteModel;
    let mean_fixed = rop::brute::mean_attempts(BruteModel::Fixed, n_functions, trials, 0x5eed);
    let mean_rerand =
        rop::brute::mean_attempts(BruteModel::Rerandomized, n_functions, trials, 0x5eed);
    let n_perms = mavr::math::factorial_f64(n_functions as u64);
    (
        mean_fixed,
        mavr::math::expected_attempts_fixed(n_perms),
        mean_rerand,
        mavr::math::expected_attempts_rerandomized(n_perms),
    )
}

/// **§VIII-B entropy** — bits of permutation entropy per application.
pub fn entropy() -> Vec<Row> {
    apps::all_paper_apps()
        .iter()
        .map(|a| Row {
            app: a.name.to_string(),
            values: vec![mavr::math::entropy_bits(a.functions as u64).round()],
        })
        .collect()
}

/// **Activity counters** — instructions retired, interrupts, UART traffic,
/// and flight-recorder events emitted per application over `cycles`
/// simulated cycles.
///
/// Apps fly on a fully provisioned MAVR board, so each row includes the
/// master's boot/randomize/program lifecycle events. A container that
/// exceeds the prototype's 256 KiB external flash (image + symbol
/// directives — SynthCopter) runs the application processor bare instead;
/// a healthy bare flight emits no events, which is the point: the recorder
/// only speaks on lifecycle and failure paths.
///
/// Telemetry runs through a [`telemetry::NullRecorder`]: every emission is
/// counted but immediately discarded, the configuration whose overhead
/// [`telemetry_overhead`] measures (and shows to be ~0).
pub fn counters(cycles: u64) -> Vec<Row> {
    use telemetry::{NullRecorder, Telemetry};
    let mut builds = vec![build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap()];
    builds.extend(paper_builds(&BuildOptions::safe_mavr()));
    builds
        .iter()
        .map(|fw| {
            let tele = Telemetry::new(NullRecorder::default());
            let c = match MavrBoard::provision_chaos(
                &fw.image,
                1,
                RandomizationPolicy::default(),
                tele.clone(),
                FaultPlan::none(),
            ) {
                Ok(mut board) => {
                    board.run(cycles).expect("healthy flight");
                    board.app.machine.counters()
                }
                Err(_) => {
                    // Container too large for the prototype chip: bare run.
                    let mut m = avr_sim::Machine::new_atmega2560();
                    m.telemetry = tele.clone();
                    m.load_flash(0, &fw.image.bytes);
                    m.run(cycles);
                    m.counters()
                }
            };
            Row {
                app: fw.spec.name.to_string(),
                values: vec![
                    c.insns_retired as f64,
                    c.interrupts_taken as f64,
                    c.uart_tx_bytes as f64,
                    tele.events_emitted() as f64,
                ],
            }
        })
        .collect()
}

/// **Fig. 2** — encode a minimum packet and describe its structure.
pub fn fig2() -> String {
    let mut gcs = GroundStation::new();
    let wire = gcs.heartbeat();
    let mut out = String::from("MAVLink packet structure (Fig. 2), minimum 17-byte HEARTBEAT:\n");
    let fields = [
        ("magic", 1usize),
        ("payload length", 1),
        ("sequence", 1),
        ("sender system id", 1),
        ("sender component id", 1),
        ("message id", 1),
        ("payload", wire.len() - 8),
        ("checksum", 2),
    ];
    let mut off = 0;
    for (name, len) in fields {
        let bytes: Vec<String> = wire[off..off + len]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        out.push_str(&format!("  {name:<22} {}\n", bytes.join(" ")));
        off += len;
    }
    out
}

/// **Figs. 4–5** — disassemble the classified gadgets from a target image,
/// in the figures' listing format.
pub fn gadget_listings(image: &FirmwareImage) -> String {
    let map = scanner::classify(image).expect("gadgets present");
    let stk = avr_core::disasm::disassemble(&image.bytes, map.stk_move, 14);
    let wm = avr_core::disasm::disassemble(&image.bytes, map.write_mem_std, 40);
    let mut out = String::from("Gadget 1: stk_move (Fig. 4)\n");
    for line in stk.iter().take(7) {
        out.push_str(&format!("  {line}\n"));
    }
    out.push_str("Gadget 2: write_mem_gadget (Fig. 5)\n");
    for line in wm.iter().take(20) {
        out.push_str(&format!("  {line}\n"));
    }
    out
}

/// One stack snapshot for Fig. 6.
#[derive(Debug, Clone)]
pub struct StackSnapshot {
    /// Stage label from the figure.
    pub label: &'static str,
    /// SP at snapshot time.
    pub sp: u16,
    /// Bytes from `base` upward.
    pub base: u16,
    /// The raw bytes.
    pub bytes: Vec<u8>,
}

impl StackSnapshot {
    /// Hexdump in the figure's style.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = format!("({}) SP={:#06x}\n", self.label, self.sp);
        for (i, chunk) in self.bytes.chunks(8).enumerate() {
            write!(out, "  {:#06x}:", self.base as usize + i * 8).unwrap();
            for b in chunk {
                write!(out, " 0x{b:02X}").unwrap();
            }
            out.push('\n');
        }
        out
    }
}

/// **Fig. 6** — run the V2 stealthy attack with instrumentation and capture
/// the stack at each stage of the figure.
pub fn fig6(spec: &AppSpec) -> Vec<StackSnapshot> {
    let fw = build(spec, &BuildOptions::vulnerable_mavr()).expect("build");
    let ctx = AttackContext::discover(&fw.image).expect("discover");
    let payload = ctx
        .v2_payload(&[(l::GYRO + 3, [0x11, 0x22, 0x33])])
        .expect("payload");

    let mut m = avr_sim::Machine::new_atmega2560();
    m.load_flash(0, &fw.image.bytes);
    m.run(200_000);

    let frame_base = ctx.y_frame;
    let window = 48usize;
    // Show the top of the frame: locals tail, saved regs, return address.
    let base = frame_base + synth_firmware::layout::HANDLER_FRAME - 24;
    let snap = |m: &avr_sim::Machine, label| StackSnapshot {
        label,
        sp: m.sp(),
        base,
        bytes: m.peek_range(base, window),
    };

    let mut snaps = Vec::new();
    let handler = fw.image.symbol("handle_param_set").unwrap().addr;
    m.add_breakpoint(handler);
    let mut gcs = GroundStation::new();
    m.uart0.inject(&gcs.exploit_packet(&payload).unwrap());
    m.run(4_000_000);
    snaps.push(snap(&m, "i: clean stack at handler entry"));
    m.remove_breakpoint(handler);

    // Ride the attack: breakpoints on the two gadgets.
    m.add_breakpoint(ctx.gadgets.stk_move);
    m.run(4_000_000);
    snaps.push(snap(
        &m,
        "ii: dirty stack after payload injection (at stk_move)",
    ));
    m.remove_breakpoint(ctx.gadgets.stk_move);
    m.add_breakpoint(ctx.gadgets.write_mem_pop);
    m.run(100_000);
    snaps.push(snap(&m, "iii: SP moved into the buffer (gadget 1 done)"));
    m.remove_breakpoint(ctx.gadgets.write_mem_pop);
    m.add_breakpoint(ctx.gadgets.write_mem_std);
    m.run(100_000);
    snaps.push(snap(&m, "iv: payload write about to execute"));
    m.run(100_000);
    snaps.push(snap(&m, "v: stack before frame repair (gadget 2)"));
    m.remove_breakpoint(ctx.gadgets.write_mem_std);
    m.add_breakpoint(ctx.gadgets.stk_move);
    m.run(100_000);
    snaps.push(snap(&m, "vi: moving SP back to the original frame"));
    m.remove_breakpoint(ctx.gadgets.stk_move);
    // Return point: the original return address inside mavlink_rx_poll.
    let ret = (u32::from(ctx.orig_ret[0]) << 16)
        | (u32::from(ctx.orig_ret[1]) << 8)
        | u32::from(ctx.orig_ret[2]);
    m.add_breakpoint(ret * 2);
    m.run(100_000);
    snaps.push(snap(&m, "vii: repaired stack, execution continues"));
    snaps
}

/// Min, median and max of one arm's timed samples, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spread {
    /// Fastest sample — the headline: noise only ever adds time.
    min: f64,
    /// Median sample.
    median: f64,
    /// Slowest sample.
    max: f64,
}

/// Seconds `f` takes. Its result stays live through `black_box`, so the
/// optimizer cannot drop the work being timed.
fn secs<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = std::time::Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64()
}

/// The one timing method every bench uses. Each arm returns the seconds of
/// its own timed region (via `secs`), so per-sample setup stays outside
/// the clock. One warm-up round runs and is discarded; then `samples`
/// rounds run the arms round-robin, so load drift on a shared host spreads
/// over every arm instead of landing on whichever runs first.
fn time_arms<const N: usize>(
    samples: usize,
    mut arms: [&mut dyn FnMut() -> f64; N],
) -> [Spread; N] {
    for arm in arms.iter_mut() {
        arm();
    }
    let mut times = [(); N].map(|_| Vec::with_capacity(samples));
    for _ in 0..samples {
        for (arm, t) in arms.iter_mut().zip(&mut times) {
            t.push(arm());
        }
    }
    times.map(|mut t| {
        t.sort_by(f64::total_cmp);
        Spread {
            min: t[0],
            median: t[t.len() / 2],
            max: t[t.len() - 1],
        }
    })
}

/// A JSON object from `(key, value)` pairs, in order.
fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A measured quantity as a JSON number: four significant digits (integer
/// parts keep every digit), or `null` when not finite.
fn real(v: f64) -> Json {
    if !v.is_finite() {
        return Json::Null;
    }
    let decimals = if v == 0.0 {
        0
    } else {
        (3 - v.abs().log10().floor() as i32).max(0) as usize
    };
    Json::Num(format!("{v:.decimals$}"))
}

/// A record's `spread` object: `[min, median, max]` seconds per arm.
fn spread(samples: usize, arms: &[(&str, Spread)]) -> Json {
    let mut fields = vec![
        ("samples", Json::num(samples as u64)),
        ("unit", Json::str("s")),
    ];
    fields.extend(arms.iter().map(|&(name, s)| {
        (
            name,
            Json::Arr(vec![real(s.min), real(s.median), real(s.max)]),
        )
    }));
    obj(fields)
}

/// Trimmed stdout of `cmd args`, or `"unknown"` when it cannot run.
fn command_line(cmd: &str, args: &[&str]) -> Json {
    let out = std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty());
    Json::str(out.unwrap_or_else(|| "unknown".to_string()))
}

/// `record` with the `host` stamp appended: cores, `rustc -V`, the
/// checked-out commit and whether this was a quick run. Numbers from two
/// hosts are not comparable, so every BENCH file says which host it is.
fn stamp(record: Json, quick: bool) -> Json {
    let Json::Obj(mut fields) = record else {
        panic!("a bench record is a JSON object");
    };
    let nproc = std::thread::available_parallelism()
        .map_or_else(|_| Json::str("unknown"), |n| Json::num(n.get() as u64));
    let host = obj(vec![
        ("nproc", nproc),
        ("rustc", command_line("rustc", &["-V"])),
        ("commit", command_line("git", &["rev-parse", "HEAD"])),
        ("quick", Json::Bool(quick)),
    ]);
    fields.push(("host".to_string(), host));
    Json::Obj(fields)
}

/// Write `BENCH_<name>.json` in the working directory: the host-stamped
/// record on one line. Returns the path written.
pub fn write_bench(name: &str, record: Json, quick: bool) -> std::io::Result<String> {
    let path = format!("BENCH_{name}.json");
    std::fs::write(&path, stamp(record, quick).to_text() + "\n")?;
    Ok(path)
}

/// Simulator throughput (simulated cycles per second of host time) on
/// 1M cycles of the tiny firmware, across the three-tier engine chain:
/// decode-every-fetch (`uncached`), the predecode cache and fast run loop
/// (`predecoded`), and block-fused dispatch (`block_fused`, the default).
///
/// `cold_start_ratio` is what a freshly programmed board pays before it
/// runs at speed: on the paper-scale `plane` image, the first 150k cycles
/// (one `plane-provision` flight) after `load_flash` on a fresh machine
/// (every predecode fill and block discovery included) over the next 150k
/// on the same machine. `quick` takes fewer samples, for CI smoke.
pub fn simulator_throughput(quick: bool) -> Json {
    const CYCLES: u64 = 1_000_000;
    const COLD_START_CYCLES: u64 = 150_000;
    let samples = if quick { 3 } else { 11 };
    let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
    let bytes = &fw.image.bytes;
    let leg = |predecode: bool, fusion: bool| {
        move || {
            let mut m = avr_sim::Machine::new_atmega2560();
            m.set_predecode(predecode);
            m.set_block_fusion(fusion);
            m.load_flash(0, bytes);
            let dt = secs(|| m.run(CYCLES));
            assert!(m.fault().is_none(), "bench firmware crashed");
            dt
        }
    };
    let [uncached, predecoded, fused] = time_arms(
        samples,
        [
            &mut leg(false, false),
            &mut leg(true, false),
            &mut leg(true, true),
        ],
    );
    let plane = build(&apps::synth_plane(), &BuildOptions::safe_mavr()).unwrap();
    let programmed = || {
        let mut m = avr_sim::Machine::new_atmega2560();
        m.load_flash(0, &plane.image.bytes);
        m
    };
    let [cold, next] = time_arms(
        samples,
        [
            &mut || {
                let mut m = programmed();
                let dt = secs(|| m.run(COLD_START_CYCLES));
                assert!(m.fault().is_none(), "plane firmware crashed");
                dt
            },
            &mut || {
                let mut m = programmed();
                m.run(COLD_START_CYCLES);
                let dt = secs(|| m.run(COLD_START_CYCLES));
                assert!(m.fault().is_none(), "plane firmware crashed");
                dt
            },
        ],
    );
    let rate = |s: Spread| real(CYCLES as f64 / s.min);
    obj(vec![
        ("bench", Json::str("run_1M_cycles/tiny_firmware")),
        ("unit", Json::str("cycles_per_sec")),
        ("uncached", rate(uncached)),
        ("predecoded", rate(predecoded)),
        ("block_fused", rate(fused)),
        ("predecode_speedup", real(uncached.min / predecoded.min)),
        ("fusion_speedup", real(predecoded.min / fused.min)),
        ("total_speedup", real(uncached.min / fused.min)),
        ("cold_start_ratio", real(cold.min / next.min)),
        (
            "spread",
            spread(
                samples,
                &[
                    ("uncached", uncached),
                    ("predecoded", predecoded),
                    ("block_fused", fused),
                    ("plane_first_150k", cold),
                    ("plane_next_150k", next),
                ],
            ),
        ),
    ])
}

/// Process peak resident set (`VmHWM`) in MiB, from `/proc/self/status`;
/// 0.0 where the file does not exist (non-Linux).
pub fn peak_rss_mb() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// Measure the campaign service end to end — shard execution, per-board
/// JSONL streaming, checkpoint flushes, and the two-pass report merge —
/// at campaign sizes spanning two orders of magnitude, recording peak RSS
/// after each. Because shard outcomes stream to disk and metrics fold
/// through the registry merge, the peak-RSS column stays flat as the
/// board count grows 100x: the service's memory is O(shard), not
/// O(campaign). `rss_growth` is largest-over-smallest peak RSS. `quick`
/// caps the largest campaign for CI smoke runs. Each size is one sample:
/// sizes run smallest-first because `VmHWM` is monotonic, so a flat column
/// proves the big campaigns allocated no more than the small ones.
pub fn campaignd_memory(quick: bool) -> Json {
    use mavr_campaignd::{merge_store, CampaignSession, CampaignSpec, CampaignStore};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let sizes: &[usize] = if quick {
        &[100, 1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    // Short flights: the point is service overhead and memory, not
    // simulated-cycle throughput (campaignbench's `tiny-flight` and
    // `plane-provision` workloads cover that).
    let (warmup, flight) = (40_000u64, 60_000u64);
    let shard_jobs = 256u64;
    let root = std::env::temp_dir()
        .join("mavr-campaignd-bench")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("bench scratch dir");

    let mut rss = Vec::new();
    let rows = sizes
        .iter()
        .map(|&boards| {
            let mut spec = CampaignSpec::named(&format!("bench-{boards}"));
            spec.boards = boards;
            spec.scenarios = vec![mavr_fleet::Scenario::Benign];
            spec.warmup_cycles = warmup;
            spec.attack_cycles = flight;
            spec.shard_jobs = shard_jobs;
            let store = CampaignStore::create(&root, spec).expect("create campaign");
            let session = CampaignSession::new(
                store,
                telemetry::Telemetry::off(),
                Arc::new(AtomicBool::new(false)),
            )
            .expect("session");
            let outcome = session.run(None, None).expect("run campaign");
            assert!(outcome.complete, "bench campaign ran to completion");
            merge_store(&session.store).expect("merge campaign");
            let rss_mb = peak_rss_mb();
            rss.push(rss_mb);
            obj(vec![
                ("boards", Json::num(boards as u64)),
                ("peak_rss_mb", real(rss_mb)),
            ])
        })
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    let rss_growth = match (rss.first(), rss.last()) {
        (Some(&a), Some(&b)) if a > 0.0 => b / a,
        _ => 1.0,
    };
    obj(vec![
        ("bench", Json::str("campaignd/sharded_benign")),
        ("shard_jobs", Json::num(shard_jobs)),
        ("cycles_per_board", Json::num(warmup + flight)),
        ("rss_growth", real(rss_growth)),
        ("rows", Json::Arr(rows)),
    ])
}

/// Measure the campaign service's supervision machinery end to end.
///
/// Two sweeps, both fully deterministic (seeded fault draws, seeded
/// sabotage fates), one sample per point:
///
/// - **Recovery**: run half a campaign, drop the session cold (the
///   in-process stand-in for SIGKILL — the on-disk state is identical),
///   then time store reopen + session rebuild + a one-job resume slice.
///   That is the service's MTTR: how long a supervisor waits between
///   "process gone" and "campaign making checkpointed progress again".
///   Swept across injected disk-fault rates, driving each campaign to
///   completion to count abandoned checkpoint flushes along the way.
///   `worst_mttr_ms` is the slowest point — the MTTR the CI gate bounds.
/// - **Quarantine**: sweep the seeded sabotage panic rate through an
///   otherwise identical campaign and time run + merge. Poison jobs cost
///   their retries (bounded attempts with millisecond backoff) and a
///   quarantine-ledger rebuild at merge; `overhead` is that cost as a
///   ratio over the clean baseline, and `quarantine_overhead` is the
///   overhead at the top rate.
///
/// `quick` shrinks the campaigns and drops a sweep point for CI smoke.
pub fn robust_service(quick: bool) -> Json {
    use mavr_campaignd::{merge_store, CampaignSession, CampaignSpec, CampaignStore, FaultFs};
    use mavr_fleet::JobChaos;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let boards = if quick { 16 } else { 64 };
    let (warmup, flight) = (40_000u64, 60_000u64);
    let shard_jobs = 4u64;
    let root = std::env::temp_dir()
        .join("mavr-robust-bench")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("bench scratch dir");

    let spec_named = |name: &str| {
        let mut spec = CampaignSpec::named(name);
        spec.boards = boards;
        spec.scenarios = vec![mavr_fleet::Scenario::Benign];
        spec.warmup_cycles = warmup;
        spec.attack_cycles = flight;
        spec.shard_jobs = shard_jobs;
        spec
    };
    let session = |store: CampaignStore| {
        CampaignSession::new(
            store,
            telemetry::Telemetry::off(),
            Arc::new(AtomicBool::new(false)),
        )
        .expect("session")
    };

    let fault_rates: &[f64] = if quick {
        &[0.0, 0.5]
    } else {
        &[0.0, 0.25, 0.5]
    };
    let mut worst_mttr_ms = 0.0f64;
    let recovery = fault_rates
        .iter()
        .map(|&rate| {
            let name = format!("mttr-{}", (rate * 100.0) as u32);
            let faults = if rate == 0.0 {
                FaultFs::none()
            } else {
                FaultFs::seeded(0x0DD5_EED0 + (rate * 100.0) as u64, rate)
            };
            let store = CampaignStore::create(&root, spec_named(&name))
                .expect("create campaign")
                .with_faults(faults.clone());
            // The doomed first process: half the campaign, then gone. A
            // dropped session and a SIGKILLed one leave the same disk.
            let doomed = session(store);
            doomed.run(Some(boards / 2), None).expect("partial run");
            drop(doomed);

            let t0 = std::time::Instant::now();
            let store = CampaignStore::open(&root.join(&name))
                .expect("reopen campaign")
                .with_faults(faults);
            let resumed = session(store);
            resumed.run(Some(1), None).expect("one-job resume slice");
            let mttr_ms = t0.elapsed().as_secs_f64() * 1e3;
            worst_mttr_ms = worst_mttr_ms.max(mttr_ms);

            // Drive to completion under the same fault rate: skipped
            // checkpoints re-run their slices, so this always converges.
            let mut slices = 1u64;
            loop {
                let out = resumed.run(None, None).expect("resume slice");
                slices += 1;
                if out.complete {
                    break;
                }
                assert!(slices < 10_000, "campaign failed to converge under faults");
            }
            obj(vec![
                ("store_fault_rate", Json::float(rate)),
                ("mttr_ms", real(mttr_ms)),
                (
                    "checkpoints_skipped",
                    Json::num(resumed.checkpoints_skipped()),
                ),
                ("slices_to_complete", Json::num(slices)),
            ])
        })
        .collect();

    // Poison jobs panic on purpose (caught by the supervisor); silence
    // the default hook so the sweep times supervision, not stderr.
    let prior_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let panic_rates: &[f64] = if quick {
        &[0.0, 0.1]
    } else {
        &[0.0, 0.05, 0.1]
    };
    let mut base_secs = None;
    let mut overhead = 1.0;
    let quarantine = panic_rates
        .iter()
        .map(|&rate| {
            let name = format!("poison-{}", (rate * 1000.0) as u32);
            let mut spec = spec_named(&name);
            spec.sabotage = JobChaos {
                panic_rate: rate,
                hang_rate: 0.0,
                flaky_rate: 0.0,
                seed: 0x0BAD_5EED,
            };
            let sess = session(CampaignStore::create(&root, spec).expect("create campaign"));
            let secs = secs(|| {
                let out = sess.run(None, None).expect("poison campaign");
                assert!(out.complete, "a poisoned campaign still completes");
                merge_store(&sess.store).expect("merge campaign");
            });
            let quarantined = std::fs::read_to_string(sess.store.quarantine_path())
                .map_or(0, |text| text.lines().count() as u64);
            overhead = secs / *base_secs.get_or_insert(secs);
            obj(vec![
                ("panic_rate", Json::float(rate)),
                ("quarantined", Json::num(quarantined)),
                ("secs", real(secs)),
                ("overhead", real(overhead)),
            ])
        })
        .collect();
    std::panic::set_hook(prior_hook);

    let _ = std::fs::remove_dir_all(&root);
    obj(vec![
        ("bench", Json::str("campaignd/robust_service")),
        ("boards", Json::num(boards as u64)),
        ("cycles_per_board", Json::num(warmup + flight)),
        ("worst_mttr_ms", real(worst_mttr_ms)),
        ("quarantine_overhead", real(overhead)),
        ("recovery", Json::Arr(recovery)),
        ("quarantine", Json::Arr(quarantine)),
    ])
}

/// Sweep fault-injection rates through a V1 (loud crash) fleet campaign
/// and measure what the hardened recovery pipeline does with them: reflash
/// retries, degraded boots, bricks, and MTTR inflation versus the clean
/// baseline (`mttr_inflation`, top-level at the highest rate where both
/// are defined). Whether a crashed ROP chain actually silences the
/// heartbeat is layout-dependent (wild execution can keep interrupts
/// alive), so the campaign seed is chosen for a fleet where most baseline
/// boards detect — that keeps the MTTR column defined, and the engine
/// seed-matches boards across the fault axis, so the comparison is the
/// *same* fleet under different chaos. Fully deterministic (it is a fleet
/// campaign); `quick` shrinks the fleet for CI smoke runs.
pub fn chaos_resilience(quick: bool) -> Json {
    use mavr_fleet::{run_campaign, CampaignConfig, Scenario};
    let boards = if quick { 2 } else { 8 };
    let cfg = CampaignConfig {
        seed: 6,
        boards,
        scenarios: vec![Scenario::V1Crash],
        loss_levels: vec![0.0],
        fault_levels: vec![0.0, 0.00005, 0.0001, 0.0002, 0.0005],
        attack_cycles: if quick { 3_000_000 } else { 6_000_000 },
        ..CampaignConfig::default()
    };
    let report = run_campaign(&cfg);
    let base_mttr = report.cells.first().and_then(|c| c.mean_time_to_recovery());
    let inflation = |mttr: Option<f64>| base_mttr.zip(mttr).map(|(b, m)| m / b);
    let rows = report
        .cells
        .iter()
        .map(|c| {
            let per_board = |n: f64| real(n / c.boards.max(1) as f64);
            let mttr = c.mean_time_to_recovery();
            obj(vec![
                ("fault", Json::float(c.fault)),
                ("boards", Json::num(c.boards as u64)),
                ("reflash_retries", Json::num(c.reflash_retries)),
                ("retry_rate", per_board(c.reflash_retries as f64)),
                ("degraded_boots", Json::num(c.degraded_boots)),
                ("boards_bricked", Json::num(c.boards_bricked as u64)),
                ("brick_rate", per_board(c.boards_bricked as f64)),
                ("boards_recovered", Json::num(c.boards_recovered as u64)),
                ("mttr_cycles", mttr.map_or(Json::Null, real)),
                ("mttr_inflation", inflation(mttr).map_or(Json::Null, real)),
            ])
        })
        .collect();
    let top_mttr = report
        .cells
        .iter()
        .rev()
        .find_map(|c| c.mean_time_to_recovery());
    obj(vec![
        ("bench", Json::str("chaos_resilience/v1-crash")),
        ("seed", Json::num(cfg.seed)),
        ("boards_per_cell", Json::num(boards as u64)),
        (
            "mttr_inflation",
            inflation(top_mttr).map_or(Json::Null, real),
        ),
        ("rows", Json::Arr(rows)),
    ])
}

/// A reference registry shaped like one worker shard of a real campaign:
/// `cells` label combinations, each with the fold's counters, a latency
/// sketch and a packet histogram.
fn reference_registry(cells: usize, seed: u64) -> telemetry::metrics::MetricsRegistry {
    let mut reg = telemetry::metrics::MetricsRegistry::new();
    let mut x = seed;
    let mut next = || {
        // splitmix64, the workspace's standard seed deriver.
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for cell in 0..cells {
        let loss = format!("{:.4}", cell as f64 * 0.01);
        let labels = [("scenario", "bench"), ("loss", loss.as_str())];
        reg.add_counter("campaign_boards_total", &labels, 8);
        reg.add_counter("recoveries_total", &labels, next() % 8);
        reg.add_counter("sim_cycles_total", &labels, next() % 1_000_000);
        for _ in 0..64 {
            reg.observe_sketch(
                "campaign_detection_latency_cycles",
                &labels,
                next() % 2_000_000,
            );
            reg.observe_histogram("campaign_packets_per_board", &labels, next() % 4096);
        }
    }
    reg
}

/// Measure the observability plane: (a) simulator throughput with
/// telemetry off vs a `NullRecorder` attached, on the flying tiny
/// firmware — `null_recorder_overhead_pct` is the slowdown of the
/// "instrumentation on, sink off" configuration; (b) raw sketch-record and
/// labeled histogram-record rates; (c) shard-merge and exposition rates on
/// a campaign-shaped reference registry. The two simulator arms run
/// round-robin through `time_arms` apart from the five metrics arms: a
/// simulator arm that follows the allocation-heavy exposition arms runs
/// ~10% slower, which would read as overhead. `quick` shortens everything
/// for CI smoke.
pub fn telemetry_overhead(quick: bool) -> Json {
    use std::hint::black_box;
    use telemetry::metrics::{MetricsRegistry, QuantileSketch};
    use telemetry::{NullRecorder, Telemetry};

    let samples = if quick { 3 } else { 9 };
    let sim_cycles: u64 = if quick { 300_000 } else { 1_000_000 };
    let ops: u64 = if quick { 200_000 } else { 2_000_000 };
    let rounds: u64 = if quick { 200 } else { 2_000 };

    let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).expect("build");
    let bytes = &fw.image.bytes;
    let sim = |telemetry_on: bool| {
        move || {
            let mut m = avr_sim::Machine::new_atmega2560();
            if telemetry_on {
                m.telemetry = Telemetry::new(NullRecorder::default());
            }
            m.load_flash(0, bytes);
            let dt = secs(|| m.run(sim_cycles));
            assert!(m.fault().is_none(), "bench firmware crashed");
            dt
        }
    };
    let shard = reference_registry(12, 0x2015);
    let [off, null] = time_arms(samples, [&mut sim(false), &mut sim(true)]);
    let [sketch, histogram, merge, prometheus, jsonl] = time_arms(
        samples,
        [
            &mut || {
                secs(|| {
                    let mut s = QuantileSketch::new();
                    for v in 0..ops {
                        // Cheap LCG so the timed loop is the record call.
                        s.record(v.wrapping_mul(6364136223846793005).wrapping_add(1) % 4_000_000);
                    }
                    s.count()
                })
            },
            &mut || {
                secs(|| {
                    let mut reg = MetricsRegistry::new();
                    let labels = [("scenario", "bench"), ("loss", "0.0000")];
                    for v in 0..ops {
                        reg.observe_histogram("campaign_packets_per_board", &labels, v % 4096);
                    }
                    reg.len()
                })
            },
            &mut || {
                secs(|| {
                    let mut acc = MetricsRegistry::new();
                    for _ in 0..rounds {
                        acc.merge(black_box(&shard));
                    }
                    acc.len()
                })
            },
            &mut || {
                secs(|| {
                    (0..rounds)
                        .map(|_| shard.to_prometheus().len())
                        .sum::<usize>()
                })
            },
            &mut || secs(|| (0..rounds).map(|_| shard.to_jsonl().len()).sum::<usize>()),
        ],
    );
    let per_sec = |n: u64, s: Spread| real(n as f64 / s.min);
    obj(vec![
        ("bench", Json::str("telemetry_overhead/tiny_firmware")),
        ("series", Json::num(shard.len() as u64)),
        ("off_cycles_per_sec", per_sec(sim_cycles, off)),
        ("null_recorder_cycles_per_sec", per_sec(sim_cycles, null)),
        (
            "null_recorder_overhead_pct",
            real(100.0 * (null.min / off.min - 1.0)),
        ),
        ("sketch_records_per_sec", per_sec(ops, sketch)),
        ("histogram_records_per_sec", per_sec(ops, histogram)),
        ("merges_per_sec", per_sec(rounds, merge)),
        ("prometheus_per_sec", per_sec(rounds, prometheus)),
        ("jsonl_per_sec", per_sec(rounds, jsonl)),
        (
            "spread",
            spread(
                samples,
                &[
                    ("off", off),
                    ("null_recorder", null),
                    ("sketch", sketch),
                    ("histogram", histogram),
                    ("merge", merge),
                    ("prometheus", prometheus),
                    ("jsonl", jsonl),
                ],
            ),
        ),
    ])
}

/// Measure what closing the physical loop costs: the same provisioned
/// SynthQuadFlight board flown bare (block-fused fast path, ADC floating)
/// versus inside the [`mavr_world::FlightHarness`] (sensors sampled into
/// the ADC and the rigid body stepped every 16 000 cycles). Provisioning
/// stays outside the clock. `physics_overhead_pct` is the coupled
/// slowdown; the budget is <15%. `quick` = fewer samples and steps, for CI
/// smoke.
pub fn world_throughput(quick: bool) -> Json {
    use mavr_world::{FlightHarness, Scenario, World, CYCLES_PER_STEP};

    let steps: u64 = if quick { 125 } else { 500 };
    let samples = if quick { 3 } else { 9 };
    let cycles = steps * CYCLES_PER_STEP;
    let fw = build(&apps::synth_quad_flight(), &BuildOptions::safe_mavr()).unwrap();
    let board = || MavrBoard::provision(&fw.image, 0xf17e, RandomizationPolicy::default()).unwrap();

    let [bare, coupled] = time_arms(
        samples,
        [
            &mut || {
                let mut b = board();
                secs(|| b.run(cycles).unwrap())
            },
            &mut || {
                let mut h = FlightHarness::new(board(), World::new(Scenario::Hover, 0x57e9));
                let dt = secs(|| h.run_steps(steps).unwrap());
                assert!(!h.world.on_ground(), "bench flight must stay airborne");
                dt
            },
        ],
    );
    obj(vec![
        ("bench", Json::str("closed_loop/synth_quad_flight")),
        ("unit", Json::str("cycles_per_sec")),
        ("bare_fused", real(cycles as f64 / bare.min)),
        ("coupled_fused", real(cycles as f64 / coupled.min)),
        ("world_steps_per_sec", real(steps as f64 / coupled.min)),
        (
            "physics_overhead_pct",
            real(100.0 * (coupled.min / bare.min - 1.0)),
        ),
        (
            "spread",
            spread(samples, &[("bare_fused", bare), ("coupled_fused", coupled)]),
        ),
    ])
}

/// What the `-mcall-prologues` ablation measures on the stock build of the
/// tiny app. See `call_prologue_ablation`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CallPrologueAblation {
    /// Call/jump sites that reference the shared prologue/epilogue blobs.
    refs: usize,
    /// Gadget start addresses inside the blobs.
    blob_gadgets: usize,
    /// Register-restore gadgets (≥ 4 pops) in the stock build.
    stock_restore: usize,
    /// Register-restore gadgets in the MAVR-toolchain build.
    mavr_restore: usize,
}

/// `-mno-call-prologues` (§VI-B1): the shared prologue/epilogue blobs leak
/// their location through every caller (each encodes the blob's address,
/// as a long `call` or a relaxed `rcall`) and concentrate the long pop
/// runs that flow into `ret`; per-function epilogues scatter the
/// equivalent gadgets across the whole image.
fn call_prologue_ablation() -> CallPrologueAblation {
    use avr_core::decode::decode_at;
    use avr_core::Insn;
    let spec = apps::tiny_test_app();
    let stock = build(&spec, &BuildOptions::safe_stock()).unwrap().image;
    let mavr_img = build(&spec, &BuildOptions::safe_mavr()).unwrap().image;

    let blobs: Vec<(u32, u32)> = ["__prologue_saves__", "__epilogue_restores__"]
        .iter()
        .map(|n| {
            let s = stock.symbol(n).expect("stock build has the blob");
            (s.addr, s.end())
        })
        .collect();
    let in_blobs = |byte: u32| blobs.iter().any(|&(a, e)| byte >= a && byte < e);
    let mut refs = 0;
    let mut off = 0u32;
    while off + 1 < stock.text_end {
        let Some((insn, words)) = decode_at(&stock.bytes, off as usize) else {
            break;
        };
        let target = match insn {
            Insn::Call { k } | Insn::Jmp { k } => Some(k * 2),
            Insn::Rcall { k } | Insn::Rjmp { k } => {
                Some(off.wrapping_add(2).wrapping_add_signed(i32::from(k) * 2))
            }
            _ => None,
        };
        if target.is_some_and(in_blobs) {
            refs += 1;
        }
        off += words * 2;
    }

    let opts = ScanOptions {
        max_insns: 24,
        dedup: false,
    };
    let stock_gadgets = scanner::scan(&stock, &opts);
    let restores = |gadgets: &[rop::Gadget]| {
        gadgets
            .iter()
            .filter(|g| {
                g.insns
                    .iter()
                    .filter(|i| matches!(i, Insn::Pop { .. }))
                    .count()
                    >= 4
            })
            .count()
    };
    CallPrologueAblation {
        refs,
        blob_gadgets: stock_gadgets.iter().filter(|g| in_blobs(g.addr)).count(),
        stock_restore: restores(&stock_gadgets),
        mavr_restore: restores(&scanner::scan(&mavr_img, &opts)),
    }
}

/// **Ablations** of the design choices the paper argues for (DESIGN.md §4),
/// rendered as text:
///
/// - `--no-relax` (§VI-B1): randomizing a relax-built image is refused, and
///   forcing it through breaks the image;
/// - `-mno-call-prologues` (§VI-B1): see `call_prologue_ablation`;
/// - randomization frequency vs the 10,000-cycle flash endurance (§V-C);
/// - random inter-function padding (§VIII-B): the entropy gain the paper
///   deemed unnecessary;
/// - the toolchain flags' natural (uncalibrated) effect on code size.
pub fn ablations() -> String {
    use mavr::{randomize, RandomizeOptions};
    use std::fmt::Write;
    let mut out = String::new();

    let img = build(&apps::tiny_test_app(), &BuildOptions::safe_stock())
        .unwrap()
        .image;
    let err = randomize(&img, &mut mavr::seeded_rng(1), &RandomizeOptions::default()).unwrap_err();
    writeln!(
        out,
        "Ablation --no-relax: relax-built image rejected ({err})"
    )
    .unwrap();
    let forced = RandomizeOptions {
        ignore_relaxed_branches: true,
        ..Default::default()
    };
    let trials = 10;
    let deaths = (0..trials)
        .filter(|&seed| {
            let r = randomize(&img, &mut mavr::seeded_rng(seed), &forced).unwrap();
            let mut m = avr_sim::Machine::new_atmega2560();
            m.load_flash(0, &r.image.bytes);
            let exit = m.run(2_000_000);
            !exit.is_healthy() || m.heartbeat.toggles().len() < 5
        })
        .count();
    writeln!(
        out,
        "Ablation --no-relax: force-randomized relax builds died {deaths}/{trials} times"
    )
    .unwrap();

    let c = call_prologue_ablation();
    writeln!(
        out,
        "Ablation -mcall-prologues: {} call sites reference the shared blobs \
         ({} gadget start addresses inside them); register-restore gadgets: \
         {} (stock, concentrated) vs {} (MAVR toolchain, scattered)",
        c.refs, c.blob_gadgets, c.stock_restore, c.mavr_restore
    )
    .unwrap();

    let endurance = avr_core::device::ATMEGA2560.flash_endurance_cycles;
    writeln!(
        out,
        "Ablation randomization frequency vs flash endurance ({endurance} cycles):"
    )
    .unwrap();
    for n in [1u32, 5, 10, 50, 100] {
        let p = RandomizationPolicy {
            every_n_boots: n,
            on_attack: true,
        };
        writeln!(
            out,
            "  every {n:>3} boots -> lifetime {:>9.0} boots (no attacks), {:>9.0} (1% attack rate)",
            p.lifetime_boots(endurance, 0.0),
            p.lifetime_boots(endurance, 0.01)
        )
        .unwrap();
    }

    writeln!(out, "Ablation inter-function padding (§VIII-B):").unwrap();
    for pad_choices in [1u64, 4, 16, 64] {
        writeln!(
            out,
            "  800 fns, {pad_choices:>2} pad choices -> {:.0} bits (baseline {:.0})",
            mavr::math::entropy_bits_with_padding(800, pad_choices),
            mavr::math::entropy_bits(800)
        )
        .unwrap();
    }
    writeln!(
        out,
        "  -> the baseline is already computationally secure; padding unnecessary."
    )
    .unwrap();

    // With no size calibration, relaxation + call-prologues make the stock
    // build smaller; the paper's slight MAVR-side decrease came from its
    // leaner custom toolchain, which the calibration reproduces.
    let natural = AppSpec {
        stock_size: None,
        mavr_size: None,
        ..apps::synth_rover()
    };
    let size = |opts: &BuildOptions| i64::from(build(&natural, opts).unwrap().image.code_size());
    let (stock, mavr) = (
        size(&BuildOptions::safe_stock()),
        size(&BuildOptions::safe_mavr()),
    );
    writeln!(
        out,
        "Ablation natural code size (SynthRover, uncalibrated): stock {stock} vs mavr {mavr} \
         bytes ({:+} from the flags)",
        mavr - stock
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shows_min_packet() {
        let s = fig2();
        assert!(s.contains("magic"));
        assert!(s.contains("fe"));
        assert!(s.contains("checksum"));
    }

    #[test]
    fn effectiveness_small_scale() {
        let e = effectiveness(&apps::tiny_test_app(), 3);
        assert!(e.gadgets_unique > 50);
        assert_eq!(e.stock_successes, 1, "attack works on unprotected image");
        assert_eq!(
            e.randomized_successes, 0,
            "attack never works when randomized"
        );
    }

    #[test]
    fn bruteforce_matches_theory() {
        let (mf, ef, mr, er) = bruteforce(4, 4_000);
        assert!((mf - ef).abs() / ef < 0.1);
        assert!((mr - er).abs() / er < 0.1);
    }

    #[test]
    fn call_prologue_blobs_leak_and_concentrate_gadgets() {
        let c = call_prologue_ablation();
        assert!(
            c.refs > 10,
            "the blob must be referenced from many call sites: {c:?}"
        );
        assert!(
            c.mavr_restore > c.stock_restore,
            "per-function epilogues scatter the gadgets: {c:?}"
        );
    }

    #[test]
    fn bench_record_round_trips_with_host_stamp() {
        let record = obj(vec![
            ("bench", Json::str("unit/round_trip")),
            ("ratio", real(1.0 / 3.0)),
            ("missing", real(f64::NAN)),
            ("rows", Json::Arr(vec![obj(vec![("n", Json::num(7))])])),
        ]);
        let text = stamp(record, true).to_text();
        let back = Json::parse(&text).expect("a bench record parses as JSON");
        assert_eq!(back.to_text(), text);
        assert_eq!(
            back.get("bench").and_then(Json::as_str),
            Some("unit/round_trip")
        );
        assert_eq!(back.get("ratio").and_then(Json::as_f64), Some(0.3333));
        assert_eq!(back.get("missing"), Some(&Json::Null));
        let host = back.get("host").expect("host stamp");
        for key in ["nproc", "rustc", "commit", "quick"] {
            assert!(host.get(key).is_some(), "host.{key} missing: {text}");
        }
        assert_eq!(host.get("quick").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn time_arms_discards_a_warm_up_and_orders_the_spread() {
        let mut calls = 0;
        let [a, b] = time_arms(
            4,
            [
                &mut || {
                    calls += 1;
                    secs(|| ())
                },
                &mut || 1.0,
            ],
        );
        assert_eq!(calls, 5, "one warm-up round plus four samples");
        assert!(a.min <= a.median && a.median <= a.max);
        assert_eq!((b.min, b.median, b.max), (1.0, 1.0, 1.0));
    }

    #[test]
    fn fig6_progression_shows_repair() {
        let snaps = fig6(&apps::tiny_test_app());
        assert_eq!(snaps.len(), 7);
        // Window base is y_frame + FRAME - 24, so the 3-byte return address
        // (at y_frame + FRAME + 4) sits at offsets 28..31.
        let ret = 28..31;
        let i = &snaps[0].bytes[ret.clone()];
        let vii = &snaps[6].bytes[ret.clone()];
        assert_eq!(i, vii, "repaired return address must match the original");
        // Stage ii: the return address is smashed (points at stk_move).
        assert_ne!(&snaps[1].bytes[ret.clone()], i);
        // The saved registers (offsets 25..28) are repaired too: stages v
        // and vii hold the values the prologue pushed (stage ii holds the
        // attacker's pivot bytes instead).
        assert_ne!(&snaps[1].bytes[25..28], &snaps[6].bytes[25..28]);
        for s in &snaps {
            assert!(!s.dump().is_empty());
        }
    }
}
