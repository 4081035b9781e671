//! Simulator commands: simulate, profile, trace, snapshot, replay, fly.

use crate::args::Args;
use crate::image::load_image;
use crate::{fail, CliError};
use avr_core::image::FirmwareImage;
use mavr_fleet::{ATTACK_TARGET, ATTACK_VALUES};
use rop::attack::AttackContext;
use synth_firmware::{apps, BuildOptions};

/// A fresh ATmega2560 with `bytes` programmed at flash address 0.
pub(crate) fn machine_with(bytes: &[u8]) -> avr_sim::Machine {
    let mut m = avr_sim::Machine::new_atmega2560();
    m.load_flash(0, bytes);
    m
}

/// The paper's V2 stealthy exploit payload, its gadget addresses taken
/// from the layout `ctx` was discovered on.
fn v2_payload(ctx: &AttackContext) -> Result<Vec<u8>, CliError> {
    ctx.v2_payload(&[(ATTACK_TARGET, ATTACK_VALUES)])
        .map_err(fail)
}

/// [`v2_payload`] framed as uplink bytes.
fn v2_wire(ctx: &AttackContext) -> Result<Vec<u8>, CliError> {
    mavlink_lite::GroundStation::new()
        .exploit_packet(&v2_payload(ctx)?)
        .map_err(fail)
}

pub(crate) fn cmd_simulate(args: &Args) -> Result<String, CliError> {
    let img = load_image(args.required("a file")?)?;
    let cycles = args.get("--cycles")?.unwrap_or(2_000_000);
    let mut m = machine_with(&img.bytes);
    let exit = m.run(cycles);
    let mut gcs = mavlink_lite::GroundStation::new();
    gcs.ingest(&m.uart0.take_tx());
    Ok(format!(
        "ran {} cycles ({:.1} ms at 16 MHz)\nexit        {:?}\nheartbeats  {} toggles on the pin, {} MAVLink heartbeats decoded\npackets     {} total, {} checksum errors\n",
        m.cycles(),
        m.cycles() as f64 / 16_000.0,
        exit,
        m.heartbeat.toggles().len(),
        gcs.heartbeats.len(),
        gcs.received.len(),
        gcs.bad_checksums(),
    ))
}

pub(crate) fn cmd_profile(args: &Args) -> Result<String, CliError> {
    let img = load_image(args.required("a file")?)?;
    if img.function_count() == 0 {
        return Err(CliError::Usage(
            "no symbols — profile needs a MAVR container, not plain HEX".into(),
        ));
    }
    let cycles = args.get("--cycles")?.unwrap_or(2_000_000);
    let top: usize = args.get("--top")?.unwrap_or(10);
    let mut m = machine_with(&img.bytes);
    m.enable_cycle_profile(&img);
    let exit = m.run(cycles);
    let profile = m
        .take_cycle_profile()
        .expect("profiler was enabled before run");
    let mut out = format!(
        "profiled {} cycles ({:.1} ms at 16 MHz), exit {:?}\n\n",
        m.cycles(),
        m.cycles() as f64 / 16_000.0,
        exit,
    );
    let total = profile.total_cycles().max(1);
    out.push_str(&format!(
        "{:<28} {:>12} {:>7}  {:>12}\n",
        "FUNCTION", "EXCLUSIVE", "EXCL%", "INCLUSIVE"
    ));
    for f in profile.functions().iter().take(top.max(1)) {
        out.push_str(&format!(
            "{:<28} {:>12} {:>6.1}%  {:>12}\n",
            f.name,
            f.exclusive,
            100.0 * f.exclusive as f64 / total as f64,
            f.inclusive,
        ));
    }
    if profile.folded_dropped_cycles() > 0 {
        out.push_str(&format!(
            "\n({} cycles in call paths beyond the folded-stack cap)\n",
            profile.folded_dropped_cycles()
        ));
    }
    if let Some(folded_path) = args.value("--folded") {
        std::fs::write(folded_path, profile.folded()).map_err(fail)?;
        out.push_str(&format!("\nwrote folded stacks to {folded_path}\n"));
    }
    Ok(out)
}

pub(crate) fn cmd_trace(args: &Args) -> Result<String, CliError> {
    use mavr::policy::RandomizationPolicy;
    use mavr_board::{FaultPlan, MavrBoard};
    use mavr_fleet::{fly, FlightPlan, Flyer, Links};
    use telemetry::{Recorder, RingRecorder, Telemetry, Value};

    let scenario = args.value("--scenario").unwrap_or("stealthy-attack");
    let seed = args.get("--seed")?.unwrap_or(0x2015);
    let cycles = args.get("--cycles")?.unwrap_or(3_000_000);
    let fw = synth_firmware::build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr())
        .map_err(fail)?;

    let t = Telemetry::new(RingRecorder::new(4096));
    let mut narrative = String::new();

    match scenario {
        "boot" => {
            // Provision lifecycle: container read -> randomize -> stream ->
            // program -> watchdog arm, then a quiet flight and a reboot.
            let mut board = MavrBoard::provision_chaos(
                &fw.image,
                seed,
                RandomizationPolicy::default(),
                t.clone(),
                FaultPlan::none(),
            )
            .map_err(fail)?;
            board.run(cycles).map_err(fail)?;
            board.reboot().map_err(fail)?;
            narrative.push_str(&format!(
                "boot scenario: {} boots, {} recoveries, app at cycle {}\n",
                board.master.boot_count(),
                board.recoveries(),
                board.app.machine.cycles()
            ));
        }
        "clean-attack" => {
            // The paper's V2 against an UNPROTECTED machine: injection,
            // clean return, telemetry keeps flowing.
            let ctx = AttackContext::discover_with(&fw.image, &t).map_err(fail)?;
            let wire = v2_wire(&ctx)?;
            let mut m = machine_with(&fw.image.bytes);
            m.telemetry = t.clone();
            m.enable_trace(64);
            let _ = m.run(300_000);
            let (len, cycle) = (wire.len(), m.cycles());
            t.emit("attack.injected", Some(cycle), || {
                vec![
                    ("variant", Value::Str("v2".into())),
                    ("wire_bytes", Value::U64(len as u64)),
                    ("target", Value::U64(u64::from(ATTACK_TARGET))),
                ]
            });
            m.uart0.inject(&wire);
            let _ = m.run(cycles);
            let overwritten = m.peek_range(ATTACK_TARGET, 3) == ATTACK_VALUES;
            let clean = m.fault().is_none();
            t.emit(
                if clean {
                    "attack.clean_return"
                } else {
                    "attack.crash"
                },
                Some(m.cycles()),
                || {
                    vec![
                        ("overwrote_target", Value::Bool(overwritten)),
                        ("heartbeats", Value::U64(m.heartbeat.toggles().len() as u64)),
                    ]
                },
            );
            let report = avr_sim::CrashReport::capture(&m, Some(&fw.image), &ctx.annotations());
            narrative.push_str(&format!(
                "clean-attack scenario: target overwritten = {overwritten}, machine {}\n\n",
                if clean { "still flying" } else { "CRASHED" }
            ));
            narrative.push_str(&report.narrative());
        }
        "stealthy-attack" => {
            // Full defense. The interesting run is one where the chain,
            // landing in re-randomized code, visibly crashes the machine and
            // the master recovers — quietly find a board seed that produces
            // that (the master's RNG is deterministic per seed), then replay
            // it with the recorder attached.
            let stock = AttackContext::discover(&fw.image).map_err(fail)?;
            let frames = [v2_payload(&stock)?];
            let wire_bytes = v2_wire(&stock)?.len() as u64;
            let plan = FlightPlan {
                warmup: 300_000,
                frames: &frames,
                gap: 0,
                attack: cycles.max(4_000_000),
            };
            let attack_round = |board: MavrBoard, on_inject: &mut dyn FnMut(u64)| {
                let mut flyer = Flyer::Plain(Box::new(board));
                match fly(&plan, &mut flyer, &mut Links::perfect(), on_inject).bricked {
                    Some(e) => Err(fail(e)),
                    None => Ok(flyer),
                }
            };
            let mut chosen = None;
            for probe in 0..32u64 {
                let s = seed.wrapping_add(probe);
                let board = MavrBoard::provision(&fw.image, s, RandomizationPolicy::default())
                    .map_err(fail)?;
                let flyer = attack_round(board, &mut |_| {})?;
                let board = flyer.board();
                if board.recoveries() >= 1 {
                    let faulted = board.last_crash.as_ref().is_some_and(|c| c.fault.is_some());
                    if chosen.is_none() || faulted {
                        chosen = Some(s);
                    }
                    if faulted {
                        break;
                    }
                }
            }
            let s = chosen.ok_or_else(|| {
                CliError::Failed("no probed seed produced a detected failed attack".into())
            })?;
            let ctx = AttackContext::discover_with(&fw.image, &t).map_err(fail)?;
            let mut board = MavrBoard::provision_chaos(
                &fw.image,
                s,
                RandomizationPolicy::default(),
                t.clone(),
                FaultPlan::none(),
            )
            .map_err(fail)?;
            board.forensic_annotations = ctx.annotations();
            let flyer = attack_round(board, &mut |cycle| {
                t.emit("attack.injected", Some(cycle), || {
                    vec![
                        ("variant", Value::Str("v2".into())),
                        ("wire_bytes", Value::U64(wire_bytes)),
                        ("target", Value::U64(u64::from(ATTACK_TARGET))),
                    ]
                });
            })?;
            let board = flyer.board();
            let overwritten = board.app.machine.peek_range(ATTACK_TARGET, 3) == ATTACK_VALUES;
            narrative.push_str(&format!(
                "stealthy-attack scenario (board seed {s}): attack succeeded = {overwritten}, \
                 recoveries = {}\n\n",
                board.recoveries()
            ));
            match &board.last_crash {
                Some(crash) => narrative.push_str(&crash.narrative()),
                None => narrative.push_str("no recovery occurred (attack soft-landed)\n"),
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown scenario `{other}` (boot, clean-attack, stealthy-attack)"
            )))
        }
    }

    let (jsonl, kinds, total, dropped) = t
        .with_recorder::<RingRecorder, _>(|r| {
            let kinds: Vec<(String, u64)> = r
                .histogram()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            (r.to_jsonl(), kinds, r.events_emitted(), r.dropped())
        })
        .expect("trace recorder is a ring");

    let mut out = String::new();
    if let Some(path) = args.out() {
        std::fs::write(path, &jsonl).map_err(fail)?;
        out.push_str(&format!(
            "wrote {total} events to {path} ({dropped} dropped from the ring)\n\n"
        ));
    }
    out.push_str(&format!("{:<24} {:>8}\n", "event kind", "count"));
    for (kind, count) in &kinds {
        out.push_str(&format!("{kind:<24} {count:>8}\n"));
    }
    out.push_str(&format!("{:<24} {total:>8}\n\n", "total"));
    out.push_str(&narrative);
    Ok(out)
}

/// Deterministic one-line JSON digest of a machine's full state — two
/// machines produce the same digest iff they are architecturally identical
/// (SRAM and flash are folded through CRC-32).
fn state_digest(m: &avr_sim::Machine) -> String {
    let state = m.capture_state();
    format!(
        "{{\"pc\":{},\"cycles\":{},\"insns_retired\":{},\"interrupts_taken\":{},\
         \"fault\":\"{:?}\",\"sram_crc\":{},\"flash_crc\":{},\"heartbeat_toggles\":{}}}\n",
        u64::from(state.pc) * 2,
        state.cycles,
        state.insns_retired,
        state.interrupts_taken,
        state.fault,
        mavr_snapshot::crc32(&state.data),
        mavr_snapshot::crc32(&state.flash),
        state.heartbeat.toggles.len(),
    )
}

/// `--cycles` is an absolute target, so splitting a run across a
/// save/restore pair produces the same digest as running uninterrupted.
pub(crate) fn cmd_snapshot(args: &Args) -> Result<String, CliError> {
    use mavr_snapshot::{decode_machine, encode_machine};

    let img = load_image(args.required("an image file")?)?;
    let target: u64 = args.get("--cycles")?.unwrap_or(2_000_000);
    let mut m = machine_with(&img.bytes);
    let resumed = if let Some(snap) = args.value("--restore") {
        let blob = std::fs::read(snap).map_err(fail)?;
        let state = decode_machine(&blob).map_err(fail)?;
        m.restore_state(&state).map_err(fail)?;
        true
    } else {
        false
    };
    let exit = m.run(target.saturating_sub(m.cycles()));
    let mut out = format!(
        "{} to cycle {target}: {exit:?} at cycle {}, pc {:#06x}, {} heartbeat toggles\n",
        if resumed { "resumed" } else { "ran" },
        m.cycles(),
        m.pc_bytes(),
        m.heartbeat.toggles().len(),
    );
    if let Some(dst) = args.out() {
        let blob = encode_machine(&m.capture_state());
        std::fs::write(dst, &blob).map_err(fail)?;
        out.push_str(&format!(
            "wrote machine snapshot to {dst} ({} bytes)\n",
            blob.len()
        ));
    }
    if let Some(dst) = args.value("--digest") {
        std::fs::write(dst, state_digest(&m)).map_err(fail)?;
        out.push_str(&format!("wrote state digest to {dst}\n"));
    }
    Ok(out)
}

/// The paper's §V question, answered by time travel: the first cycle where
/// the randomized execution departs from the stock one is the moment the
/// attacker's hard-coded gadget addresses stopped matching reality.
pub(crate) fn cmd_replay(args: &Args) -> Result<String, CliError> {
    use mavr_snapshot::{bisect_divergence, Timeline};

    let seed = args.get("--seed")?.unwrap_or(0x2015);
    let cycles = args.get("--cycles")?.unwrap_or(4_000_000);
    let interval = args.get("--interval")?.unwrap_or(250_000);

    let fw = synth_firmware::build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr())
        .map_err(fail)?;
    let mut rng = mavr::seeded_rng(seed);
    let r =
        mavr::randomize(&fw.image, &mut rng, &mavr::RandomizeOptions::default()).map_err(fail)?;

    // The exploit an attacker holding the published image would send:
    // gadget addresses from the STOCK layout.
    let ctx = AttackContext::discover(&fw.image).map_err(fail)?;
    let wire = v2_wire(&ctx)?;

    // Identical flight plans for both layouts: warm up, inject the same
    // wire bytes (with a keyframe marking the injection so it replays),
    // fly on.
    let fly = |bytes: &[u8]| {
        let mut m = machine_with(bytes);
        let mut tl = Timeline::new(interval);
        tl.record(&mut m, 300_000);
        m.uart0.inject(&wire);
        tl.mark(&mut m);
        tl.record(&mut m, cycles);
        (m, tl)
    };
    let (mut stock_m, mut stock_tl) = fly(&fw.image.bytes);
    let (mut rand_m, mut rand_tl) = fly(&r.image.bytes);

    let mut out = format!(
        "stock:      {} keyframes, final cycle {}, fault {:?}\n\
         randomized: {} keyframes, final cycle {}, fault {:?}\n",
        stock_tl.keyframes().len(),
        stock_m.cycles(),
        stock_m.fault(),
        rand_tl.keyframes().len(),
        rand_m.cycles(),
        rand_m.fault(),
    );

    let Some(d) = bisect_divergence(
        &mut stock_tl,
        &mut stock_m,
        &fw.image,
        &mut rand_tl,
        &mut rand_m,
        &r.image,
    ) else {
        out.push_str("no divergence: both layouts executed equivalently\n");
        return Ok(out);
    };
    let name_at = |img: &FirmwareImage, pc: u32| match img.symbol_containing(pc) {
        Some(s) => format!("{}+{:#x}", s.name, pc - s.addr),
        None => "?".into(),
    };
    out.push_str(&format!(
        "first divergence at cycle {}\n  stock      pc {:#06x} in {}\n  randomized pc {:#06x} in {}\n",
        d.cycle,
        d.stock_pc,
        name_at(&fw.image, d.stock_pc),
        d.randomized_pc,
        name_at(&r.image, d.randomized_pc),
    ));

    // Fly the randomized machine on from the divergence point and
    // post-mortem it with the divergence evidence attached.
    let _ = rand_m.run(cycles);
    let mut report = avr_sim::CrashReport::capture(&rand_m, Some(&r.image), &ctx.annotations());
    report.divergence_cycle = Some(d.cycle);
    if let Some(dst) = args.out() {
        if let Some(kf) = rand_tl
            .keyframes()
            .iter()
            .rev()
            .find(|k| k.cycles <= d.cycle)
        {
            let blob = mavr_snapshot::encode_machine(kf);
            std::fs::write(dst, &blob).map_err(fail)?;
            report.snapshot_ref = Some(dst.to_string());
            out.push_str(&format!(
                "wrote pre-divergence snapshot (cycle {}) to {dst} ({} bytes)\n",
                kf.cycles,
                blob.len()
            ));
        }
    }
    out.push('\n');
    out.push_str(&report.narrative());
    Ok(out)
}

pub(crate) fn cmd_fly(args: &Args) -> Result<String, CliError> {
    use mavr::policy::RandomizationPolicy;
    use mavr_board::MavrBoard;
    use mavr_world::{FlightHarness, Scenario, World, CYCLES_PER_STEP, TARGET_ALT_M};

    let scenario = match args.value("--scenario") {
        Some(s) => Scenario::parse(s).ok_or_else(|| {
            CliError::Usage(format!("unknown scenario `{s}` (hover, drop, turbulent)"))
        })?,
        None => Scenario::Hover,
    };
    let seed = args.get("--seed")?.unwrap_or(0x2015);
    let steps = args.get("--steps")?.unwrap_or(3000);

    let fw = synth_firmware::build(&apps::synth_quad_flight(), &BuildOptions::safe_mavr())
        .map_err(fail)?;
    let board = MavrBoard::provision(&fw.image, seed, RandomizationPolicy::default())
        .map_err(|e| CliError::Failed(format!("provisioning failed: {e}")))?;
    // Disjoint world stream from the same seed, so `--seed` alone names
    // the whole flight.
    let mut h = FlightHarness::new(board, World::new(scenario, seed ^ 0x5eed_d1ce));

    // One trajectory sample every 100 steps, plus the final state.
    let mut samples = Vec::new();
    let mut flown = 0;
    while flown < steps {
        let batch = (steps - flown).min(100);
        h.run_steps(batch)
            .map_err(|e| CliError::Failed(format!("flight aborted: {e}")))?;
        flown += batch;
        samples.push(format!(
            "{{\"t_ms\":{},\"alt_m\":{:.3},\"vz_mps\":{:.3},\"alt_err_peak_m\":{:.3},\
             \"on_ground\":{},\"impacts\":{},\"recoveries\":{}}}",
            h.world.steps(),
            h.world.altitude(),
            h.world.body.vel.z,
            h.world.peak_alt_err(),
            h.world.on_ground(),
            h.world.ground_impacts(),
            h.recoveries_caught(),
        ));
    }

    if args.flag("json") {
        let mut out = samples.join("\n");
        out.push('\n');
        if let Some(path) = args.out() {
            std::fs::write(path, &out).map_err(fail)?;
            return Ok(format!(
                "wrote {} trajectory samples to {path}\n",
                samples.len()
            ));
        }
        return Ok(out);
    }

    Ok(format!(
        "flew {} ({} steps, {} cycles): alt {:.2} m (target {TARGET_ALT_M}), \
         peak |err| {:.2} m, impacts {}, recoveries {} (alt lost {:.2} m), {}\n",
        scenario.name(),
        h.world.steps(),
        h.world.steps() * CYCLES_PER_STEP,
        h.world.altitude(),
        h.world.peak_alt_err(),
        h.world.ground_impacts(),
        h.recoveries_caught(),
        h.alt_lost_to_recoveries(),
        if h.world.on_ground() {
            "on the ground"
        } else {
            "airborne"
        },
    ))
}

#[cfg(test)]
mod tests {
    use crate::test_util::{s, tmp};
    use crate::{run, CliError};

    #[test]
    fn fly_holds_hover_and_is_deterministic() {
        let base = ["fly", "--steps", "800", "--seed", "42"];
        let a = run(&s(&base)).unwrap();
        assert!(a.contains("airborne"), "hover flight stays up:\n{a}");
        assert!(a.contains("impacts 0"), "hover flight never crashes:\n{a}");
        assert_eq!(a, run(&s(&base)).unwrap(), "same seed, same flight");

        let json = run(&s(&["fly", "--steps", "300", "--json"])).unwrap();
        let last = json.lines().last().unwrap();
        assert!(
            last.contains("\"t_ms\":300"),
            "trajectory ends at --steps:\n{last}"
        );
        assert!(last.contains("\"on_ground\":false"));

        assert!(matches!(
            run(&s(&["fly", "--scenario", "lunar"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn profile_attributes_cycles_to_firmware_symbols() {
        let container = tmp("profile.mavrhex");
        run(&s(&["build", "tiny", "-o", &container])).unwrap();
        let folded = tmp("profile.folded");
        let out = run(&s(&[
            "profile", &container, "--cycles", "400000", "--top", "5", "--folded", &folded,
        ]))
        .unwrap();
        assert!(out.contains("FUNCTION"), "missing table header:\n{out}");
        // The tiny app spends its time in the CRC inner loop; the table is
        // sorted by exclusive cycles so the hot leaf leads it.
        assert!(out.contains("crc_update"), "hot leaf not in table:\n{out}");
        let stacks = std::fs::read_to_string(&folded).unwrap();
        assert!(
            stacks.contains("main_loop;"),
            "main loop missing from call paths:\n{stacks}"
        );
        for line in stacks.lines() {
            let (path, cycles) = line.rsplit_once(' ').expect("folded line shape");
            assert!(!path.is_empty());
            cycles.parse::<u64>().expect("folded cycle count");
        }
        // Plain HEX has no symbol table to attribute cycles to.
        let hex = tmp("profile-plain.hex");
        std::fs::write(&hex, ":00000001FF\n").unwrap();
        assert!(matches!(
            run(&s(&["profile", &hex])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn snapshot_save_restore_matches_uninterrupted_digest() {
        let container = tmp("snap.mavrhex");
        run(&s(&["build", "tiny", "-o", &container])).unwrap();
        let full = tmp("snap-full.json");
        run(&s(&[
            "snapshot", &container, "--cycles", "600000", "--digest", &full,
        ]))
        .unwrap();
        let snap = tmp("snap-mid.bin");
        run(&s(&[
            "snapshot", &container, "--cycles", "300000", "-o", &snap,
        ]))
        .unwrap();
        let resumed = tmp("snap-resumed.json");
        let out = run(&s(&[
            "snapshot",
            &container,
            "--restore",
            &snap,
            "--cycles",
            "600000",
            "--digest",
            &resumed,
        ]))
        .unwrap();
        assert!(out.contains("resumed to cycle 600000"), "{out}");
        assert_eq!(
            std::fs::read_to_string(&full).unwrap(),
            std::fs::read_to_string(&resumed).unwrap(),
            "digest after save/restore differs from the uninterrupted run"
        );
    }

    #[test]
    fn snapshot_of_the_wrong_memory_size_is_an_error_not_a_panic() {
        let container = tmp("snap-short.mavrhex");
        run(&s(&["build", "tiny", "-o", &container])).unwrap();
        // A CRC-valid blob whose flash is 2 bytes, not the device's 256 KiB.
        let mut state = avr_sim::Machine::new_atmega2560().capture_state();
        state.flash = vec![0xff; 2];
        let snap = tmp("snap-short.bin");
        std::fs::write(&snap, mavr_snapshot::encode_machine(&state)).unwrap();
        match run(&s(&["snapshot", &container, "--restore", &snap])) {
            Err(CliError::Failed(msg)) => assert!(msg.contains("flash is 2 bytes"), "{msg}"),
            other => panic!("expected a typed failure, got {other:?}"),
        }
    }

    #[test]
    fn replay_bisects_v2_divergence() {
        let snap = tmp("prediv.bin");
        let out = run(&s(&[
            "replay",
            "--seed",
            "7",
            "--interval",
            "200000",
            "-o",
            &snap,
        ]))
        .unwrap();
        assert!(out.contains("first divergence at cycle"), "{out}");
        assert!(
            out.contains("diverged from the reference run at cycle"),
            "{out}"
        );
        assert!(out.contains("pre-crash snapshot"), "{out}");
        assert!(!std::fs::read(&snap).unwrap().is_empty());
    }
}
