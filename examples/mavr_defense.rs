//! The MAVR defense in action (§V, §VII-A): the same stealthy attack that
//! silently hijacks an unprotected APM fails against the randomized board,
//! gets detected by the master processor, and the board re-randomizes and
//! recovers in flight.
//!
//! ```text
//! cargo run --example mavr_defense
//! ```

use mavr_repro::mavlink_lite::GroundStation;
use mavr_repro::mavr::policy::RandomizationPolicy;
use mavr_repro::mavr_board::{FaultPlan, MavrBoard};
use mavr_repro::mavr_fleet::{fly, FlightPlan, Flyer, Links};
use mavr_repro::rop::attack::AttackContext;
use mavr_repro::synth_firmware::{apps, build, layout, BuildOptions};
use mavr_repro::telemetry::{RingRecorder, Telemetry};

fn main() {
    let fw = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();

    // The attack is crafted against the unprotected binary, as in the
    // paper's threat model.
    let ctx = AttackContext::discover(&fw.image).unwrap();
    let frames = [ctx
        .v2_payload(&[(layout::GYRO + 3, [0xde, 0xad, 0x42])])
        .unwrap()];
    let plan = FlightPlan {
        warmup: 300_000,
        frames: &frames,
        gap: 0,
        attack: 6_000_000,
    };

    // Provision the MAVR board: container uploaded to the external flash,
    // master randomizes and programs the application processor, lock fuse
    // set.
    println!("provisioning MAVR boards and attacking each with the same payload:\n");
    let mut detected = 0;
    let mut succeeded = 0;
    let mut first_recovery: Option<(u64, String, Option<String>)> = None;
    let trials = 8;
    for seed in 0..trials {
        // Each board flies with a flight recorder attached; the ring keeps
        // the latest events so we can replay the first detected attack.
        let tele = Telemetry::new(RingRecorder::new(512));
        let mut board = MavrBoard::provision_chaos(
            &fw.image,
            seed,
            RandomizationPolicy::default(),
            tele.clone(),
            FaultPlan::none(),
        )
        .unwrap();
        board.forensic_annotations = ctx.annotations();
        assert!(
            board.attacker_flash_view().iter().all(|&b| b == 0xff),
            "readout protection hides the randomized binary"
        );
        let mut flyer = Flyer::Plain(Box::new(board));
        let flight = fly(&plan, &mut flyer, &mut Links::perfect(), |_| {});
        assert_eq!(flight.bricked, None, "the master recovers every failure");
        let board = flyer.board_mut();

        let hit = board.app.machine.peek_range(layout::GYRO + 3, 3) == vec![0xde, 0xad, 0x42];
        let recovered = board.recoveries() >= 1;
        println!(
            "  board #{seed}: attack {}  {}",
            if hit { "SUCCEEDED" } else { "failed   " },
            if recovered {
                "-> garbage execution detected, board re-randomized and reflashed"
            } else {
                "-> layout absorbed the bad jump; board kept flying"
            }
        );
        if hit {
            succeeded += 1;
        }
        if recovered {
            detected += 1;
            if first_recovery.is_none() {
                let timeline = tele
                    .with_recorder::<RingRecorder, String>(|ring| {
                        ring.events()
                            .map(|ev| {
                                let cycle = ev
                                    .cycle
                                    .map(|c| format!("@{c:>9}"))
                                    .unwrap_or_else(|| " ".repeat(10));
                                let fields: Vec<String> =
                                    ev.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
                                format!(
                                    "    [{:>3}] {cycle} {:<22} {}",
                                    ev.seq,
                                    ev.kind,
                                    fields.join(" ")
                                )
                            })
                            .collect::<Vec<_>>()
                            .join("\n")
                    })
                    .unwrap_or_default();
                let narrative = board.last_crash.as_ref().map(|c| c.narrative());
                first_recovery = Some((seed, timeline, narrative));
            }
            // Show the recovered board is healthy.
            let _ = board.downlink();
            board.run(1_500_000).unwrap();
            let mut gcs2 = GroundStation::new();
            gcs2.ingest(&board.downlink());
            assert!(gcs2.heartbeats.len() > 5, "telemetry resumed after reflash");
        }
    }

    if let Some((seed, timeline, narrative)) = &first_recovery {
        println!("\nflight-recorder event timeline for board #{seed} (first detection):");
        println!("{timeline}");
        if let Some(n) = narrative {
            println!("\n  post-mortem forensics (crash report captured before reflash):");
            for line in n.lines() {
                println!("    {line}");
            }
        }
    }

    println!(
        "\nsummary: {succeeded}/{trials} attacks succeeded, {detected}/{trials} failed attempts \
         detected and recovered"
    );
    println!(
        "brute force left to the attacker: ~n! permutations; even this tiny app's {} functions \
         give {:.0} bits of entropy (SynthRover's 800 give {:.0} — paper: 6567)",
        fw.image.function_count(),
        mavr_repro::mavr::math::entropy_bits(fw.image.function_count() as u64),
        mavr_repro::mavr::math::entropy_bits(800)
    );
    assert_eq!(succeeded, 0, "MAVR must defeat every attack instance");
    println!("\nok: randomization defeated the stealthy attack");
}
