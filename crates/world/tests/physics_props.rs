//! Determinism and closed-loop properties of the physical world.
//!
//! The expensive board-coupled tests use small step counts: one world
//! step is 16 000 machine cycles, so even "short" flights exercise
//! millions of simulated cycles.

use mavr::policy::RandomizationPolicy;
use mavr_board::MavrBoard;
use mavr_world::{FlightHarness, Scenario, World, TARGET_ALT_M};
use proptest::prelude::*;
use synth_firmware::{apps, build, BuildOptions};

fn flight_board(seed: u64) -> MavrBoard {
    let fw = build(&apps::synth_quad_flight(), &BuildOptions::safe_mavr()).unwrap();
    MavrBoard::provision(&fw.image, seed, RandomizationPolicy::default()).unwrap()
}

fn harness(board_seed: u64, scenario: Scenario, world_seed: u64) -> FlightHarness {
    FlightHarness::new(flight_board(board_seed), World::new(scenario, world_seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// Harness chunking-invariance: any partition of N steps across
    /// `run_steps` calls produces a bit-identical world and machine.
    #[test]
    fn harness_batching_is_bit_identical(
        seed in any::<u64>(),
        batches in proptest::collection::vec(1..40u64, 1..8),
    ) {
        let total: u64 = batches.iter().sum();

        let mut whole = harness(0xf11e, Scenario::Turbulent, seed);
        whole.run_steps(total).unwrap();

        let mut split = harness(0xf11e, Scenario::Turbulent, seed);
        for b in &batches {
            split.run_steps(*b).unwrap();
        }

        prop_assert_eq!(&whole.world, &split.world);
        prop_assert_eq!(
            whole.board.app.machine.cycles(),
            split.board.app.machine.cycles()
        );
        prop_assert_eq!(whole.board.app.machine.pwm, split.board.app.machine.pwm);
    }
}

/// Block-fused and fully uncached execution see the same physics: the
/// ADC-visible sensor stream, the PWM outputs, and the trajectory are
/// bit-identical whichever execution tier runs the firmware.
#[test]
fn fused_and_uncached_boards_fly_identical_trajectories() {
    let mut fused = harness(0xcafe, Scenario::Hover, 99);
    let mut uncached = harness(0xcafe, Scenario::Hover, 99);
    uncached.board.app.machine.set_predecode(false);

    for _ in 0..150 {
        fused.step_once().unwrap();
        uncached.step_once().unwrap();
        assert_eq!(fused.world, uncached.world);
    }
    assert_eq!(
        fused.board.app.machine.cycles(),
        uncached.board.app.machine.cycles()
    );
    assert_eq!(fused.board.app.machine.pwm, uncached.board.app.machine.pwm);
}

/// The closed loop closes: the flight firmware, reading the simulated
/// sensors through the ADC and driving the motors through the PWM,
/// holds the hover setpoint.
#[test]
fn flight_firmware_holds_hover_altitude() {
    let mut h = harness(0xda7a, Scenario::Hover, 7);
    h.run_steps(1500).unwrap();
    let alt = h.world.altitude();
    assert!(
        (alt - TARGET_ALT_M).abs() < 5.0,
        "altitude drifted to {alt} m"
    );
    assert_eq!(h.world.ground_impacts(), 0);
    assert_eq!(h.board.recoveries(), 0, "benign flight must not recover");
    assert_eq!(h.recoveries_caught(), 0);
}

/// With the motors never driven (no flight controller in the firmware),
/// the vehicle falls out of the sky and the world records the crash —
/// the physical-consequence baseline for non-flight images.
#[test]
fn non_flight_firmware_falls_and_impacts() {
    let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
    let board = MavrBoard::provision(&fw.image, 3, RandomizationPolicy::default()).unwrap();
    let mut h = FlightHarness::new(board, World::new(Scenario::Hover, 5));
    // Start low so the fall (terminal velocity ≈ 8 m/s) fits in a short run.
    h.world.body.pos = mavr_world::Vec3::new(0.0, 0.0, 12.0);
    h.run_steps(3000).unwrap();
    assert!(h.world.on_ground(), "altitude still {}", h.world.altitude());
    assert_eq!(h.world.ground_impacts(), 1);
}
