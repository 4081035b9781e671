//! Property tests over the chaos-hardened recovery pipeline: under *any*
//! seeded fault plan, a boot must end in exactly one of three states —
//! success with a readback-verified, locked image; a typed
//! [`MasterError`]; or the degraded safe mode (also verified and locked).
//! It must never panic, and it must never release a partially programmed
//! image as if it were good.

use mavr::policy::RandomizationPolicy;
use mavr_board::{ChaosConfig, FaultPlan, MasterError, MavrBoard, RecoveryCause};
use proptest::prelude::*;
use std::sync::OnceLock;
use synth_firmware::{apps, build, BuildOptions, FirmwareBuild};
use telemetry::Telemetry;

/// The firmware build is the expensive part; share one across all cases.
fn firmware() -> &'static FirmwareBuild {
    static FW: OnceLock<FirmwareBuild> = OnceLock::new();
    FW.get_or_init(|| build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap())
}

/// A successful boot's contract: the application flash matches the image
/// the master believes it shipped, page for page, and the lock fuse is
/// set. Holds for fresh and degraded boots alike.
fn assert_released_image_verified(board: &MavrBoard) {
    let image = board
        .master
        .last_image
        .as_ref()
        .expect("a successful programming boot records its image");
    let page = board.app.machine.device().flash_page_bytes as usize;
    assert!(
        board.app.mismatched_pages(&image.bytes, page).is_empty(),
        "released image must be readback-verified"
    );
    assert!(board.app.locked(), "released board must have its fuse set");
}

/// Fault rates spanning "inert" through "hopeless": below ~1e-5 faults are
/// rare, around 1e-4 retries dominate, above 1e-3 most boots brick.
fn fault_rate() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 1e-6..1e-4f64, 1e-4..1e-3f64, 1e-3..2e-2f64,]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Provisioning under chaos: success implies a verified, locked image
    /// (possibly via the degraded path — impossible on a first boot, which
    /// has no last-known-good, so it must then fail typed); failure is a
    /// typed error and nothing was released.
    #[test]
    fn provisioning_never_releases_unverified_flash(
        seed in any::<u64>(),
        rate in fault_rate(),
    ) {
        let fw = firmware();
        let plan = FaultPlan::new(seed, ChaosConfig::uniform(rate));
        match MavrBoard::provision_chaos(
            &fw.image,
            seed ^ 0x9e37_79b9_7f4a_7c15,
            RandomizationPolicy::default(),
            Telemetry::off(),
            plan,
        ) {
            Ok(board) => assert_released_image_verified(&board),
            Err(e) => {
                // Typed, displayable, and nothing half-programmed escaped.
                prop_assert!(!e.to_string().is_empty());
                if let MasterError::Programming { boot, .. }
                | MasterError::Bricked { boot, .. } = e
                {
                    prop_assert_eq!(boot, 1, "first boot reports ordinal 1");
                }
            }
        }
    }

    /// Recovery reflashes under chaos: every recover() outcome is Ok with
    /// a verified image or a typed error that leaves the last-known-good
    /// image untouched. The board-level run loop never panics either way.
    #[test]
    fn recovery_pipeline_never_panics_or_corrupts(
        seed in any::<u64>(),
        rate in fault_rate(),
    ) {
        let fw = firmware();
        // Provision clean so every case exercises the *recovery* path;
        // the previous property covers chaotic first boots.
        let mut board = MavrBoard::provision(
            &fw.image,
            seed,
            RandomizationPolicy::default(),
        )
        .unwrap();
        board.master.chaos = FaultPlan::new(seed.rotate_left(17), ChaosConfig::uniform(rate));
        let _ = board.run(150_000);
        for _ in 0..2 {
            // Last-known-good going *into* this boot: what a degraded
            // fallback must re-stream and what a failure must preserve.
            let good = board.master.last_image.as_ref().unwrap().bytes.clone();
            match board.recover(RecoveryCause::HeartbeatLost) {
                Ok(report) => {
                    assert_released_image_verified(&board);
                    if report.degraded {
                        prop_assert!(
                            board.master.resilience.degraded_boots > 0,
                            "degraded boots must be counted"
                        );
                        // Degraded mode re-streams the old layout verbatim.
                        prop_assert_eq!(
                            &board.master.last_image.as_ref().unwrap().bytes,
                            &good
                        );
                    }
                    prop_assert!(
                        u64::from(report.retries) <= board.master.resilience.reflash_retries,
                        "per-boot retries never exceed the lifetime counter"
                    );
                }
                Err(e) => {
                    prop_assert!(!e.to_string().is_empty());
                    // A failed boot must not promote a partial image to
                    // last-known-good.
                    prop_assert_eq!(&board.master.last_image.as_ref().unwrap().bytes, &good);
                    // Bricked is terminal: stop driving this board.
                    break;
                }
            }
        }
    }
}

/// What one board's flight leaves behind, for comparing two boards.
type FlightRecord = (
    Vec<Result<(), MasterError>>,
    Vec<u8>,
    Vec<mavr_board::BoardEvent>,
    mavr_board::ResilienceStats,
    Option<Vec<usize>>,
);

/// Fly a provisioned board through two forced recoveries, under `chaos`
/// from take-off when given.
fn fly(
    board: Result<MavrBoard, MasterError>,
    chaos: Option<FaultPlan>,
) -> Result<FlightRecord, MasterError> {
    let mut board = board?;
    if let Some(chaos) = chaos {
        board.master.chaos = chaos;
    }
    let steps = vec![
        board.run(200_000),
        board.recover(RecoveryCause::HeartbeatLost).map(drop),
        board.run(100_000),
        board.recover(RecoveryCause::HeartbeatLost).map(drop),
        board.run(200_000),
    ];
    Ok((
        steps,
        board.app.machine.flash().to_vec(),
        board.events,
        board.master.resilience,
        board.master.last_permutation,
    ))
}

/// A board provisioned on a clone of one shared, warm chip is the board
/// `provision_chaos` builds from the image, fault plan for fault plan —
/// whether the plan rots the provisioning read or only the recoveries'.
/// The shared chip's memo never stands in for a read the plan corrupts.
#[test]
fn shared_chip_boards_equal_fresh_boards_under_chaos() {
    let fw = firmware();
    let shared = MavrBoard::chip_for(&fw.image).unwrap();
    let policy = RandomizationPolicy::default();
    for rate in [0.0, 0.0001, 0.001, 0.01, 0.05] {
        for seed in 0..4u64 {
            let board_seed = seed ^ 0x5eed;
            let plan = || FaultPlan::new(seed, ChaosConfig::uniform(rate));
            for chaos_at_boot in [true, false] {
                let (boot_plan, flight_plan) = if chaos_at_boot {
                    (plan(), None)
                } else {
                    (FaultPlan::none(), Some(plan()))
                };
                let on_shared = fly(
                    MavrBoard::provision_on(
                        shared.clone(),
                        board_seed,
                        policy,
                        Telemetry::off(),
                        boot_plan.clone(),
                    ),
                    flight_plan.clone(),
                );
                let fresh = fly(
                    MavrBoard::provision_chaos(
                        &fw.image,
                        board_seed,
                        policy,
                        Telemetry::off(),
                        boot_plan,
                    ),
                    flight_plan,
                );
                assert_eq!(
                    on_shared, fresh,
                    "rate {rate}, seed {seed}, chaos at boot {chaos_at_boot}"
                );
            }
        }
    }
}
