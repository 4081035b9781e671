//! Kill-anywhere recovery proof: SIGKILL the one-shot campaign service
//! at seeded random instants — mid-slice, mid-checkpoint, mid-finalize,
//! wherever the timer lands — then resume. The completed campaign must
//! merge to a report **byte-identical** to one uninterrupted, unsharded
//! engine run, with byte-identical metrics and no quarantine residue.
//!
//! This drives the real binary (`CARGO_BIN_EXE_mavr-cli`), so the whole
//! stack is under the knife: CLI arg parsing, the session runner, the
//! atomic store discipline, torn-tail repair, and the merge.

#![cfg(unix)]

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_mavr-cli");

const SPEC: &str = r#"{
    "name": "kill-proof",
    "boards": 2,
    "scenarios": ["benign", "v2"],
    "loss_levels": [0.01],
    "fault_levels": [0.0],
    "warmup_cycles": 100000,
    "attack_cycles": 1200000,
    "shard_jobs": 1
}"#;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("mavr-cli-tests")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn sigkill_at_seeded_instants_resumes_to_byte_identical_report() {
    let root = tmp_dir("kill-root");
    let spec_path = root.join("spec-input.json");
    std::fs::write(&spec_path, SPEC).unwrap();
    let serve_args = [
        "serve",
        "--dir",
        root.to_str().unwrap(),
        "--spec",
        spec_path.to_str().unwrap(),
    ];

    // The oracle: one uninterrupted, unsharded in-process engine run.
    let spec = mavr_campaignd::CampaignSpec::from_json(SPEC).unwrap();
    let expected = mavr_fleet::run_campaign(&spec.to_config().unwrap());
    let expected_metrics = expected.metrics();

    // Three SIGKILLs at seeded instants spread across the campaign's
    // lifetime. A kill that lands after completion is a no-op rerun — the
    // invariant must hold wherever the timer fires.
    for round in 0..3u64 {
        let delay_ms = 25 + rand::mix64(0x00D1_5EA5_ED00_0000, round) % 450;
        let mut child = Command::new(BIN)
            .args(serve_args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        std::thread::sleep(Duration::from_millis(delay_ms));
        let _ = child.kill(); // SIGKILL: no flush, no atexit, no mercy
        let _ = child.wait();
    }

    // Resume to completion. Every clean run makes monotone progress, so
    // this converges immediately; the bound is just a watchdog.
    let mut completed = false;
    for _ in 0..10 {
        let out = Command::new(BIN).args(serve_args).output().unwrap();
        assert!(
            out.status.success(),
            "resume failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        if String::from_utf8_lossy(&out.stdout).contains("complete") {
            completed = true;
            break;
        }
    }
    assert!(completed, "campaign never completed after the kill rounds");

    // Byte-identity: the auto-merged report equals the oracle's JSON, and
    // the re-merged metrics equal the oracle's exposition.
    let campaign_dir = root.join("kill-proof");
    let report = std::fs::read_to_string(campaign_dir.join("report.json")).unwrap();
    assert_eq!(report, expected.to_json(), "kill-anywhere byte identity");

    let store = mavr_campaignd::CampaignStore::open(&campaign_dir).unwrap();
    let (_, metrics) = mavr_campaignd::merge_store(&store).unwrap();
    assert_eq!(metrics.to_prometheus(), expected_metrics.to_prometheus());
    assert!(
        !store.quarantine_path().exists(),
        "a clean campaign quarantines nothing"
    );
}

#[test]
fn deadline_interrupts_cleanly_and_exits_zero() {
    let root = tmp_dir("deadline-root");
    let spec_path = root.join("spec-input.json");
    // Big enough that a 1-second deadline reliably fires mid-campaign
    // (4 jobs x 150M cycles is tens of seconds of debug-build work), yet
    // small enough that the post-deadline drain — the worker finishes the
    // job it already claimed — stays short.
    std::fs::write(
        &spec_path,
        SPEC.replace("1200000", "150000000")
            .replace("kill-proof", "slow"),
    )
    .unwrap();

    let out = Command::new(BIN)
        .args([
            "serve",
            "--dir",
            root.to_str().unwrap(),
            "--spec",
            spec_path.to_str().unwrap(),
            "--deadline-s",
            "1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "a deadline stop is an orderly exit, not a failure: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("interrupted"), "{stdout}");

    // The flushed checkpoints are valid: a fresh status read sees them.
    let store = mavr_campaignd::CampaignStore::open(&root.join("slow")).unwrap();
    let status = store.status().unwrap();
    assert!(!status.complete(), "the deadline fired before completion");
}
