//! One untraced repetition: a real campaign through `campaignd`'s public
//! API, from spec text to merged `report.json`, checked for correctness.

use crate::workload::{digest, Workload};
use mavr_campaignd::{merge_store, CampaignSession, CampaignSpec, CampaignStore};
use mavr_fleet::BoardOutcome;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::Telemetry;

/// What one repetition measured and produced.
pub struct Rep {
    /// Store create plus session build: spec in to first job runnable.
    pub setup: Duration,
    /// First shard slice to merged `report.json`.
    pub window: Duration,
    /// `merge_store` alone (part of `window`).
    pub merge: Duration,
    /// Jobs the merged report holds.
    pub jobs: u64,
    /// Simulated app-processor cycles, Σ `final_cycle`.
    pub sim_cycles: u64,
    /// Quarantined jobs plus skipped checkpoints (0 on a healthy run).
    pub failed: u64,
    /// FNV-1a digest of `report.json`.
    pub digest: String,
    /// Every job's outcome, in job order.
    pub outcomes: Vec<BoardOutcome>,
    /// The campaign, left on disk for the traced replay.
    pub session: CampaignSession,
}

/// Parse the spec and, timed, create a fresh store for it under `root` and
/// build its session (firmware build, attack discovery, payloads).
pub fn set_up(root: &Path, spec_text: &str) -> Result<(CampaignSession, Duration), String> {
    let spec = CampaignSpec::from_json(spec_text)?;
    let _ = std::fs::remove_dir_all(root.join(&spec.name));
    let t = Instant::now();
    let store = CampaignStore::create(root, spec)?;
    let session = CampaignSession::new(store, Telemetry::off(), Arc::new(AtomicBool::new(false)))?;
    Ok((session, t.elapsed()))
}

/// Run `workload`'s campaign for `spec_text` in a fresh store under
/// `root`. Errors are run or merge failures; a result with `failed > 0`
/// or a wrong job count is the caller's to reject.
pub fn run_rep(root: &Path, workload: &Workload, spec_text: &str) -> Result<Rep, String> {
    let (session, setup) = set_up(root, spec_text)?;
    let t1 = Instant::now();
    let out = session.run(None, None)?;
    let t2 = Instant::now();
    let (report_path, _metrics) = merge_store(&session.store)?;
    let window = t1.elapsed();
    let merge = t2.elapsed();

    if !out.complete || out.interrupted || out.done_jobs != out.total_jobs {
        return Err(format!(
            "campaign stopped at {}/{} jobs",
            out.done_jobs, out.total_jobs
        ));
    }
    let report = std::fs::read(&report_path).map_err(|e| format!("read report: {e}"))?;
    let mut outcomes = Vec::new();
    for index in 0..session.store.plan().shard_count() {
        let shard = session.store.load_shard(&session.cfg, index)?;
        outcomes.extend(shard.outcomes.into_values());
    }
    let jobs = outcomes.len() as u64;
    if jobs != workload.total_jobs() {
        return Err(format!(
            "merged {jobs} jobs, the matrix has {}",
            workload.total_jobs()
        ));
    }
    let quarantined = outcomes.iter().filter(|o| o.failure.is_some()).count() as u64;
    Ok(Rep {
        setup,
        window,
        merge,
        jobs,
        sim_cycles: outcomes.iter().map(|o| o.final_cycle).sum(),
        failed: quarantined + out.checkpoints_skipped,
        digest: digest(&report),
        outcomes,
        session,
    })
}
