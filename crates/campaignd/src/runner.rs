//! The shard execution loop and the streaming merge.
//!
//! The runner is what makes a million-board campaign cost the same RAM as
//! an 8-board one: it holds exactly one shard's outcomes at a time
//! (plus the fixed-size cell matrix), streams each board's result to the
//! shard's JSONL file the moment its prefix completes, and folds metrics
//! through the associative registry merge instead of accumulating outcome
//! vectors. The merge step is two O(largest-shard) passes that write the
//! report **byte-identical** to an unsharded `run_campaign().to_json()` —
//! the laws behind that identity are proptested in
//! `mavr-fleet/tests/shard_props.rs`.

use crate::store::CampaignStore;
use mavr_fleet::{
    json_prelude, run_shard_resume, summarize, CampaignConfig, PreparedCampaign, ShardCheckpoint,
    ShardMerge, JSON_EPILOGUE,
};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use telemetry::metrics::MetricsRegistry;
use telemetry::{kinds, Telemetry, Value};

/// One campaign, ready to run: its store, the engine config (with the
/// service's telemetry and interrupt flag wired in), and the prepared
/// firmware. Building the firmware is the expensive part, so a service
/// keeps sessions cached across work slices.
pub struct CampaignSession {
    /// The campaign's directory and spec.
    pub store: CampaignStore,
    /// Engine config derived from the spec.
    pub cfg: CampaignConfig,
    /// The prepared firmware while jobs remain. A slice that completes the
    /// campaign drops it: a cached session of a finished campaign holds no
    /// firmware, and is re-prepared only if its store ever needs work again.
    prepared: Mutex<Option<PreparedCampaign>>,
    /// Checkpoint flushes abandoned after the store's bounded retries —
    /// the `campaignd_checkpoint_skipped` metric, cumulative per session.
    checkpoints_skipped: AtomicU64,
}

/// What one work slice did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Jobs executed in this slice.
    pub jobs_run: usize,
    /// Jobs checkpointed campaign-wide (including previous slices).
    pub done_jobs: u64,
    /// Jobs in the matrix.
    pub total_jobs: u64,
    /// Whether the whole campaign is now complete.
    pub complete: bool,
    /// Whether the slice stopped on the interrupt flag.
    pub interrupted: bool,
    /// Checkpoint flushes this slice abandoned (disk faults that survived
    /// every retry). Nonzero means some executed work is not yet durable
    /// and will re-run — degraded, never lost or corrupted.
    pub checkpoints_skipped: u64,
}

impl CampaignSession {
    /// Build a session: derive the engine config, wire in telemetry and
    /// the shared interrupt flag, link the firmware once.
    pub fn new(
        store: CampaignStore,
        telemetry: Telemetry,
        interrupt: Arc<AtomicBool>,
    ) -> Result<Self, String> {
        let mut cfg = store.spec.to_config()?;
        cfg.telemetry = telemetry;
        cfg.interrupt = interrupt;
        let prepared = PreparedCampaign::new(&cfg);
        Ok(CampaignSession {
            store,
            cfg,
            prepared: Mutex::new(Some(prepared)),
            checkpoints_skipped: AtomicU64::new(0),
        })
    }

    /// Checkpoint flushes this session has abandoned to disk faults,
    /// across all slices.
    pub fn checkpoints_skipped(&self) -> u64 {
        self.checkpoints_skipped.load(Ordering::Relaxed)
    }

    /// Run a work slice: up to `budget_jobs` jobs across up to
    /// `max_shards` shards, in shard order, resuming wherever the last
    /// slice (or process) stopped. Each shard's outcomes stream to its
    /// `.jsonl.part` file as they complete; the shard checkpoint is
    /// flushed atomically after the shard's slice, so a kill between
    /// slices loses nothing and a kill *during* a slice loses only that
    /// slice's work.
    pub fn run(
        &self,
        budget_jobs: Option<usize>,
        max_shards: Option<usize>,
    ) -> Result<RunOutcome, String> {
        let plan = self.store.plan();
        let mut prepared = self
            .prepared
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut budget = budget_jobs;
        let mut jobs_run = 0usize;
        let mut done_jobs = 0u64;
        let mut shards_touched = 0usize;
        let mut interrupted = false;
        let mut stopped = false;
        let mut slice_skips = 0u64;

        for index in 0..plan.shard_count() {
            let mut shard = self.store.load_shard(&self.cfg, index)?;
            if shard.complete() {
                done_jobs += shard.outcomes.len() as u64;
                // Heal a kill (or skipped write) that landed between the
                // checkpoint flush and the finalized-stream rename: the
                // checkpoint is complete but the .jsonl never made it.
                if !self.store.outcomes_path(index).is_file() {
                    if let Err(e) = self.finalize_shard(index, &shard) {
                        slice_skips += 1;
                        self.skip_durable_write(index, e);
                    }
                }
                continue;
            }
            if stopped
                || budget == Some(0)
                || max_shards.is_some_and(|m| shards_touched >= m)
                || self.cfg.interrupted()
            {
                done_jobs += shard.outcomes.len() as u64;
                stopped = true;
                continue;
            }

            let done_before = shard.outcomes.len() as u64;
            let part_path = self.store.outcomes_part_path(index);
            // A kill mid-write can tear the stream's final line. Drop any
            // torn tail before appending — the torn job was never
            // checkpointed, so it simply re-runs below.
            repair_part_tail(&part_path)?;
            let part = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&part_path)
                .map_err(|e| format!("open {}: {e}", part_path.display()))?;
            let mut part = std::io::BufWriter::new(part);
            let mut stream_err: Option<std::io::Error> = None;

            let status = run_shard_resume(
                &self.cfg,
                prepared.get_or_insert_with(|| PreparedCampaign::new(&self.cfg)),
                &mut shard,
                budget,
                done_jobs as usize + done_before as usize,
                |_, outcome| {
                    if stream_err.is_none() {
                        stream_err = writeln!(part, "{}", outcome.to_json_line()).err();
                    }
                },
            )?;
            part.flush()
                .map_err(|e| format!("flush {}: {e}", part_path.display()))?;
            if let Some(e) = stream_err {
                return Err(format!("stream {}: {e}", part_path.display()));
            }

            // The checkpoint is the authority; flush it atomically before
            // declaring any progress durable. If the disk refuses even
            // after the store's bounded retries, degrade instead of
            // aborting: skip this checkpoint — the slice's work stays in
            // the matrix and re-runs after a restart — and keep the
            // campaign moving.
            match self.store.save_shard(&shard) {
                Ok(()) => {
                    self.cfg.telemetry.emit(kinds::SHARD_FLUSHED, None, || {
                        vec![
                            ("shard", Value::U64(shard.shard_index)),
                            ("jobs_done", Value::U64(shard.outcomes.len() as u64)),
                            ("jobs_total", Value::U64(shard.jobs())),
                            ("complete", Value::Bool(status.complete)),
                        ]
                    });
                    if status.complete {
                        if let Err(e) = self.finalize_shard(index, &shard) {
                            slice_skips += 1;
                            self.skip_durable_write(index, e);
                        }
                    }
                    done_jobs += done_before + status.ran as u64;
                }
                Err(e) => {
                    slice_skips += 1;
                    self.skip_durable_write(index, e);
                    // Only previously checkpointed jobs count as done.
                    done_jobs += done_before;
                }
            }

            jobs_run += status.ran;
            shards_touched += 1;
            if let Some(b) = budget.as_mut() {
                *b = b.saturating_sub(status.ran);
            }
            if status.interrupted {
                interrupted = true;
                stopped = true;
            }
        }

        // A tripped flag is an interruption no matter where the stop was
        // detected — mid-shard (run_shard_resume reports it) or between
        // shards (only the loop guard saw it).
        let complete = done_jobs == plan.total_jobs;
        if complete {
            *prepared = None;
        }
        let interrupted = !complete && (interrupted || self.cfg.interrupted());
        if interrupted {
            self.cfg
                .telemetry
                .emit(kinds::CAMPAIGN_INTERRUPTED, None, || {
                    vec![
                        ("jobs_done", Value::U64(done_jobs)),
                        ("jobs_total", Value::U64(plan.total_jobs)),
                    ]
                });
        }
        Ok(RunOutcome {
            jobs_run,
            done_jobs,
            total_jobs: plan.total_jobs,
            complete,
            interrupted,
            checkpoints_skipped: slice_skips,
        })
    }

    /// Rebuild the finalized outcome stream from the checkpoint (in job
    /// order) so resumed shards still finalize to exactly one line per
    /// job, then drop the advisory `.part` file.
    fn finalize_shard(&self, index: u64, shard: &ShardCheckpoint) -> Result<(), String> {
        let mut finalized = String::new();
        for outcome in shard.outcomes.values() {
            finalized.push_str(&outcome.to_json_line());
            finalized.push('\n');
        }
        self.store
            .write_durable(&self.store.outcomes_path(index), finalized.as_bytes())?;
        let _ = std::fs::remove_file(self.store.outcomes_part_path(index));
        Ok(())
    }

    /// Record a durable write abandoned after the store's retries: bump
    /// the session counter and emit the telemetry event. The campaign
    /// keeps running; the skipped work re-runs on a later slice.
    fn skip_durable_write(&self, shard_index: u64, error: String) {
        self.checkpoints_skipped.fetch_add(1, Ordering::Relaxed);
        self.cfg
            .telemetry
            .emit(kinds::CHECKPOINT_SKIPPED, None, || {
                vec![
                    ("shard", Value::U64(shard_index)),
                    ("error", Value::Str(error)),
                ]
            });
    }
}

/// Truncate a `.part` outcome stream after its last intact line, so a
/// stream torn by a mid-write kill appends cleanly on resume instead of
/// surfacing as a parse error downstream. Missing file = nothing to do.
fn repair_part_tail(path: &Path) -> Result<(), String> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(_) => return Ok(()),
    };
    let keep = intact_prefix(&bytes);
    if keep == bytes.len() {
        return Ok(());
    }
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| format!("repair {}: {e}", path.display()))?;
    f.set_len(keep as u64)
        .map_err(|e| format!("repair {}: {e}", path.display()))?;
    Ok(())
}

/// Length of the longest prefix of `bytes` ending in a newline-terminated
/// JSON object line. Walks back one line at a time: an unterminated tail
/// is dropped, and so is a terminated-but-torn line (a kill can land a
/// flushed prefix right before another writer's newline).
fn intact_prefix(bytes: &[u8]) -> usize {
    let mut end = bytes.len();
    loop {
        let Some(nl) = bytes[..end].iter().rposition(|&b| b == b'\n') else {
            return 0;
        };
        let start = bytes[..nl]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1);
        if nl > start && bytes[start] == b'{' && bytes[nl - 1] == b'}' {
            return nl + 1;
        }
        end = start;
    }
}

/// Merge a complete campaign's shards into `report.json` — byte-identical
/// to the unsharded `CampaignReport::to_json()` — and return the folded
/// metrics registry. Two passes, each holding one shard at a time:
/// aggregate (cells, fleet totals, metrics), then stream the report text
/// straight to disk. Refuses incomplete or inconsistent shard sets.
pub fn merge_store(store: &CampaignStore) -> Result<(PathBuf, MetricsRegistry), String> {
    let cfg = store.spec.to_config()?;
    let plan = store.plan();

    // Pass 1: validate and fold every aggregate. Quarantined jobs are
    // collected for the explicit ledger — they are *also* folded into the
    // report like any other outcome, so totals never silently shrink.
    let mut merge = ShardMerge::new(&cfg);
    let mut quarantine = String::new();
    let mut quarantined = 0u64;
    for index in 0..plan.shard_count() {
        let shard = store.load_shard(&cfg, index)?;
        merge.add(&shard)?;
        for (job, outcome) in &shard.outcomes {
            if outcome.failure.is_some() {
                let line = outcome.to_json_line();
                quarantine.push_str(&format!("{{\"job\":{job},{}\n", &line[1..]));
                quarantined += 1;
            }
        }
    }
    let (cells, fleet, metrics) = merge.finish()?;

    // Pass 2: stream the report to disk; no full-campaign string exists.
    let report_path = store.report_path();
    let tmp = report_path.with_extension("json.tmp");
    let fail = |e: std::io::Error| format!("write {}: {e}", tmp.display());
    let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp).map_err(fail)?);
    out.write_all(json_prelude(&summarize(&cfg), &cells, &fleet).as_bytes())
        .map_err(fail)?;
    let mut first = true;
    for index in 0..plan.shard_count() {
        let shard = store.load_shard(&cfg, index)?;
        for outcome in shard.outcomes.values() {
            if !first {
                out.write_all(b",\n").map_err(fail)?;
            }
            first = false;
            out.write_all(b"    ").map_err(fail)?;
            out.write_all(outcome.to_json_line().as_bytes())
                .map_err(fail)?;
        }
    }
    out.write_all(JSON_EPILOGUE.as_bytes()).map_err(fail)?;
    let f = out
        .into_inner()
        .map_err(|e| format!("flush {}: {e}", tmp.display()))?;
    f.sync_all().map_err(fail)?;
    drop(f);
    std::fs::rename(&tmp, &report_path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), report_path.display()))?;

    // The quarantine ledger is rebuilt wholesale from the checkpoints on
    // every merge, so each quarantined job appears exactly once no matter
    // how many times the campaign is merged. No failures → no file.
    let quarantine_path = store.quarantine_path();
    if quarantined == 0 {
        let _ = std::fs::remove_file(&quarantine_path);
    } else {
        store.write_durable(&quarantine_path, quarantine.as_bytes())?;
    }
    Ok((report_path, metrics))
}
