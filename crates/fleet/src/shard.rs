//! Sharded campaigns — the one way a campaign runs. The job space is split
//! into contiguous, independently checkpointed segments, run in any order
//! (or on any machine), and the shards merge back into the byte-identical
//! [`CampaignReport`] a single uninterrupted run produces. An unsharded
//! campaign ([`crate::run_campaign`], `mavr-cli fleet`) is simply a plan
//! with one shard.
//!
//! Why this is sound: the campaign is a pure function of its config, each
//! job is independent, and every aggregate the report carries — cell
//! matrix, fleet totals, metrics registry, latency sketches — is a pure
//! fold over the outcome list in job order. A partition of `[0, total)`
//! into contiguous ranges concatenates back into exactly that list, so
//! merge determinism is inherited, not engineered. The proptests in
//! `tests/shard_props.rs` enforce it for arbitrary partitions and
//! mid-shard resumes.
//!
//! Memory model: running one shard holds O(shard jobs + cells); merging
//! streams shard-by-shard and holds O(largest shard + cells). Neither
//! ever holds the whole campaign, which is what lets a million-board
//! campaign run in the same RAM as an 8-board one.

use crate::checkpoint::{get_outcome, put_outcome};
use crate::report::{BoardOutcome, CampaignAggregate, CellReport};
use crate::{
    config_fingerprint, summarize, CampaignConfig, CampaignReport, Job, PreparedCampaign,
    ProgressMeter,
};
use mavlink_lite::RouterTotals;
use mavr_snapshot::{Kind, Reader, SnapshotError, Writer};
use std::collections::BTreeMap;
use std::path::Path;
use telemetry::metrics::MetricsRegistry;
use telemetry::{kinds, Value};

/// How a campaign's job space is cut into shards: contiguous ranges of at
/// most `shard_jobs` jobs, in job order. The plan is *not* part of the
/// config fingerprint — re-sharding a campaign never changes its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Total jobs in the campaign matrix.
    pub total_jobs: u64,
    /// Jobs per shard (the last shard may be shorter).
    pub shard_jobs: u64,
}

impl ShardPlan {
    /// The plan for `cfg` with `shard_jobs` jobs per shard (clamped to at
    /// least 1).
    pub fn new(cfg: &CampaignConfig, shard_jobs: u64) -> Self {
        ShardPlan {
            total_jobs: cfg.total_jobs() as u64,
            shard_jobs: shard_jobs.max(1),
        }
    }

    /// Number of shards in the plan.
    pub fn shard_count(&self) -> u64 {
        self.total_jobs.div_ceil(self.shard_jobs)
    }

    /// The job range `[lo, hi)` of shard `index`.
    pub fn range(&self, index: u64) -> std::ops::Range<u64> {
        let lo = (index * self.shard_jobs).min(self.total_jobs);
        let hi = ((index + 1) * self.shard_jobs).min(self.total_jobs);
        lo..hi
    }
}

/// Persistent progress of one shard: its identity (campaign fingerprint,
/// plan coordinates, job range) and the outcomes of the range's completed
/// jobs. Serialized as [`Kind::ShardCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// [`config_fingerprint`] of the campaign this shard belongs to.
    pub fingerprint: u64,
    /// Position of this shard in its plan.
    pub shard_index: u64,
    /// Shards in the plan that produced this shard (metadata; merge
    /// accepts any set of complete shards that partitions the job space).
    pub shard_count: u64,
    /// First job index of the shard's range.
    pub job_lo: u64,
    /// One past the last job index of the shard's range.
    pub job_hi: u64,
    /// Completed jobs of this range: job index → outcome.
    pub outcomes: BTreeMap<u64, BoardOutcome>,
}

impl ShardCheckpoint {
    /// An empty shard checkpoint for shard `index` of `plan`.
    pub fn new(cfg: &CampaignConfig, plan: &ShardPlan, index: u64) -> Self {
        let range = plan.range(index);
        ShardCheckpoint {
            fingerprint: config_fingerprint(cfg),
            shard_index: index,
            shard_count: plan.shard_count(),
            job_lo: range.start,
            job_hi: range.end,
            outcomes: BTreeMap::new(),
        }
    }

    /// An empty checkpoint of the one-shard plan: the whole job space.
    pub fn whole(cfg: &CampaignConfig) -> Self {
        ShardCheckpoint::new(cfg, &ShardPlan::new(cfg, cfg.total_jobs() as u64), 0)
    }

    /// Read the checkpoint at `path`, or `fresh()` when no file exists
    /// yet. Only a missing file starts fresh: any other read error (EIO,
    /// EACCES, a directory in the way) and any blob that does not decode
    /// as a shard checkpoint is an error, so a complete shard is never
    /// silently restarted and overwritten.
    pub fn load_or(path: &Path, fresh: impl FnOnce() -> Self) -> Result<Self, String> {
        match std::fs::read(path) {
            Ok(blob) => ShardCheckpoint::from_bytes(&blob)
                .map_err(|e| format!("unreadable shard checkpoint {}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(fresh()),
            Err(e) => Err(format!("read {}: {e}", path.display())),
        }
    }

    /// Whether this shard belongs to `cfg`.
    pub fn matches(&self, cfg: &CampaignConfig) -> bool {
        self.fingerprint == config_fingerprint(cfg)
    }

    /// Jobs in the shard's range.
    pub fn jobs(&self) -> u64 {
        self.job_hi - self.job_lo
    }

    /// Whether every job in the range has an outcome.
    pub fn complete(&self) -> bool {
        self.outcomes.len() as u64 == self.jobs()
    }

    /// Record a completed job. Panics on a duplicate or out-of-range
    /// index — both are caller bugs that would corrupt the merge.
    pub fn insert_outcome(&mut self, job: u64, outcome: BoardOutcome) {
        assert!(
            (self.job_lo..self.job_hi).contains(&job),
            "job {job} outside shard range {}..{}",
            self.job_lo,
            self.job_hi
        );
        assert!(
            self.outcomes.insert(job, outcome).is_none(),
            "job {job} checkpointed twice"
        );
    }

    /// Serialize as a CRC-guarded snapshot blob ([`Kind::ShardCheckpoint`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.fingerprint);
        w.put_u64(self.shard_index);
        w.put_u64(self.shard_count);
        w.put_u64(self.job_lo);
        w.put_u64(self.job_hi);
        w.put_u64(self.outcomes.len() as u64);
        for (&job, outcome) in &self.outcomes {
            w.put_u64(job);
            put_outcome(&mut w, outcome);
        }
        w.finish(Kind::ShardCheckpoint)
    }

    /// Deserialize a blob written by [`ShardCheckpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader::open_expecting(bytes, Kind::ShardCheckpoint)?;
        let fingerprint = r.u64()?;
        let shard_index = r.u64()?;
        let shard_count = r.u64()?;
        let job_lo = r.u64()?;
        let job_hi = r.u64()?;
        if job_hi < job_lo {
            return Err(SnapshotError::Malformed(format!(
                "shard range {job_lo}..{job_hi}"
            )));
        }
        let n = r.u64()?;
        if n > job_hi - job_lo {
            return Err(SnapshotError::Malformed(format!(
                "{n} outcomes in a {}-job shard",
                job_hi - job_lo
            )));
        }
        let mut outcomes = BTreeMap::new();
        // `to_bytes` writes jobs in ascending order: anything else (a
        // repeat included) would re-encode to different bytes.
        let mut next = job_lo;
        for _ in 0..n {
            let job = r.u64()?;
            if !(next..job_hi).contains(&job) {
                return Err(SnapshotError::Malformed(format!(
                    "outcome for job {job} out of order or outside shard range \
                     {job_lo}..{job_hi}"
                )));
            }
            next = job + 1;
            outcomes.insert(job, get_outcome(&mut r)?);
        }
        r.done()?;
        Ok(ShardCheckpoint {
            fingerprint,
            shard_index,
            shard_count,
            job_lo,
            job_hi,
            outcomes,
        })
    }
}

/// What one [`run_shard_resume`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRunStatus {
    /// Jobs that ran in this call.
    pub ran: usize,
    /// Whether the shard's whole range is now complete.
    pub complete: bool,
    /// Whether the run stopped early on the config's interrupt flag.
    pub interrupted: bool,
}

/// Run (or resume) one shard: fly the still-pending jobs of `ckpt`'s
/// range — at most `budget_jobs` of them — folding each outcome into the
/// checkpoint as its prefix completes and handing it to `on_outcome` (for
/// JSONL streaming) in job order. `progress_done_offset` seeds the
/// heartbeat counter with the jobs completed before this call, campaign-
/// wide, so a service's progress stream counts monotonically across
/// shards and restarts. Resuming a shard that already holds outcomes
/// emits one `campaign.checkpoint_resumed` event.
///
/// Jobs are constructed lazily from their indices — a shard run allocates
/// O(shard jobs), never O(campaign jobs).
pub fn run_shard_resume(
    cfg: &CampaignConfig,
    prepared: &PreparedCampaign,
    ckpt: &mut ShardCheckpoint,
    budget_jobs: Option<usize>,
    progress_done_offset: usize,
    mut on_outcome: impl FnMut(u64, &BoardOutcome),
) -> Result<ShardRunStatus, String> {
    if !ckpt.matches(cfg) {
        return Err(format!(
            "shard fingerprint {:#018x} does not match this campaign ({:#018x}) — \
             refusing to mix results from different configurations",
            ckpt.fingerprint,
            config_fingerprint(cfg)
        ));
    }
    if ckpt.job_hi > cfg.total_jobs() as u64 {
        return Err(format!(
            "shard range {}..{} exceeds the campaign's {} jobs",
            ckpt.job_lo,
            ckpt.job_hi,
            cfg.total_jobs()
        ));
    }
    let mut pending: Vec<Job> = (ckpt.job_lo..ckpt.job_hi)
        .filter(|j| !ckpt.outcomes.contains_key(j))
        .map(|j| crate::job_at(cfg, j as usize))
        .collect();
    if !ckpt.outcomes.is_empty() {
        cfg.telemetry.emit(kinds::CHECKPOINT_RESUMED, None, || {
            vec![
                ("jobs_done", Value::U64(ckpt.outcomes.len() as u64)),
                ("jobs_pending", Value::U64(pending.len() as u64)),
            ]
        });
    }
    if let Some(budget) = budget_jobs {
        pending.truncate(budget);
    }
    let mut meter = ProgressMeter::new(cfg, progress_done_offset);
    let ran = crate::execute_jobs_streaming(cfg, prepared, &pending, |i, outcome| {
        let job = pending[i].job_index as u64;
        meter.observe(&outcome);
        on_outcome(job, &outcome);
        ckpt.insert_outcome(job, outcome);
    });
    meter.emit(true);
    Ok(ShardRunStatus {
        ran,
        complete: ckpt.complete(),
        interrupted: cfg.interrupted(),
    })
}

/// The one shard-set validation and fold behind every merge. Shards are
/// added in job order; each must fingerprint this campaign, be complete,
/// and start where the previous one ended, and its outcomes fold into one
/// [`CampaignAggregate`]. [`ShardMerge::finish`] then demands that the
/// shards covered the whole job space. Holds O(cells), never a shard, so a
/// streaming merger can load, add and drop one shard at a time.
#[derive(Debug)]
pub struct ShardMerge {
    fingerprint: u64,
    total_jobs: u64,
    next_job: u64,
    agg: CampaignAggregate,
}

impl ShardMerge {
    /// An empty merge of `cfg`'s shards.
    pub fn new(cfg: &CampaignConfig) -> Self {
        ShardMerge {
            fingerprint: config_fingerprint(cfg),
            total_jobs: cfg.total_jobs() as u64,
            next_job: 0,
            agg: CampaignAggregate::new(&cfg.scenarios, &cfg.loss_levels, &cfg.fault_levels),
        }
    }

    /// Validate the next shard in job order and fold its outcomes.
    pub fn add(&mut self, shard: &ShardCheckpoint) -> Result<(), String> {
        if shard.fingerprint != self.fingerprint {
            return Err(format!(
                "shard {} fingerprints a different campaign ({:#018x} != {:#018x})",
                shard.shard_index, shard.fingerprint, self.fingerprint
            ));
        }
        if !shard.complete() {
            return Err(format!(
                "shard {} is incomplete ({}/{} jobs) — finish or resume it before merging",
                shard.shard_index,
                shard.outcomes.len(),
                shard.jobs()
            ));
        }
        if shard.job_lo != self.next_job {
            return Err(format!(
                "shard ranges do not partition the job space: expected a shard starting \
                 at {}, found {}..{}",
                self.next_job, shard.job_lo, shard.job_hi
            ));
        }
        self.next_job = shard.job_hi;
        shard.outcomes.values().try_for_each(|o| self.agg.fold(o))
    }

    /// Finish the merge: the cell matrix, fleet totals and metrics
    /// registry ([`CampaignAggregate::finish`]). Fails unless the added
    /// shards cover the whole job space.
    pub fn finish(self) -> Result<(Vec<CellReport>, RouterTotals, MetricsRegistry), String> {
        if self.next_job != self.total_jobs {
            return Err(format!(
                "shard ranges cover {} of {} jobs — missing the tail",
                self.next_job, self.total_jobs
            ));
        }
        Ok(self.agg.finish())
    }
}

/// Fold complete shards back into the campaign's report and metrics —
/// byte-identical (`to_json`, `to_prometheus`, `to_jsonl`) to a
/// single-shard [`crate::run_campaign`] at any thread count.
///
/// Accepts the shards in any order, from any contiguous partition of the
/// job space (they need not share a [`ShardPlan`]); fails if a shard
/// fingerprints a different campaign, is incomplete, or the ranges do not
/// exactly partition `[0, total_jobs)`.
pub fn merge_shard_checkpoints(
    cfg: &CampaignConfig,
    mut shards: Vec<ShardCheckpoint>,
) -> Result<(CampaignReport, MetricsRegistry), String> {
    shards.sort_by_key(|s| s.job_lo);
    let mut merge = ShardMerge::new(cfg);
    for s in &shards {
        merge.add(s)?;
    }
    let (cells, fleet, metrics) = merge.finish()?;
    // Shards are contiguous and sorted, so per-shard job order concatenates
    // into the campaign's job order.
    let outcomes = shards
        .into_iter()
        .flat_map(|s| s.outcomes.into_values())
        .collect();
    let report = CampaignReport {
        config: summarize(cfg),
        cells,
        fleet,
        outcomes,
    };
    Ok((report, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::sample_outcome;

    fn cfg() -> CampaignConfig {
        CampaignConfig {
            boards: 3,
            scenarios: vec![crate::Scenario::Benign, crate::Scenario::V2Stealthy],
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn plan_partitions_the_job_space() {
        let plan = ShardPlan::new(&cfg(), 4); // 6 jobs, shards of 4
        assert_eq!(plan.shard_count(), 2);
        assert_eq!(plan.range(0), 0..4);
        assert_eq!(plan.range(1), 4..6);
        assert_eq!(plan.range(2), 6..6, "past-the-end shards are empty");
        // Degenerate request still makes progress.
        assert_eq!(ShardPlan::new(&cfg(), 0).shard_jobs, 1);
        let whole = ShardCheckpoint::whole(&cfg());
        assert_eq!((whole.job_lo, whole.job_hi, whole.shard_count), (0, 6, 1));
    }

    #[test]
    fn shard_checkpoint_round_trips_and_rejects_corruption() {
        let cfg = cfg();
        let plan = ShardPlan::new(&cfg, 4);
        let mut s = ShardCheckpoint::new(&cfg, &plan, 1);
        assert_eq!((s.job_lo, s.job_hi), (4, 6));
        s.insert_outcome(4, sample_outcome(4));
        let blob = s.to_bytes();
        assert_eq!(ShardCheckpoint::from_bytes(&blob).unwrap(), s);
        let mut bad = blob.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 1;
        assert!(matches!(
            ShardCheckpoint::from_bytes(&bad),
            Err(SnapshotError::CrcMismatch { .. })
        ));
        // A blob of the retired whole-campaign checkpoint kind (byte 4)
        // is a typed decode error, not a shard.
        let mut retired = blob.clone();
        retired[10] = 4;
        assert_eq!(
            ShardCheckpoint::from_bytes(&retired),
            Err(SnapshotError::BadKind(4))
        );
    }

    #[test]
    fn merge_rejects_gaps_overlaps_and_foreign_shards() {
        let cfg = cfg();
        let plan = ShardPlan::new(&cfg, 3); // 6 jobs → 2 shards of 3
        let fill = |s: &mut ShardCheckpoint| {
            for j in s.job_lo..s.job_hi {
                let on_matrix = BoardOutcome {
                    scenario: crate::Scenario::Benign,
                    loss: 0.0,
                    fault: 0.0,
                    ..sample_outcome(j as usize)
                };
                s.insert_outcome(j, on_matrix);
            }
        };
        let mut a = ShardCheckpoint::new(&cfg, &plan, 0);
        let mut b = ShardCheckpoint::new(&cfg, &plan, 1);
        fill(&mut a);
        // Incomplete shard refused.
        assert!(merge_shard_checkpoints(&cfg, vec![a.clone(), b.clone()])
            .unwrap_err()
            .contains("incomplete"));
        fill(&mut b);
        // Missing shard refused.
        assert!(merge_shard_checkpoints(&cfg, vec![a.clone()])
            .unwrap_err()
            .contains("missing"));
        assert!(merge_shard_checkpoints(&cfg, vec![b.clone()])
            .unwrap_err()
            .contains("partition"));
        // Duplicate shard refused (overlap).
        assert!(merge_shard_checkpoints(&cfg, vec![a.clone(), a.clone(), b.clone()]).is_err());
        // Foreign fingerprint refused.
        let other = CampaignConfig {
            seed: 0x9999,
            ..cfg.clone()
        };
        assert!(merge_shard_checkpoints(&other, vec![a, b])
            .unwrap_err()
            .contains("different campaign"));
    }
}
