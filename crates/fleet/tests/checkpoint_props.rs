//! Hostile-input property for the shard checkpoint decoder: corrupt the
//! payload of a real shard (one holding a quarantined outcome and a
//! physics outcome), re-stamp the framing so every mutation reaches the
//! payload decoder, and the result is a typed error or a shard that
//! re-encodes to the same bytes.

use std::sync::OnceLock;

use mavr_fleet::{
    run_shard_resume, CampaignConfig, JobChaos, PreparedCampaign, Scenario, ShardCheckpoint,
};
use mavr_snapshot::crc32;
use proptest::prelude::*;

/// Header bytes before the payload: magic, version, kind, payload length.
const HEADER: usize = 19;

/// Numbers a corruption or an attacker would write into a field.
const HOSTILE: [u64; 8] = [0, 1, 2, 3, 0xff, 1 << 32, u64::MAX / 2, u64::MAX];

/// A finished four-job physics campaign in which sabotage quarantines
/// some jobs: its one shard, serialized.
fn seed() -> &'static [u8] {
    static SEED: OnceLock<Vec<u8>> = OnceLock::new();
    SEED.get_or_init(|| {
        let cfg = CampaignConfig {
            boards: 2,
            scenarios: vec![Scenario::Benign, Scenario::V2Stealthy],
            loss_levels: vec![0.0],
            fault_levels: vec![0.0],
            warmup_cycles: 40_000,
            attack_cycles: 200_000,
            packet_gap_cycles: 10_000,
            physics: true,
            sabotage: JobChaos {
                panic_rate: 0.5,
                seed: 3,
                ..JobChaos::none()
            },
            threads: 1,
            ..CampaignConfig::default()
        };
        let mut shard = ShardCheckpoint::whole(&cfg);
        let status = run_shard_resume(
            &cfg,
            &PreparedCampaign::new(&cfg),
            &mut shard,
            None,
            0,
            |_, _| {},
        )
        .unwrap();
        assert!(status.complete);
        let outcomes = || shard.outcomes.values();
        assert!(
            outcomes().any(|o| o.failure.is_some()),
            "no quarantined job"
        );
        assert!(outcomes().any(|o| o.world.is_some()), "no physics outcome");
        shard.to_bytes()
    })
}

/// Frame `payload` like the original blob: same magic, version and kind,
/// with its length and CRC re-stamped.
fn reframe(header: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut blob = header[..11].to_vec();
    blob.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    blob.extend_from_slice(payload);
    blob.extend_from_slice(&crc32(payload).to_le_bytes());
    blob
}

/// One corruption anywhere in `payload`.
fn mutate(payload: &mut Vec<u8>, (op, a, b): (u8, u32, u32)) {
    let (a, b) = (a as usize, b as usize);
    let at = a % (payload.len() + 1);
    let hostile = HOSTILE[b % HOSTILE.len()].to_le_bytes();
    match op % 5 {
        // Flip one bit.
        0 => {
            if let Some(byte) = payload.get_mut(at) {
                *byte ^= 1 << (b % 8);
            }
        }
        // Overwrite up to eight bytes with a hostile number.
        1 => {
            let end = (at + 8).min(payload.len());
            payload[at..end].copy_from_slice(&hostile[..end - at]);
        }
        // Truncate.
        2 => payload.truncate(at),
        // Delete a short run.
        3 => {
            let end = (at + 1 + b % 16).min(payload.len());
            payload.drain(at..end);
        }
        // Insert a short run of one byte.
        _ => {
            let run = vec![(b >> 8) as u8; 1 + b % 16];
            payload.splice(at..at, run);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Whatever a mutation does to a real shard checkpoint's payload,
    /// decoding gives a typed error or a shard that re-encodes to the
    /// same bytes.
    #[test]
    fn mutated_shard_checkpoint_is_an_error_or_round_trips(
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..4),
    ) {
        let blob = seed();
        let mut payload = blob[HEADER..blob.len() - 4].to_vec();
        for &op in &ops {
            mutate(&mut payload, op);
        }
        let mutated = reframe(blob, &payload);
        if let Ok(shard) = ShardCheckpoint::from_bytes(&mutated) {
            prop_assert!(
                shard.to_bytes() == mutated,
                "the decoded shard re-encodes to different bytes"
            );
        }
    }
}
