//! The three workloads and the campaign spec each one generates from a
//! seed. Why each workload exists, and which layer it stresses, is in this
//! package's README; the numbers here only size the matrices.

use mavr_campaignd::json::Json;

/// The seed whose merged-report digests are pinned in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Pinned `workload seed digest` lines: the correctness gate compares a
/// default-seed run's merged `report.json` digest against these.
const PINNED: &str = include_str!("../digests.txt");

/// One benchmark workload: a fixed campaign matrix whose only free input
/// is the campaign seed.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Firmware app ([`synth_firmware::apps::by_name`]).
    pub app: &'static str,
    /// Scenario names as the spec spells them.
    pub scenarios: &'static [&'static str],
    /// Per-byte link impairment levels.
    pub loss_levels: &'static [f64],
    /// Boards per matrix cell.
    pub boards: u64,
    /// Pre-attack flight cycles.
    pub warmup_cycles: u64,
    /// Post-attack flight cycles.
    pub attack_cycles: u64,
    /// Jobs per shard checkpoint.
    pub shard_jobs: u64,
}

/// Every workload, in the order `--workload all` starts them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "plane-provision",
        app: "plane",
        scenarios: &["benign"],
        loss_levels: &[0.0],
        boards: 96,
        warmup_cycles: 50_000,
        attack_cycles: 100_000,
        shard_jobs: 48,
    },
    Workload {
        name: "tiny-flight",
        app: "tiny",
        scenarios: &["benign"],
        loss_levels: &[0.0],
        boards: 64,
        warmup_cycles: 300_000,
        attack_cycles: 7_700_000,
        shard_jobs: 32,
    },
    Workload {
        name: "plane-attack",
        app: "plane",
        scenarios: &["benign", "v1", "v2", "v3"],
        loss_levels: &[0.0, 0.001],
        boards: 8,
        warmup_cycles: 100_000,
        attack_cycles: 1_000_000,
        shard_jobs: 32,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Jobs in the matrix, computed here rather than asked of the program,
    /// so a wrong job count in the merged report is caught.
    pub fn total_jobs(&self) -> u64 {
        self.scenarios.len() as u64 * self.loss_levels.len() as u64 * self.boards
    }

    /// The campaign seed for a workload seed: the workload's name is mixed
    /// in so two workloads never fly the same fleet.
    pub fn campaign_seed(&self, seed: u64) -> u64 {
        self.name
            .bytes()
            .fold(seed ^ 0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// The campaign spec this workload submits for `seed`, as JSON text —
    /// the only input the program under test receives.
    pub fn spec_json(&self, seed: u64, threads: usize) -> String {
        let floats = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::float(x)).collect());
        Json::Obj(vec![
            ("name".into(), Json::str(self.name)),
            ("seed".into(), Json::num(self.campaign_seed(seed))),
            ("boards".into(), Json::num(self.boards)),
            (
                "scenarios".into(),
                Json::Arr(self.scenarios.iter().map(|&s| Json::str(s)).collect()),
            ),
            ("loss_levels".into(), floats(self.loss_levels)),
            ("fault_levels".into(), floats(&[0.0])),
            ("warmup_cycles".into(), Json::num(self.warmup_cycles)),
            ("attack_cycles".into(), Json::num(self.attack_cycles)),
            ("app".into(), Json::str(self.app)),
            ("threads".into(), Json::num(threads as u64)),
            ("shard_jobs".into(), Json::num(self.shard_jobs)),
        ])
        .to_text()
    }

    /// The pinned report digest for `seed`, if `digests.txt` has one.
    pub fn pinned_digest(&self, seed: u64) -> Option<&'static str> {
        pinned_digest(PINNED, self.name, seed)
    }
}

fn pinned_digest<'a>(table: &'a str, name: &str, seed: u64) -> Option<&'a str> {
    table
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            let (w, s, d) = (f.next()?, f.next()?, f.next()?);
            (w == name && s.parse() == Ok(seed)).then_some(d)
        })
}

/// FNV-1a 64 over the merged report bytes: the report is the campaign's
/// whole simulated result, so any change to a simulated statistic moves
/// this digest.
pub fn digest(bytes: &[u8]) -> String {
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mavr_campaignd::CampaignSpec;

    #[test]
    fn every_workload_spec_parses_with_its_matrix_size() {
        for w in WORKLOADS {
            let spec = CampaignSpec::from_json(&w.spec_json(DEFAULT_SEED, 2)).unwrap();
            assert_eq!(spec.total_jobs(), w.total_jobs(), "{}", w.name);
            assert_eq!(spec.threads, 2);
        }
    }

    #[test]
    fn specs_depend_on_the_seed_and_only_on_the_seed() {
        let w = WORKLOADS[0];
        assert_eq!(w.spec_json(7, 2), w.spec_json(7, 2));
        assert_ne!(w.spec_json(7, 2), w.spec_json(8, 2));
        assert_ne!(WORKLOADS[0].campaign_seed(7), WORKLOADS[2].campaign_seed(7));
    }

    #[test]
    fn pinned_digests_cover_every_workload_at_the_default_seed() {
        for w in WORKLOADS {
            let d = w.pinned_digest(DEFAULT_SEED).expect("pinned digest");
            assert_eq!(d.len(), 16, "{}", w.name);
        }
        let table = "# comment\nplane 1 00000000000000aa\n";
        assert_eq!(pinned_digest(table, "plane", 1), Some("00000000000000aa"));
        assert_eq!(pinned_digest(table, "plane", 2), None);
    }
}
