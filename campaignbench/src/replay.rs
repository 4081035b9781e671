//! The traced run: replay a finished campaign's jobs stage by stage
//! through each layer's public functions, timing every call from here.
//! Nothing inside the program is instrumented.
//!
//! Each replayed job starts from the `board_seed` the untraced campaign
//! recorded in its outcome. Provisioning is replayed twice: once by hand,
//! stage by stage (preprocess → ext-flash upload → ext-flash read →
//! randomize → bootloader stream → apply → verify), which gives the stage
//! rows, and once through `MavrBoard::provision_chaos`, which gives the
//! provisioning total and the board that then flies. The flight mirrors
//! the engine's per-job flight (warm-up, exploit packets with their gaps,
//! attack window, downlink pumps) and its watchdog loop, so recoveries are
//! timed as separate `MavrBoard::recover` calls. Fidelity checks tie the
//! replay to the untraced run: the hand-programmed flash must verify
//! clean and match the board's, and on perfect links the replayed
//! `final_cycle`, `recoveries` and `heartbeats` must equal the engine's.

use avr_core::image::FirmwareImage;
use avr_sim::RunExit;
use mavlink_lite::{GroundStation, LossConfig, LossyChannel};
use mavr::policy::RandomizationPolicy;
use mavr::{randomize, RandomizeOptions};
use mavr_board::bootloader::{apply_stream, programming_stream};
use mavr_board::{AppProcessor, ExternalFlash, FaultPlan, MavrBoard, RecoveryCause};
use mavr_fleet::{BoardOutcome, CampaignConfig, ATTACK_TARGET, ATTACK_VALUES};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rop::attack::AttackContext;
use std::collections::BTreeMap;
use std::time::Instant;
use synth_firmware::{build, BuildOptions};
use telemetry::Telemetry;

/// Cycles after a flash that count as the cold part of a flight.
pub const COLD_CYCLES: u64 = 100_000;

/// Per-layer samples, in milliseconds per call unless the name says
/// otherwise, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    /// Timing samples.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Simulated cycles flown warm, and the host seconds they took.
    pub warm_cycles: u64,
    /// Host seconds of warm flight.
    pub warm_s: f64,
    /// Jobs replayed.
    pub jobs: u64,
    /// Σ per-job host milliseconds spent in replayed job layers
    /// (provision, flight, recoveries, link), for `trace.coverage`.
    pub job_ms: f64,
}

impl Layers {
    /// Record one sample under `name`.
    pub fn push(&mut self, name: &'static str, ms: f64) {
        self.samples.entry(name).or_default().push(ms);
    }

    /// Time `f` and record it under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.push(name, ms_since(t));
        out
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The campaign's shared artifacts, rebuilt here with the setup layers
/// timed: the firmware image and one payload set per scenario.
pub struct Fixture {
    image: FirmwareImage,
    payloads: Vec<Option<Vec<Vec<u8>>>>,
}

impl Fixture {
    /// Build the fixture `samples` times, timing `firmware.build_ms` and
    /// `rop.discover_ms` each time.
    pub fn build(
        cfg: &CampaignConfig,
        samples: usize,
        layers: &mut Layers,
    ) -> Result<Self, String> {
        let mut last = None;
        for _ in 0..samples.max(1) {
            let fw = layers
                .time("firmware.build_ms", || {
                    build(&cfg.app, &BuildOptions::vulnerable_mavr())
                })
                .map_err(|e| format!("firmware build: {e}"))?;
            let ctx = layers
                .time("rop.discover_ms", || AttackContext::discover(&fw.image))
                .map_err(|e| format!("attack discovery: {e:?}"))?;
            last = Some((fw.image, ctx));
        }
        let (image, ctx) = last.expect("at least one sample");
        let payloads = cfg
            .scenarios
            .iter()
            .map(|s| {
                s.attack_kind()
                    .map(|k| ctx.packets(k, &[(ATTACK_TARGET, ATTACK_VALUES)]))
                    .transpose()
                    .map_err(|e| format!("payload: {e:?}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Fixture { image, payloads })
    }
}

/// Provision `seed`'s board by hand, one public stage at a time, and check
/// the programmed flash verifies clean. Returns the randomized image bytes
/// so the caller can compare them with the board's own provisioning.
fn provision_by_stage(
    image: &FirmwareImage,
    seed: u64,
    layers: &mut Layers,
) -> Result<Vec<u8>, String> {
    let container = layers
        .time("mavr.preprocess_ms", || mavr::preprocess(image))
        .map_err(|e| format!("preprocess: {e}"))?;
    let mut chip = ExternalFlash::new();
    layers
        .time("board.ext_flash_upload_ms", || chip.upload(&container))
        .map_err(|e| format!("ext-flash upload: {e}"))?;
    let stored = layers
        .time("board.ext_flash_read_ms", || chip.read())
        .map_err(|e| format!("ext-flash read: {e}"))?;
    // The master seeds its RNG from the board seed and draws the first
    // permutation from it on the first boot.
    let mut rng = StdRng::seed_from_u64(seed);
    let randomized = layers
        .time("mavr.randomize_ms", || {
            randomize(&stored.image, &mut rng, &RandomizeOptions::default())
        })
        .map_err(|e| format!("randomize: {e}"))?;
    let mut app = AppProcessor::new();
    let page_bytes = app.machine.device().flash_page_bytes as usize;
    let bytes = randomized.image.bytes;
    let stream = layers.time("board.bootloader_stream_ms", || {
        programming_stream(&bytes, page_bytes)
    });
    layers
        .time("board.bootloader_apply_ms", || {
            apply_stream(&mut app, &stream)
        })
        .map_err(|e| format!("bootloader apply: {e}"))?;
    let bad = layers.time("board.bootloader_verify_ms", || {
        app.mismatched_pages(&bytes, page_bytes)
    });
    if !bad.is_empty() || !app.locked() {
        return Err(format!(
            "board seed {seed}: {} pages mismatched after programming",
            bad.len()
        ));
    }
    Ok(bytes)
}

/// What the master's watchdog sees: the engine's detection rule, applied
/// from outside the board at the same chunk boundaries.
fn detect(board: &MavrBoard, watch_since: u64) -> Option<RecoveryCause> {
    let machine = &board.app.machine;
    if let Some(f) = machine.fault() {
        return Some(RecoveryCause::Fault(f));
    }
    let now = machine.cycles();
    match machine
        .heartbeat
        .last_toggle()
        .filter(|&t| t >= watch_since)
    {
        Some(last) if now.saturating_sub(last) <= board.heartbeat_timeout => None,
        Some(_) => Some(RecoveryCause::HeartbeatLost),
        None if now.saturating_sub(watch_since) > board.heartbeat_timeout => {
            Some(RecoveryCause::HeartbeatLost)
        }
        None => None,
    }
}

/// One job's flight state: the board, its links and ground station, and
/// the flight clocks.
struct Flight {
    board: MavrBoard,
    up: LossyChannel,
    down: LossyChannel,
    gcs: GroundStation,
    watch_since: u64,
    cold_left: u64,
    cold_ms: f64,
    fly_ms: f64,
    link_ms: f64,
    recover_ms: f64,
}

impl Flight {
    /// `MavrBoard::run(cycles)`, driven from outside so the flight and the
    /// recoveries are timed apart: chunks of a quarter heartbeat timeout,
    /// the watchdog checked after each.
    fn fly(&mut self, cycles: u64, layers: &mut Layers) -> Result<(), String> {
        let target = self.board.app.machine.cycles().saturating_add(cycles);
        while self.board.app.machine.cycles() < target {
            let now = self.board.app.machine.cycles();
            let chunk = (self.board.heartbeat_timeout / 4).min(target - now).max(1);
            let end = now + chunk;
            let mut faulted = false;
            if self.cold_left > 0 {
                // `run(a)` then `run(end - now)` stops on the same
                // instruction boundary as `run(a + b)`: the cold prefix is
                // split off without moving the watchdog's chunk boundary.
                let first = self.cold_left.min(chunk);
                let t = Instant::now();
                faulted = matches!(self.board.app.machine.run(first), RunExit::Faulted(_));
                let ms = ms_since(t);
                self.fly_ms += ms;
                self.cold_ms += ms;
                let ran = self.board.app.machine.cycles() - now;
                self.cold_left = self.cold_left.saturating_sub(ran);
                if self.cold_left == 0 {
                    layers.push("avr-sim.fly_cold_ms", self.cold_ms);
                }
            }
            let here = self.board.app.machine.cycles();
            if !faulted && here < end {
                let t = Instant::now();
                let _ = self.board.app.machine.run(end - here);
                let s = t.elapsed().as_secs_f64();
                layers.warm_cycles += self.board.app.machine.cycles() - here;
                layers.warm_s += s;
                self.fly_ms += s * 1e3;
            }
            if let Some(cause) = detect(&self.board, self.watch_since) {
                let t = Instant::now();
                self.board
                    .recover(cause)
                    .map_err(|e| format!("recovery: {e}"))?;
                let ms = ms_since(t);
                layers.push("board.recover_ms", ms);
                self.recover_ms += ms;
                self.watch_since = self.board.app.machine.cycles();
                self.cold_left = COLD_CYCLES;
                self.cold_ms = 0.0;
            }
        }
        Ok(())
    }

    /// Drain the downlink through its channel into the ground station.
    fn pump(&mut self) {
        let bytes = self.board.downlink();
        if !bytes.is_empty() {
            let t = Instant::now();
            let delivered = self.down.transmit(&bytes);
            self.gcs.ingest(&delivered);
            self.link_ms += ms_since(t);
        }
    }
}

/// Replay one job of the untraced campaign and check it against the
/// engine's `outcome`.
pub fn replay_job(
    cfg: &CampaignConfig,
    fixture: &Fixture,
    outcome: &BoardOutcome,
    layers: &mut Layers,
) -> Result<(), String> {
    let seed = outcome.board_seed;
    let programmed = provision_by_stage(&fixture.image, seed, layers)?;

    let t = Instant::now();
    let mut board = MavrBoard::provision_chaos(
        &fixture.image,
        seed,
        RandomizationPolicy::default(),
        Telemetry::off(),
        FaultPlan::none(),
    )
    .map_err(|e| format!("provision: {e}"))?;
    let provision_ms = ms_since(t);
    layers.push("board.provision_ms", provision_ms);
    let page_bytes = board.app.machine.device().flash_page_bytes as usize;
    if !board
        .app
        .mismatched_pages(&programmed, page_bytes)
        .is_empty()
    {
        return Err(format!(
            "board seed {seed}: stage-by-stage provisioning differs from provision_chaos"
        ));
    }
    board.app.machine.set_block_fusion(cfg.block_fusion);

    // The engine derives its channel seeds privately; lossy replays use
    // their own, which changes which bytes are hit but not the rate.
    let loss = LossConfig {
        drop: outcome.loss,
        corrupt: outcome.loss,
        duplicate: outcome.loss,
        ..LossConfig::lossless()
    };
    let watch_since = board.app.machine.cycles();
    let mut f = Flight {
        board,
        up: LossyChannel::new(loss.with_seed(seed ^ 0x5555)),
        down: LossyChannel::new(loss.with_seed(seed ^ 0xaaaa)),
        gcs: GroundStation::with_capacity(cfg.gcs_capacity),
        watch_since,
        cold_left: COLD_CYCLES,
        cold_ms: 0.0,
        fly_ms: 0.0,
        link_ms: 0.0,
        recover_ms: 0.0,
    };

    let scenario = cfg
        .scenarios
        .iter()
        .position(|&s| s == outcome.scenario)
        .ok_or("outcome scenario is not in the campaign")?;
    f.fly(cfg.warmup_cycles, layers)?;
    f.pump();
    if let Some(packets) = &fixture.payloads[scenario] {
        for (i, payload) in packets.iter().enumerate() {
            let wire = f
                .gcs
                .exploit_packet(payload)
                .map_err(|e| format!("exploit frame: {e:?}"))?;
            let t = Instant::now();
            let sent = f.up.transmit(&wire);
            f.link_ms += ms_since(t);
            f.board.uplink(&sent);
            if i + 1 < packets.len() {
                f.fly(cfg.packet_gap_cycles, layers)?;
                f.pump();
            }
        }
        let t = Instant::now();
        let tail = f.up.flush();
        f.link_ms += ms_since(t);
        f.board.uplink(&tail);
    }
    f.fly(cfg.attack_cycles, layers)?;
    f.pump();
    let t = Instant::now();
    let tail = f.down.flush();
    f.gcs.ingest(&tail);
    f.link_ms += ms_since(t);

    layers.push("mavlink.link_ms", f.link_ms);
    layers.jobs += 1;
    layers.job_ms += provision_ms + f.fly_ms + f.recover_ms + f.link_ms;

    if outcome.loss == 0.0 {
        let replayed = (
            f.board.app.machine.cycles(),
            f.board.recoveries(),
            f.gcs.heartbeats.total(),
        );
        let engine = (outcome.final_cycle, outcome.recoveries, outcome.heartbeats);
        if replayed != engine {
            return Err(format!(
                "board seed {seed}: replay (final_cycle, recoveries, heartbeats) = \
                 {replayed:?}, engine = {engine:?}"
            ));
        }
    }
    Ok(())
}
