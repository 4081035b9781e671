//! A job's flight as a value.
//!
//! The paper's effectiveness result (§VII-A) rests on one script: warm up,
//! send the exploit, then watch the master detect the failure,
//! re-randomize and reflash. A [`FlightPlan`] names that script's numbers,
//! and [`fly`] is the one place that runs it — for every campaign job, and
//! for every board-level attack round outside the campaign engine (the
//! CLI's `trace`, the examples, the effectiveness table, the integration
//! tests), which fly the same plan over [`Links::perfect`].

use crate::{CampaignConfig, Job, PreparedCampaign};
use mavlink_lite::channel::LossyChannel;
use mavlink_lite::GroundStation;
use mavr_board::{MasterError, MavrBoard};
use mavr_world::{FlightHarness, CYCLES_PER_STEP};

/// The script of one flight: `warmup` cycles, then each of `frames` sent
/// as one exploit packet with `gap` cycles between successive packets,
/// then `attack` cycles after the last one.
#[derive(Debug, Clone, Copy)]
pub struct FlightPlan<'a> {
    /// Cycles flown before the first packet.
    pub warmup: u64,
    /// Exploit payloads; the ground station frames each one.
    pub frames: &'a [Vec<u8>],
    /// Cycles flown between successive packets.
    pub gap: u64,
    /// Cycles flown after the last packet (the attack window).
    pub attack: u64,
}

impl<'a> FlightPlan<'a> {
    /// The plan of campaign job `job`: the config's cycle counts and the
    /// job's scenario payloads (none for a benign job).
    pub(crate) fn for_job(cfg: &CampaignConfig, prepared: &'a PreparedCampaign, job: Job) -> Self {
        FlightPlan {
            warmup: cfg.warmup_cycles,
            frames: prepared.payloads[job.scenario_idx]
                .as_deref()
                .unwrap_or_default(),
            gap: cfg.packet_gap_cycles,
            attack: cfg.attack_cycles,
        }
    }
}

/// How a flight's board advances: bare, or coupled to the physics arena.
/// The plain arm is exactly the pre-physics engine — physics-off
/// campaigns stay byte-identical to it.
pub enum Flyer {
    /// The board alone.
    Plain(Box<MavrBoard>),
    /// The board inside the `mavr-world` closed loop.
    Physics(Box<FlightHarness>),
}

impl Flyer {
    /// The flying board.
    pub fn board(&self) -> &MavrBoard {
        match self {
            Flyer::Plain(b) => b,
            Flyer::Physics(h) => &h.board,
        }
    }

    /// The flying board, mutably.
    pub fn board_mut(&mut self) -> &mut MavrBoard {
        match self {
            Flyer::Plain(b) => b,
            Flyer::Physics(h) => &mut h.board,
        }
    }

    /// Advance the flight: exactly `cycles` bare, or the enclosing whole
    /// number of world steps with physics on (boundary-aligned, so the
    /// rounding is identical however the campaign partitions the run).
    fn run(&mut self, cycles: u64) -> Result<(), MasterError> {
        match self {
            Flyer::Plain(b) => b.run(cycles),
            Flyer::Physics(h) => h.run_steps(cycles.div_ceil(CYCLES_PER_STEP)),
        }
    }
}

/// The ground-station end of a flight: the uplink and downlink channels
/// and the session that frames the exploit and ingests telemetry.
pub struct Links {
    /// Ground station → board.
    pub(crate) up: LossyChannel,
    /// Board → ground station.
    pub(crate) down: LossyChannel,
    /// The ground-station session.
    pub(crate) gcs: GroundStation,
}

impl Links {
    /// A serial cable: lossless both ways, a fresh ground station.
    pub fn perfect() -> Self {
        Links {
            up: LossyChannel::perfect(),
            down: LossyChannel::perfect(),
            gcs: GroundStation::new(),
        }
    }

    /// Drain the board's downlink through the channel into the session.
    fn pump(&mut self, board: &mut MavrBoard) {
        let bytes = board.downlink();
        if !bytes.is_empty() {
            let delivered = self.down.transmit(&bytes);
            self.gcs.ingest(&delivered);
        }
    }
}

/// What a flight observed.
#[derive(Debug)]
pub struct Flight {
    /// Cycle the first packet went up; `None` when the board bricked
    /// during warmup.
    pub injected_at: Option<u64>,
    /// The error that bricked the board — a recovery that failed after
    /// every retry and the degraded fallback. Its flight ends there.
    pub bricked: Option<MasterError>,
}

/// Run `plan` on `flyer` over `links`. `on_inject` is called once with
/// the injection cycle, just before the first packet goes up. The
/// physics altitude-excursion window opens at the same instant: anything
/// the hover accumulated during warmup is the board's own business, the
/// attack window's peak isolates what the scenario cost it. The downlink
/// is drained into the session after warmup, after every gap and at the
/// end, bricked or not.
pub fn fly(
    plan: &FlightPlan,
    flyer: &mut Flyer,
    links: &mut Links,
    on_inject: impl FnOnce(u64),
) -> Flight {
    let mut injected_at = None;
    let bricked = script(plan, flyer, links, |at| {
        injected_at = Some(at);
        on_inject(at);
    })
    .err();
    links.pump(flyer.board_mut());
    let tail = links.down.flush();
    links.gcs.ingest(&tail);
    Flight {
        injected_at,
        bricked,
    }
}

fn script(
    plan: &FlightPlan,
    flyer: &mut Flyer,
    links: &mut Links,
    on_inject: impl FnOnce(u64),
) -> Result<(), MasterError> {
    flyer.run(plan.warmup)?;
    links.pump(flyer.board_mut());
    on_inject(flyer.board().app.machine.cycles());
    if let Flyer::Physics(h) = flyer {
        let _ = h.world.take_peak_alt_err();
    }
    for (i, payload) in plan.frames.iter().enumerate() {
        let wire = links
            .gcs
            .exploit_packet(payload)
            .expect("payload fits a frame");
        let delivered = links.up.transmit(&wire);
        flyer.board_mut().uplink(&delivered);
        if i + 1 < plan.frames.len() {
            flyer.run(plan.gap)?;
            links.pump(flyer.board_mut());
        }
    }
    let held = links.up.flush();
    flyer.board_mut().uplink(&held);
    flyer.run(plan.attack)
}
