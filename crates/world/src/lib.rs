//! # mavr-world — the physical arena around the MAVR board
//!
//! Everything below the ADC pins and above the PWM pins: deterministic
//! sensor physics, a fixed-timestep rigid-body flight model, and a
//! harness that advances the [`mavr_board::MavrBoard`] simulator and the
//! world in lockstep so that code-reuse attacks on the firmware produce
//! *measurable physical consequences* — altitude excursions, ground
//! impacts, meters of altitude lost while the master reflashes.
//!
//! ## Determinism contract
//!
//! A `World` trajectory is a pure function of `(scenario, seed, input
//! sequence)`. Three properties make it hold to the bit:
//!
//! 1. all math is IEEE-754 `+ - * /` and `sqrt` in a fixed evaluation
//!    order — no transcendentals, no platform-varying libm calls;
//! 2. the sensor rig makes exactly six RNG draws per sample regardless
//!    of flight state or noise amplitude, so the RNG stream position is
//!    a function of the step count alone;
//! 3. the harness advances the board to absolute cycle boundaries
//!    (multiples of [`harness::CYCLES_PER_STEP`]), so any outer batching
//!    of `run_steps` calls produces the same interleaving.
//!
//! Two worlds compare equal (`==`) exactly when their bodies, metrics and
//! RNG stream positions agree, which is how the tests check the contract.

mod dynamics;
mod harness;
mod math;
mod sensors;

pub use dynamics::{GroundContact, RigidBody, WorldParams};
pub use harness::{FlightHarness, CYCLES_PER_STEP};
pub use math::{Quat, Vec3};
pub use sensors::{SensorRig, ADC_FULL_SCALE};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The altitude the firmware's setpoint (100 counts at 2 counts/m)
/// corresponds to. Excursion metrics are measured against this.
pub const TARGET_ALT_M: f64 = 50.0;

/// Descent speed at touchdown beyond which the landing counts as a
/// ground impact (crash) rather than a landing.
pub const CRASH_IMPACT_MPS: f64 = 2.0;

/// Initial conditions and noise environment for a flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Start on the setpoint at 50 m, light sensor noise.
    Hover,
    /// Start high at 75 m with no initial velocity: the controller must
    /// descend to the setpoint without overshooting into the ground.
    Drop,
    /// Start on the setpoint but with heavy sensor noise, as in gusty
    /// air with vibrating instruments.
    Turbulent,
}

impl Scenario {
    /// All scenarios, in id order.
    pub fn all() -> [Scenario; 3] {
        [Scenario::Hover, Scenario::Drop, Scenario::Turbulent]
    }

    /// Parse a CLI-style name (case-insensitive).
    pub fn parse(s: &str) -> Option<Scenario> {
        match s.to_ascii_lowercase().as_str() {
            "hover" => Some(Scenario::Hover),
            "drop" => Some(Scenario::Drop),
            "turbulent" => Some(Scenario::Turbulent),
            _ => None,
        }
    }

    /// Stable display / CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Hover => "hover",
            Scenario::Drop => "drop",
            Scenario::Turbulent => "turbulent",
        }
    }

    fn noise_counts(self) -> f64 {
        match self {
            Scenario::Hover | Scenario::Drop => 2.0,
            Scenario::Turbulent => 8.0,
        }
    }

    fn initial_alt(self) -> f64 {
        match self {
            Scenario::Hover | Scenario::Turbulent => TARGET_ALT_M,
            Scenario::Drop => 75.0,
        }
    }
}

/// The simulated physical world: one rigid body, its sensor rig, the
/// noise RNG, and the impact metrics the fleet reports on.
#[derive(Debug, Clone, PartialEq)]
pub struct World {
    /// Physical constants.
    pub params: WorldParams,
    /// Sensor transfer functions and noise amplitude.
    pub rig: SensorRig,
    /// The vehicle.
    pub body: RigidBody,
    /// Which scenario initialized this world.
    pub scenario: Scenario,
    rng: StdRng,
    steps: u64,
    peak_alt_err: f64,
    ground_impacts: u32,
    grounded: bool,
}

impl World {
    /// Create a world in the scenario's initial conditions. Same
    /// `(scenario, seed)` ⇒ bit-identical trajectories for the same
    /// inputs.
    pub fn new(scenario: Scenario, seed: u64) -> World {
        World {
            params: WorldParams::default(),
            rig: SensorRig {
                noise_counts: scenario.noise_counts(),
            },
            body: RigidBody {
                pos: Vec3::new(0.0, 0.0, scenario.initial_alt()),
                ..RigidBody::default()
            },
            scenario,
            rng: StdRng::seed_from_u64(seed),
            steps: 0,
            peak_alt_err: 0.0,
            ground_impacts: 0,
            grounded: false,
        }
    }

    /// Sample the sensor rig (exactly 6 RNG draws; see [`SensorRig`]).
    pub fn sample(&mut self) -> [u16; 3] {
        self.rig.sample(&self.body, &mut self.rng)
    }

    /// Advance one timestep with the given motor commands, updating the
    /// impact metrics.
    pub fn step(&mut self, thrust_duty: f64, pitch_duty: f64) {
        let contact = self.body.step(&self.params, thrust_duty, pitch_duty);
        if contact.on_ground {
            if !self.grounded && contact.impact_vz < -CRASH_IMPACT_MPS {
                self.ground_impacts += 1;
            }
            self.grounded = true;
        } else {
            self.grounded = false;
        }
        let err = (self.body.pos.z - TARGET_ALT_M).abs();
        if err > self.peak_alt_err {
            self.peak_alt_err = err;
        }
        self.steps += 1;
    }

    /// Current altitude above ground, meters.
    pub fn altitude(&self) -> f64 {
        self.body.pos.z
    }

    /// Timesteps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Hard ground impacts (touchdowns faster than
    /// [`CRASH_IMPACT_MPS`]) so far.
    pub fn ground_impacts(&self) -> u32 {
        self.ground_impacts
    }

    /// Whether the vehicle currently sits on the ground.
    pub fn on_ground(&self) -> bool {
        self.grounded
    }

    /// Peak `|altitude − TARGET_ALT_M|` since the last call, and reset
    /// the window. Campaigns reset this at the start of an observation
    /// window (e.g. when a V2 stealthy write lands) to isolate the
    /// excursion the attack caused.
    pub fn take_peak_alt_err(&mut self) -> f64 {
        std::mem::take(&mut self.peak_alt_err)
    }

    /// Peak `|altitude − TARGET_ALT_M|` in the current window, without
    /// resetting.
    pub fn peak_alt_err(&self) -> f64 {
        self.peak_alt_err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_round_trip() {
        for s in Scenario::all() {
            assert_eq!(Scenario::parse(s.name()), Some(s));
        }
        assert_eq!(Scenario::parse("orbit"), None);
    }

    #[test]
    fn free_fall_from_drop_is_counted_as_impact() {
        let mut w = World::new(Scenario::Drop, 7);
        for _ in 0..20_000 {
            let _ = w.sample();
            w.step(0.0, 0.0);
            if w.on_ground() {
                break;
            }
        }
        assert!(w.on_ground());
        assert_eq!(w.ground_impacts(), 1);
        // Falling 25 m past the setpoint then to the ground: the peak
        // error is the full 50 m.
        assert!(w.peak_alt_err() > 49.0);
    }

    #[test]
    fn peak_error_window_resets() {
        let mut w = World::new(Scenario::Hover, 3);
        for _ in 0..200 {
            let _ = w.sample();
            w.step(0.0, 0.0); // fall a little
        }
        assert!(w.take_peak_alt_err() > 0.0);
        assert_eq!(w.peak_alt_err(), 0.0);
    }
}
