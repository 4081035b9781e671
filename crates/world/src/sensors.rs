//! Deterministic sensor models feeding the ADC.
//!
//! Three instruments are wired to the first three ADC channels, matching
//! what the synthetic flight firmware samples:
//!
//! | channel | instrument | transfer function (10-bit counts)        |
//! |---------|------------|------------------------------------------|
//! | 0       | gyro (y)   | `512 + 64·ω_y` (rad/s)                   |
//! | 1       | accel tilt | `512 + 512·ẑ_world.x` (lean toward +x)   |
//! | 2       | baro       | `8 · altitude_m`                         |
//!
//! Noise is the sum of two uniform draws (triangular distribution, zero
//! mean) scaled by `noise_counts`. Every call makes **exactly six** RNG
//! draws — two per channel, even at zero amplitude — so the RNG stream
//! position depends only on the number of samples taken, never on the
//! flight path. That fixed draw count is what makes checkpoint/resume
//! and chunked execution bit-identical.

use crate::dynamics::RigidBody;
use crate::math::Vec3;
use rand::rngs::StdRng;
use rand::Rng;

/// Full-scale ADC reading (10-bit).
pub const ADC_FULL_SCALE: u16 = 1023;

/// The sensor suite: transfer functions plus a common noise amplitude.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorRig {
    /// Peak-ish noise amplitude in ADC counts (triangular, zero mean).
    pub noise_counts: f64,
}

impl SensorRig {
    /// Sample all three instruments. Exactly 6 RNG draws per call.
    pub fn sample(&self, body: &RigidBody, rng: &mut StdRng) -> [u16; 3] {
        let noise = |rng: &mut StdRng| {
            (rng.random::<f64>() + rng.random::<f64>() - 1.0) * self.noise_counts
        };
        let gyro = 512.0 + 64.0 * body.omega.y + noise(rng);
        let z_world = body.att.rotate(Vec3::new(0.0, 0.0, 1.0));
        let tilt = 512.0 + 512.0 * z_world.x + noise(rng);
        let baro = 8.0 * body.pos.z + noise(rng);
        [quantize(gyro), quantize(tilt), quantize(baro)]
    }
}

/// Truncate to counts and clamp to the 10-bit range.
fn quantize(v: f64) -> u16 {
    (v as i64).clamp(0, ADC_FULL_SCALE as i64) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn level_hover_reads_midscale_and_baro_tracks_altitude() {
        let rig = SensorRig { noise_counts: 0.0 };
        let mut rng = StdRng::seed_from_u64(1);
        let body = RigidBody {
            pos: Vec3::new(0.0, 0.0, 50.0),
            ..RigidBody::default()
        };
        let s = rig.sample(&body, &mut rng);
        assert_eq!(s, [512, 512, 400]); // 8 counts/m · 50 m = 400
    }

    #[test]
    fn draw_count_is_independent_of_noise_amplitude() {
        let body = RigidBody::default();
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        SensorRig { noise_counts: 0.0 }.sample(&body, &mut a);
        SensorRig { noise_counts: 8.0 }.sample(&body, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn readings_clamp_to_ten_bits() {
        let rig = SensorRig { noise_counts: 0.0 };
        let mut rng = StdRng::seed_from_u64(2);
        let body = RigidBody {
            pos: Vec3::new(0.0, 0.0, 500.0),   // 4000 counts, off scale
            omega: Vec3::new(0.0, -20.0, 0.0), // -768 counts, below zero
            ..RigidBody::default()
        };
        let s = rig.sample(&body, &mut rng);
        assert_eq!(s[0], 0);
        assert_eq!(s[2], ADC_FULL_SCALE);
    }
}
