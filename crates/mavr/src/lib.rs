//! MAVR: fine-grained code randomization for AVR flight controllers — the
//! paper's defensive contribution (§V, §VI).
//!
//! The defense has three phases:
//!
//! 1. **Preprocessing** ([`preprocess()`]) — on the host, before flashing:
//!    extract the function symbol table and the data-section function
//!    pointers, and prepend them to the Intel HEX image
//!    ([`hexfile::MavrContainer`]). The result is what gets uploaded to the
//!    MAVR external flash chip.
//! 2. **Randomization** ([`randomize()`]) — on the master processor, at boot
//!    or after a detected attack: draw a random permutation of the function
//!    blocks and relocate them.
//! 3. **Patching** (inside [`randomize::randomize`]) — as the binary streams
//!    to the application processor: retarget every absolute `call`/`jmp`
//!    (including switch-statement trampolines that point *into* a block,
//!    resolved by binary search over the old symbol table, §VI-B3) and
//!    rewrite every function pointer recorded in the data section. The
//!    lookups depend only on the image, so a [`PatchPlan`] does them once
//!    and each boot's [`PatchPlan::apply`] only shuffles, copies blocks and
//!    writes the resolved patches.
//!
//! [`math`] carries the security analysis of §V-D and §VIII-B (brute-force
//! expectations and permutation entropy), and [`policy`] the randomization
//! frequency / flash-wear tradeoff of §V-C.
//!
//! # Example
//!
//! ```
//! use mavr::{randomize, RandomizeOptions};
//! use synth_firmware::{apps, build, BuildOptions};
//!
//! let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
//! let mut rng = mavr::seeded_rng(1);
//! let r = randomize(&fw.image, &mut rng, &RandomizeOptions::default()).unwrap();
//! assert_eq!(r.image.code_size(), fw.image.code_size());
//! assert_ne!(r.image.bytes, fw.image.bytes);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod math;
pub mod policy;
pub mod preprocess;
pub mod randomize;

pub use preprocess::preprocess;
pub use randomize::{randomize, PatchPlan, RandomizeError, RandomizeOptions, RandomizedImage};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seeded RNG for reproducible randomization in tests and benches. The
/// board simulation uses entropy-seeded RNGs instead.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
