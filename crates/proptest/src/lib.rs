//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no crates.io access, so this crate reimplements
//! the slice of proptest the workspace's property tests use: the
//! [`Strategy`] trait with `prop_map` / `prop_flat_map` / `prop_filter`,
//! range and tuple strategies, [`collection::vec`], [`prelude::Just`],
//! `prop_oneof!`, `proptest!` with `#![proptest_config(..)]`, and the
//! `prop_assert*` macros.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case panics with the generated inputs in
//!   scope and prints its case seed. Each case's RNG is seeded from the
//!   test's name and the case index, so failures reproduce exactly, and
//!   `PROPTEST_SEED=<seed>` reruns just that case.
//! * **Generation only.** There is no persistence of failing seeds and no
//!   `prop_assume` rejection bookkeeping beyond a retry cap.
//!
//! `PROPTEST_CASES=<n>` overrides every property's case count, for soak
//! runs.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod collection;
pub mod strategy;
pub mod test_runner;

/// The glob import every property test starts with.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// The deterministic RNG driving generation (xoshiro256++ via the vendored
/// `rand` shim).
pub type TestRng = StdRng;

/// The seed of a named test's case stream: FNV-1a over the name, so every
/// test function explores a distinct but reproducible stream.
fn seed_for_test(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A positive integer from environment variable `var` (decimal, or hex
/// with `0x`), if set. Panics on a malformed value rather than silently
/// running the default.
fn env_number(var: &str) -> Option<u64> {
    let text = std::env::var(var).ok()?;
    let t = text.trim();
    let parsed = match t.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => t.parse(),
    };
    Some(parsed.unwrap_or_else(|_| panic!("{var}={text:?} is not a number")))
}

/// Names the failing case while a panic unwinds through it.
struct CaseReport<'a> {
    name: &'a str,
    case: u64,
    cases: u64,
    seed: u64,
}

impl Drop for CaseReport<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "proptest: {} failed at case {}/{} with case seed {:#018x} \
                 (rerun it alone with PROPTEST_SEED={:#x})",
                self.name,
                self.case + 1,
                self.cases,
                self.seed,
                self.seed
            );
        }
    }
}

/// Run `config.cases` generated cases of test `name` through `case`, each
/// from its own RNG seeded by `mix64(seed_for_test(name), index)`.
/// `PROPTEST_CASES` overrides the count; `PROPTEST_SEED` runs exactly the
/// one case with that seed. Used by the [`proptest!`] macro; not public API
/// of real proptest.
pub fn run_cases(
    name: &str,
    config: test_runner::ProptestConfig,
    mut case: impl FnMut(&mut TestRng),
) {
    let seeds: Vec<u64> = match env_number("PROPTEST_SEED") {
        Some(seed) => vec![seed],
        None => {
            let cases = env_number("PROPTEST_CASES").unwrap_or(u64::from(config.cases));
            let base = seed_for_test(name);
            (0..cases).map(|i| rand::mix64(base, i)).collect()
        }
    };
    for (index, &seed) in seeds.iter().enumerate() {
        let _report = CaseReport {
            name,
            case: index as u64,
            cases: seeds.len() as u64,
            seed,
        };
        case(&mut StdRng::seed_from_u64(seed));
    }
}

/// Run the generated cases of one property. Used by the [`proptest!`]
/// macro; not public API of real proptest.
#[macro_export]
macro_rules! __proptest_case {
    ($cfg:expr, $name:expr, ( $($arg:pat),* ), ( $($strat:expr),* ), $body:block) => {{
        $crate::run_cases($name, $cfg, |__rng: &mut $crate::TestRng| {
            $(
                let $arg = $crate::strategy::Strategy::generate(&($strat), __rng);
            )*
            $body
        });
    }};
}

/// The `proptest!` macro: each contained `fn name(pat in strategy, ..)`
/// becomes a `#[test]`-style function running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@funcs ($cfg) $($rest)*);
    };
    (@funcs ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($arg:pat in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::__proptest_case!($cfg, stringify!($name), ($($arg),*), ($($strat),*), $body);
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@funcs ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Assert inside a property test; panics with the formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Equality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Inequality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use test_runner::ProptestConfig;

    /// The first draw of every case of test `name`.
    fn first_draws(name: &str, cases: u32) -> Vec<u64> {
        let mut draws = Vec::new();
        run_cases(name, ProptestConfig::with_cases(cases), |rng| {
            draws.push(rng.next_u64())
        });
        draws
    }

    #[test]
    fn cases_are_reproducible_and_independent() {
        let expected = env_number("PROPTEST_SEED")
            .map(|_| 1)
            .or(env_number("PROPTEST_CASES"))
            .unwrap_or(8);
        let a = first_draws("some_property", 8);
        assert_eq!(a.len() as u64, expected);
        assert_eq!(a, first_draws("some_property", 8));
        assert_ne!(a, first_draws("another_property", 8));
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len());
    }

    #[test]
    fn a_failing_case_still_fails() {
        let failed = std::panic::catch_unwind(|| {
            run_cases("always_fails", ProptestConfig::with_cases(3), |_| {
                panic!("property violated")
            })
        });
        assert!(failed.is_err());
    }
}
