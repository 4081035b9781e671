//! The brute-force attacker model of §V-D and the entropy argument of
//! §VIII-B.
//!
//! Against a *fixed* permutation (the software-only strawman of §VIII-A),
//! each failed guess eliminates one candidate, so success at attempt `j`
//! has probability `1/N` for every `j` and the expected attempt count is
//! `(N+1)/2`. With MAVR's re-randomization on every detected failure, the
//! defender re-draws the permutation each time, the attacker can eliminate
//! nothing, and the expectation rises to `N` — the paper's
//! `(n! + n!)/2 = n!` argument.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

// The closed-form analysis lives with the defense; the attacker-side
// simulations here are validated against it.
pub use mavr::math::{
    entropy_bits, expected_attempts_fixed, expected_attempts_rerandomized, factorial_f64,
};

/// Monte-Carlo attempt count against a *fixed* secret permutation of `n`
/// functions. The attacker enumerates permutations in a random order,
/// eliminating one per failed attempt.
pub fn simulate_fixed(n_functions: usize, rng: &mut StdRng) -> u64 {
    // Drawing without replacement from N candidates is uniform over
    // positions: the secret sits at a uniformly random index in the
    // attacker's (random) enumeration order.
    let n_perms = factorial_u64(n_functions);
    rng.random_range(1..=n_perms)
}

/// Monte-Carlo attempt count when the defender re-randomizes after every
/// failure: each attempt independently succeeds with probability `1/N`
/// (geometric).
pub fn simulate_rerandomized(n_functions: usize, rng: &mut StdRng) -> u64 {
    let n_perms = factorial_u64(n_functions);
    let mut attempts = 1u64;
    while rng.random_range(1..=n_perms) != 1 {
        attempts += 1;
    }
    attempts
}

/// A *mechanistic* Monte-Carlo: the defender holds an actual permutation of
/// `n` function blocks; the attacker guesses full permutations. Used to
/// validate that the abstract models above describe the mechanism.
pub fn simulate_mechanistic_fixed(n_functions: usize, rng: &mut StdRng) -> u64 {
    let mut secret: Vec<usize> = (0..n_functions).collect();
    secret.shuffle(rng);
    // Attacker enumerates all permutations in random order.
    let mut candidates = permutations(n_functions);
    candidates.shuffle(rng);
    for (i, c) in candidates.iter().enumerate() {
        if *c == secret {
            return (i + 1) as u64;
        }
    }
    unreachable!("secret permutation must be among the candidates")
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    heap_permute(&mut items, n, &mut out);
    out
}

fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k == 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..k {
        heap_permute(items, k - 1, out);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

fn factorial_u64(n: usize) -> u64 {
    (1..=n as u64).product()
}

/// The §VIII-A information-leak attacker: against a **fixed** permutation
/// with a crash-feedback oracle, the attacker does not need to guess the
/// whole permutation at once — they can locate one function at a time
/// (Shacham et al.'s argument against low-entropy ASLR, which the paper
/// cites as the reason a software-only MAVR fails). Locating function `i`
/// among `k` remaining candidate positions costs on average `(k + 1) / 2`
/// probes, so the whole layout falls in O(n²) probes instead of n!/2.
pub fn simulate_incremental_leak(n_functions: usize, rng: &mut StdRng) -> u64 {
    let mut secret: Vec<usize> = (0..n_functions).collect();
    secret.shuffle(rng);
    let mut attempts = 0u64;
    let mut remaining: Vec<usize> = (0..n_functions).collect(); // candidate positions
    for f in 0..n_functions {
        // Probe candidate positions in random order until the oracle says
        // "no crash" (the probe that used function f's true location).
        let mut order = remaining.clone();
        order.shuffle(rng);
        for (probe, &pos) in order.iter().enumerate() {
            attempts += 1;
            if secret[pos] == f {
                remaining.retain(|&p| p != pos);
                let _ = probe;
                break;
            }
        }
    }
    attempts
}

/// Expected probes for the incremental-leak attacker: sum over k = n..1 of
/// (k + 1) / 2 = n(n + 3) / 4.
pub fn expected_incremental_leak(n_functions: f64) -> f64 {
    n_functions * (n_functions + 3.0) / 4.0
}

/// Seeded RNG for reproducible experiments.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Which attacker model a Monte-Carlo batch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BruteModel {
    /// [`simulate_fixed`]: enumerate permutations against a fixed layout.
    Fixed,
    /// [`simulate_rerandomized`]: the defender re-draws after each failure.
    Rerandomized,
    /// [`simulate_mechanistic_fixed`]: fixed layout, explicit permutations.
    MechanisticFixed,
    /// [`simulate_incremental_leak`]: crash-feedback oracle, one function
    /// at a time.
    IncrementalLeak,
}

impl BruteModel {
    /// One trial of this model.
    pub fn simulate(self, n_functions: usize, rng: &mut StdRng) -> u64 {
        match self {
            BruteModel::Fixed => simulate_fixed(n_functions, rng),
            BruteModel::Rerandomized => simulate_rerandomized(n_functions, rng),
            BruteModel::MechanisticFixed => simulate_mechanistic_fixed(n_functions, rng),
            BruteModel::IncrementalLeak => simulate_incremental_leak(n_functions, rng),
        }
    }
}

/// Run `trials` Monte-Carlo trials of `model` across `threads` workers,
/// returning the attempt count of every trial in trial order.
///
/// Each trial draws from its own RNG seeded by `(base_seed, trial index)`,
/// so the result vector is identical for any `threads` value (and matches a
/// serial run) — the Table-style experiments scale with cores without
/// giving up reproducibility. `threads` is clamped to `1..=trials`.
pub fn run_trials_on(
    model: BruteModel,
    n_functions: usize,
    trials: u64,
    base_seed: u64,
    threads: usize,
) -> Vec<u64> {
    let threads = threads.clamp(1, trials.max(1) as usize);
    let run_range = |lo: u64, hi: u64| -> Vec<u64> {
        (lo..hi)
            .map(|t| {
                let mut rng = seeded_rng(rand::mix64(base_seed, t));
                model.simulate(n_functions, &mut rng)
            })
            .collect()
    };
    if threads == 1 {
        return run_range(0, trials);
    }
    // Contiguous trial ranges, one per worker; stitched back in trial order.
    let chunk = trials.div_ceil(threads as u64);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|w| {
                let (lo, hi) = (w * chunk, ((w + 1) * chunk).min(trials));
                s.spawn(move || run_range(lo, hi))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("brute-force worker panicked"))
            .collect()
    })
}

/// [`run_trials_on`] with one worker per available core.
pub fn run_trials(model: BruteModel, n_functions: usize, trials: u64, base_seed: u64) -> Vec<u64> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_trials_on(model, n_functions, trials, base_seed, threads)
}

/// Mean attempt count over a parallel batch — the number the paper's §V-D
/// table compares against the closed forms.
pub fn mean_attempts(model: BruteModel, n_functions: usize, trials: u64, base_seed: u64) -> f64 {
    let results = run_trials(model, n_functions, trials, base_seed);
    results.iter().map(|&v| v as f64).sum::<f64>() / results.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_matches_paper() {
        // §VIII-B: 800 symbols generate 6567 bits of entropy.
        let bits = entropy_bits(800);
        assert!(
            (bits - 6567.0).abs() < 1.0,
            "log2(800!) = {bits:.1}, paper says 6567"
        );
        // And the Table I apps.
        assert!(entropy_bits(917) > entropy_bits(800));
        assert_eq!(entropy_bits(0), 0.0);
        assert_eq!(entropy_bits(1), 0.0);
    }

    #[test]
    fn closed_forms() {
        assert_eq!(expected_attempts_fixed(24.0), 12.5);
        assert_eq!(expected_attempts_rerandomized(24.0), 24.0);
        assert_eq!(factorial_f64(4), 24.0);
        assert!(factorial_f64(800).is_infinite());
    }

    #[test]
    fn monte_carlo_matches_closed_form() {
        let mut rng = seeded_rng(42);
        let n = 4; // N = 24 permutations
        let trials = 20_000;
        let mean_fixed: f64 = (0..trials)
            .map(|_| simulate_fixed(n, &mut rng) as f64)
            .sum::<f64>()
            / trials as f64;
        let mean_rerand: f64 = (0..trials)
            .map(|_| simulate_rerandomized(n, &mut rng) as f64)
            .sum::<f64>()
            / trials as f64;
        assert!(
            (mean_fixed - 12.5).abs() < 0.5,
            "fixed: {mean_fixed} vs 12.5"
        );
        assert!(
            (mean_rerand - 24.0).abs() < 1.0,
            "re-randomized: {mean_rerand} vs 24 — re-randomization doubles the work"
        );
        assert!(mean_rerand > mean_fixed * 1.7);
    }

    #[test]
    fn mechanistic_model_agrees() {
        let mut rng = seeded_rng(7);
        let n = 4;
        let trials = 4_000;
        let mean: f64 = (0..trials)
            .map(|_| simulate_mechanistic_fixed(n, &mut rng) as f64)
            .sum::<f64>()
            / trials as f64;
        assert!((mean - 12.5).abs() < 0.8, "mechanistic: {mean} vs 12.5");
    }

    #[test]
    fn incremental_leak_is_polynomially_cheap() {
        // The reason a software-only (fixed permutation) MAVR fails: with
        // crash feedback the layout falls in ~n²/4 probes, while the
        // re-randomizing defense still costs n! per §V-D.
        let mut rng = seeded_rng(13);
        let n = 8;
        let trials = 3_000;
        let mean: f64 = (0..trials)
            .map(|_| simulate_incremental_leak(n, &mut rng) as f64)
            .sum::<f64>()
            / trials as f64;
        let expected = expected_incremental_leak(n as f64); // 22
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "incremental leak: {mean:.1} vs {expected}"
        );
        // Contrast: whole-permutation guessing of 8 functions averages
        // (8! + 1)/2 ≈ 20160 attempts — three orders of magnitude more.
        assert!(mean < expected_attempts_fixed(factorial_f64(8)) / 100.0);
    }

    #[test]
    fn parallel_trials_are_thread_count_invariant() {
        for model in [
            BruteModel::Fixed,
            BruteModel::Rerandomized,
            BruteModel::MechanisticFixed,
            BruteModel::IncrementalLeak,
        ] {
            let serial = run_trials_on(model, 4, 500, 42, 1);
            for threads in [2, 3, 8, 600] {
                assert_eq!(
                    serial,
                    run_trials_on(model, 4, 500, 42, threads),
                    "{model:?} with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_mean_matches_closed_form() {
        let mean_fixed = mean_attempts(BruteModel::Fixed, 4, 20_000, 42);
        let mean_rerand = mean_attempts(BruteModel::Rerandomized, 4, 20_000, 42);
        assert!(
            (mean_fixed - 12.5).abs() < 0.5,
            "fixed: {mean_fixed} vs 12.5"
        );
        assert!(
            (mean_rerand - 24.0).abs() < 1.0,
            "re-randomized: {mean_rerand} vs 24"
        );
    }

    #[test]
    fn success_probability_is_uniform() {
        // P(success at attempt j) = 1/N for all j — the paper's P(j).
        let mut rng = seeded_rng(9);
        let n = 3; // N = 6
        let trials = 60_000;
        let mut histogram = [0u64; 6];
        for _ in 0..trials {
            let j = simulate_fixed(n, &mut rng);
            histogram[(j - 1) as usize] += 1;
        }
        for (j, &count) in histogram.iter().enumerate() {
            let p = count as f64 / trials as f64;
            assert!(
                (p - 1.0 / 6.0).abs() < 0.01,
                "P({}) = {p}, expected 1/6",
                j + 1
            );
        }
    }
}
