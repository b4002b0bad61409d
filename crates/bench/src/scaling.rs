//! Thread-scaling measurement grid for the FMM evaluation engine.
//!
//! One `(n, threads)` grid drives both the committed `BENCH_fmm.json`
//! snapshot (`bench_snapshot`) and the `repro fmm-scaling` table, so the
//! two artifacts can never disagree about what was measured.  For each
//! problem size the plan (tree, lists, operators) is built **once** and
//! evaluated under every pool width; alongside the phase medians each
//! case records a digest folded from the raw potential bits, which makes
//! the engine's bitwise thread-invariance checkable from the artifact
//! alone — equal digests across a size's rows *are* the reproducibility
//! claim.
//!
//! The worker count recorded per case is the **resolved** one
//! ([`compat::par::num_threads`] after the override), not the requested
//! one, so a snapshot taken under `FMM_ENERGY_THREADS` or on a smaller
//! machine says what actually ran.

use compat::rng::StdRng;
use compat::{env, par};
use kifmm::evaluator::{FmmPlan, M2lMethod};
use kifmm::{FmmEvaluator, PhaseTimings};

/// Pool widths measured by default: the paper's 1/2/4 core sweep plus
/// an 8-way point for SMT/headroom.
pub const DEFAULT_THREAD_GRID: [usize; 4] = [1, 2, 4, 8];

/// Problem sizes for the committed snapshot, up to `2^20` points.
pub const DEFAULT_SIZES: [usize; 4] = [8_192, 32_768, 262_144, 1_048_576];

/// Environment override for the repetition count (a positive integer);
/// an explicit `--reps` flag still wins over it.
pub const REPS_ENV: &str = "FMM_ENERGY_BENCH_REPS";

/// Resolves the repetition count: `FMM_ENERGY_BENCH_REPS` if set and
/// positive, else `fallback`.
pub fn reps_from_env(fallback: usize) -> usize {
    env::positive_usize(REPS_ENV).unwrap_or(fallback)
}

/// One measured `(n, threads)` grid point.
#[derive(Debug, Clone)]
pub struct ScalingCase {
    /// Problem size.
    pub n: usize,
    /// Resolved worker count the case actually ran with.
    pub threads: usize,
    /// Timed repetitions behind each median.
    pub reps: usize,
    /// Per-phase median seconds (up, v, x, down, near).
    pub phase_medians_s: [f64; 5],
    /// Median total evaluation seconds.
    pub evaluate_median_s: f64,
    /// FNV-1a fold of the output potentials' bit patterns; identical
    /// across rows of the same `n` iff the engine is thread-invariant.
    pub digest: u64,
}

/// The standard uniform-cube benchmark problem (matches the committed
/// snapshot and the `fmm_phases` criterion bench).
pub fn cloud(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts = (0..n).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
    let den = (0..n).map(|_| 2.0 * rng.random::<f64>() - 1.0).collect();
    (pts, den)
}

/// FNV-1a over the bit patterns of `potentials` — order-sensitive, so
/// it pins both values and their layout.
pub fn potential_digest(potentials: &[f64]) -> u64 {
    let mut h = compat::hash::Fnv1a::new();
    for p in potentials {
        h.u64_bytes(p.to_bits());
    }
    h.finish()
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Measures the full `sizes × threads` grid.  The plan is built once
/// per size (under the first requested width, which also exercises the
/// parallel tree build); each width then gets one warm-up evaluation
/// (pool spin-up, arena touch, schedule build) before `reps` timed
/// runs.  The pool override is restored to its entry state on return.
pub fn scaling_grid(
    sizes: &[usize],
    threads: &[usize],
    reps: usize,
    seed: u64,
) -> Vec<ScalingCase> {
    let mut cases = Vec::with_capacity(sizes.len() * threads.len());
    for &n in sizes {
        let (pts, den) = cloud(n, seed);
        let mut plan: Option<FmmPlan> = None;
        for &t in threads {
            par::set_thread_count(Some(t));
            let resolved = par::num_threads();
            let plan = plan.get_or_insert_with(|| FmmPlan::new(&pts, &den, 64, 4, M2lMethod::Fft));
            let eval = FmmEvaluator::new();
            let warm = eval.evaluate(plan);
            let mut runs: Vec<PhaseTimings> = Vec::with_capacity(reps);
            for _ in 0..reps {
                let (_, timings) = eval.evaluate_timed(plan);
                runs.push(timings);
            }
            let med = |f: fn(&PhaseTimings) -> f64| {
                let mut xs: Vec<f64> = runs.iter().map(f).collect();
                median(&mut xs)
            };
            cases.push(ScalingCase {
                n,
                threads: resolved,
                reps,
                phase_medians_s: [
                    med(|t| t.up_s),
                    med(|t| t.v_s),
                    med(|t| t.x_s),
                    med(|t| t.down_s),
                    med(|t| t.near_s),
                ],
                evaluate_median_s: med(|t| t.total_s),
                digest: potential_digest(&warm),
            });
        }
    }
    par::set_thread_count(None);
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let a = potential_digest(&[1.0, 2.0, 3.0]);
        assert_eq!(a, potential_digest(&[1.0, 2.0, 3.0]));
        assert_ne!(a, potential_digest(&[2.0, 1.0, 3.0]), "order matters");
        assert_ne!(a, potential_digest(&[1.0, 2.0]), "length matters");
        assert_ne!(potential_digest(&[0.0]), potential_digest(&[-0.0]), "bit patterns, not values");
    }

    #[test]
    fn reps_env_overrides_fallback() {
        // The only test touching FMM_ENERGY_BENCH_REPS; keep it that way.
        std::env::remove_var(REPS_ENV);
        assert_eq!(reps_from_env(7), 7);
        std::env::set_var(REPS_ENV, "3");
        assert_eq!(reps_from_env(7), 3);
        std::env::set_var(REPS_ENV, "0");
        assert_eq!(reps_from_env(7), 7, "non-positive values fall back");
        std::env::remove_var(REPS_ENV);
    }

    #[test]
    fn grid_covers_every_point_and_digests_agree_per_size() {
        let cases = scaling_grid(&[600], &[1, 2], 1, 3);
        assert_eq!(cases.len(), 2);
        assert!(cases.iter().all(|c| c.n == 600 && c.reps == 1));
        assert_eq!(cases[0].threads, 1);
        assert!(cases.iter().all(|c| c.evaluate_median_s > 0.0));
        assert_eq!(cases[0].digest, cases[1].digest, "potentials bitwise identical across widths");
        assert_eq!(par::num_threads(), par::num_threads(), "override restored");
    }
}
