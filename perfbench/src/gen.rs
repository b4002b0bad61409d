//! Seeded workload inputs.
//!
//! Every input is a pure function of `(seed, request index)` — no RNG
//! state survives between requests — so any request of any run can be
//! regenerated after the timed window to check its answer, and a later
//! change can be rechecked on a seed that was never used while tuning.

use compat::rng::StdRng;
use dvfs_autoserve::{shard_for, ModelKey, TuneRequest, WorkloadSpec};
use dvfs_stream::MotionModel;
use kifmm::distributions::uniform_cube;
use tk1_sim::{mix64, OpClass, OpVector};

/// Platform every serve-mix request tunes for.
pub const DEVICE: &str = "tk1";

/// fmm-solve problem size: n/q = 8³, the leaf-size cost cliff where the X
/// and NEAR phases dominate evaluation.
pub const SOLVE_N: usize = 32768;
/// Max points per leaf for both FMM workloads.
pub const LEAF_Q: usize = 64;
/// KIFMM surface order for both FMM workloads.
pub const SURFACE_P: usize = 4;
/// Targets per fmm-solve request checked against a direct sum.
pub const CHECK_TARGETS: usize = 64;

/// stream-drift particle count.  At n = 32768 every gentle-drift step
/// falls back to a full rebuild; at this size every step repairs in
/// place, which is the path the workload exists to measure.
pub const DRIFT_N: usize = 65536;

/// Warm boards (cached models) the serve-mix traffic spreads over.
pub const WARM_BOARDS: usize = 24;
/// Requests each serve-mix client submits before draining its tickets.
pub const BURST: usize = 32;
/// Per-mille share of serve-mix requests naming a never-seen board.
pub const COLD_PER_MILLE: u64 = 4;
/// Per-mille share of serve-mix requests carrying the pre-lowered FMM spec.
pub const FMM_PER_MILLE: u64 = 20;
/// Per-mille share of serve-mix requests asking for a 4-round phase plan.
pub const PLAN_PER_MILLE: u64 = 50;
/// Phase-plan rounds of a plan-class request.
pub const PLAN_ROUNDS: usize = 4;
/// Size of the serve-mix FMM spec (smallest size the service lowers).
pub const SPEC_N: usize = 2048;
/// The spec's `q`; the service passes it through as max points per leaf.
pub const SPEC_Q: usize = 12;

const SALT_POINTS: u64 = 0x11;
const SALT_DENSITY: u64 = 0x12;
const SALT_TARGET: u64 = 0x13;
const SALT_MOTION: u64 = 0x21;
const SALT_BOARD: u64 = 0x31;
const SALT_CLASS: u64 = 0x32;
const SALT_PICK: u64 = 0x33;
const SALT_OPS: u64 = 0x34;
const SALT_COLD: u64 = 0x35;
const SALT_SPEC: u64 = 0x36;
const SALT_SAMPLE: u64 = 0x37;

/// Never-seen boards live above every warm-board seed.
const COLD_BASE: u64 = 1 << 40;

/// The keyed hash every generator draws from.
fn draw(seed: u64, salt: u64, index: u64) -> u64 {
    mix64(seed ^ mix64(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mix64(index)))
}

/// A point set with its densities.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    /// Particle positions.
    pub points: Vec<[f64; 3]>,
    /// Source densities in `[-1, 1)`.
    pub densities: Vec<f64>,
}

fn uniform_problem(n: usize, seed: u64, index: u64) -> Problem {
    let points = uniform_cube(n, draw(seed, SALT_POINTS, index));
    let mut rng = StdRng::seed_from_u64(draw(seed, SALT_DENSITY, index));
    let densities = (0..n).map(|_| 2.0 * rng.random::<f64>() - 1.0).collect();
    Problem { points, densities }
}

/// The fmm-solve problem of request `index`.
pub fn solve_problem(seed: u64, index: u64) -> Problem {
    uniform_problem(SOLVE_N, seed, index)
}

/// The targets of request `index` that are checked against a direct sum.
pub fn check_targets(seed: u64, index: u64) -> Vec<usize> {
    (0..CHECK_TARGETS as u64)
        .map(|k| {
            (draw(seed, SALT_TARGET, index * CHECK_TARGETS as u64 + k) % SOLVE_N as u64) as usize
        })
        .collect()
}

/// The stream-drift initial particle set.
pub fn drift_problem(seed: u64) -> Problem {
    uniform_problem(DRIFT_N, seed, u64::MAX)
}

/// The stream-drift motion; step `k` of it is request `k`.
pub fn drift_motion(seed: u64) -> MotionModel {
    MotionModel::drift(draw(seed, SALT_MOTION, 0))
}

/// A serve-mix request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Kernel request on a warm board: a model-cache hit and a grid answer.
    Hit,
    /// Kernel request on a warm board with a 4-round phase plan.
    Plan,
    /// The pre-lowered FMM spec on a warm board.
    Fmm,
    /// Kernel request on a never-seen board: an inline cold fit.
    Cold,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 4] = [Class::Hit, Class::Plan, Class::Fmm, Class::Cold];

    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Plan => "plan",
            Class::Fmm => "fmm",
            Class::Cold => "cold",
        }
    }

    /// The class's target share of all requests, per mille.
    pub fn per_mille(self) -> u64 {
        match self {
            Class::Cold => COLD_PER_MILLE,
            Class::Fmm => FMM_PER_MILLE,
            Class::Plan => PLAN_PER_MILLE,
            Class::Hit => 1000 - COLD_PER_MILLE - FMM_PER_MILLE - PLAN_PER_MILLE,
        }
    }
}

/// The class of serve-mix request `id`.
pub fn class_of(seed: u64, id: u64) -> Class {
    let u = draw(seed, SALT_CLASS, id) % 1000;
    if u < COLD_PER_MILLE {
        Class::Cold
    } else if u < COLD_PER_MILLE + FMM_PER_MILLE {
        Class::Fmm
    } else if u < COLD_PER_MILLE + FMM_PER_MILLE + PLAN_PER_MILLE {
        Class::Plan
    } else {
        Class::Hit
    }
}

/// The warm boards of a seed, balanced over `shards` so that every seed
/// puts the same load on every shard.
pub fn warm_boards(seed: u64, shards: usize) -> Vec<u64> {
    let shards = shards.max(1);
    let per_shard = WARM_BOARDS.div_ceil(shards);
    let mut taken = vec![0usize; shards];
    let mut boards = Vec::with_capacity(WARM_BOARDS);
    let mut j = 0u64;
    while boards.len() < WARM_BOARDS {
        let board = draw(seed, SALT_BOARD, j) % COLD_BASE;
        j += 1;
        let shard = shard_for(&ModelKey::new(DEVICE, board, None), shards);
        if taken[shard] < per_shard && !boards.contains(&board) {
            taken[shard] += 1;
            boards.push(board);
        }
    }
    boards
}

/// A board no warm set and no other request of the run names.
pub fn cold_board(seed: u64, id: u64) -> u64 {
    COLD_BASE + draw(seed, SALT_COLD, id) % COLD_BASE
}

/// The one FMM spec of a seed, lowered on every shard during set-up.
pub fn fmm_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec::Fmm { n: SPEC_N, q: SPEC_Q, seed: draw(seed, SALT_SPEC, 0) % 1024 }
}

/// A kernel workload with seeded op counts in one of three size classes.
pub fn kernel_spec(seed: u64, id: u64) -> WorkloadSpec {
    let mut rng = StdRng::seed_from_u64(draw(seed, SALT_OPS, id));
    let base = [1e6, 1e9, 1e11][rng.random_range(0usize..3)];
    let mut count = |scale: f64| base * scale * rng.random_range(0.5f64..2.0);
    let ops = OpVector::from_pairs(&[
        (OpClass::FlopSp, count(1.0)),
        (OpClass::FlopDp, count(0.25)),
        (OpClass::Int, count(1.5)),
        (OpClass::Shared, count(0.5)),
        (OpClass::L1, count(0.75)),
        (OpClass::L2, count(0.2)),
        (OpClass::Dram, count(0.05)),
    ]);
    let utilization = rng.random_range(0.2f64..1.0);
    let launches = 1 + (rng.next_u64() % 4) as u32;
    WorkloadSpec::Kernel { ops, utilization, launches }
}

/// Serve-mix request `id`, with its class.
pub fn serve_request(seed: u64, boards: &[u64], id: u64) -> (Class, TuneRequest) {
    let class = class_of(seed, id);
    let warm = boards[(draw(seed, SALT_PICK, id) % boards.len() as u64) as usize];
    let (device_seed, workload, plan_rounds) = match class {
        Class::Hit => (warm, kernel_spec(seed, id), 0),
        Class::Plan => (warm, kernel_spec(seed, id), PLAN_ROUNDS),
        Class::Fmm => (warm, fmm_spec(seed), 0),
        Class::Cold => (cold_board(seed, id), kernel_spec(seed, id), 0),
    };
    (class, TuneRequest { device_id: DEVICE, device_seed, workload, plan_rounds })
}

/// Whether request `id` is one of the one-in-`every` checked answers.
pub fn sampled(seed: u64, id: u64, every: u64) -> bool {
    draw(seed, SALT_SAMPLE, id).is_multiple_of(every)
}
