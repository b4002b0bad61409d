//! fmm-solve: one fresh n = 32768 problem per request — plan build plus
//! evaluation on the default worker pool, one request at a time.

use crate::gen::{self, LEAF_Q, SURFACE_P};
use crate::trace::Tracer;
use crate::{sequential_window, Checked, PhaseSpans, Window, Workload};
use gpu_counters::{CounterSet, DerivedMetrics};
use kifmm::evaluator::M2lMethod;
use kifmm::kernel::{Kernel, LaplaceKernel};
use kifmm::{
    profile_plan, relative_l2_error, CostModel, FmmEvaluator, FmmPlan, InteractionLists, Octree,
    Phase, TreeStats,
};
use std::hint::black_box;

/// Relative L2 error bound at the checked targets.
pub const MAX_REL_ERROR: f64 = 1e-3;
/// Probe repetitions per worker count in the single-thread baseline.
const BASELINE_REPS: usize = 3;
/// Request index of set-up's warm-up solve (outside the request stream).
const WARMUP_INDEX: u64 = u64::MAX;
/// Request index of the traced run's baseline problem.
const PROBE_INDEX: u64 = u64::MAX - 1;

/// Span names of the evaluation phases inside a request.
pub const REQUEST_PHASES: [&str; 5] =
    ["kifmm.up", "kifmm.v", "kifmm.x", "kifmm.down", "kifmm.near"];
/// Span names of the evaluation phases of the baseline problem at `nproc`.
pub const PROBE_PHASES: [&str; 5] =
    ["probe.kifmm.up", "probe.kifmm.v", "probe.kifmm.x", "probe.kifmm.down", "probe.kifmm.near"];
/// Span names of the phases at one worker (written out, not reported).
const ONE_WORKER_PHASES: [&str; 5] =
    ["probe.1t.up", "probe.1t.v", "probe.1t.x", "probe.1t.down", "probe.1t.near"];
/// Count names of computed flops per engine phase.
pub const PHASE_FLOPS: [&str; 5] =
    ["kifmm.up.flops", "kifmm.v.flops", "kifmm.x.flops", "kifmm.down.flops", "kifmm.near.flops"];
/// Count names of computed DRAM bytes per engine phase.
pub const PHASE_BYTES: [&str; 5] = [
    "kifmm.up.dram_bytes",
    "kifmm.v.dram_bytes",
    "kifmm.x.dram_bytes",
    "kifmm.down.dram_bytes",
    "kifmm.near.dram_bytes",
];

/// Instrumentation phases behind each engine phase: the engine fuses
/// L2P, W and U into its NEAR pass (L2P is counted under DOWN).
const ENGINE_TO_PROFILE: [&[Phase]; 5] =
    [&[Phase::Up], &[Phase::V], &[Phase::X], &[Phase::Down], &[Phase::U, Phase::W]];

/// Span names of one baseline repetition at one worker count.
struct BaselineNames {
    tree: &'static str,
    lists: &'static str,
    plan: &'static str,
    eval: &'static str,
    phases: &'static [&'static str; 5],
}

const ONE_WORKER: BaselineNames = BaselineNames {
    tree: "kifmm.tree_1t",
    lists: "kifmm.lists_1t",
    plan: "kifmm.plan_1t",
    eval: "kifmm.eval_1t",
    phases: &ONE_WORKER_PHASES,
};
const ALL_WORKERS: BaselineNames = BaselineNames {
    tree: "probe.kifmm.tree",
    lists: "probe.kifmm.lists",
    plan: "probe.kifmm.plan",
    eval: "probe.kifmm.eval",
    phases: &PROBE_PHASES,
};

fn plan_of(p: &gen::Problem) -> FmmPlan {
    FmmPlan::new(&p.points, &p.densities, LEAF_Q, SURFACE_P, M2lMethod::Fft)
}

/// The fmm-solve workload.
pub struct FmmSolve {
    seed: u64,
    next: u64,
    /// `(request, potentials at its check targets)`.
    kept: Vec<(u64, Vec<f64>)>,
}

impl FmmSolve {
    fn solve(&mut self, tracer: Option<&mut Tracer>) -> Option<f64> {
        let i = self.next;
        self.next += 1;
        let problem = gen::solve_problem(self.seed, i);
        let start = std::time::Instant::now();
        let Some(tr) = tracer else {
            let pot = FmmEvaluator::new().evaluate(&plan_of(&problem));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            return self.keep(i, &pot).then_some(ms);
        };
        let pot = tr.span("fmm-solve.request", i, |tr| {
            let plan = tr.span("kifmm.plan", i, |_| plan_of(&problem));
            tr.span("kifmm.eval", i, |tr| {
                let mut obs = PhaseSpans::new(tr, &REQUEST_PHASES, i);
                FmmEvaluator::new().evaluate_observed(&plan, &mut obs).0
            })
        });
        let ms = start.elapsed().as_secs_f64() * 1e3;
        // Tree and list builds are timed apart from the request (they run
        // again inside `FmmPlan::new`), so that operators = plan − tree −
        // lists.
        let tree = tr
            .span("kifmm.tree", i, |_| Octree::build(&problem.points, &problem.densities, LEAF_Q));
        tr.span("kifmm.lists", i, |_| black_box(InteractionLists::build(&tree)));
        self.keep(i, &pot).then_some(ms)
    }

    fn keep(&mut self, i: u64, pot: &[f64]) -> bool {
        if pot.len() != gen::SOLVE_N {
            return false;
        }
        let sampled = gen::check_targets(self.seed, i).iter().map(|&t| pot[t]).collect();
        self.kept.push((i, sampled));
        true
    }
}

impl Workload for FmmSolve {
    fn setup(seed: u64) -> Result<Self, String> {
        // Spawn the worker pool and fault in the allocator's working set
        // with one solve outside the request stream.
        let problem = gen::solve_problem(seed, WARMUP_INDEX);
        black_box(FmmEvaluator::new().evaluate(&plan_of(&problem)));
        Ok(FmmSolve { seed, next: 0, kept: Vec::new() })
    }

    fn window(&mut self, seconds: f64, mut tracer: Option<&mut Tracer>) -> Window {
        sequential_window(seconds, || self.solve(tracer.as_deref_mut()))
    }

    fn probe(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let problem = gen::solve_problem(self.seed, PROBE_INDEX);
        let nproc = compat::par::num_threads();
        tr.count("compat.threads", PROBE_INDEX, nproc as f64);
        let mut plan = None;
        for _ in 0..BASELINE_REPS {
            for (threads, names) in [(1, &ONE_WORKER), (nproc, &ALL_WORKERS)] {
                compat::par::set_thread_count(Some(threads));
                let tree = tr.span(names.tree, PROBE_INDEX, |_| {
                    Octree::build(&problem.points, &problem.densities, LEAF_Q)
                });
                tr.span(names.lists, PROBE_INDEX, |_| black_box(InteractionLists::build(&tree)));
                let p = tr.span(names.plan, PROBE_INDEX, |_| plan_of(&problem));
                tr.span(names.eval, PROBE_INDEX, |tr| {
                    let mut obs = PhaseSpans::new(tr, names.phases, PROBE_INDEX);
                    black_box(FmmEvaluator::new().evaluate_observed(&p, &mut obs));
                });
                plan = Some(p);
            }
        }
        compat::par::set_thread_count(None);
        let plan = plan.expect("BASELINE_REPS > 0");

        let stats = TreeStats::compute(&plan.tree, &plan.lists);
        for (name, value) in [
            ("kifmm.leaves", stats.leaves),
            ("kifmm.depth", stats.depth as usize),
            ("kifmm.u_pairs", plan.lists.u_pair_count()),
            ("kifmm.v_pairs", plan.lists.v_pair_count()),
            ("kifmm.w_entries", stats.w_entries),
            ("kifmm.x_entries", stats.x_entries),
        ] {
            tr.count(name, PROBE_INDEX, value as f64);
        }

        let profile =
            tr.span("kifmm.profile", PROBE_INDEX, |_| profile_plan(&plan, &CostModel::default()));
        for (k, phases) in ENGINE_TO_PROFILE.iter().enumerate() {
            let merged = CounterSet::new();
            for &phase in *phases {
                merged.merge(&profile.phase(phase).counters);
            }
            let derived = DerivedMetrics::from_counters(&merged);
            tr.count(PHASE_FLOPS[k], PROBE_INDEX, derived.dp_flops as f64);
            tr.count(PHASE_BYTES[k], PROBE_INDEX, derived.dram_read_bytes as f64);
        }
        Ok(())
    }

    fn finish(self, _tracer: Option<&mut Tracer>) -> Result<Checked, String> {
        let mut failures = 0;
        let mut worst = 0.0f64;
        for (i, fmm) in &self.kept {
            let problem = gen::solve_problem(self.seed, *i);
            let reference: Vec<f64> = gen::check_targets(self.seed, *i)
                .iter()
                .map(|&t| {
                    let x = problem.points[t];
                    problem
                        .points
                        .iter()
                        .zip(&problem.densities)
                        .map(|(&y, &s)| LaplaceKernel.eval(x, y) * s)
                        .sum::<f64>()
                })
                .collect();
            let err = relative_l2_error(fmm, &reference);
            worst = worst.max(err);
            if err.is_nan() || err > MAX_REL_ERROR {
                failures += 1;
            }
        }
        let note = format!(
            "fmm-solve: {} requests checked at {} targets each, worst relative L2 error {worst:.2e} (bound {MAX_REL_ERROR:.0e})",
            self.kept.len(),
            gen::CHECK_TARGETS
        );
        Ok(Checked { failures, notes: vec![note], digest: None })
    }
}
