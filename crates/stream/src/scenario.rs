//! The pinned streaming scenario suite behind `BENCH_stream.json`.
//!
//! Three scenarios, each a pure function of `(model, config, thread
//! count)` — and bitwise identical across thread counts, which the
//! suite witnesses with FNV digests over every f64 bit pattern it
//! reports:
//!
//! * **drift** — a time-stepped FMM under gentle particle motion,
//!   maintained incrementally by [`DynamicOctree`]; each step's
//!   evaluation is driven through a per-phase governor run.
//! * **burst** — the open-loop mixed-size request stream of
//!   [`TrafficConfig::generate`], executed window by window (a window =
//!   one group of simultaneous arrivals) through the [`DeviceArbiter`],
//!   with per-request latency and deadline accounting against the
//!   static-best and race-to-halt baselines.
//! * **tenants** — one long-running job per problem class sharing the
//!   device, the head-to-head arbitration measurement the acceptance
//!   gate checks: arbitrated energy must not exceed either baseline,
//!   with zero deadline misses.
//!
//! Deadlines and inter-arrival gaps are pinned in units of the largest
//! class's fastest-possible service time (`T_ref`), not in raw
//! seconds: the suite stays meaningful — and the zero-miss gate stays
//! honest — whatever energy model or device catalog it runs against.

use crate::arbiter::DeviceArbiter;
use crate::dynamic::{DynamicConfig, DynamicOctree, MotionModel};
use crate::traffic::{stream_digest, ClassMix, StreamRequest, TrafficConfig};
use crate::StreamConfig;
use compat::hash::Fnv1a;
use compat::rng::StdRng;
use dvfs_energy_model::EnergyModel;
use dvfs_governor::{
    ArbiterJob, GovernorRuntime, PerPhaseModel, PhaseTask, Predictor, TransitionModel, Workload,
};
use kifmm::evaluator::{FmmPlan, M2lMethod};
use kifmm::{profile_plan, CostModel};
use tk1_sim::{Device, Setting};

/// Seed salt mirroring the governor runtime's device seed, so planning
/// and execution see bitwise-identical hardware.
const DEVICE_SALT: u64 = 0x60BE_12D0;

/// The pinned problem classes: `(name, n, q, weight)`.
const CLASSES: [(&str, usize, usize, f64); 3] =
    [("small", 512, 32, 3.0), ("medium", 1024, 48, 2.0), ("large", 2048, 64, 1.0)];

/// The drift scenario's accounting.
#[derive(Debug, Clone, Copy)]
pub struct DriftReport {
    /// Motion steps advanced.
    pub steps: usize,
    /// Steps resolved by in-place repair.
    pub in_place: u64,
    /// Steps that fell back to a full rebuild.
    pub rebuilds: u64,
    /// Leaf-crossing migrants re-bucketed in place.
    pub migrants: u64,
    /// Governed energy across all step evaluations, J.
    pub energy_j: f64,
    /// Governed time across all step evaluations, s.
    pub time_s: f64,
    /// FNV digest over every step's potential bits.
    pub potential_digest: u64,
}

/// One executed burst window.
#[derive(Debug, Clone, Copy)]
pub struct WindowOutcome {
    /// When the window started executing, s.
    pub start_s: f64,
    /// Requests in the window.
    pub requests: usize,
    /// Arbitrated energy, J.
    pub energy_j: f64,
    /// The λ rung the window's plan settled on.
    pub lambda_w: f64,
}

/// The burst scenario's accounting.
#[derive(Debug, Clone)]
pub struct BurstReport {
    /// Requests generated and served.
    pub requests: usize,
    /// Windows (groups of simultaneous arrivals) executed.
    pub windows: Vec<WindowOutcome>,
    /// Arbitrated energy across all windows, J.
    pub energy_j: f64,
    /// Per-job static-best baseline energy across all windows, J.
    pub static_best_j: f64,
    /// Race-to-halt baseline energy across all windows, J.
    pub race_to_halt_j: f64,
    /// Requests whose executed finish exceeded their absolute deadline.
    pub deadline_misses: usize,
    /// Mean executed latency (finish − arrival), s.
    pub mean_latency_s: f64,
    /// Worst executed latency, s.
    pub max_latency_s: f64,
    /// When the last window finished, s.
    pub makespan_s: f64,
    /// Digest of the generated request stream.
    pub stream_digest: u64,
    /// Digest over the executed timeline (starts, energies,
    /// completions).
    pub digest: u64,
}

/// The multi-tenant scenario's accounting.
#[derive(Debug, Clone, Copy)]
pub struct TenantReport {
    /// Tenants sharing the device.
    pub tenants: usize,
    /// Which interleaving the planner kept.
    pub order: &'static str,
    /// The λ rung of the winning plan.
    pub lambda_w: f64,
    /// Whether the plan met every deadline in prediction.
    pub feasible: bool,
    /// Executed arbitrated energy, J.
    pub arbitrated_j: f64,
    /// Executed per-job static-best energy, J.
    pub static_best_j: f64,
    /// Executed race-to-halt energy, J.
    pub race_to_halt_j: f64,
    /// Executed arbitrated deadline misses.
    pub deadline_misses: usize,
    /// Digest over the executed strategies.
    pub digest: u64,
}

/// The whole pinned suite at one thread count.
#[derive(Debug, Clone)]
pub struct StreamSuiteReport {
    /// The resolved worker count the suite ran at.
    pub threads: usize,
    /// The drift scenario.
    pub drift: DriftReport,
    /// The burst scenario.
    pub burst: BurstReport,
    /// The multi-tenant scenario.
    pub tenants: TenantReport,
    /// Combined digest — equal across thread counts iff every scenario
    /// is bitwise thread-invariant.
    pub digest: u64,
}

/// A seeded uniform cloud in the unit cube (the bench's distribution).
fn cloud(n: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts = (0..n).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
    let den = (0..n).map(|_| 2.0 * rng.random::<f64>() - 1.0).collect();
    (pts, den)
}

/// One problem class, materialized: its phase tasks and timing scale.
struct ClassPlan {
    tasks: Vec<PhaseTask>,
    /// Fastest-possible serial service time of one evaluation, s.
    service_s: f64,
}

/// Builds each class's plan once and profiles it into phase tasks.
fn class_plans(cfg: &StreamConfig, predictor: &Predictor<'_>, fastest: Setting) -> Vec<ClassPlan> {
    let cost = CostModel::default();
    CLASSES
        .iter()
        .enumerate()
        .map(|(ci, &(_, n, q, _))| {
            let (pts, den) = cloud(n, cfg.seed ^ (0xC1A5 + ci as u64));
            let plan = FmmPlan::new(&pts, &den, q, 4, M2lMethod::Fft);
            let profile = profile_plan(&plan, &cost);
            let tasks = Workload::from_profile(&profile, 1).tasks;
            let service_s: f64 =
                tasks.iter().map(|t| predictor.phase_time_s(&t.kernel, fastest)).sum();
            ClassPlan { tasks, service_s }
        })
        .collect()
}

/// Runs the pinned suite against `model` at the current thread count.
pub fn run_suite(model: &EnergyModel, cfg: &StreamConfig) -> StreamSuiteReport {
    let candidates = dvfs_energy_model::service_grid();
    let mut probe = Device::new(cfg.seed ^ DEVICE_SALT);
    let transitions = TransitionModel::calibrate(&mut probe);
    let predictor = Predictor { model, timing: probe.timing_model(), transitions: &transitions };
    let fastest = probe.spec().max_performance();

    let classes = class_plans(cfg, &predictor, fastest);
    let t_ref = classes.iter().map(|c| c.service_s).fold(0.0, f64::max);

    let drift = run_drift(model, cfg, &candidates);
    let burst = run_burst(model, cfg, &candidates, &classes, t_ref);
    let tenants = run_tenants(model, cfg, &candidates, &classes, t_ref);

    let mut d = Fnv1a::new();
    d.word(drift.potential_digest).word(burst.digest).word(tenants.digest);
    StreamSuiteReport {
        threads: compat::par::num_threads(),
        drift,
        burst,
        tenants,
        digest: d.finish(),
    }
}

/// Drift: incremental maintenance under gentle motion, each step's
/// evaluation governed per phase.
fn run_drift(model: &EnergyModel, cfg: &StreamConfig, candidates: &[Setting]) -> DriftReport {
    let (pts, den) = cloud(1536, cfg.seed ^ 0xD21F7);
    let dyn_cfg = DynamicConfig { q: 48, ..DynamicConfig::default() };
    let mut dt = DynamicOctree::new(&pts, &den, dyn_cfg);
    let motion = MotionModel { seed: cfg.seed ^ 0x3071_0AE2, churn: 0.008, step_frac: 0.03 };
    let mut runtime =
        GovernorRuntime::new(model.clone(), candidates.to_vec(), cfg.seed ^ 0xD21F7, None);
    let cost = CostModel::default();

    let mut digest = Fnv1a::new();
    let mut energy_j = 0.0;
    let mut time_s = 0.0;
    for _ in 0..cfg.steps {
        dt.advance(&motion);
        for p in dt.evaluate() {
            digest.word(p.to_bits());
        }
        let profile = profile_plan(dt.plan(), &cost);
        let workload = Workload::from_profile(&profile, 1);
        let report = runtime.run(&workload, &mut PerPhaseModel::new());
        energy_j += report.total_energy_j;
        time_s += report.total_time_s;
    }
    let stats = dt.stats();
    DriftReport {
        steps: cfg.steps,
        in_place: stats.in_place,
        rebuilds: stats.rebuilds,
        migrants: stats.migrants,
        energy_j,
        time_s,
        potential_digest: digest.finish(),
    }
}

/// The class mix with deadlines pinned in service-time units: a
/// request must finish within `slack × (own service + burst_size ×
/// T_ref)` of arriving — generous enough that a feasible plan exists,
/// tight enough that an idling device would miss.
fn class_mix(cfg: &StreamConfig, classes: &[ClassPlan], t_ref: f64) -> Vec<ClassMix> {
    CLASSES
        .iter()
        .zip(classes)
        .map(|(&(name, _, _, weight), cp)| ClassMix {
            name,
            weight,
            deadline_s: cfg.deadline_slack * (cp.service_s + cfg.burst_size as f64 * t_ref),
        })
        .collect()
}

/// Burst: the open-loop stream, served window by window.
fn run_burst(
    model: &EnergyModel,
    cfg: &StreamConfig,
    candidates: &[Setting],
    classes: &[ClassPlan],
    t_ref: f64,
) -> BurstReport {
    let mix = class_mix(cfg, classes, t_ref);
    let traffic = TrafficConfig {
        seed: cfg.seed ^ 0x7_2AFF1C,
        mean_gap_s: cfg.gap_scale * t_ref,
        burst_period: cfg.burst_period,
        burst_size: cfg.burst_size,
    };
    let requests = traffic.generate(&mix, cfg.requests);
    let arbiter = DeviceArbiter::new(model, candidates.to_vec(), cfg.seed ^ 0xB1257, None);

    let mut digest = Fnv1a::new();
    let mut windows = Vec::new();
    let mut energy_j = 0.0;
    let mut static_best_j = 0.0;
    let mut race_to_halt_j = 0.0;
    let mut misses = 0usize;
    let mut latency_sum = 0.0;
    let mut latency_max = 0.0f64;
    let mut clock_s = 0.0f64;

    // A window = one group of simultaneous arrivals (bursts arrive
    // together bit-for-bit; singles are windows of one).
    let mut wi = 0;
    while wi < requests.len() {
        let arrival = requests[wi].arrival_s;
        let mut we = wi + 1;
        while we < requests.len() && requests[we].arrival_s.to_bits() == arrival.to_bits() {
            we += 1;
        }
        let window: &[StreamRequest] = &requests[wi..we];
        let start = clock_s.max(arrival);
        let jobs: Vec<ArbiterJob> = window
            .iter()
            .map(|r| ArbiterJob {
                id: r.id,
                tasks: classes[r.class].tasks.clone(),
                deadline_s: r.deadline_s - start,
            })
            .collect();
        let result = arbiter.run(&jobs);

        let mut span = 0.0f64;
        for (req, out) in window.iter().zip(&result.arbitrated.outcomes) {
            let finish = start + out.completion_s;
            let latency = finish - req.arrival_s;
            latency_sum += latency;
            latency_max = latency_max.max(latency);
            if finish > req.deadline_s {
                misses += 1;
            }
            span = span.max(out.completion_s);
            digest.word(out.completion_s.to_bits());
        }
        clock_s = start + span;
        energy_j += result.arbitrated.energy_j();
        static_best_j += result.static_best.energy_j();
        race_to_halt_j += result.race_to_halt.energy_j();
        digest.word(start.to_bits());
        digest.word(result.arbitrated.energy_j().to_bits());
        windows.push(WindowOutcome {
            start_s: start,
            requests: window.len(),
            energy_j: result.arbitrated.energy_j(),
            lambda_w: result.plan.lambda_w,
        });
        wi = we;
    }

    BurstReport {
        requests: requests.len(),
        windows,
        energy_j,
        static_best_j,
        race_to_halt_j,
        deadline_misses: misses,
        mean_latency_s: latency_sum / requests.len() as f64,
        max_latency_s: latency_max,
        makespan_s: clock_s,
        stream_digest: stream_digest(&requests),
        digest: digest.finish(),
    }
}

/// Tenants: one job per class sharing the device — the acceptance
/// measurement.
fn run_tenants(
    model: &EnergyModel,
    cfg: &StreamConfig,
    candidates: &[Setting],
    classes: &[ClassPlan],
    t_ref: f64,
) -> TenantReport {
    let jobs: Vec<ArbiterJob> = classes
        .iter()
        .enumerate()
        .map(|(ci, cp)| ArbiterJob {
            id: ci,
            tasks: cp.tasks.clone(),
            deadline_s: cfg.deadline_slack * (cp.service_s + classes.len() as f64 * t_ref),
        })
        .collect();
    let arbiter = DeviceArbiter::new(model, candidates.to_vec(), cfg.seed ^ 0x7E4A27, None);
    let result = arbiter.run(&jobs);

    let mut digest = Fnv1a::new();
    for run in [&result.arbitrated, &result.static_best, &result.race_to_halt] {
        digest.word(run.energy_j().to_bits());
        for o in &run.outcomes {
            digest.word(o.completion_s.to_bits());
        }
    }
    TenantReport {
        tenants: jobs.len(),
        order: result.order_name,
        lambda_w: result.plan.lambda_w,
        feasible: result.plan.feasible,
        arbitrated_j: result.arbitrated.energy_j(),
        static_best_j: result.static_best.energy_j(),
        race_to_halt_j: result.race_to_halt.energy_j(),
        deadline_misses: result.arbitrated.misses(),
        digest: digest.finish(),
    }
}
