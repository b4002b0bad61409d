//! The governor runtime: latch → execute → measure → feed back.
//!
//! [`GovernorRuntime`] owns the simulated device, the power meter and
//! the calibrated [`TransitionModel`].  For each phase it consults the
//! policy, latches the chosen operating point with bounded
//! verify-and-retry (every attempt pays its transition cost — a stuck
//! latch burns latency *and* another retry), executes and measures the
//! phase kernel, and reports the measurement back to the policy.
//!
//! Every joule is accounted: a run's total energy is the sum of the
//! measured phase energies plus all transition energy, so a policy
//! that switches at every boundary pays for it visibly.
//!
//! Determinism: decisions are pure functions of the seeds, the phase
//! profiles and the roofline timing model; no wall-clock time enters.
//! Two runs with the same seed, workload and policy are bitwise
//! identical, independent of the thread count.

use crate::policy::{PhaseContext, PhaseFeedback, Policy, Predictor, RunContext};
use crate::transition::{latch_with_retry, TransitionCost, TransitionModel};
use dvfs_energy_model::EnergyModel;
use kifmm::{FmmProfile, Phase};
use powermon_sim::PowerMon;
use tk1_sim::timing::TimingModel;
use tk1_sim::{Device, FaultConfig, KernelProfile, Setting};

/// One phase of the workload: which FMM phase and its kernel descriptor.
#[derive(Debug, Clone)]
pub struct PhaseTask {
    /// The FMM phase.
    pub phase: Phase,
    /// The phase's executable kernel profile.
    pub kernel: KernelProfile,
}

/// A governor workload: a phase sequence repeated for some rounds.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The phase sequence of one round.
    pub tasks: Vec<PhaseTask>,
    /// How many times the sequence repeats (a time-stepped FMM runs the
    /// same evaluation once per step — rounds model that, and give the
    /// adaptive policy measurements to learn from).
    pub rounds: usize,
}

impl Workload {
    /// Builds the six-phase workload of one FMM input from its profile.
    pub fn from_profile(profile: &FmmProfile, rounds: usize) -> Self {
        let tag = format!("N{}-Q{}", profile.n, profile.q);
        let tasks = profile
            .phases
            .iter()
            .map(|p| PhaseTask { phase: p.phase, kernel: p.kernel_profile(&tag) })
            .collect();
        Workload { tasks, rounds: rounds.max(1) }
    }
}

/// What happened to one phase execution.
#[derive(Debug, Clone, Copy)]
pub struct PhaseRecord {
    /// The round this record belongs to.
    pub round: usize,
    /// The phase.
    pub phase: Phase,
    /// What the policy asked for.
    pub requested: Setting,
    /// What actually latched.
    pub applied: Setting,
    /// Model-predicted energy at the applied setting, J.
    pub predicted_j: f64,
    /// Measured energy, J.
    pub measured_j: f64,
    /// Measured duration, s.
    pub time_s: f64,
    /// Accumulated transition cost of all latch attempts at this
    /// boundary.
    pub transition: TransitionCost,
    /// Latch retries beyond the first attempt (fault episodes).
    pub latch_retries: u32,
}

/// The full accounting of one governor run.
#[derive(Debug, Clone)]
pub struct GovernorReport {
    /// The policy's [`Policy::name`].
    pub policy: &'static str,
    /// Per-phase records, in execution order.
    pub records: Vec<PhaseRecord>,
    /// Σ measured phase time + Σ transition latency, s.
    pub total_time_s: f64,
    /// Σ measured phase energy + Σ transition energy, J.
    pub total_energy_j: f64,
    /// Σ transition energy alone, J.
    pub transition_energy_j: f64,
    /// Σ transition latency alone, s.
    pub transition_time_s: f64,
    /// Phase boundaries at which the operating point actually moved.
    pub switches: usize,
    /// Total latch retries across the run (fault episodes survived).
    pub latch_retries: u32,
}

impl GovernorReport {
    fn new(policy: &'static str) -> Self {
        GovernorReport {
            policy,
            records: Vec::new(),
            total_time_s: 0.0,
            total_energy_j: 0.0,
            transition_energy_j: 0.0,
            transition_time_s: 0.0,
            switches: 0,
            latch_retries: 0,
        }
    }

    /// Σ measured phase energy without transition energy, J.
    pub fn phase_energy_j(&self) -> f64 {
        self.total_energy_j - self.transition_energy_j
    }
}

/// A selected-but-not-yet-executed phase (between
/// [`GovernorRuntime::begin_phase`] and
/// [`GovernorRuntime::finish_phase`] — the two halves the FMM
/// phase-boundary hooks call from `on_phase_start`/`on_phase_end`).
#[derive(Debug, Clone, Copy)]
pub struct PendingPhase {
    requested: Setting,
    switched_from: Setting,
    transition: TransitionCost,
    latch_retries: u32,
}

/// Latch attempts per phase boundary before accepting whatever stuck.
const MAX_LATCH_ATTEMPTS: u32 = 16;

/// The online governor runtime over one simulated device + meter.
pub struct GovernorRuntime {
    device: Device,
    meter: PowerMon,
    timing: TimingModel,
    transitions: TransitionModel,
    model: EnergyModel,
    candidates: Vec<Setting>,
}

impl GovernorRuntime {
    /// Builds a runtime: a fresh device and meter seeded from `seed`,
    /// fault injectors attached per `faults` (streams are private to
    /// the governor, so a governor run never perturbs another
    /// subsystem's fault draws), and the transition model calibrated
    /// *under those faults* — the calibration pass itself must survive
    /// latch failures.
    ///
    /// Compare policies by building one runtime per policy with the
    /// same seed: each policy then sees an identical device, meter and
    /// fault sequence.
    pub fn new(
        model: EnergyModel,
        candidates: Vec<Setting>,
        seed: u64,
        faults: Option<&FaultConfig>,
    ) -> Self {
        let mut device = Device::new(seed ^ 0x60BE_12D0);
        let mut meter = PowerMon::new(seed ^ 0x90E7_A11E);
        if let Some(cfg) = faults {
            device.set_fault_injector(Some(cfg.injector(0xD0_17)));
            meter.set_fault_injector(Some(cfg.injector(0xD1_17)));
        }
        let timing = device.timing_model().clone();
        let transitions = TransitionModel::calibrate(&mut device);
        GovernorRuntime { device, meter, timing, transitions, model, candidates }
    }

    /// The simulated device (e.g. to snapshot ground truth for
    /// [`crate::Oracle`]).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The calibrated transition model.
    pub fn transitions(&self) -> &TransitionModel {
        &self.transitions
    }

    /// The candidate settings.
    pub fn candidates(&self) -> &[Setting] {
        &self.candidates
    }

    fn predictor(&self) -> Predictor<'_> {
        Predictor { model: &self.model, timing: &self.timing, transitions: &self.transitions }
    }

    /// Starts a run: resets the device to the boot operating point
    /// (max performance, latched with uncharged retry — boot state is
    /// not part of the run) and gives the policy its whole-run view.
    pub fn start_run(
        &mut self,
        tasks: &[PhaseTask],
        rounds: usize,
        policy: &mut dyn Policy,
    ) -> GovernorReport {
        let max_perf = self.device.spec().max_performance();
        latch_with_retry(&mut self.device, max_perf, 64);
        let run = RunContext {
            tasks,
            rounds,
            candidates: &self.candidates,
            start: self.device.operating_point(),
            predictor: self.predictor(),
        };
        policy.begin(&run);
        GovernorReport::new(policy.name())
    }

    /// First half of a phase: consult the policy and latch its pick
    /// (bounded verify-and-retry; every attempt pays transition cost).
    pub fn begin_phase(
        &mut self,
        task: &PhaseTask,
        round: usize,
        phase_idx: usize,
        policy: &mut dyn Policy,
    ) -> PendingPhase {
        let current = self.device.operating_point();
        let ctx = PhaseContext {
            phase: task.phase,
            phase_idx,
            round,
            kernel: &task.kernel,
            current,
            candidates: &self.candidates,
            predictor: Predictor {
                model: &self.model,
                timing: &self.timing,
                transitions: &self.transitions,
            },
        };
        let requested = policy.select(&ctx);
        let mut transition = TransitionCost::ZERO;
        let mut attempts = 0;
        while self.device.operating_point() != requested && attempts < MAX_LATCH_ATTEMPTS {
            let from = self.device.operating_point();
            self.device.set_operating_point(requested);
            attempts += 1;
            // Each attempt pays the latch latency for the domains it
            // tried to move — a stuck write still stalls the pipeline.
            transition.accumulate(self.transitions.cost(from, requested));
        }
        PendingPhase {
            requested,
            switched_from: current,
            transition,
            latch_retries: attempts.saturating_sub(1),
        }
    }

    /// Second half of a phase: execute + measure the kernel, feed the
    /// measurement back to the policy, and account the record.
    pub fn finish_phase(
        &mut self,
        task: &PhaseTask,
        round: usize,
        phase_idx: usize,
        pending: PendingPhase,
        policy: &mut dyn Policy,
        report: &mut GovernorReport,
    ) {
        let applied = self.device.operating_point();
        let m = self.meter.measure(&mut self.device, &task.kernel);
        let predicted_j = self.predictor().phase_energy_j(&task.kernel, applied);
        let fb = PhaseFeedback {
            phase_idx,
            requested: pending.requested,
            applied,
            predicted_j,
            measured_j: m.measured_energy_j,
            measured_s: m.measured_duration_s,
        };
        policy.observe(&fb);
        report.records.push(PhaseRecord {
            round,
            phase: task.phase,
            requested: pending.requested,
            applied,
            predicted_j,
            measured_j: m.measured_energy_j,
            time_s: m.measured_duration_s,
            transition: pending.transition,
            latch_retries: pending.latch_retries,
        });
        report.total_time_s += m.measured_duration_s + pending.transition.latency_s;
        report.total_energy_j += m.measured_energy_j + pending.transition.energy_j;
        report.transition_energy_j += pending.transition.energy_j;
        report.transition_time_s += pending.transition.latency_s;
        report.latch_retries += pending.latch_retries;
        if applied != pending.switched_from {
            report.switches += 1;
        }
    }

    /// Runs `workload` under `policy` end to end.
    pub fn run(&mut self, workload: &Workload, policy: &mut dyn Policy) -> GovernorReport {
        let mut report = self.start_run(&workload.tasks, workload.rounds, policy);
        for round in 0..workload.rounds {
            for (pi, task) in workload.tasks.iter().enumerate() {
                let pending = self.begin_phase(task, round, pi, policy);
                self.finish_phase(task, round, pi, pending, policy, &mut report);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{
        FixedSetting, OnDemand, PerPhaseAdaptive, PerPhaseModel, RaceToHalt, StaticBest,
    };
    use dvfs_energy_model::model::EnergyModel;
    use tk1_sim::{OpClass, OpVector};

    /// A plausibly-close hand-written model (the real pipeline fits one
    /// from sweeps; unit tests only need sane relative ordering).
    fn test_model() -> EnergyModel {
        EnergyModel {
            c0_pj_per_v2: [27.0, 131.0, 56.0, 33.0, 33.0, 85.0, 370.0],
            c1_proc_w_per_v: 2.7,
            c1_mem_w_per_v: 3.9,
            p_misc_w: 0.13,
        }
    }

    fn test_workload() -> Workload {
        let flops = OpVector::from_pairs(&[(OpClass::FlopSp, 6.0e8), (OpClass::L1, 1.0e7)]);
        let mem = OpVector::from_pairs(&[(OpClass::Dram, 4.0e7), (OpClass::FlopSp, 1.0e7)]);
        Workload {
            tasks: vec![
                PhaseTask {
                    phase: Phase::Up,
                    kernel: KernelProfile::new("gov-up", flops.clone()).with_utilization(0.3),
                },
                PhaseTask {
                    phase: Phase::V,
                    kernel: KernelProfile::new("gov-v", mem).with_utilization(0.35),
                },
                PhaseTask {
                    phase: Phase::U,
                    kernel: KernelProfile::new("gov-u", flops).with_utilization(0.25),
                },
            ],
            rounds: 3,
        }
    }

    fn candidates() -> Vec<Setting> {
        vec![
            Setting::max_performance(),
            Setting::new(14, 2),
            Setting::new(8, 4),
            Setting::new(4, 4),
            Setting::new(10, 6),
        ]
    }

    #[test]
    fn runs_are_bitwise_reproducible() {
        let wl = test_workload();
        for threads in [1usize, 2, 4, 8] {
            compat::par::set_thread_count(Some(threads));
            let mut rt = GovernorRuntime::new(test_model(), candidates(), 42, None);
            let mut policy = PerPhaseModel::new();
            let a = rt.run(&wl, &mut policy);
            let mut rt2 = GovernorRuntime::new(test_model(), candidates(), 42, None);
            let mut policy2 = PerPhaseModel::new();
            let b = rt2.run(&wl, &mut policy2);
            assert_eq!(a.total_energy_j.to_bits(), b.total_energy_j.to_bits());
            assert_eq!(a.total_time_s.to_bits(), b.total_time_s.to_bits());
            assert_eq!(a.switches, b.switches);
        }
        compat::par::set_thread_count(None);
    }

    #[test]
    fn every_policy_completes_and_accounts_transitions() {
        let wl = test_workload();
        let mk = || GovernorRuntime::new(test_model(), candidates(), 7, None);
        let mut policies: Vec<Box<dyn Policy>> = vec![
            Box::new(FixedSetting(Setting::new(8, 4))),
            Box::new(StaticBest::new()),
            Box::new(RaceToHalt),
            Box::new(OnDemand { threshold: 0.95 }),
            Box::new(PerPhaseModel::new()),
            Box::new(PerPhaseAdaptive::new(0.5, 0.03)),
        ];
        for p in policies.iter_mut() {
            let mut rt = mk();
            let report = rt.run(&wl, p.as_mut());
            assert_eq!(report.records.len(), wl.tasks.len() * wl.rounds);
            assert!(report.total_energy_j > 0.0 && report.total_time_s > 0.0);
            assert!(report.phase_energy_j() <= report.total_energy_j);
            let rec_transition: f64 = report.records.iter().map(|r| r.transition.energy_j).sum();
            assert!((rec_transition - report.transition_energy_j).abs() < 1e-12);
        }
    }

    /// A `U`-phase task running the given operation counts.
    fn task(name: &str, pairs: &[(OpClass, f64)]) -> PhaseTask {
        PhaseTask { phase: Phase::U, kernel: KernelProfile::new(name, OpVector::from_pairs(pairs)) }
    }

    #[test]
    fn ondemand_saves_energy_at_little_time_and_powersave_does_not() {
        let wl = Workload {
            tasks: vec![
                task("compute", &[(OpClass::FlopSp, 2e10), (OpClass::Dram, 1e6)]),
                task("stream", &[(OpClass::FlopSp, 1e6), (OpClass::Dram, 5e8)]),
            ],
            rounds: 1,
        };
        let run = |policy: &mut dyn Policy| {
            GovernorRuntime::new(test_model(), Setting::all().collect(), 1, None).run(&wl, policy)
        };
        let fast = run(&mut RaceToHalt);
        let ondemand = run(&mut OnDemand { threshold: 0.95 });
        assert!(
            ondemand.total_time_s <= fast.total_time_s * 1.10,
            "throttling the idle domain costs little time: {} vs {}",
            ondemand.total_time_s,
            fast.total_time_s
        );
        assert!(ondemand.total_energy_j < fast.total_energy_j, "and saves energy");
        let slow = run(&mut FixedSetting(Setting::new(0, 0)));
        // Powersave lowers average power, but the crawl stretches
        // constant energy so far that total energy is worse.
        assert!(slow.total_energy_j / slow.total_time_s < fast.total_energy_j / fast.total_time_s);
        assert!(slow.total_energy_j > fast.total_energy_j);
    }

    #[test]
    fn model_based_policy_wins_on_energy() {
        let compute = [(OpClass::FlopSp, 2e10), (OpClass::Dram, 1e6)];
        let wl = Workload {
            tasks: vec![
                task("compute", &compute),
                task("stream", &[(OpClass::FlopSp, 1e6), (OpClass::Dram, 5e8)]),
                task("compute", &compute),
            ],
            rounds: 1,
        };
        // The model holds the device's own constants, so only the
        // activity nonlinearity and thermal feedback it does not model
        // separate its predictions from the measurements.
        let mk =
            |model: EnergyModel| GovernorRuntime::new(model, Setting::all().collect(), 3, None);
        let t = mk(test_model()).device().ground_truth().clone();
        let model = EnergyModel {
            c0_pj_per_v2: t.c0_pj_per_v2,
            c1_proc_w_per_v: t.c1_proc_w_per_v,
            c1_mem_w_per_v: t.c1_mem_w_per_v,
            p_misc_w: t.p_misc_w,
        };
        let run = |policy: &mut dyn Policy| mk(model.clone()).run(&wl, policy);
        let chosen = run(&mut PerPhaseModel::new());
        let others: [&mut dyn Policy; 3] = [
            &mut RaceToHalt,
            &mut FixedSetting(Setting::new(0, 0)),
            &mut OnDemand { threshold: 0.95 },
        ];
        for other in others {
            let other = run(other);
            assert!(
                chosen.total_energy_j <= other.total_energy_j * 1.001,
                "model-based {} J vs {} {} J",
                chosen.total_energy_j,
                other.policy,
                other.total_energy_j
            );
        }
    }

    #[test]
    fn fixed_policy_never_switches_after_the_first_latch() {
        let wl = test_workload();
        let mut rt = GovernorRuntime::new(test_model(), candidates(), 9, None);
        let mut policy = FixedSetting(Setting::new(8, 4));
        let report = rt.run(&wl, &mut policy);
        assert_eq!(report.switches, 1, "one switch from boot, then pinned");
        for r in &report.records {
            assert_eq!(r.applied, Setting::new(8, 4));
        }
    }

    #[test]
    fn latch_faults_are_survived_and_reported() {
        let wl = test_workload();
        let faults = FaultConfig::default_campaign();
        let mut rt = GovernorRuntime::new(test_model(), candidates(), 1234, Some(&faults));
        let mut policy = PerPhaseModel::new();
        let report = rt.run(&wl, &mut policy);
        assert_eq!(report.records.len(), wl.tasks.len() * wl.rounds);
        // Under the default 4%/2% latch-fault rates a full run's latch
        // traffic (calibration happened before the report) still ends
        // with every record executed at its requested point.
        for r in &report.records {
            assert_eq!(r.applied, r.requested, "verify-and-retry converged");
        }
    }

    #[test]
    fn adaptive_bias_tracks_measured_over_predicted() {
        let wl = test_workload();
        let mut rt = GovernorRuntime::new(test_model(), candidates(), 5, None);
        let mut policy = PerPhaseAdaptive::new(0.5, 0.03);
        let report = rt.run(&wl, &mut policy);
        for pi in 0..wl.tasks.len() {
            let b = policy.bias(pi);
            assert!(b > 0.25 && b < 4.0, "bias stays in band: {b}");
            // The hand-written test model is deliberately imperfect, so
            // feedback must have moved the bias off its 1.0 prior.
            assert!((b - 1.0).abs() > 1e-6, "phase {pi} bias updated: {b}");
        }
        assert!(report.latch_retries == 0, "no faults configured");
    }
}
