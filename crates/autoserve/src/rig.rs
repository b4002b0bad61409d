//! A simulated tuning rig: one fitted model plus everything needed to
//! answer requests against it, all owned by one shard.

use crate::request::{DegradeLevel, ModelKey, TuneRequest, TuneResponse, WorkloadSpec};
use compat::error::{PipelineError, PipelineResult};
use compat::rng::StdRng;
use dvfs_energy_model::{
    best_index, conservative_grid, predict_grid, service_grid_for, try_fit_from_sweep, EnergyModel,
};
use dvfs_governor::{plan_phase_settings, race_to_halt_plan, Predictor, TransitionModel};
use dvfs_microbench::SweepConfig;
use kifmm::evaluator::{FmmPlan, M2lMethod};
use kifmm::{profile_plan, CostModel};
use std::sync::Arc;
use tk1_sim::{Device, DeviceSpec, FaultConfig, KernelProfile, Setting, TimingModel};

/// Salt separating the rig's answer-side device from the sweep's
/// measurement devices (which are seeded per setting inside the sweep).
const RIG_DEVICE_SALT: u64 = 0x41D0_5EED;
/// Fault-injector stream for the rig device during calibration.
const RIG_FAULT_STREAM: u64 = 0xD2_17;

/// FMM problem sizes the service lowers; out-of-range requests clamp.
const FMM_N_RANGE: (usize, usize) = (1024, 1 << 16);
/// Leaf sizes (max points per leaf) the service lowers; out-of-range
/// requests clamp.
const FMM_Q_RANGE: (usize, usize) = (2, 12);

/// One fitted rig: the model, the timing ground truth of its device,
/// the calibrated transition costs, and the answer grid.
///
/// Everything a rig computes is a pure function of `(key, request)` —
/// rigs are seeded by their [`ModelKey`], never by the shard that
/// happens to own them, which is why answers are identical across any
/// shard count.
#[derive(Debug, Clone)]
pub struct Rig {
    /// What this rig is cached under.
    pub key: ModelKey,
    /// The fitted energy model.
    pub model: EnergyModel,
    /// Whether the fit went through any degradation fallback.
    pub degraded: bool,
    /// Which rung of the degraded-answer ladder this rig serves from
    /// ([`DegradeLevel::None`] for healthy fits and cache restores;
    /// overridden by the server for stale/sibling fallback rigs).
    pub degrade: DegradeLevel,
    /// Retries the measurement campaign absorbed (0 for rigs restored
    /// from the on-disk cache — the campaign didn't rerun).
    pub sweep_retries: usize,
    timing: TimingModel,
    transitions: TransitionModel,
    grid: Vec<Setting>,
}

impl Rig {
    /// Fits a TK1 rig from scratch — the pre-catalog entry point, kept
    /// for callers that never name a platform.
    pub fn cold_fit(device_seed: u64, faults: Option<FaultConfig>) -> PipelineResult<Rig> {
        Rig::cold_fit_on(&tk1_sim::catalog::tk1(), device_seed, faults)
    }

    /// Fits a rig for one catalog platform from scratch: full
    /// service-preset sweep of that device, NNLS fit, transition
    /// calibration.  This is the expensive path the cache exists to
    /// amortize.
    pub fn cold_fit_on(
        spec: &Arc<DeviceSpec>,
        device_seed: u64,
        faults: Option<FaultConfig>,
    ) -> PipelineResult<Rig> {
        Rig::cold_fit_keyed(spec, device_seed, faults, faults)
    }

    /// Cold fit with the campaign identity and the measurement
    /// environment decoupled: the rig is *keyed* (cache path, digest
    /// identity) by `key_faults`, but the sweep runs under
    /// `sweep_faults`.  The chaos layer uses this to impose a storm —
    /// an environmental amplification of the campaign — without minting
    /// a new model identity.  Everything passes through the service
    /// sanity gate: a fit whose measurements were mostly suspect, or
    /// whose constants are non-finite, is a typed error, not an answer.
    pub fn cold_fit_keyed(
        spec: &Arc<DeviceSpec>,
        device_seed: u64,
        key_faults: Option<FaultConfig>,
        sweep_faults: Option<FaultConfig>,
    ) -> PipelineResult<Rig> {
        let fit =
            try_fit_from_sweep(&SweepConfig::service_preset_on(spec, device_seed, sweep_faults))?;
        // Sanity gate 1: a campaign that kept mostly-suspect
        // measurements (a meter outage rode through the retry ladder)
        // must not serve as a model.  The threshold is on *counts*, so
        // the verdict is deterministic regardless of fit numerics.
        let samples = fit.dataset.len();
        if samples == 0 || fit.sweep_stats.suspect_kept * 2 > samples {
            return Err(PipelineError::RetryExhausted {
                context: format!(
                    "service sanity gate: {}/{} samples kept as suspect on {}",
                    fit.sweep_stats.suspect_kept, samples, spec.id
                ),
                attempts: fit.sweep_stats.measurement_retries,
                last_fault: "suspect-majority campaign".to_string(),
            });
        }
        // Sanity gate 2: non-finite constants can never predict.
        let finite = fit.model.c0_pj_per_v2.iter().all(|c| c.is_finite())
            && fit.model.c1_proc_w_per_v.is_finite()
            && fit.model.c1_mem_w_per_v.is_finite()
            && fit.model.p_misc_w.is_finite();
        if !finite {
            return Err(PipelineError::Numeric {
                routine: "service sanity gate".to_string(),
                detail: format!("non-finite model constants fitted on {}", spec.id),
            });
        }
        Ok(Rig::assemble(
            spec,
            device_seed,
            key_faults,
            fit.model,
            fit.diagnostics.degraded(),
            fit.sweep_stats.total_retries(),
        ))
    }

    /// Rebuilds a rig around an already-fitted model (the on-disk cache
    /// path).  Timing and transition calibration are pure functions of
    /// `(spec, device seed)` (idle power is a pure function of the
    /// setting, even under latch faults), so a restored rig answers
    /// bitwise identically to the rig that persisted the model.
    pub fn from_cached_model(
        spec: &Arc<DeviceSpec>,
        device_seed: u64,
        faults: Option<FaultConfig>,
        model: EnergyModel,
        degraded: bool,
    ) -> Rig {
        Rig::assemble(spec, device_seed, faults, model, degraded, 0)
    }

    fn assemble(
        spec: &Arc<DeviceSpec>,
        device_seed: u64,
        faults: Option<FaultConfig>,
        model: EnergyModel,
        degraded: bool,
        sweep_retries: usize,
    ) -> Rig {
        let mut device = Device::from_spec(spec, device_seed ^ RIG_DEVICE_SALT);
        if let Some(f) = &faults {
            device.set_fault_injector(Some(f.injector(device_seed ^ RIG_FAULT_STREAM)));
        }
        let transitions = TransitionModel::calibrate(&mut device);
        Rig {
            key: ModelKey::new(spec.id, device_seed, faults.as_ref()),
            model,
            degraded,
            degrade: DegradeLevel::None,
            sweep_retries,
            timing: device.timing_model().clone(),
            transitions,
            grid: service_grid_for(spec),
        }
    }

    /// Answers one request: grid estimates, the argmin, and (when
    /// requested) a phase plan.  Pure in `(self, req, lowering)` —
    /// `cache_hit` is left `false` for the server to stamp.
    pub fn answer(&self, req: &TuneRequest, lowered: &mut LowerCache) -> TuneResponse {
        let kernels = lowered.kernels(&req.workload);
        let grid = predict_grid(&self.model, &self.timing, &kernels, &self.grid);
        let best = best_index(&grid).map(|i| grid[i]).expect("service grid is non-empty");
        let plan = (req.plan_rounds > 0).then(|| {
            let predictor = Predictor {
                model: &self.model,
                timing: &self.timing,
                transitions: &self.transitions,
            };
            plan_phase_settings(
                &predictor,
                &self.grid,
                self.timing.device().max_performance(),
                &kernels,
                req.plan_rounds,
            )
        });
        TuneResponse {
            best,
            grid,
            plan,
            degraded: self.degraded,
            degrade: self.degrade,
            cache_hit: false,
        }
    }
}

/// The bottom rung of the degraded-answer ladder: no model at all.
///
/// When every model source is gone (fit stormed out, no stale cache, no
/// sibling), the service still answers — with the conservative
/// race-to-halt policy the energy literature falls back on: run
/// everything at max performance and bound energy by the meter's full
/// scale (`time × P_ceiling`).  Times come from the device's timing
/// ground truth (which needs no fitted constants), so the answer is
/// pessimistic in energy but honest in time, and pure in
/// `(spec, device_seed, request)` — chaos soaks digest it identically
/// at any shard count.
pub fn race_to_halt_answer(
    spec: &Arc<DeviceSpec>,
    device_seed: u64,
    req: &TuneRequest,
    lowered: &mut LowerCache,
) -> TuneResponse {
    let device = Device::from_spec(spec, device_seed ^ RIG_DEVICE_SALT);
    let timing = device.timing_model();
    let kernels = lowered.kernels(&req.workload);
    let grid_settings = service_grid_for(spec);
    let p_ceiling = spec.meter_full_scale_w;
    let grid = conservative_grid(timing, &kernels, &grid_settings, p_ceiling);
    let max = spec.max_performance();
    // Race to halt *is* the policy: the max-performance point, which
    // the service grid always contains (it keeps both corners).
    let best = grid
        .iter()
        .find(|p| p.setting == max)
        .or_else(|| best_index(&grid).map(|i| &grid[i]))
        .copied()
        .expect("service grid is non-empty");
    let plan = (req.plan_rounds > 0)
        .then(|| race_to_halt_plan(timing, &kernels, req.plan_rounds, p_ceiling));
    TuneResponse {
        best,
        grid,
        plan,
        degraded: true,
        degrade: DegradeLevel::RaceToHalt,
        cache_hit: false,
    }
}

/// Per-shard cache of lowered FMM workloads: building an octree plan
/// and profiling it costs far more than the grid evaluation, and load
/// mixes repeat the same few problem specs.
#[derive(Debug)]
pub struct LowerCache {
    capacity: usize,
    entries: Vec<((usize, usize, u64), Vec<KernelProfile>)>,
}

impl LowerCache {
    /// Creates a cache holding at most `capacity` lowered problems.
    pub fn new(capacity: usize) -> LowerCache {
        LowerCache { capacity: capacity.max(1), entries: Vec::new() }
    }

    /// The kernel sequence of `workload`, lowering (and caching) FMM
    /// specs on first sight.
    pub fn kernels(&mut self, workload: &WorkloadSpec) -> Vec<KernelProfile> {
        match workload {
            WorkloadSpec::Kernel { ops, utilization, launches } => {
                // Clamp instead of panicking: a server must answer (or
                // reject) malformed requests, never die on one.
                let utilization = if utilization.is_finite() && *utilization > 0.0 {
                    utilization.min(1.0)
                } else {
                    1.0
                };
                vec![KernelProfile::new("request", *ops)
                    .with_utilization(utilization)
                    .with_launches((*launches).max(1))]
            }
            WorkloadSpec::Fmm { n, q, seed } => {
                let n = (*n).clamp(FMM_N_RANGE.0, FMM_N_RANGE.1);
                let q = (*q).clamp(FMM_Q_RANGE.0, FMM_Q_RANGE.1);
                let key = (n, q, *seed);
                if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
                    // LRU bump.
                    let hit = self.entries.remove(pos);
                    self.entries.push(hit);
                    return self.entries.last().expect("just pushed").1.clone();
                }
                let kernels = lower_fmm(n, q, *seed);
                if self.entries.len() >= self.capacity {
                    self.entries.remove(0);
                }
                self.entries.push((key, kernels.clone()));
                kernels
            }
        }
    }
}

/// Lowers an FMM problem spec to its phase kernels through the plan →
/// profile counters path, with the same synthetic point distribution
/// the bench pipeline uses.
fn lower_fmm(n: usize, q: usize, seed: u64) -> Vec<KernelProfile> {
    let mut rng = StdRng::seed_from_u64(seed ^ (n as u64).rotate_left(13) ^ q as u64);
    let pts: Vec<[f64; 3]> = (0..n).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
    let den: Vec<f64> = (0..n).map(|_| 2.0 * rng.random::<f64>() - 1.0).collect();
    let plan = FmmPlan::new(&pts, &den, q, 4, M2lMethod::Fft);
    profile_plan(&plan, &CostModel::default()).kernels()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tk1_sim::{OpClass, OpVector};

    fn kernel_request(device_seed: u64) -> TuneRequest {
        TuneRequest {
            device_id: "tk1",
            device_seed,
            workload: WorkloadSpec::Kernel {
                ops: OpVector::from_pairs(&[(OpClass::FlopSp, 5e8), (OpClass::Dram, 1e7)]),
                utilization: 0.8,
                launches: 2,
            },
            plan_rounds: 0,
        }
    }

    #[test]
    fn cold_fit_is_deterministic_and_clean_without_faults() {
        let a = Rig::cold_fit(99, None).expect("clean fit");
        let b = Rig::cold_fit(99, None).expect("clean fit");
        assert_eq!(a.model, b.model);
        assert!(!a.degraded);
        assert_eq!(a.sweep_retries, 0);
    }

    #[test]
    fn restored_rig_answers_bitwise_identically() {
        let cold = Rig::cold_fit(7, None).expect("clean fit");
        let restored = Rig::from_cached_model(
            &tk1_sim::catalog::tk1(),
            7,
            None,
            cold.model.clone(),
            cold.degraded,
        );
        let req = kernel_request(7);
        let mut lc = LowerCache::new(4);
        let a = cold.answer(&req, &mut lc);
        let b = restored.answer(&req, &mut lc);
        assert_eq!(a.digest(), b.digest());
        for (x, y) in a.grid.iter().zip(&b.grid) {
            assert_eq!(x.energy_j.to_bits(), y.energy_j.to_bits());
            assert_eq!(x.time_s.to_bits(), y.time_s.to_bits());
        }
    }

    #[test]
    fn plan_requests_get_plans_sized_to_the_workload() {
        let rig = Rig::cold_fit(3, None).expect("clean fit");
        let mut lc = LowerCache::new(4);
        let req = TuneRequest {
            workload: WorkloadSpec::Fmm { n: 1500, q: 4, seed: 5 },
            plan_rounds: 2,
            ..kernel_request(3)
        };
        let resp = rig.answer(&req, &mut lc);
        let plan = resp.plan.expect("plan_rounds > 0 yields a plan");
        let phase_count = lc.kernels(&req.workload).len();
        assert_eq!(plan.settings.len(), phase_count * 2);
        assert!(plan.predicted_total_j > 0.0);
    }

    #[test]
    fn plan_requests_answer_on_every_catalog_device() {
        // Regression: the planner's energy predictor used to resolve
        // settings through the TK1-global tables, which panicked with
        // an out-of-range core index on any platform with a larger
        // grid (e.g. the 17-point mi300x) the moment a plan-carrying
        // request arrived.
        for spec in tk1_sim::catalog::catalog() {
            let rig = Rig::cold_fit_on(spec, 11, None).expect("clean fit");
            let mut lc = LowerCache::new(4);
            let req = TuneRequest {
                device_id: spec.id,
                device_seed: 11,
                workload: WorkloadSpec::Fmm { n: 1500, q: 4, seed: 5 },
                plan_rounds: 2,
            };
            let resp = rig.answer(&req, &mut lc);
            assert_eq!(resp.grid.len(), service_grid_for(spec).len(), "{}", spec.id);
            let plan = resp.plan.expect("plan_rounds > 0 yields a plan");
            assert!(plan.predicted_total_j > 0.0, "{}", spec.id);
            for s in &plan.settings {
                assert!(
                    s.core_idx < spec.n_core() && s.mem_idx < spec.n_mem(),
                    "{}: plan setting off the device grid",
                    spec.id
                );
            }
        }
    }

    #[test]
    fn hostile_kernel_specs_are_clamped_not_fatal() {
        let rig = Rig::cold_fit(1, None).expect("clean fit");
        let mut lc = LowerCache::new(4);
        for (util, launches) in
            [(f64::NAN, 0u32), (0.0, 1), (-3.0, 7), (f64::INFINITY, 2), (2.5, 0)]
        {
            let req = TuneRequest {
                device_id: "tk1",
                device_seed: 1,
                workload: WorkloadSpec::Kernel {
                    ops: OpVector::from_pairs(&[(OpClass::FlopSp, 1e8)]),
                    utilization: util,
                    launches,
                },
                plan_rounds: 0,
            };
            let resp = rig.answer(&req, &mut lc);
            assert!(resp.best.energy_j.is_finite() && resp.best.energy_j > 0.0);
        }
    }

    #[test]
    fn fmm_lowering_is_cached_and_clamped() {
        let mut lc = LowerCache::new(2);
        let tiny = WorkloadSpec::Fmm { n: 1, q: 0, seed: 1 };
        let clamped = WorkloadSpec::Fmm { n: FMM_N_RANGE.0, q: FMM_Q_RANGE.0, seed: 1 };
        let a = lc.kernels(&tiny);
        assert_eq!(lc.entries.len(), 1, "clamped spec shares the cache slot");
        let b = lc.kernels(&clamped);
        assert_eq!(lc.entries.len(), 1);
        assert_eq!(a.len(), b.len());
        // Eviction keeps the cache bounded.
        lc.kernels(&WorkloadSpec::Fmm { n: 2000, q: 4, seed: 2 });
        lc.kernels(&WorkloadSpec::Fmm { n: 3000, q: 4, seed: 3 });
        assert_eq!(lc.entries.len(), 2);
    }
}
