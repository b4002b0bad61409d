//! stream-drift: one long-lived n = 65536 `DynamicOctree`; each request
//! advances the particles one gentle-drift step and evaluates.

use crate::gen::{self, LEAF_Q, SURFACE_P};
use crate::trace::Tracer;
use crate::{sequential_window, Checked, PhaseSpans, Window, Workload};
use dvfs_stream::{DynamicConfig, DynamicOctree, MotionModel, UpdateOutcome};
use kifmm::evaluator::M2lMethod;
use kifmm::{FmmEvaluator, FmmPlan};
use std::hint::black_box;
use std::time::Instant;

/// Steps whose potentials are checked against a from-scratch plan: the
/// first step, then every `CHECK_EVERY`-th, at most `MAX_CHECKS` of them.
const CHECK_EVERY: u64 = 32;
const MAX_CHECKS: usize = 3;

/// Span names of the evaluation phases inside a step.
pub const STEP_PHASES: [&str; 5] =
    ["stream.up", "stream.v", "stream.x", "stream.down", "stream.near"];

fn config() -> DynamicConfig {
    DynamicConfig { q: LEAF_Q, p: SURFACE_P, method: M2lMethod::Fft, ..DynamicConfig::default() }
}

/// FNV-1a over the potentials' bit patterns.
fn digest(pot: &[f64]) -> u64 {
    pot.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A checked step: positions after the step and the potentials' digest.
struct Sample {
    step: u64,
    positions: Vec<[f64; 3]>,
    digest: u64,
}

/// The stream-drift workload.
pub struct StreamDrift {
    tree: DynamicOctree,
    motion: MotionModel,
    step: u64,
    samples: Vec<Sample>,
}

impl StreamDrift {
    fn step(&mut self, tracer: Option<&mut Tracer>) -> Option<f64> {
        let k = self.step;
        self.step += 1;
        let start = Instant::now();
        let pot = match tracer {
            None => {
                self.tree.advance(&self.motion);
                self.tree.evaluate()
            }
            Some(tr) => {
                let (outcome, pot) = tr.span("stream-drift.request", k, |tr| {
                    let outcome = tr.span("stream.advance", k, |_| self.tree.advance(&self.motion));
                    let pot = tr.span("stream.eval", k, |tr| {
                        let mut obs = PhaseSpans::new(tr, &STEP_PHASES, k);
                        FmmEvaluator::new().evaluate_observed(self.tree.plan(), &mut obs).0
                    });
                    (outcome, pot)
                });
                let (in_place, migrants) = match outcome {
                    UpdateOutcome::InPlace { migrants, .. } => (1.0, migrants),
                    UpdateOutcome::Rebuilt { migrants, .. } => (0.0, migrants),
                };
                tr.count("stream.in_place", k, in_place);
                tr.count("stream.rebuilds", k, 1.0 - in_place);
                tr.count("stream.migrants", k, migrants as f64);
                pot
            }
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if pot.len() != gen::DRIFT_N || !pot.iter().all(|x| x.is_finite()) {
            return None;
        }
        if k.is_multiple_of(CHECK_EVERY) && self.samples.len() < MAX_CHECKS {
            let positions = self.tree.positions().to_vec();
            self.samples.push(Sample { step: k, positions, digest: digest(&pot) });
        }
        Some(ms)
    }
}

impl Workload for StreamDrift {
    fn setup(seed: u64) -> Result<Self, String> {
        let problem = gen::drift_problem(seed);
        let tree = DynamicOctree::new(&problem.points, &problem.densities, config());
        // The first evaluation builds the plan's cached phase schedule.
        black_box(tree.evaluate());
        Ok(StreamDrift { tree, motion: gen::drift_motion(seed), step: 0, samples: Vec::new() })
    }

    fn window(&mut self, seconds: f64, mut tracer: Option<&mut Tracer>) -> Window {
        sequential_window(seconds, || self.step(tracer.as_deref_mut()))
    }

    fn finish(self, _tracer: Option<&mut Tracer>) -> Result<Checked, String> {
        let densities = self.tree.densities();
        let mut failures = 0;
        for s in &self.samples {
            let fresh = FmmPlan::new(&s.positions, densities, LEAF_Q, SURFACE_P, M2lMethod::Fft);
            if digest(&FmmEvaluator::new().evaluate(&fresh)) != s.digest {
                failures += 1;
            }
        }
        let stats = self.tree.stats();
        let steps: Vec<String> = self.samples.iter().map(|s| s.step.to_string()).collect();
        let notes = vec![format!(
            "stream-drift: {} steps ({} in place, {} rebuilds, {} migrants); steps [{}] checked bitwise against a fresh plan, {failures} mismatched",
            stats.steps,
            stats.in_place,
            stats.rebuilds,
            stats.migrants,
            steps.join(", ")
        )];
        Ok(Checked { failures, notes, digest: None })
    }
}
