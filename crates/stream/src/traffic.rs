//! Seeded open-loop request traffic: mixed sizes, bursts, deadlines.
//!
//! The generator models the arrival side of a shared FMM device: an
//! open-loop stream (arrivals do not wait for completions) of requests
//! drawn from a small set of problem-size classes, with every
//! `burst_period`-th arrival event dilated into a burst of simultaneous
//! requests — the bursty mixed-size traffic the arbitration suite is
//! measured under.
//!
//! Like the fault injector (`tk1_sim::faults`), the generator keeps no
//! RNG state: every field of request `k` is a [`compat::hash::keyed`]
//! hash of `(seed, salt, k)`.  The stream is therefore a pure function
//! of its config — bitwise identical at any thread count, and any
//! request can be re-derived in isolation — which is what lets the
//! bench digest a whole scenario and compare it across 1/2/4/8 threads.

use compat::hash::{keyed, unit_f64, Fnv1a};

// Hash channels, one per decision kind.
const SALT_GAP: u64 = 11;
const SALT_CLASS: u64 = 12;

/// One problem-size class in the traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct ClassMix {
    /// Display name ("small", "large", ...).
    pub name: &'static str,
    /// Relative draw weight (need not be normalized).
    pub weight: f64,
    /// Relative deadline: a request of this class must complete within
    /// this many seconds of its arrival.
    pub deadline_s: f64,
}

/// Generator knobs.  See [`crate::StreamConfig`] for the env-variable
/// override grammar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Master seed for every hash draw.
    pub seed: u64,
    /// Mean of the exponential inter-arrival gap, seconds.
    pub mean_gap_s: f64,
    /// Every `burst_period`-th arrival event is a burst (0 or 1
    /// disables bursts in the sense that every event is its own
    /// "burst" of one).
    pub burst_period: usize,
    /// Requests arriving simultaneously in a burst event.
    pub burst_size: usize,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig { seed: 0xB00C_57E4, mean_gap_s: 2.0, burst_period: 5, burst_size: 3 }
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamRequest {
    /// Position in the stream (0-based).
    pub id: usize,
    /// Index into the [`ClassMix`] slice the stream was drawn from.
    pub class: usize,
    /// Absolute arrival time, seconds from stream start.
    pub arrival_s: f64,
    /// Absolute completion deadline (`arrival_s` + the class's relative
    /// deadline), seconds from stream start.
    pub deadline_s: f64,
}

impl TrafficConfig {
    /// A uniform draw in `[0, 1)` keyed by `(salt, k)`.
    fn unit(&self, salt: u64, k: u64) -> f64 {
        unit_f64(keyed(self.seed, salt, k))
    }

    /// Generates the first `count` requests of the stream.
    ///
    /// Arrival events are separated by exponential gaps (inverse-CDF of
    /// a unit hash, mean [`TrafficConfig::mean_gap_s`]); every
    /// `burst_period`-th event emits [`TrafficConfig::burst_size`]
    /// simultaneous requests.  Classes are drawn per request by
    /// weighted hash.  Arrivals are non-decreasing by construction.
    ///
    /// # Panics
    /// Panics if `classes` is empty or all weights are non-positive.
    pub fn generate(&self, classes: &[ClassMix], count: usize) -> Vec<StreamRequest> {
        assert!(!classes.is_empty(), "traffic needs at least one class");
        let total_w: f64 = classes.iter().map(|c| c.weight.max(0.0)).sum();
        assert!(total_w > 0.0, "traffic needs a positive class weight");

        let mut requests = Vec::with_capacity(count);
        let mut clock_s = 0.0f64;
        let mut event = 0u64;
        while requests.len() < count {
            event += 1;
            // Exponential gap; 1 - u keeps the argument strictly
            // positive (u is in [0, 1)).
            let u = self.unit(SALT_GAP, event);
            clock_s += -self.mean_gap_s * (1.0 - u).ln();
            let burst = self.burst_period > 1 && event % self.burst_period as u64 == 0;
            let width = if burst { self.burst_size.max(1) } else { 1 };
            for _ in 0..width {
                if requests.len() >= count {
                    break;
                }
                let id = requests.len();
                let class = self.draw_class(classes, total_w, id as u64);
                requests.push(StreamRequest {
                    id,
                    class,
                    arrival_s: clock_s,
                    deadline_s: clock_s + classes[class].deadline_s,
                });
            }
        }
        requests
    }

    /// Weighted class draw keyed by the request id.
    fn draw_class(&self, classes: &[ClassMix], total_w: f64, id: u64) -> usize {
        let mut ticket = self.unit(SALT_CLASS, id) * total_w;
        for (ci, c) in classes.iter().enumerate() {
            ticket -= c.weight.max(0.0);
            if ticket < 0.0 {
                return ci;
            }
        }
        classes.len() - 1
    }
}

/// FNV-1a digest over the stream's bit-exact content — the
/// thread-invariance witness recorded in `BENCH_stream.json`.
pub fn stream_digest(requests: &[StreamRequest]) -> u64 {
    let mut h = Fnv1a::new();
    for r in requests {
        h.word(r.id as u64).word(r.class as u64);
        h.word(r.arrival_s.to_bits()).word(r.deadline_s.to_bits());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes() -> Vec<ClassMix> {
        vec![
            ClassMix { name: "small", weight: 3.0, deadline_s: 4.0 },
            ClassMix { name: "medium", weight: 2.0, deadline_s: 8.0 },
            ClassMix { name: "large", weight: 1.0, deadline_s: 16.0 },
        ]
    }

    #[test]
    fn stream_is_a_pure_function_of_config() {
        let cfg = TrafficConfig::default();
        let a = cfg.generate(&classes(), 64);
        let b = cfg.generate(&classes(), 64);
        assert_eq!(a, b);
        assert_eq!(stream_digest(&a), stream_digest(&b));
        let other = TrafficConfig { seed: cfg.seed ^ 1, ..cfg };
        assert_ne!(stream_digest(&a), stream_digest(&other.generate(&classes(), 64)));
    }

    #[test]
    fn arrivals_are_monotone_and_bursts_are_simultaneous() {
        let cfg = TrafficConfig { burst_period: 4, burst_size: 3, ..TrafficConfig::default() };
        let reqs = cfg.generate(&classes(), 100);
        assert_eq!(reqs.len(), 100);
        let mut bursts = 0;
        for w in reqs.windows(2) {
            assert!(w[1].arrival_s >= w[0].arrival_s, "arrivals must be non-decreasing");
            if w[1].arrival_s == w[0].arrival_s {
                bursts += 1;
            }
        }
        assert!(bursts > 0, "burst events must produce simultaneous arrivals");
        for r in &reqs {
            assert!(r.deadline_s > r.arrival_s);
        }
    }

    #[test]
    fn class_mix_respects_weights() {
        let cfg = TrafficConfig { mean_gap_s: 1.0, ..TrafficConfig::default() };
        let reqs = cfg.generate(&classes(), 600);
        let mut counts = [0usize; 3];
        for r in &reqs {
            counts[r.class] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "every class must appear: {counts:?}");
        assert!(counts[0] > counts[2], "weight-3 class must outnumber weight-1: {counts:?}");
    }
}
