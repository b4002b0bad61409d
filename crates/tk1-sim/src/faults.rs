//! Deterministic, seeded fault injection for the measurement chain.
//!
//! Real DVFS measurement campaigns are dominated by failures the happy
//! path never sees: ADC samples drop or saturate, host timestamps
//! jitter, supply transients spike the waveform, thermal throttling
//! stretches executions, and a frequency write occasionally fails to
//! latch — or latches to a *neighboring* table entry.  This module
//! injects exactly those faults into the simulated chain at
//! configurable rates so the hardened pipeline (sweep gates, robust
//! integration, fit degradation ladder) can be exercised end to end.
//!
//! # Determinism
//!
//! Every fault decision is a *stateless hash* of `(seed, stream, salt,
//! indices)` — no shared RNG stream is consumed.  Two consequences the
//! property tests pin down:
//!
//! * the same seed and rates corrupt the chain bitwise-identically
//!   regardless of thread count or scheduling, because a draw depends
//!   only on *which* sample/execution/latch-attempt it keys, never on
//!   what other threads drew first;
//! * a retried measurement re-rolls its faults (the attempt counter
//!   advances), so bounded retry can succeed deterministically.
//!
//! # Configuration
//!
//! [`FaultConfig::from_env`] reads `FMM_ENERGY_FAULTS`:
//!
//! ```text
//! FMM_ENERGY_FAULTS=default                 # the documented default rates
//! FMM_ENERGY_FAULTS=default,latch_fail=0.2  # defaults with one override
//! FMM_ENERGY_FAULTS=sample_dropout=0.05,seed=7
//! FMM_ENERGY_FAULTS=off                     # (or unset) no injection
//! ```

use crate::dvfs::{core_points, mem_points, Setting};
use compat::hash::{keyed4, mix64, unit_f64};

/// Per-mechanism fault rates.  All `*_rate` fields are probabilities per
/// draw (per ADC sample, per execution, or per latch attempt).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability an ADC sample is dropped (recorded as NaN).
    pub sample_dropout: f64,
    /// Probability an ADC sample saturates to full scale.
    pub sample_clip: f64,
    /// Probability an ADC sample rides a transient power spike.
    pub spike: f64,
    /// Relative magnitude ceiling of a spike (`sample *= 1 + mag·u`).
    pub spike_mag: f64,
    /// Extra relative host-timestamp jitter (σ) on measured durations.
    pub timestamp_jitter_rel: f64,
    /// Probability an execution lands in a thermal-throttle episode.
    pub throttle: f64,
    /// Relative duration stretch ceiling of a throttled execution.
    pub throttle_stretch: f64,
    /// Probability a DVFS write fails to latch (setting unchanged).
    pub latch_fail: f64,
    /// Probability a DVFS write latches to a neighboring table entry.
    pub latch_neighbor: f64,
}

impl FaultRates {
    /// All rates zero: the injector becomes a no-op.
    pub fn off() -> FaultRates {
        FaultRates {
            sample_dropout: 0.0,
            sample_clip: 0.0,
            spike: 0.0,
            spike_mag: 0.0,
            timestamp_jitter_rel: 0.0,
            throttle: 0.0,
            throttle_stretch: 0.0,
            latch_fail: 0.0,
            latch_neighbor: 0.0,
        }
    }

    /// The documented default campaign rates (`FMM_ENERGY_FAULTS=default`).
    ///
    /// Chosen to be aggressive enough that every mechanism fires many
    /// times per sweep (16 settings × 103 kernels × ~100 samples) while
    /// keeping the hardened pipeline's cross-validation error within 2×
    /// of a clean run — the ISSUE's acceptance band.
    pub fn default_campaign() -> FaultRates {
        FaultRates {
            sample_dropout: 0.02,
            sample_clip: 0.004,
            spike: 0.004,
            spike_mag: 1.5,
            timestamp_jitter_rel: 0.002,
            throttle: 0.02,
            throttle_stretch: 0.8,
            latch_fail: 0.04,
            latch_neighbor: 0.02,
        }
    }
}

/// A fault campaign: rates plus the seed that makes it reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master seed; every injector draw hashes it in.
    pub seed: u64,
    /// Mechanism rates.
    pub rates: FaultRates,
}

impl FaultConfig {
    /// The default campaign with the default seed.
    pub fn default_campaign() -> FaultConfig {
        FaultConfig { seed: 0xFA17, rates: FaultRates::default_campaign() }
    }

    /// Parses `FMM_ENERGY_FAULTS` (see the module docs).  Returns `None`
    /// when the variable is unset, empty, `off`, or `0`.  Unknown keys
    /// and malformed values are ignored rather than fatal — a typo in an
    /// env var must not abort a measurement campaign.
    pub fn from_env() -> Option<FaultConfig> {
        Self::parse(&compat::env::raw("FMM_ENERGY_FAULTS")?)
    }

    /// Parses a `FMM_ENERGY_FAULTS`-style spec string.
    pub fn parse(spec: &str) -> Option<FaultConfig> {
        let spec = spec.trim();
        if spec.is_empty() || spec.eq_ignore_ascii_case("off") || spec == "0" {
            return None;
        }
        let mut cfg = FaultConfig { seed: 0xFA17, rates: FaultRates::off() };
        for token in spec.split(',') {
            let token = token.trim();
            if token.eq_ignore_ascii_case("default")
                || token.eq_ignore_ascii_case("on")
                || token == "1"
            {
                cfg.rates = FaultRates::default_campaign();
                continue;
            }
            let Some((key, value)) = token.split_once('=') else { continue };
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                if let Ok(s) = value.parse::<u64>() {
                    cfg.seed = s;
                }
                continue;
            }
            let Ok(x) = value.parse::<f64>() else { continue };
            let r = &mut cfg.rates;
            match key {
                "sample_dropout" => r.sample_dropout = x,
                "sample_clip" => r.sample_clip = x,
                "spike" => r.spike = x,
                "spike_mag" => r.spike_mag = x,
                "timestamp_jitter_rel" => r.timestamp_jitter_rel = x,
                "throttle" => r.throttle = x,
                "throttle_stretch" => r.throttle_stretch = x,
                "latch_fail" => r.latch_fail = x,
                "latch_neighbor" => r.latch_neighbor = x,
                _ => {}
            }
        }
        Some(cfg)
    }

    /// An injector for one component instance.  `stream` separates
    /// components sharing a config (e.g. per-setting device vs meter),
    /// so their fault draws are independent.
    pub fn injector(&self, stream: u64) -> FaultInjector {
        FaultInjector { key: mix64(self.seed ^ mix64(stream ^ 0x171E_C704)), rates: self.rates }
    }

    /// A deterministic 64-bit digest of the whole campaign (seed and
    /// every rate, by bit pattern).  Two configs hash equal iff they
    /// corrupt the chain identically, which is what makes this usable
    /// as the fault-profile half of a fitted-model cache key.
    pub fn cache_key(&self) -> u64 {
        let r = &self.rates;
        let mut h = mix64(self.seed ^ 0xCAC4_EBE7);
        for bits in [
            r.sample_dropout.to_bits(),
            r.sample_clip.to_bits(),
            r.spike.to_bits(),
            r.spike_mag.to_bits(),
            r.timestamp_jitter_rel.to_bits(),
            r.throttle.to_bits(),
            r.throttle_stretch.to_bits(),
            r.latch_fail.to_bits(),
            r.latch_neighbor.to_bits(),
        ] {
            h = mix64(h ^ bits);
        }
        h
    }
}

// Salt constants: one hash channel per fault mechanism.
const SALT_DROPOUT: u64 = 1;
const SALT_CLIP: u64 = 2;
const SALT_SPIKE: u64 = 3;
const SALT_SPIKE_MAG: u64 = 4;
const SALT_TJITTER: u64 = 5;
const SALT_THROTTLE: u64 = 6;
const SALT_THROTTLE_MAG: u64 = 7;
const SALT_LATCH: u64 = 8;
const SALT_LATCH_DIR: u64 = 9;

/// The outcome of one DVFS latch attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatchOutcome {
    /// The requested setting applied.
    Applied,
    /// The write was lost; the previous setting remains active.
    Stuck,
    /// The write latched to a neighboring table entry.
    Neighbor(Setting),
}

/// A stateless, copyable fault source for one component instance.
///
/// All methods are `&self` and keyed purely by their index arguments —
/// see the module docs for why that is what makes the corruption
/// bitwise-reproducible across thread counts and retries.
#[derive(Debug, Clone, Copy)]
pub struct FaultInjector {
    key: u64,
    rates: FaultRates,
}

impl FaultInjector {
    /// The rates this injector fires at.
    pub fn rates(&self) -> &FaultRates {
        &self.rates
    }

    /// A uniform draw in `[0, 1)` keyed by `(salt, a, b)`.
    fn unit(&self, salt: u64, a: u64, b: u64) -> f64 {
        unit_f64(keyed4(self.key, salt, a, b))
    }

    /// Corrupts one ADC sample.  Returns `None` when the sample is
    /// dropped; otherwise the (possibly spiked or clipped) value.
    /// `meas_idx` counts measurements on the owning meter, `sample_idx`
    /// the sample within the measurement.
    pub fn corrupt_sample(
        &self,
        meas_idx: u64,
        sample_idx: u64,
        sample_w: f64,
        full_scale_w: f64,
    ) -> Option<f64> {
        if self.unit(SALT_DROPOUT, meas_idx, sample_idx) < self.rates.sample_dropout {
            return None;
        }
        if self.unit(SALT_CLIP, meas_idx, sample_idx) < self.rates.sample_clip {
            return Some(full_scale_w);
        }
        if self.unit(SALT_SPIKE, meas_idx, sample_idx) < self.rates.spike {
            let mag = self.rates.spike_mag * self.unit(SALT_SPIKE_MAG, meas_idx, sample_idx);
            return Some(sample_w * (1.0 + mag));
        }
        Some(sample_w)
    }

    /// Multiplicative host-timestamp jitter for measurement `meas_idx`.
    pub fn timestamp_jitter(&self, meas_idx: u64) -> f64 {
        if self.rates.timestamp_jitter_rel <= 0.0 {
            return 1.0;
        }
        // A cheap symmetric triangular deviate: mean 0, bounded support.
        let u = self.unit(SALT_TJITTER, meas_idx, 0) + self.unit(SALT_TJITTER, meas_idx, 1) - 1.0;
        (1.0 + self.rates.timestamp_jitter_rel * 2.0 * u).max(0.5)
    }

    /// Duration-stretch multiplier when execution `exec_idx` lands in a
    /// thermal-throttle episode (`> 1`), else `None`.
    pub fn throttle_episode(&self, exec_idx: u64) -> Option<f64> {
        if self.unit(SALT_THROTTLE, exec_idx, 0) >= self.rates.throttle {
            return None;
        }
        // Stretch in [0.3, 1.0]·ceiling: always far outside the sweep
        // gate's tolerance band, so throttled runs are always retried.
        let u = 0.3 + 0.7 * self.unit(SALT_THROTTLE_MAG, exec_idx, 0);
        Some(1.0 + self.rates.throttle_stretch * u)
    }

    /// The outcome of DVFS latch attempt `attempt` for `requested` on the
    /// TK1's 15×7 tables.
    pub fn latch_outcome(&self, attempt: u64, requested: Setting) -> LatchOutcome {
        self.latch_outcome_in(attempt, requested, core_points().len(), mem_points().len())
    }

    /// The outcome of DVFS latch attempt `attempt` for `requested` on a
    /// device with `n_core`×`n_mem` tables.  The fault draws themselves
    /// are independent of the table shape (only the neighbor clamping
    /// uses it), so the TK1 stream is bitwise identical to the historic
    /// [`FaultInjector::latch_outcome`].
    pub fn latch_outcome_in(
        &self,
        attempt: u64,
        requested: Setting,
        n_core: usize,
        n_mem: usize,
    ) -> LatchOutcome {
        let u = self.unit(SALT_LATCH, attempt, 0);
        if u < self.rates.latch_fail {
            return LatchOutcome::Stuck;
        }
        if u < self.rates.latch_fail + self.rates.latch_neighbor {
            return LatchOutcome::Neighbor(neighbor_setting(
                requested,
                self.unit(SALT_LATCH_DIR, attempt, 0),
                n_core,
                n_mem,
            ));
        }
        LatchOutcome::Applied
    }
}

/// A neighboring DVFS table entry (core or mem index off by one),
/// selected by a uniform draw and clamped into an `n_core`×`n_mem` grid.
fn neighbor_setting(s: Setting, u: f64, n_core: usize, n_mem: usize) -> Setting {
    // Four directions; fall through to the opposite one at table edges.
    let dir = (u * 4.0) as usize;
    let (core, mem) = match dir {
        0 if s.core_idx + 1 < n_core => (s.core_idx + 1, s.mem_idx),
        0 => (s.core_idx - 1, s.mem_idx),
        1 if s.core_idx > 0 => (s.core_idx - 1, s.mem_idx),
        1 => (s.core_idx + 1, s.mem_idx),
        2 if s.mem_idx + 1 < n_mem => (s.core_idx, s.mem_idx + 1),
        2 => (s.core_idx, s.mem_idx - 1),
        _ if s.mem_idx > 0 => (s.core_idx, s.mem_idx - 1),
        _ => (s.core_idx, s.mem_idx + 1),
    };
    // Constructed directly: `Setting::new` validates against the TK1
    // tables, while these indices live in the caller's device grid.
    Setting { core_idx: core, mem_idx: mem }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector() -> FaultInjector {
        FaultConfig::default_campaign().injector(0)
    }

    #[test]
    fn draws_are_stateless_and_reproducible() {
        let a = injector();
        let b = injector();
        for meas in 0..4u64 {
            for i in 0..200u64 {
                assert_eq!(
                    a.corrupt_sample(meas, i, 8.0, 15.0),
                    b.corrupt_sample(meas, i, 8.0, 15.0)
                );
            }
        }
        // Order independence: re-querying an earlier index gives the
        // same answer after later draws (no stream state).
        let first = a.corrupt_sample(0, 0, 8.0, 15.0);
        let _ = a.corrupt_sample(3, 199, 8.0, 15.0);
        assert_eq!(a.corrupt_sample(0, 0, 8.0, 15.0), first);
    }

    #[test]
    fn streams_are_independent() {
        let cfg = FaultConfig::default_campaign();
        let a = cfg.injector(1);
        let b = cfg.injector(2);
        let differs = (0..512u64)
            .filter(|&i| a.unit(SALT_DROPOUT, 0, i) != b.unit(SALT_DROPOUT, 0, i))
            .count();
        assert!(differs > 500, "streams must decorrelate: {differs}");
    }

    #[test]
    fn rates_are_approximately_honored() {
        let inj = injector();
        let n = 50_000u64;
        let dropped =
            (0..n).filter(|&i| inj.corrupt_sample(0, i, 8.0, 15.0).is_none()).count() as f64;
        let rate = dropped / n as f64;
        assert!((rate - 0.02).abs() < 0.005, "dropout rate {rate}");
        let throttled = (0..n).filter(|&i| inj.throttle_episode(i).is_some()).count() as f64;
        let rate = throttled / n as f64;
        assert!((rate - 0.02).abs() < 0.005, "throttle rate {rate}");
    }

    #[test]
    fn clip_saturates_and_spike_amplifies() {
        let inj =
            FaultConfig { seed: 1, rates: FaultRates { sample_clip: 1.0, ..FaultRates::off() } }
                .injector(0);
        assert_eq!(inj.corrupt_sample(0, 0, 8.0, 15.0), Some(15.0));
        let inj = FaultConfig {
            seed: 1,
            rates: FaultRates { spike: 1.0, spike_mag: 1.0, ..FaultRates::off() },
        }
        .injector(0);
        let v = inj.corrupt_sample(0, 0, 8.0, 15.0).unwrap();
        assert!(v >= 8.0 && v <= 16.0, "spiked sample {v}");
    }

    #[test]
    fn latch_outcomes_cover_all_variants_and_neighbors_are_adjacent() {
        let inj = injector();
        let requested = Setting::from_frequencies(612.0, 528.0).unwrap();
        let mut stuck = 0;
        let mut neighbor = 0;
        let mut applied = 0;
        for attempt in 0..10_000u64 {
            match inj.latch_outcome(attempt, requested) {
                LatchOutcome::Stuck => stuck += 1,
                LatchOutcome::Applied => applied += 1,
                LatchOutcome::Neighbor(s) => {
                    neighbor += 1;
                    let d_core = s.core_idx.abs_diff(requested.core_idx);
                    let d_mem = s.mem_idx.abs_diff(requested.mem_idx);
                    assert_eq!(d_core + d_mem, 1, "neighbor must differ by one index");
                }
            }
        }
        assert!(stuck > 250 && neighbor > 100 && applied > 9000, "{stuck}/{neighbor}/{applied}");
    }

    #[test]
    fn neighbor_clamps_at_table_edges() {
        let corner = Setting::new(0, 0);
        for u in [0.05, 0.3, 0.55, 0.8] {
            let s = neighbor_setting(corner, u, 15, 7);
            assert!(s.core_idx + s.mem_idx == 1, "{s:?}");
        }
        // Same at the far corner of an arbitrary-shaped device grid.
        let far = Setting { core_idx: 16, mem_idx: 4 };
        for u in [0.05, 0.3, 0.55, 0.8] {
            let s = neighbor_setting(far, u, 17, 5);
            let d = s.core_idx.abs_diff(far.core_idx) + s.mem_idx.abs_diff(far.mem_idx);
            assert_eq!(d, 1, "{s:?}");
            assert!(s.core_idx < 17 && s.mem_idx < 5, "{s:?} stays in grid");
        }
    }

    #[test]
    fn env_spec_parses() {
        assert!(FaultConfig::parse("off").is_none());
        assert!(FaultConfig::parse("").is_none());
        let cfg = FaultConfig::parse("default").unwrap();
        assert_eq!(cfg.rates, FaultRates::default_campaign());
        assert_eq!(cfg.seed, 0xFA17);
        let cfg = FaultConfig::parse("default,latch_fail=0.5,seed=9").unwrap();
        assert_eq!(cfg.rates.latch_fail, 0.5);
        assert_eq!(cfg.rates.sample_dropout, FaultRates::default_campaign().sample_dropout);
        assert_eq!(cfg.seed, 9);
        let cfg = FaultConfig::parse("sample_dropout=0.1,bogus=1,alsobad").unwrap();
        assert_eq!(cfg.rates.sample_dropout, 0.1);
        assert_eq!(cfg.rates.throttle, 0.0);
    }

    #[test]
    fn cache_key_separates_campaigns_and_is_stable() {
        let a = FaultConfig::default_campaign();
        assert_eq!(a.cache_key(), FaultConfig::default_campaign().cache_key());
        let reseeded = FaultConfig { seed: 1, ..a };
        assert_ne!(a.cache_key(), reseeded.cache_key(), "seed is part of the key");
        let retuned = FaultConfig { rates: FaultRates { latch_fail: 0.5, ..a.rates }, ..a };
        assert_ne!(a.cache_key(), retuned.cache_key(), "rates are part of the key");
    }

    #[test]
    fn timestamp_jitter_is_bounded_and_centered() {
        let inj = injector();
        let js: Vec<f64> = (0..10_000).map(|i| inj.timestamp_jitter(i)).collect();
        let mean = js.iter().sum::<f64>() / js.len() as f64;
        assert!((mean - 1.0).abs() < 1e-3, "mean {mean}");
        for j in js {
            assert!((j - 1.0).abs() <= 0.004 + 1e-12, "jitter {j}");
        }
    }
}
