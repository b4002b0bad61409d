//! Service-scope chaos injection (ISSUE 9).
//!
//! PR 3's `faults` module perturbs the *measurement* path: ADC samples,
//! timestamps, throttle episodes, DVFS latches.  This module injects
//! failures one layer up, into the *service* itself — worker
//! panics/aborts/stalls, storms that take a device's whole measurement
//! campaign out (meter outages, latch storms), and on-disk model-cache
//! corruption.
//!
//! The seeding discipline is identical to `faults`: every decision is a
//! stateless hash of `(chaos seed, event salt, subject key)` — no
//! counters, no RNG state.  The subject key is always a *content* hash
//! (the request's field hash for worker events, the model key's hash
//! for storms), never an arrival index, so the same request draws the
//! same fate regardless of which shard pops it, how batches slice the
//! queue, or how many retries preceded it.  That is what makes 1/2/4/8
//! shard chaos soaks produce identical digests.
//!
//! Event taxonomy (see DESIGN.md §13):
//!
//! | event          | subject key     | effect                                 |
//! |----------------|-----------------|----------------------------------------|
//! | `worker_panic` | request content | injected unwind, caught per-job; the   |
//! |                |                 | ticket fails typed (`WorkerFailed`).   |
//! |                |                 | Fires on *every* attempt (a poison     |
//! |                |                 | request), so retries can't mask it.    |
//! | `worker_abort` | request content | uncaught unwind kills the shard thread;|
//! |                |                 | the supervisor respawns it.  Fires only|
//! |                |                 | on attempt 0, so a client retry always |
//! |                |                 | recovers — outcomes stay deterministic.|
//! | `worker_stall` | request content | the worker sleeps before serving; with |
//! |                |                 | client deadlines this surfaces as      |
//! |                |                 | `DeadlineExceeded`.                    |
//! | `latch_storm`  | model key       | the device's DVFS latch never applies  |
//! |                |                 | (`latch_fail = 1`): every cold fit for |
//! |                |                 | that key fails typed.                  |
//! | `meter_storm`  | model key       | the meter drops ~98% of samples; the   |
//! |                |                 | sweep keeps suspect measurements and   |
//! |                |                 | the service sanity gate rejects the fit.|
//! | `cache_corrupt`| model key       | the persisted model JSON is truncated  |
//! |                |                 | on write; the loader quarantines it.   |
//!
//! Storms are keyed by model identity, not per-request, because they
//! model an environmental failure of one board's measurement campaign:
//! every cold-fit attempt for that (device, seed, fault-profile) fails
//! the same way for the whole run, which is exactly what lets the
//! circuit breaker open deterministically.
//!
//! `FMM_ENERGY_CHAOS` uses the same grammar as `FMM_ENERGY_FAULTS`:
//! unset/`off`/`0` → no chaos; `default`/`on`/`1` → the default
//! profile; comma-separated `key=value` overrides, plus `seed=N`.

use crate::faults::{FaultConfig, FaultRates};
use compat::hash::{keyed, mix64, unit_f64};
use std::time::Duration;

/// Per-mechanism chaos probabilities (each an independent draw per
/// subject; worker events share one draw and are mutually exclusive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosRates {
    /// Poison request: injected unwind on every attempt (caught).
    pub worker_panic: f64,
    /// Shard-thread death: uncaught unwind, attempt 0 only.
    pub worker_abort: f64,
    /// Worker sleeps `stall_ms` before serving the request.
    pub worker_stall: f64,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
    /// Per-model-key DVFS latch storm (cold fits fail typed).
    pub latch_storm: f64,
    /// Per-model-key meter outage (sanity gate rejects the fit).
    pub meter_storm: f64,
    /// Per-model-key on-disk cache corruption at persist time.
    pub cache_corrupt: f64,
}

impl ChaosRates {
    /// All rates zero: the injector becomes a no-op.
    pub fn off() -> ChaosRates {
        ChaosRates {
            worker_panic: 0.0,
            worker_abort: 0.0,
            worker_stall: 0.0,
            stall_ms: 0,
            latch_storm: 0.0,
            meter_storm: 0.0,
            cache_corrupt: 0.0,
        }
    }

    /// The documented default profile (`FMM_ENERGY_CHAOS=default`).
    ///
    /// Calibrated for the 100k-request soak: ~0.2% of requests are
    /// poison (bounding availability loss well under the 1% budget),
    /// aborts are rare enough that respawn refits stay cheap, and the
    /// storm rates put a handful of device keys into each degraded
    /// rung without drowning the healthy path.
    pub fn default_profile() -> ChaosRates {
        ChaosRates {
            worker_panic: 0.002,
            worker_abort: 0.0001,
            worker_stall: 0.003,
            stall_ms: 15,
            latch_storm: 0.10,
            meter_storm: 0.08,
            cache_corrupt: 0.25,
        }
    }
}

/// A chaos campaign: rates plus the seed that makes it reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Master seed; every injector draw hashes it in.
    pub seed: u64,
    /// Mechanism rates.
    pub rates: ChaosRates,
}

impl ChaosConfig {
    /// The default profile with the default seed.
    pub fn default_profile() -> ChaosConfig {
        ChaosConfig { seed: 0xC4A0_5EED, rates: ChaosRates::default_profile() }
    }

    /// Parses `FMM_ENERGY_CHAOS`.  Returns `None` when the variable is
    /// unset, empty, `off`, or `0`.  Unknown keys and malformed values
    /// are ignored rather than fatal, matching `FaultConfig::parse`.
    pub fn from_env() -> Option<ChaosConfig> {
        Self::parse(&compat::env::raw("FMM_ENERGY_CHAOS")?)
    }

    /// Parses a `FMM_ENERGY_CHAOS`-style spec string.
    pub fn parse(spec: &str) -> Option<ChaosConfig> {
        let spec = spec.trim();
        if spec.is_empty() || spec.eq_ignore_ascii_case("off") || spec == "0" {
            return None;
        }
        let mut cfg = ChaosConfig { seed: 0xC4A0_5EED, rates: ChaosRates::off() };
        for token in spec.split(',') {
            let token = token.trim();
            if token.eq_ignore_ascii_case("default")
                || token.eq_ignore_ascii_case("on")
                || token == "1"
            {
                cfg.rates = ChaosRates::default_profile();
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
            if key == "stall_ms" {
                if let Ok(ms) = value.parse::<u64>() {
                    cfg.rates.stall_ms = ms;
                }
                continue;
            }
            let Ok(x) = value.parse::<f64>() else { continue };
            let r = &mut cfg.rates;
            match key {
                "worker_panic" => r.worker_panic = x,
                "worker_abort" => r.worker_abort = x,
                "worker_stall" => r.worker_stall = x,
                "latch_storm" => r.latch_storm = x,
                "meter_storm" => r.meter_storm = x,
                "cache_corrupt" => r.cache_corrupt = x,
                _ => {}
            }
        }
        Some(cfg)
    }

    /// The injector for this campaign.
    pub fn injector(&self) -> ChaosInjector {
        ChaosInjector { key: mix64(self.seed ^ 0x5E2F_1CE0_C4A0_5EED), rates: self.rates }
    }
}

/// What befalls a worker for one (request, attempt) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerEvent {
    /// Injected unwind, caught per job: the ticket fails typed.
    Panic,
    /// Uncaught unwind: the shard thread dies; supervision respawns.
    Abort,
    /// The worker sleeps this long before serving.
    Stall(Duration),
}

/// Which storm (if any) covers a model key for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormKind {
    /// DVFS latches never apply: cold fits fail with
    /// `SettingNotApplied`.
    LatchStorm,
    /// The power meter drops ~98% of samples: the service sanity gate
    /// rejects the fit as mostly-suspect.
    MeterOutage,
}

const SALT_WORKER: u64 = 0xC4_01;
const SALT_STORM: u64 = 0xC4_02;
const SALT_CORRUPT: u64 = 0xC4_03;

/// Stateless hash-keyed chaos decisions.  Mirrors `FaultInjector`: a
/// draw is [`compat::hash::keyed`]`(key, salt, subject)` scaled to
/// `[0, 1)`, so every decision is a pure function of (seed, mechanism,
/// subject).
#[derive(Debug, Clone, Copy)]
pub struct ChaosInjector {
    key: u64,
    rates: ChaosRates,
}

impl ChaosInjector {
    /// The configured rates (for reporting).
    pub fn rates(&self) -> ChaosRates {
        self.rates
    }

    /// Uniform draw in `[0, 1)` keyed by (mechanism salt, subject).
    fn unit(&self, salt: u64, subject: u64) -> f64 {
        unit_f64(keyed(self.key, salt, subject))
    }

    /// The worker-side fate of one (request, attempt).  `subject` is
    /// the request *content* hash, so the draw is identical no matter
    /// which shard, batch, or client carries the request.  The three
    /// worker events are carved out of a single draw, so they are
    /// mutually exclusive by construction.
    pub fn worker_event(&self, subject: u64, attempt: u32) -> Option<WorkerEvent> {
        let r = &self.rates;
        let u = self.unit(SALT_WORKER, subject);
        if u < r.worker_panic {
            // Poison request: every attempt draws the same fate, so
            // bounded retries end in a typed rejection, never a mask.
            return Some(WorkerEvent::Panic);
        }
        if u < r.worker_panic + r.worker_abort {
            // Thread death is modeled as transient: only the first
            // attempt hits it, so the client's retry deterministically
            // recovers (the respawned shard serves it cleanly).
            return (attempt == 0).then_some(WorkerEvent::Abort);
        }
        if u < r.worker_panic + r.worker_abort + r.worker_stall {
            // Spread stall lengths over [stall_ms, 4/3·stall_ms) so
            // queues see a mix, keyed by the same subject.
            let extra = (mix64(self.key ^ subject) % (1 + r.stall_ms / 3)) as u64;
            return (attempt == 0)
                .then_some(WorkerEvent::Stall(Duration::from_millis(r.stall_ms + extra)));
        }
        None
    }

    /// The storm (if any) covering a model key for this whole run.
    /// `subject` is the model key's content hash.
    pub fn fit_storm(&self, subject: u64) -> Option<StormKind> {
        let r = &self.rates;
        let u = self.unit(SALT_STORM, subject);
        if u < r.latch_storm {
            return Some(StormKind::LatchStorm);
        }
        if u < r.latch_storm + r.meter_storm {
            return Some(StormKind::MeterOutage);
        }
        None
    }

    /// Whether persisting this model key's JSON gets corrupted on disk.
    pub fn corrupts_persist(&self, subject: u64) -> bool {
        self.unit(SALT_CORRUPT, subject) < self.rates.cache_corrupt
    }

    /// The measurement-fault overlay a storm imposes on a cold fit.
    /// Layered on top of `base` (the campaign the model key is for) so
    /// the storm is an *environmental* amplification, not a new
    /// identity: the model key — and thus the cache path and digest
    /// keying — still carries only the base campaign.
    pub fn storm_faults(kind: StormKind, base: Option<&FaultConfig>, subject: u64) -> FaultConfig {
        let mut cfg = base
            .copied()
            .unwrap_or(FaultConfig { seed: mix64(subject) | 1, rates: FaultRates::off() });
        match kind {
            // Certain latch failure: `apply_setting` exhausts its
            // attempts on the first un-latched setting and the sweep
            // fails typed.  Anything below 1.0 would make failure a
            // per-attempt coin flip and the outcome nondeterministic.
            StormKind::LatchStorm => cfg.rates.latch_fail = 1.0,
            // Near-total sample loss: the sweep's retry ladder keeps
            // the suspect measurements (counted in `SweepStats`), and
            // the service-side sanity gate rejects the fit.
            StormKind::MeterOutage => cfg.rates.sample_dropout = 0.98,
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_grammar_matches_faults_conventions() {
        assert!(ChaosConfig::parse("off").is_none());
        assert!(ChaosConfig::parse("0").is_none());
        assert!(ChaosConfig::parse("  ").is_none());
        let d = ChaosConfig::parse("default").expect("default profile");
        assert_eq!(d.rates, ChaosRates::default_profile());
        assert_eq!(d.seed, 0xC4A0_5EED);
        let c = ChaosConfig::parse("default,seed=42,worker_panic=0.5,stall_ms=99")
            .expect("overrides parse");
        assert_eq!(c.seed, 42);
        assert_eq!(c.rates.worker_panic, 0.5);
        assert_eq!(c.rates.stall_ms, 99);
        assert_eq!(c.rates.latch_storm, ChaosRates::default_profile().latch_storm);
        // Unknown keys and garbage values are ignored, not fatal.
        let ok = ChaosConfig::parse("bogus=1,worker_stall=nan?,latch_storm=0.2").expect("cfg");
        assert_eq!(ok.rates.latch_storm, 0.2);
    }

    #[test]
    fn draws_are_stateless_and_subject_keyed() {
        let inj = ChaosConfig::default_profile().injector();
        for subject in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(
                inj.worker_event(subject, 0),
                inj.worker_event(subject, 0),
                "same subject, same fate"
            );
            assert_eq!(inj.fit_storm(subject), inj.fit_storm(subject));
            assert_eq!(inj.corrupts_persist(subject), inj.corrupts_persist(subject));
        }
        // Different seeds decorrelate.
        let other = ChaosConfig { seed: 7, ..ChaosConfig::default_profile() }.injector();
        let n =
            (0..4096u64).filter(|&s| inj.corrupts_persist(s) != other.corrupts_persist(s)).count();
        assert!(n > 0, "different seeds must draw differently somewhere");
    }

    #[test]
    fn worker_events_are_mutually_exclusive_and_abort_is_attempt_zero_only() {
        let inj = ChaosConfig { seed: 99, rates: ChaosRates::default_profile() }.injector();
        let mut panics = 0usize;
        let mut aborts = 0usize;
        let mut stalls = 0usize;
        for subject in 0..200_000u64 {
            match inj.worker_event(subject, 0) {
                Some(WorkerEvent::Panic) => {
                    panics += 1;
                    // Poison: the retry draws the same fate.
                    assert_eq!(inj.worker_event(subject, 3), Some(WorkerEvent::Panic));
                }
                Some(WorkerEvent::Abort) => {
                    aborts += 1;
                    // Transient: the retry sails through.
                    assert_eq!(inj.worker_event(subject, 1), None);
                }
                Some(WorkerEvent::Stall(d)) => {
                    stalls += 1;
                    let ms = d.as_millis() as u64;
                    let base = ChaosRates::default_profile().stall_ms;
                    assert!(ms >= base && ms < base + 1 + base / 3, "stall {ms}ms out of band");
                }
                None => {}
            }
        }
        // Empirical rates near the configured ones (±50% at n=200k).
        assert!((200..=600).contains(&panics), "panic draws: {panics}");
        assert!(aborts >= 5 && aborts <= 60, "abort draws: {aborts}");
        assert!((300..=900).contains(&stalls), "stall draws: {stalls}");
    }

    #[test]
    fn storm_faults_layer_on_the_base_campaign() {
        let base = FaultConfig::default_campaign();
        let latch = ChaosInjector::storm_faults(StormKind::LatchStorm, Some(&base), 1);
        assert_eq!(latch.rates.latch_fail, 1.0, "latch storms must be certain, not a coin flip");
        assert_eq!(latch.rates.sample_dropout, base.rates.sample_dropout);
        assert_eq!(latch.seed, base.seed, "storm keeps the campaign seed");
        let meter = ChaosInjector::storm_faults(StormKind::MeterOutage, None, 7);
        assert!(meter.rates.sample_dropout > 0.9);
        assert_eq!(meter.rates.latch_fail, 0.0);
    }
}
