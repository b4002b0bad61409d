//! Phase-timing snapshot for the FMM evaluation engine.
//!
//! Runs the standard uniform-cube problem (q = 64, p = 4, FFT M2L) over
//! a `sizes × threads` grid (see [`dvfs_bench::scaling`]), measures
//! per-phase and total wall time with `FmmEvaluator::evaluate_timed`,
//! and writes the medians — plus a potential-bits digest per case — as
//! JSON, the artifact `scripts/bench_snapshot.sh` commits as
//! `BENCH_fmm.json`.  Each case records the *resolved* worker count it
//! ran with (honoring `FMM_ENERGY_THREADS` and the machine cap), and
//! the repetition count falls back to `FMM_ENERGY_BENCH_REPS` when no
//! `--reps` flag is given.
//!
//! Usage: `bench_snapshot [--out FILE] [--reps K] [--sizes N1,N2,...]
//! [--threads T1,T2,...]`
//!
//! `bench_snapshot --check-fmm FILE [--baseline-fmm BASE]` validates a
//! snapshot with the in-tree JSON reader: shape, positive timings,
//! per-size digest agreement (the bitwise thread-invariance claim),
//! grid coverage (threads ⊇ {1,2,4,8}, max n ≥ 2^20 — skipped when
//! comparing against a baseline), and, with `--baseline-fmm`, a >10%
//! regression gate on `evaluate_median_s` at every `(n, threads)` point
//! both files share.
//!
//! `bench_snapshot --governor FILE [--scale-shift K] [--seed S]` runs
//! the phase-aware governor comparison (fitted model, 8 inputs × 8
//! settings, every policy) and writes per-policy energy/time as JSON —
//! the artifact committed as `BENCH_governor.json`.
//! `--check-governor FILE` validates that artifact's shape.
//!
//! `bench_snapshot --fleet FILE [--scale-shift K] [--seed S]` runs the
//! fleet comparison (every catalog device through sweep, fit and FMM
//! autotuning, plus the sibling transfer studies) and writes the
//! artifact committed as `BENCH_fleet.json`.  `--check-fleet FILE`
//! validates that artifact's shape *and* the catalog's design claims:
//! clean sub-10% fits on ≥5 devices, the TK1 racing to idle, `mi300x`
//! autotuning to an interior best-energy point, and warm-start
//! transfer beating the cold fit at the starved budget on every
//! sibling pair.
//!
//! `bench_snapshot --service FILE [--requests N] [--seed S]` drives the
//! autotune server with `bench::service_load` (a ≥1M-request seeded
//! closed-loop run plus a cross-shard digest sweep and an overload
//! probe) and writes latency/throughput/cache/rejection results as
//! JSON — the artifact committed as `BENCH_service.json`.
//! `--check-service FILE` validates that artifact's shape *and* its
//! service-level invariants: a ≥1M-request run, cache-hit p99 at least
//! 10× below cold-fit p99, some-but-not-all overload rejections, and
//! identical digests across the 1/2/4/8-shard sweep.
//!
//! `bench_snapshot --chaos FILE [--requests N] [--seed S]` runs the
//! same load under the default chaos profile (`LoadConfig::chaos_soak`:
//! injected worker panics/aborts/stalls plus latch and meter storms), a
//! clean twin of the identical config for the p99 comparison, the
//! 1/2/4/8-shard chaos digest sweep, and the stall/deadline probe —
//! the artifact committed as `BENCH_chaos.json`.  `--check-chaos FILE`
//! validates its shape *and* the failure-model gates: every request
//! resolved, availability ≥ 99% counting degraded answers, chaos
//! actually biting (caught panics, typed rejections, recoveries), the
//! deadline probe fully recovered, and identical digests across the
//! shard sweep.
//!
//! `bench_snapshot --stream FILE [--seed S] [--threads T1,T2,...]` runs
//! the streaming-engine suite (`dvfs_stream::scenario`: particle drift
//! with incremental tree maintenance, the bursty mixed-size request
//! stream, and the three-tenant arbitration study) with the fitted
//! model at every thread-grid width — the artifact committed as
//! `BENCH_stream.json`.  `--check-stream FILE` validates its shape
//! *and* the streaming gates: drift exercised the in-place repair path
//! and accounted for every step, the pinned burst suite met every
//! deadline, the arbitrated multi-tenant plan was feasible and beat
//! both the per-job static-best and race-to-halt baselines on energy
//! with zero misses, and the suite digest is identical across the
//! 1/2/4/8-thread sweep.

use compat::json::Json;
use dvfs_bench::scaling::{self, ScalingCase};

fn case_to_json(c: &ScalingCase) -> Json {
    let [up, v, x, down, near] = c.phase_medians_s;
    Json::obj([
        ("n", Json::Num(c.n as f64)),
        ("q", Json::Num(64.0)),
        ("p", Json::Num(4.0)),
        ("m2l", Json::Str("fft".to_string())),
        ("threads", Json::Num(c.threads as f64)),
        ("reps", Json::Num(c.reps as f64)),
        (
            "phase_medians_s",
            Json::obj([
                ("up", Json::Num(up)),
                ("v", Json::Num(v)),
                ("x", Json::Num(x)),
                ("down", Json::Num(down)),
                ("near", Json::Num(near)),
            ]),
        ),
        ("evaluate_median_s", Json::Num(c.evaluate_median_s)),
        ("digest", Json::Str(format!("{:016x}", c.digest))),
    ])
}

/// Shared scaffolding for the `--check-*` validators.
///
/// Every checker used to repeat the same boilerplate: read the file,
/// parse it with the in-tree JSON reader, destructure the top-level
/// object, match the `benchmark` tag, look fields up by key with typed
/// expectations, and `exit(1)` with a `bench_snapshot <flag>: <msg>`
/// line on any mismatch.  `Checker` owns all of that once; the
/// per-artifact functions keep only their actual gates.
struct Checker {
    flag: &'static str,
    doc: Json,
}

impl Checker {
    /// Reads and parses `path`, verifying the top level is an object
    /// whose `benchmark` field is `benchmark`.
    fn load(flag: &'static str, path: &str, benchmark: &str) -> Checker {
        let mut c = Checker { flag, doc: Json::Bool(false) };
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| c.fail(format!("cannot read {path}: {e}")));
        c.doc = Json::parse(&text)
            .unwrap_or_else(|e| c.fail(format!("{path} is not valid JSON: {e:?}")));
        match c.get(c.top(), "benchmark") {
            Some(Json::Str(s)) if s == benchmark => {}
            other => c.fail(format!("bad benchmark field: {other:?}")),
        }
        c
    }

    /// Prints `bench_snapshot <flag>: <msg>` and exits non-zero.
    fn fail(&self, msg: impl AsRef<str>) -> ! {
        eprintln!("bench_snapshot {}: {}", self.flag, msg.as_ref());
        std::process::exit(1);
    }

    /// The artifact's top-level field list.
    fn top(&self) -> &[(String, Json)] {
        match &self.doc {
            Json::Obj(fields) => fields,
            _ => self.fail("top level must be an object"),
        }
    }

    /// Key lookup in any object field list.
    fn get<'a>(&self, fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Destructures a JSON value as an object.  `ctx` names the value
    /// in failure messages ("case", "latency_us entry", ...).
    fn as_obj<'a>(&self, value: &'a Json, ctx: &str) -> &'a [(String, Json)] {
        match value {
            Json::Obj(fields) => fields,
            other => self.fail(format!("{ctx} is not an object: {other:?}")),
        }
    }

    /// Required numeric field; `ctx` is a dotted prefix (may be empty).
    fn num(&self, fields: &[(String, Json)], ctx: &str, key: &str) -> f64 {
        match self.get(fields, key) {
            Some(Json::Num(v)) => *v,
            other => self.fail(format!("{ctx}{key}: expected a number, got {other:?}")),
        }
    }

    /// Required string field.
    fn str_of<'a>(&self, fields: &'a [(String, Json)], ctx: &str, key: &str) -> &'a str {
        match self.get(fields, key) {
            Some(Json::Str(s)) => s,
            other => self.fail(format!("{ctx}{key}: expected a string, got {other:?}")),
        }
    }

    /// Required boolean field.
    fn bool_of(&self, fields: &[(String, Json)], ctx: &str, key: &str) -> bool {
        match self.get(fields, key) {
            Some(Json::Bool(v)) => *v,
            other => self.fail(format!("{ctx}{key}: expected a boolean, got {other:?}")),
        }
    }

    /// Required array field.
    fn arr_of<'a>(&self, fields: &'a [(String, Json)], ctx: &str, key: &str) -> &'a [Json] {
        match self.get(fields, key) {
            Some(Json::Arr(items)) => items,
            other => self.fail(format!("{ctx}{key}: expected an array, got {other:?}")),
        }
    }

    /// Required object field.
    fn obj_of<'a>(
        &self,
        fields: &'a [(String, Json)],
        ctx: &str,
        key: &str,
    ) -> &'a [(String, Json)] {
        match self.get(fields, key) {
            Some(Json::Obj(inner)) => inner,
            other => self.fail(format!("{ctx}{key}: expected an object, got {other:?}")),
        }
    }

    /// Parses a digest-sweep array — entries carrying `count_key` and a
    /// `digest` string — and fails unless every digest is identical.
    /// Returns the `(count, digest)` pairs for coverage checks.
    fn identical_digests(
        &self,
        entries: &[Json],
        ctx: &str,
        count_key: &str,
    ) -> Vec<(usize, String)> {
        let mut digests = Vec::with_capacity(entries.len());
        for entry in entries {
            let ef = self.as_obj(entry, ctx);
            let count = self.num(ef, &format!("{ctx}."), count_key) as usize;
            let digest = self.str_of(ef, &format!("{ctx}."), "digest").to_string();
            digests.push((count, digest));
        }
        if digests.windows(2).any(|w| w[0].1 != w[1].1) {
            self.fail(format!("digests differ across {count_key} counts: {digests:?}"));
        }
        digests
    }

    /// Fails unless the sweep counts cover every width in `want`.
    fn covers(&self, digests: &[(usize, String)], ctx: &str, want: &[usize]) {
        let counts: Vec<usize> = digests.iter().map(|(c, _)| *c).collect();
        for w in want {
            if !counts.contains(w) {
                self.fail(format!("{ctx} grid {counts:?} missing width {w}"));
            }
        }
    }
}

/// Minimal parsed form of one snapshot case, for `--check-fmm`.
struct ParsedCase {
    n: usize,
    threads: usize,
    evaluate_median_s: f64,
    digest: String,
}

fn parse_fmm_cases(flag: &'static str, path: &str) -> Vec<ParsedCase> {
    let c = Checker::load(flag, path, "fmm_evaluate_phases");
    let cases = c.arr_of(c.top(), "", "cases");
    let mut parsed = Vec::with_capacity(cases.len());
    for case in cases {
        let cf = c.as_obj(case, "case");
        let pm = c.obj_of(cf, "case.", "phase_medians_s");
        for key in ["up", "v", "x", "down", "near"] {
            if c.num(pm, "phase_medians_s.", key) < 0.0 {
                c.fail(format!("phase_medians_s.{key} is negative"));
            }
        }
        let total = c.num(cf, "case.", "evaluate_median_s");
        if total <= 0.0 {
            c.fail(format!("evaluate_median_s must be positive, got {total}"));
        }
        if c.num(cf, "case.", "reps") < 1.0 {
            c.fail("reps must be at least 1");
        }
        parsed.push(ParsedCase {
            n: c.num(cf, "case.", "n") as usize,
            threads: c.num(cf, "case.", "threads") as usize,
            evaluate_median_s: total,
            digest: c.str_of(cf, "case.", "digest").to_string(),
        });
    }
    parsed
}

/// Validates an FMM scaling snapshot: shape, per-size digest agreement,
/// grid coverage (committed-artifact mode), and an optional >10%
/// regression gate against a baseline file.  Exits non-zero on any
/// failure.
fn check_fmm(path: &str, baseline: Option<&str>) {
    let c = Checker::load("--check-fmm", path, "fmm_evaluate_phases");
    let cases = parse_fmm_cases("--check-fmm", path);
    if cases.is_empty() {
        c.fail("no cases");
    }
    // The engine's reproducibility claim: every thread count produced
    // bit-identical potentials for each size.
    let mut sizes: Vec<usize> = cases.iter().map(|case| case.n).collect();
    sizes.sort_unstable();
    sizes.dedup();
    for &n in &sizes {
        let digests: Vec<&str> =
            cases.iter().filter(|case| case.n == n).map(|case| case.digest.as_str()).collect();
        if digests.windows(2).any(|w| w[0] != w[1]) {
            c.fail(format!("digest mismatch across thread counts at n={n}: {digests:?}"));
        }
    }
    match baseline {
        None => {
            // Committed-artifact coverage: the full thread grid and the
            // 2^20-point size must be present.
            let mut threads: Vec<usize> = cases.iter().map(|case| case.threads).collect();
            threads.sort_unstable();
            threads.dedup();
            for want in scaling::DEFAULT_THREAD_GRID {
                if !threads.contains(&want) {
                    c.fail(format!("thread grid {threads:?} missing width {want}"));
                }
            }
            let max_n = *sizes.last().expect("nonempty");
            if max_n < 1_048_576 {
                c.fail(format!("largest size {max_n} is below 1048576"));
            }
            println!(
                "bench_snapshot --check-fmm: {path} OK ({} cases, sizes {:?}, threads {:?})",
                cases.len(),
                sizes,
                threads
            );
        }
        Some(base_path) => {
            let base = parse_fmm_cases("--baseline-fmm", base_path);
            let mut compared = 0usize;
            for case in &cases {
                let Some(b) = base.iter().find(|b| b.n == case.n && b.threads == case.threads)
                else {
                    continue;
                };
                compared += 1;
                if case.evaluate_median_s > 1.10 * b.evaluate_median_s {
                    c.fail(format!(
                        "evaluate regression at n={} threads={}: {:.6}s vs baseline {:.6}s (>10%)",
                        case.n, case.threads, case.evaluate_median_s, b.evaluate_median_s
                    ));
                }
            }
            if compared == 0 {
                c.fail(format!("no (n, threads) points shared with baseline {base_path}"));
            }
            println!(
                "bench_snapshot --check-fmm: {path} OK ({compared} points within 10% of {base_path})"
            );
        }
    }
}

/// Runs the governor policy comparison and writes the JSON artifact.
fn governor_snapshot(out_path: &str, scale_shift: u32, seed: u64) {
    use dvfs_bench::{governor_comparison, pipeline};
    use dvfs_governor::GovernorConfig;
    use tk1_sim::FaultConfig;
    eprintln!("bench_snapshot: fitting the energy model ...");
    let (model, _) = pipeline::fitted_model(seed);
    eprintln!("bench_snapshot: profiling FMM inputs (scale shift {scale_shift}) ...");
    let profiles = pipeline::fmm_profiles(scale_shift, seed);
    let cfg = GovernorConfig::from_env();
    let faults = FaultConfig::from_env();
    let cases = governor_comparison(&model, &profiles, &cfg, seed, faults.as_ref());
    let case_docs: Vec<Json> = cases
        .iter()
        .map(|c| {
            let outcomes: Vec<Json> = c
                .outcomes
                .iter()
                .map(|o| {
                    Json::obj([
                        ("policy", Json::Str(o.policy.to_string())),
                        ("energy_j", Json::Num(o.energy_j)),
                        ("time_s", Json::Num(o.time_s)),
                        ("transition_energy_j", Json::Num(o.transition_energy_j)),
                        ("switches", Json::Num(o.switches as f64)),
                        ("latch_retries", Json::Num(o.latch_retries as f64)),
                    ])
                })
                .collect();
            Json::obj([
                ("input", Json::Str(c.input.id.to_string())),
                ("best_static", Json::Str(c.best_static_id.to_string())),
                ("best_static_j", Json::Num(c.best_static_j)),
                ("policies", Json::Arr(outcomes)),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("benchmark", Json::Str("governor_policies".to_string())),
        ("scale_shift", Json::Num(scale_shift as f64)),
        ("rounds", Json::Num(cfg.rounds as f64)),
        ("threads", Json::Num(compat::par::num_threads() as f64)),
        ("cases", Json::Arr(case_docs)),
    ]);
    let text = doc.to_text();
    std::fs::write(out_path, format!("{text}\n")).expect("write governor snapshot");
    println!("{text}");
    eprintln!("bench_snapshot: wrote {out_path}");
}

/// Shape-checks a `--governor` artifact; exits non-zero on mismatch.
fn check_governor(path: &str) {
    let c = Checker::load("--check-governor", path, "governor_policies");
    let cases = c.arr_of(c.top(), "", "cases");
    for case in cases {
        let cf = c.as_obj(case, "case");
        for key in ["input", "best_static_j"] {
            if c.get(cf, key).is_none() {
                c.fail(format!("case missing {key}"));
            }
        }
        let policies = c.arr_of(cf, "case.", "policies");
        for p in policies {
            let pf = c.as_obj(p, "policy");
            for key in ["policy", "energy_j", "time_s"] {
                if c.get(pf, key).is_none() {
                    c.fail(format!("policy missing {key}"));
                }
            }
        }
    }
    println!("bench_snapshot --check-governor: {path} OK ({} cases)", cases.len());
}

/// Runs the service load generator and writes the JSON artifact.
fn service_snapshot(out_path: &str, requests: usize, shard_requests: usize, seed: u64) {
    use dvfs_bench::service_load::{service_load, LoadConfig};
    // `FMM_ENERGY_DEVICE` selects which catalog platform every request
    // tunes for; unset (the committed artifact) is the TK1.
    let device_id = tk1_sim::catalog::from_env().id;
    let cfg = LoadConfig { requests, seed, device_id, ..LoadConfig::default() };
    eprintln!(
        "bench_snapshot: driving {requests} requests for {device_id} ({} clients, {} shards) ...",
        cfg.clients, cfg.shards
    );
    let main = service_load(&cfg);
    eprintln!(
        "bench_snapshot: main segment {:.1}s, {:.0} req/s, hit rate {:.4}",
        main.elapsed_s, main.throughput_rps, main.cache_hit_rate
    );
    let mut shard_docs = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let sweep = LoadConfig {
            requests: shard_requests,
            shards,
            overload_probes: 0,
            seed,
            device_id,
            ..LoadConfig::default()
        };
        eprintln!("bench_snapshot: digest sweep at {shards} shard(s) ...");
        let run = service_load(&sweep);
        shard_docs.push(Json::obj([
            ("shards", Json::Num(shards as f64)),
            ("requests", Json::Num(run.requests as f64)),
            ("served", Json::Num(run.served as f64)),
            ("digest", Json::Str(format!("{:016x}", run.digest))),
        ]));
    }
    let doc = Json::obj([
        ("benchmark", Json::Str("autoserve_load".to_string())),
        ("seed", Json::Str(format!("{seed:016x}"))),
        ("requests", Json::Num(main.requests as f64)),
        ("served", Json::Num(main.served as f64)),
        ("fit_errors", Json::Num(main.fit_errors as f64)),
        ("clients", Json::Num(main.clients as f64)),
        ("shards", Json::Num(main.shards as f64)),
        ("queue_capacity", Json::Num(cfg.queue_capacity as f64)),
        ("batch_max", Json::Num(cfg.batch_max as f64)),
        ("distinct_devices", Json::Num(cfg.distinct_devices as f64)),
        ("elapsed_s", Json::Num(main.elapsed_s)),
        ("throughput_rps", Json::Num(main.throughput_rps)),
        (
            "latency_us",
            Json::obj([
                ("hit_count", Json::Num(main.hit.count as f64)),
                ("hit_p50", Json::Num(main.hit.p50_us)),
                ("hit_p99", Json::Num(main.hit.p99_us)),
                ("hit_max", Json::Num(main.hit.max_us)),
                ("cold_count", Json::Num(main.cold.count as f64)),
                ("cold_p50", Json::Num(main.cold.p50_us)),
                ("cold_p99", Json::Num(main.cold.p99_us)),
                ("cold_max", Json::Num(main.cold.max_us)),
            ]),
        ),
        ("cache_hit_rate", Json::Num(main.cache_hit_rate)),
        ("rejection_rate", Json::Num(main.overload.rejection_rate)),
        ("overload_attempts", Json::Num(main.overload.attempts as f64)),
        ("overload_served", Json::Num(main.overload.served as f64)),
        ("max_queue_depth", Json::Num(main.max_queue_depth as f64)),
        ("degraded_responses", Json::Num(main.degraded_responses as f64)),
        ("digest", Json::Str(format!("{:016x}", main.digest))),
        ("shard_digests", Json::Arr(shard_docs)),
        ("threads", Json::Num(compat::par::num_threads() as f64)),
    ]);
    let text = doc.to_text();
    std::fs::write(out_path, format!("{text}\n")).expect("write service snapshot");
    println!("{text}");
    eprintln!("bench_snapshot: wrote {out_path}");
}

/// Validates a `--service` artifact's shape and service-level
/// invariants; exits non-zero on any mismatch.
fn check_service(path: &str) {
    let c = Checker::load("--check-service", path, "autoserve_load");
    let top = c.top();
    let num = |key: &str| c.num(top, "", key);
    if num("requests") < 1_000_000.0 {
        c.fail(format!("committed artifact must cover >= 1M requests, got {}", num("requests")));
    }
    if num("served") != num("requests") || num("fit_errors") != 0.0 {
        c.fail("every request must be served without fit errors");
    }
    let hit_rate = num("cache_hit_rate");
    if !(0.5..=1.0).contains(&hit_rate) {
        c.fail(format!("cache_hit_rate {hit_rate} out of range (expected mostly hits)"));
    }
    let rejection_rate = num("rejection_rate");
    if !(rejection_rate > 0.0 && rejection_rate < 1.0) {
        c.fail(format!("rejection_rate {rejection_rate} must exercise backpressure partially"));
    }
    let lat = c.obj_of(top, "", "latency_us");
    let lat_num = |key: &str| c.num(lat, "latency_us.", key);
    let (hit_p99, cold_p99) = (lat_num("hit_p99"), lat_num("cold_p99"));
    for key in ["hit_p50", "cold_p50", "hit_max", "cold_max"] {
        let _ = lat_num(key);
    }
    if !(hit_p99 > 0.0 && cold_p99 >= 10.0 * hit_p99) {
        c.fail(format!("cache-hit p99 ({hit_p99}us) must be >=10x below cold p99 ({cold_p99}us)"));
    }
    if num("throughput_rps") <= 0.0 || num("elapsed_s") <= 0.0 {
        c.fail("throughput and elapsed time must be positive");
    }
    let sweep = c.arr_of(top, "", "shard_digests");
    if sweep.len() < 2 {
        c.fail(format!("shard_digests needs >=2 entries, got {}", sweep.len()));
    }
    let digests = c.identical_digests(sweep, "shard_digests entry", "shards");
    println!(
        "bench_snapshot --check-service: {path} OK ({} requests, identical digests at {:?} shards)",
        num("requests"),
        digests.iter().map(|(s, _)| *s).collect::<Vec<_>>()
    );
}

/// Runs the chaos soak (the service load under the default chaos
/// profile), its clean twin, the cross-shard chaos digest sweep, and
/// the stall/deadline probe, and writes the JSON artifact committed as
/// `BENCH_chaos.json`.
fn chaos_snapshot(out_path: &str, requests: usize, shard_requests: usize, seed: u64) {
    use dvfs_bench::service_load::{service_load, LoadConfig};
    // `FMM_ENERGY_DEVICE` selects which catalog platform every request
    // tunes for; unset (the committed artifact) is the TK1.
    let device_id = tk1_sim::catalog::from_env().id;
    let base = |req: usize, shards: usize| {
        let mut cfg = LoadConfig::chaos_soak(req, shards);
        cfg.device_id = device_id;
        cfg.seed = seed;
        cfg
    };
    let cfg = base(requests, 4);
    eprintln!(
        "bench_snapshot: chaos soak, {requests} requests for {device_id} ({} clients, 4 shards) ...",
        cfg.clients
    );
    let chaos = service_load(&cfg);
    eprintln!(
        "bench_snapshot: chaos segment {:.1}s, availability {:.5}, {} typed rejections",
        chaos.elapsed_s, chaos.availability, chaos.typed_rejections
    );
    let mut clean_cfg = base(requests, 4);
    clean_cfg.chaos = None;
    clean_cfg.stall_probes = 0;
    eprintln!("bench_snapshot: clean twin for the p99 comparison ...");
    let clean = service_load(&clean_cfg);
    let mut shard_docs = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let mut sweep = base(shard_requests, shards);
        sweep.stall_probes = 0;
        eprintln!("bench_snapshot: chaos digest sweep at {shards} shard(s) ...");
        let run = service_load(&sweep);
        shard_docs.push(Json::obj([
            ("shards", Json::Num(shards as f64)),
            ("requests", Json::Num(run.requests as f64)),
            ("served", Json::Num(run.served as f64)),
            ("typed_rejections", Json::Num(run.typed_rejections as f64)),
            ("digest", Json::Str(format!("{:016x}", run.digest))),
        ]));
    }
    let degraded_total = chaos.degraded_stale + chaos.degraded_sibling + chaos.degraded_fallback;
    let doc = Json::obj([
        ("benchmark", Json::Str("autoserve_chaos".to_string())),
        ("seed", Json::Str(format!("{seed:016x}"))),
        ("requests", Json::Num(chaos.requests as f64)),
        ("served", Json::Num(chaos.served as f64)),
        ("typed_rejections", Json::Num(chaos.typed_rejections as f64)),
        ("availability", Json::Num(chaos.availability)),
        ("retries", Json::Num(chaos.retries as f64)),
        ("recovered", Json::Num(chaos.recovered as f64)),
        ("backoff_ms", Json::Num(chaos.backoff_ms)),
        ("worker_deaths", Json::Num(chaos.worker_deaths as f64)),
        ("respawns", Json::Num(chaos.respawns as f64)),
        ("stall_respawns", Json::Num(chaos.stall_respawns as f64)),
        ("caught_panics", Json::Num(chaos.caught_panics as f64)),
        ("breaker_opens", Json::Num(chaos.breaker_opens as f64)),
        (
            "degraded",
            Json::obj([
                ("stale", Json::Num(chaos.degraded_stale as f64)),
                ("sibling", Json::Num(chaos.degraded_sibling as f64)),
                ("fallback", Json::Num(chaos.degraded_fallback as f64)),
                (
                    "share",
                    Json::Num(if chaos.served > 0 {
                        degraded_total as f64 / chaos.served as f64
                    } else {
                        0.0
                    }),
                ),
            ]),
        ),
        (
            "latency_us",
            Json::obj([
                ("chaos_hit_p99", Json::Num(chaos.hit.p99_us)),
                ("chaos_cold_p99", Json::Num(chaos.cold.p99_us)),
                ("clean_hit_p99", Json::Num(clean.hit.p99_us)),
                ("clean_cold_p99", Json::Num(clean.cold.p99_us)),
            ]),
        ),
        (
            "stall_probe",
            Json::obj([
                ("probes", Json::Num(chaos.stall_probe.probes as f64)),
                ("deadline_hits", Json::Num(chaos.stall_probe.deadline_hits as f64)),
                ("recovered", Json::Num(chaos.stall_probe.recovered as f64)),
                ("late_answers", Json::Num(chaos.stall_probe.server_late_answers as f64)),
            ]),
        ),
        ("clean_digest", Json::Str(format!("{:016x}", clean.digest))),
        ("digest", Json::Str(format!("{:016x}", chaos.digest))),
        ("shard_digests", Json::Arr(shard_docs)),
        ("threads", Json::Num(compat::par::num_threads() as f64)),
    ]);
    let text = doc.to_text();
    std::fs::write(out_path, format!("{text}\n")).expect("write chaos snapshot");
    println!("{text}");
    eprintln!("bench_snapshot: wrote {out_path}");
}

/// Validates a `--chaos` artifact's shape and failure-model gates;
/// exits non-zero on any mismatch.
fn check_chaos(path: &str) {
    let c = Checker::load("--check-chaos", path, "autoserve_chaos");
    let top = c.top();
    let num = |key: &str| c.num(top, "", key);
    if num("requests") < 50_000.0 {
        c.fail(format!("committed artifact must cover >= 50k requests, got {}", num("requests")));
    }
    if num("served") + num("typed_rejections") != num("requests") {
        c.fail("every request must resolve with an answer or a typed rejection");
    }
    let availability = num("availability");
    if availability < 0.99 {
        c.fail(format!("availability {availability} below the 99% gate"));
    }
    if num("caught_panics") <= 0.0 || num("typed_rejections") <= 0.0 {
        c.fail("the chaos profile must visibly bite (panics caught, poison keys typed)");
    }
    if num("retries") <= 0.0 || num("recovered") <= 0.0 {
        c.fail("retries must fire and recover transient failures");
    }
    let probe = c.obj_of(top, "", "stall_probe");
    let pnum = |key: &str| c.num(probe, "stall_probe.", key);
    if pnum("probes") <= 0.0 || pnum("recovered") != pnum("probes") {
        c.fail(format!(
            "deadline probe must fully recover ({} of {})",
            pnum("recovered"),
            pnum("probes")
        ));
    }
    let lat = c.obj_of(top, "", "latency_us");
    for key in ["chaos_hit_p99", "chaos_cold_p99", "clean_hit_p99", "clean_cold_p99"] {
        if c.num(lat, "latency_us.", key) <= 0.0 {
            c.fail(format!("latency_us.{key} must be positive"));
        }
    }
    let sweep = c.arr_of(top, "", "shard_digests");
    if sweep.len() < 4 {
        c.fail(format!("shard_digests needs the 1/2/4/8 sweep, got {} entries", sweep.len()));
    }
    for entry in sweep {
        let ef = c.as_obj(entry, "shard_digests entry");
        let e = |key: &str| c.num(ef, "shard_digests entry.", key);
        if e("served") + e("typed_rejections") != e("requests") {
            c.fail("shard sweep entry lost requests");
        }
    }
    let digests = c.identical_digests(sweep, "shard_digests entry", "shards");
    println!(
        "bench_snapshot --check-chaos: {path} OK ({} requests, availability {:.5}, identical digests at {:?} shards)",
        num("requests"),
        availability,
        digests.iter().map(|(s, _)| *s).collect::<Vec<_>>()
    );
}

/// Runs the fleet comparison (every catalog device through sweep, fit
/// and FMM autotuning, plus the sibling transfer studies) and writes
/// the JSON artifact committed as `BENCH_fleet.json`.
fn fleet_snapshot(out_path: &str, scale_shift: u32, seed: u64) {
    let report = dvfs_bench::fleet_report(seed, scale_shift).unwrap_or_else(|e| {
        eprintln!("bench_snapshot --fleet: pipeline error: {e:?}");
        std::process::exit(1);
    });
    let text = dvfs_bench::fleet_to_json(&report).to_text();
    std::fs::write(out_path, format!("{text}\n")).expect("write fleet snapshot");
    println!("{text}");
    eprintln!("bench_snapshot: wrote {out_path}");
}

/// Validates a `--fleet` artifact: shape plus the catalog's design
/// claims — ≥5 devices with clean sub-10% fits, the TK1 racing to
/// idle, `mi300x` autotuning to an interior best-energy point, and
/// warm-start transfer beating the cold fit at the starved budget on
/// every sibling pair.  Exits non-zero on any failure.
fn check_fleet(path: &str) {
    let c = Checker::load("--check-fleet", path, "fleet_catalog");
    let top = c.top();
    let devices = c.arr_of(top, "", "devices");
    if devices.len() < 5 {
        c.fail(format!("fleet needs >=5 devices, got {}", devices.len()));
    }
    let mut ids = Vec::new();
    let mut race_to_idle = Vec::new();
    for dev in devices {
        let df = c.as_obj(dev, "device");
        let id = c.str_of(df, "device.", "id").to_string();
        if c.bool_of(df, &format!("{id}: "), "degraded") {
            c.fail(format!("{id}: fit degraded"));
        }
        let holdout = c.num(df, &format!("{id}: "), "holdout_mean_pct");
        if !(holdout > 0.0 && holdout < 10.0) {
            c.fail(format!("{id}: holdout error {holdout:.2}% out of range"));
        }
        for pick in ["best_time", "best_energy"] {
            let pf = c.obj_of(df, &format!("{id}: "), pick);
            for key in ["core_idx", "mem_idx", "time_s", "energy_j"] {
                if c.num(pf, &format!("{id}: {pick}."), key) < 0.0 {
                    c.fail(format!("{id}: {pick}.{key} is negative"));
                }
            }
        }
        if c.num(df, &format!("{id}: "), "energy_saving_pct") < 0.0 {
            c.fail(format!("{id}: best-energy costs more than best-time"));
        }
        race_to_idle.push(c.bool_of(df, &format!("{id}: "), "race_to_idle_optimal"));
        ids.push(id);
    }
    let race = |id: &str| {
        let i = ids
            .iter()
            .position(|d| d == id)
            .unwrap_or_else(|| c.fail(format!("device {id} missing from the fleet")));
        race_to_idle[i]
    };
    if !race("tk1") {
        c.fail("tk1 must race to idle (best-energy == best-time)");
    }
    if race("mi300x") {
        c.fail("mi300x best-energy must differ from best-time");
    }
    let transfers = c.arr_of(top, "", "transfers");
    let mut siblings = 0usize;
    for t in transfers {
        let tf = c.as_obj(t, "transfer");
        let target = c.str_of(tf, "transfer.", "target");
        let source = c.str_of(tf, "transfer.", "source");
        let ctx = format!("{target} <- {source}: ");
        if !c.bool_of(tf, &ctx, "sibling") {
            continue;
        }
        siblings += 1;
        let points = c.arr_of(tf, &ctx, "points");
        let Some(first) = points.first() else {
            c.fail(format!("{ctx}empty points"));
        };
        let p0 = c.as_obj(first, "transfer point");
        let pnum = |key: &str| c.num(p0, &ctx, key);
        if pnum("budget") != 1.0 {
            c.fail(format!("{ctx}first point must be the budget-1 study"));
        }
        if pnum("warm_mean_pct") >= pnum("cold_mean_pct") {
            c.fail(format!(
                "{ctx}warm {:.2}% must beat cold {:.2}% at budget 1",
                pnum("warm_mean_pct"),
                pnum("cold_mean_pct")
            ));
        }
        if !c.bool_of(tf, &ctx, "warm_start_wins") {
            c.fail(format!("{ctx}warm start must win"));
        }
    }
    if siblings < 2 {
        c.fail(format!("fleet needs >=2 sibling transfer studies, got {siblings}"));
    }
    println!(
        "bench_snapshot --check-fleet: {path} OK ({} devices {ids:?}, {siblings} sibling transfers)",
        devices.len()
    );
}

/// Runs the streaming-engine suite with the fitted model at every
/// thread-grid width and writes the JSON artifact committed as
/// `BENCH_stream.json`.
fn stream_snapshot(out_path: &str, seed: u64, thread_grid: &[usize]) {
    use dvfs_bench::{pipeline, stream_bench, stream_to_json};
    use dvfs_stream::StreamConfig;
    eprintln!("bench_snapshot: fitting the energy model ...");
    let (model, _) = pipeline::fitted_model(seed);
    let cfg = StreamConfig::from_env();
    eprintln!(
        "bench_snapshot: streaming suite ({} drift steps, {} requests) across threads {:?} ...",
        cfg.steps, cfg.requests, thread_grid
    );
    let bench = stream_bench(&model, &cfg, thread_grid);
    let text = stream_to_json(&bench).to_text();
    std::fs::write(out_path, format!("{text}\n")).expect("write stream snapshot");
    println!("{text}");
    eprintln!("bench_snapshot: wrote {out_path}");
}

/// Validates a `--stream` artifact's shape and the streaming-engine
/// gates; exits non-zero on any mismatch.
fn check_stream(path: &str) {
    let c = Checker::load("--check-stream", path, "stream_engine");
    let top = c.top();
    // Drift: the incremental maintainer must have done real in-place
    // work, every step must be accounted for, and the run must have
    // produced positive energy/time.
    let drift = c.obj_of(top, "", "drift");
    let dnum = |key: &str| c.num(drift, "drift.", key);
    if dnum("steps") <= 0.0 {
        c.fail("drift must take at least one step");
    }
    if dnum("in_place") < 1.0 {
        c.fail("drift must exercise the in-place repair path");
    }
    if dnum("in_place") + dnum("rebuilds") != dnum("steps") {
        c.fail(format!(
            "drift steps unaccounted: {} in-place + {} rebuilds != {} steps",
            dnum("in_place"),
            dnum("rebuilds"),
            dnum("steps")
        ));
    }
    if dnum("energy_j") <= 0.0 || dnum("time_s") <= 0.0 {
        c.fail("drift energy and time must be positive");
    }
    let _ = c.str_of(drift, "drift.", "digest");
    // Burst: the pinned mixed-size stream must meet every deadline and
    // carry a plausible latency/makespan record.
    let burst = c.obj_of(top, "", "burst");
    let bnum = |key: &str| c.num(burst, "burst.", key);
    if bnum("requests") <= 0.0 {
        c.fail("burst must serve at least one request");
    }
    if bnum("deadline_misses") != 0.0 {
        c.fail(format!("pinned burst suite missed {} deadlines", bnum("deadline_misses")));
    }
    if bnum("energy_j") <= 0.0 || bnum("mean_latency_s") <= 0.0 || bnum("makespan_s") <= 0.0 {
        c.fail("burst energy, latency and makespan must be positive");
    }
    if bnum("max_latency_s") < bnum("mean_latency_s") {
        c.fail("burst max latency below the mean");
    }
    let windows = c.arr_of(burst, "burst.", "windows");
    if windows.is_empty() {
        c.fail("burst must record at least one arrival window");
    }
    let mut window_requests = 0.0;
    for w in windows {
        let wf = c.as_obj(w, "burst window");
        window_requests += c.num(wf, "burst window.", "requests");
        if c.num(wf, "burst window.", "energy_j") <= 0.0 {
            c.fail("burst window energy must be positive");
        }
    }
    if window_requests != bnum("requests") {
        c.fail(format!(
            "burst windows cover {} requests, artifact claims {}",
            window_requests,
            bnum("requests")
        ));
    }
    // Tenants: the acceptance claim — the arbitrated plan is feasible,
    // misses nothing, and beats both baselines on executed energy.
    let tenants = c.obj_of(top, "", "tenants");
    let tnum = |key: &str| c.num(tenants, "tenants.", key);
    if tnum("tenants") < 2.0 {
        c.fail("the multi-tenant study needs at least two tenants");
    }
    if !c.bool_of(tenants, "tenants.", "feasible") {
        c.fail("the arbitrated multi-tenant plan must be deadline-feasible");
    }
    if tnum("deadline_misses") != 0.0 {
        c.fail(format!("arbitrated tenants missed {} deadlines", tnum("deadline_misses")));
    }
    let (arb, stat, race) = (tnum("arbitrated_j"), tnum("static_best_j"), tnum("race_to_halt_j"));
    if !(arb > 0.0) {
        c.fail(format!("arbitrated energy must be positive, got {arb}"));
    }
    if arb > stat {
        c.fail(format!("arbitrated {arb} J must not exceed per-job static-best {stat} J"));
    }
    if arb > race {
        c.fail(format!("arbitrated {arb} J must not exceed race-to-halt {race} J"));
    }
    // The bitwise claim: identical suite digests across the full
    // 1/2/4/8 worker-thread sweep.
    let sweep = c.arr_of(top, "", "thread_digests");
    if sweep.len() < 4 {
        c.fail(format!("thread_digests needs the 1/2/4/8 sweep, got {} entries", sweep.len()));
    }
    let digests = c.identical_digests(sweep, "thread_digests entry", "threads");
    c.covers(&digests, "thread", &[1, 2, 4, 8]);
    println!(
        "bench_snapshot --check-stream: {path} OK (arbitrated {arb:.4} J <= static-best {stat:.4} J, \
         <= race-to-halt {race:.4} J, 0 misses, identical digests at {:?} threads)",
        digests.iter().map(|(t, _)| *t).collect::<Vec<_>>()
    );
}

fn main() {
    let mut out_path = "BENCH_fmm.json".to_string();
    let mut reps = scaling::reps_from_env(7);
    let mut sizes = vec![8192usize, 32768];
    let mut threads: Vec<usize> = scaling::DEFAULT_THREAD_GRID.to_vec();
    let mut check_fmm_path: Option<String> = None;
    let mut baseline_fmm: Option<String> = None;
    let mut governor_out: Option<String> = None;
    let mut fleet_out: Option<String> = None;
    let mut service_out: Option<String> = None;
    let mut chaos_out: Option<String> = None;
    let mut stream_out: Option<String> = None;
    let mut requests: Option<usize> = None;
    let mut shard_requests: Option<usize> = None;
    let mut scale_shift = 6u32;
    let mut seed = 0xC0FFEEu64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check-fmm" => {
                check_fmm_path = Some(args.next().expect("--check-fmm needs a path"));
            }
            "--baseline-fmm" => {
                baseline_fmm = Some(args.next().expect("--baseline-fmm needs a path"));
            }
            "--check-governor" => {
                let path = args.next().expect("--check-governor needs a path");
                check_governor(&path);
                return;
            }
            "--check-service" => {
                let path = args.next().expect("--check-service needs a path");
                check_service(&path);
                return;
            }
            "--check-chaos" => {
                let path = args.next().expect("--check-chaos needs a path");
                check_chaos(&path);
                return;
            }
            "--check-fleet" => {
                let path = args.next().expect("--check-fleet needs a path");
                check_fleet(&path);
                return;
            }
            "--check-stream" => {
                let path = args.next().expect("--check-stream needs a path");
                check_stream(&path);
                return;
            }
            "--governor" => {
                governor_out = Some(args.next().expect("--governor needs a path"));
            }
            "--fleet" => {
                fleet_out = Some(args.next().expect("--fleet needs a path"));
            }
            "--service" => {
                service_out = Some(args.next().expect("--service needs a path"));
            }
            "--chaos" => {
                chaos_out = Some(args.next().expect("--chaos needs a path"));
            }
            "--stream" => {
                stream_out = Some(args.next().expect("--stream needs a path"));
            }
            "--requests" => {
                requests = Some(
                    args.next().and_then(|v| v.parse().ok()).expect("--requests needs a number"),
                )
            }
            "--shard-requests" => {
                shard_requests = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--shard-requests needs a number"),
                )
            }
            "--scale-shift" => {
                scale_shift =
                    args.next().and_then(|v| v.parse().ok()).expect("--scale-shift needs a number")
            }
            "--seed" => {
                seed = args.next().and_then(|v| v.parse().ok()).expect("--seed needs a number")
            }
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--reps" => {
                reps = args.next().and_then(|v| v.parse().ok()).expect("--reps needs a number")
            }
            "--sizes" => {
                let list = args.next().expect("--sizes needs a list");
                sizes = list
                    .split(',')
                    .map(|s| s.trim().parse().expect("size must be an integer"))
                    .collect();
            }
            "--threads" => {
                let list = args.next().expect("--threads needs a list");
                threads = list
                    .split(',')
                    .map(|s| s.trim().parse().expect("thread count must be an integer"))
                    .collect();
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = check_fmm_path {
        check_fmm(&path, baseline_fmm.as_deref());
        return;
    }
    if let Some(out) = governor_out {
        governor_snapshot(&out, scale_shift, seed);
        return;
    }
    if let Some(out) = fleet_out {
        fleet_snapshot(&out, scale_shift, seed);
        return;
    }
    if let Some(out) = service_out {
        service_snapshot(
            &out,
            requests.unwrap_or(1_000_000),
            shard_requests.unwrap_or(65_536),
            seed,
        );
        return;
    }
    if let Some(out) = chaos_out {
        // The chaos soak runs at batch_max = 1 (see LoadConfig::chaos_soak),
        // so it defaults to a smaller — still six-figure — request count.
        chaos_snapshot(&out, requests.unwrap_or(100_000), shard_requests.unwrap_or(16_384), seed);
        return;
    }
    if let Some(out) = stream_out {
        stream_snapshot(&out, seed, &threads);
        return;
    }
    eprintln!("bench_snapshot: sizes {sizes:?} x threads {threads:?}, {reps} reps per point ...");
    let grid = scaling::scaling_grid(&sizes, &threads, reps, 3);
    let cases: Vec<Json> = grid.iter().map(case_to_json).collect();
    let doc = Json::obj([
        ("benchmark", Json::Str("fmm_evaluate_phases".to_string())),
        ("cases", Json::Arr(cases)),
    ]);
    let text = doc.to_text();
    std::fs::write(&out_path, format!("{text}\n")).expect("write snapshot");
    println!("{text}");
    eprintln!("bench_snapshot: wrote {out_path}");
}
