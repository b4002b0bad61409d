//! Per-layer metrics of a traced run, assembled from its spans and counts.
//!
//! Every timing is the median over the spans of one name; every count is
//! exact.  Which end-to-end metric each layer should move, and on which
//! workload, is tabulated in `perfbench/NOTES.md`.

use crate::fmm_solve::{PHASE_BYTES, PHASE_FLOPS, PROBE_PHASES, REQUEST_PHASES};
use crate::gen::Class;
use crate::measure::{median, percentile};
use crate::serve_mix::CLASS_SPANS;
use crate::trace::Tracer;
use crate::{Metric, Name, Pass};

const PHASES: [&str; 5] = ["up", "v", "x", "down", "near"];

fn med(tr: &Tracer, span: &str) -> f64 {
    median(&tr.durations(span))
}

fn total(tr: &Tracer, count: &str) -> f64 {
    tr.counts(count).iter().sum()
}

/// Median over requests of `whole − Σ parts`, pairing the spans of each
/// name in recording order (one of each per request).
fn remainder(tr: &Tracer, whole: &str, parts: &[&str]) -> f64 {
    let parts: Vec<Vec<f64>> = parts.iter().map(|p| tr.durations(p)).collect();
    let rest: Vec<f64> = tr
        .durations(whole)
        .iter()
        .enumerate()
        .map(|(i, w)| w - parts.iter().map(|p| p.get(i).copied().unwrap_or(0.0)).sum::<f64>())
        .collect();
    median(&rest)
}

/// Every per-layer metric of a traced run.
pub fn metrics(tr: &Tracer, passes: &[(Name, Pass)]) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put =
        |name: String, value: f64, unit: &'static str| out.push(Metric { name, value, unit });
    let pass = |name: Name| passes.iter().find(|(n, _)| *n == name).map(|(_, p)| p);

    // kifmm build and evaluate, per fmm-solve request.
    for (metric, span) in [
        ("kifmm.tree_ms", "kifmm.tree"),
        ("kifmm.lists_ms", "kifmm.lists"),
        ("kifmm.plan_ms", "kifmm.plan"),
    ] {
        put(metric.into(), med(tr, span), "ms");
    }
    put(
        "kifmm.operators_ms".into(),
        remainder(tr, "kifmm.plan", &["kifmm.tree", "kifmm.lists"]),
        "ms",
    );
    put("kifmm.eval_ms".into(), med(tr, "kifmm.eval"), "ms");
    put("kifmm.eval_self_ms".into(), median(&tr.self_times("kifmm.eval")), "ms");
    for (phase, span) in PHASES.iter().zip(REQUEST_PHASES) {
        put(format!("kifmm.{phase}_ms"), med(tr, span), "ms");
    }

    // The same problem at one worker and at every worker.
    for (metric, span) in [
        ("kifmm.tree_1t_ms", "kifmm.tree_1t"),
        ("kifmm.lists_1t_ms", "kifmm.lists_1t"),
        ("kifmm.plan_1t_ms", "kifmm.plan_1t"),
        ("kifmm.eval_1t_ms", "kifmm.eval_1t"),
    ] {
        put(metric.into(), med(tr, span), "ms");
    }
    put(
        "kifmm.operators_1t_ms".into(),
        remainder(tr, "kifmm.plan_1t", &["kifmm.tree_1t", "kifmm.lists_1t"]),
        "ms",
    );
    let one = med(tr, "kifmm.plan_1t") + med(tr, "kifmm.eval_1t");
    let all = med(tr, "probe.kifmm.plan") + med(tr, "probe.kifmm.eval");
    put("kifmm.speedup".into(), if all > 0.0 { one / all } else { 0.0 }, "x");
    put("compat.threads".into(), total(tr, "compat.threads"), "count");

    // Exact tree and list counts.
    for name in ["leaves", "depth", "u_pairs", "v_pairs", "w_entries", "x_entries"] {
        let count = format!("kifmm.{name}");
        put(count.clone(), total(tr, &count), "count");
    }

    // Computed op counts (instrumentation model) against measured time.
    for (k, phase) in PHASES.iter().enumerate() {
        let flops = total(tr, PHASE_FLOPS[k]);
        let bytes = total(tr, PHASE_BYTES[k]);
        let ms = med(tr, PROBE_PHASES[k]);
        put(format!("kifmm.{phase}.flops"), flops, "flop");
        put(format!("kifmm.{phase}.dram_bytes"), bytes, "B");
        put(format!("kifmm.{phase}.flop_per_byte"), flops / bytes.max(1.0), "flop/B");
        put(
            format!("kifmm.{phase}.gflops"),
            if ms > 0.0 { flops / ms / 1e6 } else { 0.0 },
            "GFLOP/s",
        );
    }

    // stream: per step, and exact repair counts over the traced steps.
    put("stream.advance_ms".into(), med(tr, "stream.advance"), "ms");
    put("stream.eval_ms".into(), med(tr, "stream.eval"), "ms");
    put("stream.v_ms".into(), med(tr, "stream.v"), "ms");
    put("stream.steps".into(), tr.durations("stream.eval").len() as f64, "count");
    for name in ["stream.in_place", "stream.rebuilds", "stream.migrants"] {
        put(name.into(), total(tr, name), "count");
    }

    // autoserve, client-observed, per class.
    put("autoserve.submit_us".into(), med(tr, "autoserve.submit") * 1e3, "us");
    for (class, span) in Class::ALL.iter().zip(CLASS_SPANS) {
        let lat = tr.durations(span);
        put(format!("autoserve.{}_p50_ms", class.name()), median(&lat), "ms");
        put(format!("autoserve.{}_p99_ms", class.name()), percentile(&lat, 99.0), "ms");
    }
    // Queue wait: latency minus the class's standalone service time.
    let hit = med(tr, "core.predict_grid");
    let service = [
        hit,
        med(tr, "autoserve.plan_answer"),
        med(tr, "autoserve.fmm_answer"),
        med(tr, "autoserve.cold_fit") + hit,
    ];
    let waits: Vec<f64> = CLASS_SPANS
        .iter()
        .zip(service)
        .flat_map(|(span, own)| tr.durations(span).into_iter().map(move |l| l - own))
        .collect();
    put("autoserve.queue_wait_p50_ms".into(), median(&waits), "ms");
    put("autoserve.queue_wait_p99_ms".into(), percentile(&waits, 99.0), "ms");
    put("autoserve.cache_hit_share".into(), total(tr, "autoserve.cache_hit_share"), "share");
    put("autoserve.batch_size".into(), total(tr, "autoserve.batch_size"), "count");
    put("autoserve.max_queue_depth".into(), total(tr, "autoserve.max_queue_depth"), "count");
    put("autoserve.rejections".into(), total(tr, "autoserve.rejections"), "count");
    put("autoserve.lower_ms".into(), med(tr, "autoserve.lower"), "ms");
    put("autoserve.cold_fit_ms".into(), med(tr, "autoserve.cold_fit"), "ms");

    // core + governor answer path, and the fit path.
    put("core.predict_grid_us".into(), hit * 1e3, "us");
    put("governor.plan_us".into(), med(tr, "governor.plan") * 1e3, "us");
    put("microbench.sweep_ms".into(), med(tr, "microbench.sweep"), "ms");
    put("core.fit_ms".into(), med(tr, "core.fit"), "ms");
    put("governor.calibrate_ms".into(), med(tr, "governor.calibrate"), "ms");

    // Tracing overhead and how much of a request the layers account for.
    for name in Name::ALL {
        let overhead = pass(name).map_or(0.0, |p| p.traced_p50_ms - p.untraced_p50_ms);
        put(format!("trace.{}.overhead_ms", name.as_str()), overhead, "ms");
    }
    let share = |name: Name, layers: f64| {
        pass(name).map_or(0.0, |p| {
            if p.untraced_p50_ms > 0.0 {
                layers / p.untraced_p50_ms
            } else {
                0.0
            }
        })
    };
    let solve = share(Name::FmmSolve, med(tr, "kifmm.plan") + med(tr, "kifmm.eval"));
    let drift = share(Name::StreamDrift, med(tr, "stream.advance") + med(tr, "stream.eval"));
    put("ledger.fmm-solve.share".into(), solve, "share");
    put("ledger.stream-drift.share".into(), drift, "share");
    put("trace.spans".into(), tr.spans().len() as f64, "count");
    out
}
