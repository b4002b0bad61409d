//! End-to-end and per-layer benchmark of the fmm-energy workspace.
//!
//! Three closed-loop workloads run from one process, each stressing
//! different layers (see `perfbench/NOTES.md`):
//!
//! * `fmm-solve` — plan build + evaluation of a fresh problem per request;
//! * `stream-drift` — incremental tree repair + evaluation per step;
//! * `serve-mix` — the autotune service under a mixed request stream.
//!
//! An untraced run reports the end-to-end metrics of one workload.  A
//! traced run times the benchmark's own calls into each crate's public
//! functions and reports per-layer metrics for all three workloads.

pub mod fmm_solve;
pub mod gen;
pub mod layers;
pub mod measure;
pub mod serve_mix;
pub mod stream_drift;
pub mod trace;

use compat::json::Json;
use kifmm::{EnginePhase, PhaseObserver};
use std::time::Instant;
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// `tail_ms` is the median, over this many consecutive blocks of a run's
/// requests, of each block's tail percentile.  On a shared host the
/// whole-run p90s of the FMM workloads spread by up to 37 % over ten runs
/// of the same code.
pub const TAIL_BLOCKS: usize = 10;
/// Seconds per window of a traced run's side workloads (the workloads
/// other than the one named on the command line).
pub const SIDE_SECONDS: f64 = 3.0;
/// Where a traced run writes its spans and counts.
pub const TRACE_DIR: &str = ".bench_out";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Fresh FMM problem per request.
    FmmSolve,
    /// Streaming FMM over a drifting particle set.
    StreamDrift,
    /// The autotune service under mixed traffic.
    ServeMix,
}

impl Name {
    /// Every workload, in the order a traced run visits them.
    pub const ALL: [Name; 3] = [Name::FmmSolve, Name::StreamDrift, Name::ServeMix];

    /// Command-line name.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::FmmSolve => "fmm-solve",
            Name::StreamDrift => "stream-drift",
            Name::ServeMix => "serve-mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }

    /// Percentile of each block behind `tail_ms` (see [`TAIL_BLOCKS`]): a
    /// round percentile that keeps at least ten samples beyond it at the
    /// benchmark's run length.
    pub fn tail_pct(self) -> f64 {
        match self {
            Name::FmmSolve => 90.0,
            Name::StreamDrift => 90.0,
            Name::ServeMix => 99.9,
        }
    }
}

/// What one timed window observed.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of every completed request, ms.
    pub latencies_ms: Vec<f64>,
    /// Requests started.
    pub attempted: u64,
    /// Requests refused or failed before answering.
    pub failed: u64,
    /// Wall length of the window, s.
    pub seconds: f64,
}

/// The outcome of a workload's correctness checks.
#[derive(Debug, Default)]
pub struct Checked {
    /// Answers that failed their check.
    pub failures: u64,
    /// Human-readable check summaries.
    pub notes: Vec<String>,
    /// Order-insensitive digest of a fixed prefix of the answers, where
    /// the workload has one; equal across runs of one seed.
    pub digest: Option<u64>,
}

/// A closed-loop workload.
pub trait Workload: Sized {
    /// Everything done before the first request can be served.
    fn setup(seed: u64) -> Result<Self, String>;
    /// Serves requests for `seconds`, recording spans when traced.
    fn window(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Window;
    /// Traced-run timings of layer calls that requests do not isolate.
    fn probe(&mut self, _tracer: &mut Tracer) -> Result<(), String> {
        Ok(())
    }
    /// Stops the workload and checks the answers kept for checking.
    fn finish(self, tracer: Option<&mut Tracer>) -> Result<Checked, String>;
}

/// Runs `request` back to back for `seconds`; it returns its latency in
/// ms, or `None` when it failed.
pub fn sequential_window(seconds: f64, mut request: impl FnMut() -> Option<f64>) -> Window {
    let start = Instant::now();
    let mut w = Window::default();
    while start.elapsed().as_secs_f64() < seconds {
        w.attempted += 1;
        match request() {
            Some(ms) => w.latencies_ms.push(ms),
            None => w.failed += 1,
        }
    }
    w.seconds = start.elapsed().as_secs_f64();
    w
}

/// Records each FMM evaluation phase as a span.
pub struct PhaseSpans<'a> {
    tracer: &'a mut Tracer,
    names: &'a [&'static str; 5],
    request: u64,
    start: Instant,
}

impl<'a> PhaseSpans<'a> {
    /// Spans named `names` (in [`EnginePhase::ALL`] order) for `request`.
    pub fn new(tracer: &'a mut Tracer, names: &'a [&'static str; 5], request: u64) -> Self {
        PhaseSpans { tracer, names, request, start: Instant::now() }
    }
}

impl PhaseObserver for PhaseSpans<'_> {
    fn on_phase_start(&mut self, _phase: EnginePhase) {
        self.start = Instant::now();
    }

    fn on_phase_end(&mut self, phase: EnginePhase, _elapsed_s: f64) {
        let k = EnginePhase::ALL.iter().position(|&p| p == phase).expect("known phase");
        self.tracer.record(self.names[k], self.request, self.start, Instant::now());
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    /// Every answer kept for checking passed its check.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests refused, failed, or answered wrongly.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Summary lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line.
    pub fn to_json(&self) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            let entry =
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::Str(m.unit.into()))]);
            metrics.push((m.name.clone(), entry));
        }
        Ok(Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_text())
    }
}

/// Runs `name` untraced for `seconds` and reports its end-to-end metrics.
pub fn end_to_end(name: Name, seed: u64, seconds: f64) -> Result<Report, String> {
    match name {
        Name::FmmSolve => run_end_to_end::<fmm_solve::FmmSolve>(name, seed, seconds),
        Name::StreamDrift => run_end_to_end::<stream_drift::StreamDrift>(name, seed, seconds),
        Name::ServeMix => run_end_to_end::<serve_mix::ServeMix>(name, seed, seconds),
    }
}

fn run_end_to_end<W: Workload>(name: Name, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload: Option<W> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = workload.take() {
            previous.finish(None)?;
        }
        let start = Instant::now();
        workload = Some(W::setup(seed)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUP_REPEATS > 0");
    let cpu_start = measure::cpu_seconds()?;
    let w = workload.window(seconds, None);
    let cpu_s = measure::cpu_seconds()? - cpu_start;
    let rss_mb = measure::peak_rss_mb()?;
    let checked = workload.finish(None)?;

    let completed = w.latencies_ms.len();
    if completed == 0 {
        return Err(format!("{}: no request completed in {seconds} s", name.as_str()));
    }
    let failed = (w.failed + checked.failures).min(w.attempted);
    let pct = name.tail_pct();
    let tail_ms = measure::block_percentile(&w.latencies_ms, TAIL_BLOCKS, pct);
    let mut notes = checked.notes;
    notes.push(format!(
        "{}: {completed} requests completed in {:.2} s; tail_ms is the median p{pct} of {TAIL_BLOCKS} blocks ({} samples beyond it)",
        name.as_str(),
        w.seconds,
        w.latencies_ms.iter().filter(|&&ms| ms > tail_ms).count()
    ));
    let metric = |name: &str, value: f64, unit| Metric { name: name.into(), value, unit };
    Ok(Report {
        correct: checked.failures == 0,
        attempted: w.attempted,
        failed,
        metrics: vec![
            metric("setup_s", measure::median(&setups), "s"),
            metric("p50_ms", measure::median(&w.latencies_ms), "ms"),
            metric("tail_ms", tail_ms, "ms"),
            metric("rate_per_s", completed as f64 / w.seconds, "1/s"),
            metric("cpu_ms_per_req", cpu_s * 1e3 / completed as f64, "ms"),
            metric("rss_peak_mb", rss_mb, "MiB"),
            metric("ok_share", (w.attempted - failed) as f64 / w.attempted as f64, "share"),
        ],
        notes,
    })
}

/// Untraced and traced windows of one workload inside a traced run.
#[derive(Debug)]
pub struct Pass {
    /// Median latency of the untraced window, ms.
    pub untraced_p50_ms: f64,
    /// Median latency of the traced window, ms.
    pub traced_p50_ms: f64,
    /// Requests attempted over both windows.
    pub attempted: u64,
    /// Requests failed or answered wrongly over both windows.
    pub failed: u64,
    /// Answers that failed their check.
    pub wrong: u64,
}

fn run_pass<W: Workload>(
    name: Name,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    notes: &mut Vec<String>,
) -> Result<Pass, String> {
    let mut workload = W::setup(seed)?;
    let plain = workload.window(seconds, None);
    let traced = workload.window(seconds, Some(tracer));
    workload.probe(tracer)?;
    let checked = workload.finish(Some(tracer))?;
    notes.extend(checked.notes);
    let attempted = plain.attempted + traced.attempted;
    let pass = Pass {
        untraced_p50_ms: measure::median(&plain.latencies_ms),
        traced_p50_ms: measure::median(&traced.latencies_ms),
        attempted,
        failed: (plain.failed + traced.failed + checked.failures).min(attempted),
        wrong: checked.failures,
    };
    notes.push(format!(
        "{}: traced run, {} untraced + {} traced requests, p50 {:.4} ms untraced vs {:.4} ms traced",
        name.as_str(),
        plain.latencies_ms.len(),
        traced.latencies_ms.len(),
        pass.untraced_p50_ms,
        pass.traced_p50_ms
    ));
    Ok(pass)
}

/// The traced run: every workload runs an untraced then a traced window
/// (`seconds / 2` each for `named`, [`SIDE_SECONDS`] for the others),
/// and the per-layer metrics come from the spans and counts recorded.
pub fn per_layer(named: Name, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut tracer = Tracer::new(Instant::now());
    let mut notes = Vec::new();
    let mut passes = Vec::with_capacity(Name::ALL.len());
    for name in Name::ALL {
        let secs = if name == named { seconds / 2.0 } else { SIDE_SECONDS.min(seconds / 2.0) };
        let (tr, n) = (&mut tracer, &mut notes);
        let pass = match name {
            Name::FmmSolve => run_pass::<fmm_solve::FmmSolve>(name, seed, secs, tr, n)?,
            Name::StreamDrift => run_pass::<stream_drift::StreamDrift>(name, seed, secs, tr, n)?,
            Name::ServeMix => run_pass::<serve_mix::ServeMix>(name, seed, secs, tr, n)?,
        };
        passes.push((name, pass));
    }
    let dir = std::path::Path::new(TRACE_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
    let stem = dir.join(named.as_str());
    tracer.write_csv(&stem).map_err(|e| format!("writing spans: {e}"))?;
    notes.push(format!("{} spans written to {}.spans.csv", tracer.spans().len(), stem.display()));
    Ok(Report {
        correct: passes.iter().all(|(_, p)| p.wrong == 0),
        attempted: passes.iter().map(|(_, p)| p.attempted).sum(),
        failed: passes.iter().map(|(_, p)| p.failed).sum(),
        metrics: layers::metrics(&tracer, &passes),
        notes,
    })
}
