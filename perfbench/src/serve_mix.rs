//! serve-mix: an `AutoServer` with one shard per core, driven closed
//! loop by one client thread per core submitting fixed bursts.

use crate::gen::{self, Class, BURST, DEVICE};
use crate::trace::Tracer;
use crate::{Checked, Window, Workload};
use dvfs_autoserve::{
    fold_digest, shard_for, AutoServer, LowerCache, ModelKey, Rejected, Rig, ServeConfig, Ticket,
    TuneRequest, WorkloadSpec,
};
use dvfs_energy_model::{service_grid_for, try_fit_model};
use dvfs_governor::{plan_phase_settings, Predictor, TransitionModel};
use dvfs_microbench::{try_run_sweep, SweepConfig};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tk1_sim::catalog;
use tk1_sim::Device;

/// One in `SAMPLE_EVERY` requests is checked against an in-process rig.
pub const SAMPLE_EVERY: u64 = 1000;
/// The run digest folds requests `0..PREFIX_IDS`, which every run
/// reaches, so it is comparable across runs of one seed.
pub const PREFIX_IDS: u64 = 16384;
/// Request ids of set-up traffic, disjoint from the request stream.
const SETUP_IDS: u64 = 1 << 62;
/// Fresh boards fitted by the traced run's fit-path probe.
const FIT_REPS: u64 = 3;
/// Repetitions of each hot-path probe call.
const ANSWER_REPS: u64 = 200;
/// Request id the probes' spans carry.
const PROBE_ID: u64 = u64::MAX;

/// Span name of a request of each class, in [`Class::ALL`] order.
pub const CLASS_SPANS: [&str; 4] =
    ["autoserve.hit", "autoserve.plan", "autoserve.fmm", "autoserve.cold"];

fn class_span(class: Class) -> &'static str {
    CLASS_SPANS[Class::ALL.iter().position(|&c| c == class).expect("every class is listed")]
}

/// What one client thread saw in a window.
#[derive(Default)]
struct Client {
    attempted: u64,
    failed: u64,
    degraded: u64,
    latencies_ms: Vec<f64>,
    /// `(request, answer digest)` of prefix and sampled requests.
    kept: Vec<(u64, u64)>,
}

/// The serve-mix workload.
pub struct ServeMix {
    seed: u64,
    boards: Vec<u64>,
    server: AutoServer,
    clients: usize,
    next_burst: AtomicU64,
    completed: u64,
    degraded: u64,
    kept: Vec<(u64, u64)>,
}

fn await_all(tickets: Vec<Result<Ticket, Rejected>>) -> Result<(), String> {
    for t in tickets {
        t.and_then(Ticket::wait).map_err(|e| format!("serve-mix set-up request failed: {e:?}"))?;
    }
    Ok(())
}

fn request(board: u64, workload: WorkloadSpec, rounds: usize) -> TuneRequest {
    TuneRequest { device_id: DEVICE, device_seed: board, workload, plan_rounds: rounds }
}

impl ServeMix {
    fn client(&self, deadline: Instant, mut tracer: Option<&mut Tracer>) -> Client {
        let mut c = Client::default();
        let mut pending = Vec::with_capacity(BURST);
        while Instant::now() < deadline {
            let first = self.next_burst.fetch_add(1, Ordering::Relaxed) * BURST as u64;
            let burst: Vec<(u64, (Class, TuneRequest))> = (first..first + BURST as u64)
                .map(|id| (id, gen::serve_request(self.seed, &self.boards, id)))
                .collect();
            for (id, (class, req)) in burst {
                let start = Instant::now();
                let ticket = self.server.submit(req);
                pending.push((id, class, start, Instant::now(), ticket));
            }
            for (id, class, start, submitted, ticket) in pending.drain(..) {
                let answer = ticket.and_then(Ticket::wait);
                let end = Instant::now();
                if let Some(tr) = tracer.as_deref_mut() {
                    let span = tr.record(class_span(class), id, start, end);
                    tr.record_under(span, "autoserve.submit", id, start, submitted);
                }
                c.attempted += 1;
                match answer {
                    Ok(resp) => {
                        c.latencies_ms.push((end - start).as_secs_f64() * 1e3);
                        c.degraded += resp.degraded as u64;
                        if id < PREFIX_IDS || gen::sampled(self.seed, id, SAMPLE_EVERY) {
                            c.kept.push((id, resp.digest()));
                        }
                    }
                    Err(_) => c.failed += 1,
                }
            }
        }
        c
    }

    /// Requests answered so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

impl Workload for ServeMix {
    fn setup(seed: u64) -> Result<Self, String> {
        let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
        let server = AutoServer::start(ServeConfig {
            shards,
            faults: None,
            chaos: None,
            ..ServeConfig::default()
        });
        let boards = gen::warm_boards(seed, shards);
        // Cold-fit every warm board.
        let warm = boards
            .iter()
            .enumerate()
            .map(|(k, &b)| {
                server.submit(request(b, gen::kernel_spec(seed, SETUP_IDS + k as u64), 0))
            })
            .collect();
        await_all(warm)?;
        // Lower the FMM spec on every shard, so first-sight lowering stays
        // out of the timed window.
        let lower = (0..shards)
            .filter_map(|s| {
                boards.iter().find(|&&b| shard_for(&ModelKey::new(DEVICE, b, None), shards) == s)
            })
            .map(|&b| server.submit(request(b, gen::fmm_spec(seed), 0)))
            .collect();
        await_all(lower)?;
        Ok(ServeMix {
            seed,
            boards,
            server,
            clients: shards,
            next_burst: AtomicU64::new(0),
            completed: 0,
            degraded: 0,
            kept: Vec::new(),
        })
    }

    fn window(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Window {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let traced = tracer.as_ref().map(|tr| tr.child());
        let this = &*self;
        let results: Vec<(Client, Option<Tracer>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..this.clients)
                .map(|_| {
                    let mut local = traced.clone();
                    s.spawn(move || (this.client(deadline, local.as_mut()), local))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("serve-mix client thread panicked"))
                .collect()
        });
        let seconds = start.elapsed().as_secs_f64();
        let mut window = Window { seconds, ..Window::default() };
        let mut tracer = tracer;
        for (c, local) in results {
            window.attempted += c.attempted;
            window.failed += c.failed;
            self.completed += c.latencies_ms.len() as u64;
            window.latencies_ms.extend(c.latencies_ms);
            self.degraded += c.degraded;
            self.kept.extend(c.kept);
            if let (Some(tr), Some(local)) = (tracer.as_deref_mut(), local) {
                tr.absorb(local);
            }
        }
        window
    }

    fn probe(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let spec = catalog::tk1();
        let err = |e: compat::error::PipelineError| format!("serve-mix probe: {e}");
        // Fit path, on boards no request names.
        for k in 0..FIT_REPS {
            let board = gen::cold_board(self.seed, PROBE_ID - k);
            let run = tr.span("microbench.sweep", PROBE_ID, |_| {
                try_run_sweep(&SweepConfig::service_preset_on(&spec, board, None))
            });
            let run = run.map_err(err)?;
            tr.span("core.fit", PROBE_ID, |_| try_fit_model(run.dataset.training()).map(black_box))
                .map_err(err)?;
            tr.span("governor.calibrate", PROBE_ID, |_| {
                black_box(TransitionModel::calibrate(&mut Device::from_spec(&spec, board)))
            });
            tr.span("autoserve.cold_fit", PROBE_ID, |_| Rig::cold_fit_on(&spec, board, None))
                .map_err(err)?;
        }
        // Hot path, on a warm board's rig with the spec already lowered.
        let board = self.boards[0];
        let rig = Rig::cold_fit_on(&spec, board, None).map_err(err)?;
        let mut lowered = LowerCache::new(2);
        tr.span("autoserve.lower", PROBE_ID, |_| {
            black_box(lowered.kernels(&gen::fmm_spec(self.seed)))
        });
        let mut device = Device::from_spec(&spec, board);
        let timing = device.timing_model().clone();
        let transitions = TransitionModel::calibrate(&mut device);
        let predictor = Predictor { model: &rig.model, timing: &timing, transitions: &transitions };
        let grid = service_grid_for(&spec);
        for r in 0..ANSWER_REPS {
            let kernel = gen::kernel_spec(self.seed, PROBE_ID - r);
            let hit = request(board, kernel.clone(), 0);
            tr.span("core.predict_grid", PROBE_ID, |_| black_box(rig.answer(&hit, &mut lowered)));
            let plan = request(board, kernel.clone(), gen::PLAN_ROUNDS);
            tr.span("autoserve.plan_answer", PROBE_ID, |_| {
                black_box(rig.answer(&plan, &mut lowered))
            });
            let fmm = request(board, gen::fmm_spec(self.seed), 0);
            tr.span("autoserve.fmm_answer", PROBE_ID, |_| {
                black_box(rig.answer(&fmm, &mut lowered))
            });
            let kernels = lowered.kernels(&kernel);
            tr.span("governor.plan", PROBE_ID, |_| {
                black_box(plan_phase_settings(
                    &predictor,
                    &grid,
                    spec.max_performance(),
                    &kernels,
                    gen::PLAN_ROUNDS,
                ))
            });
        }
        Ok(())
    }

    fn finish(self, tracer: Option<&mut Tracer>) -> Result<Checked, String> {
        let ServeMix { seed, boards, server, completed, degraded, mut kept, .. } = self;
        let stats = server.shutdown();
        if let Some(tr) = tracer {
            let lookups = (stats.cache_hits + stats.cache_misses).max(1);
            tr.count(
                "autoserve.cache_hit_share",
                PROBE_ID,
                stats.cache_hits as f64 / lookups as f64,
            );
            tr.count(
                "autoserve.batch_size",
                PROBE_ID,
                stats.served as f64 / stats.batches.max(1) as f64,
            );
            tr.count("autoserve.max_queue_depth", PROBE_ID, stats.max_queue_depth as f64);
            tr.count("autoserve.rejections", PROBE_ID, stats.rejected as f64);
        }

        // Sampled answers must equal an in-process cold fit + answer, and a
        // clean service never degrades.
        let spec = catalog::tk1();
        let mut rigs: HashMap<u64, Rig> = HashMap::new();
        let mut lowered = LowerCache::new(2);
        let mut failures = degraded;
        let mut sampled = 0;
        for &(id, digest) in kept.iter().filter(|(id, _)| gen::sampled(seed, *id, SAMPLE_EVERY)) {
            sampled += 1;
            let (_, req) = gen::serve_request(seed, &boards, id);
            let rig = match rigs.entry(req.device_seed) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(
                    Rig::cold_fit_on(&spec, req.device_seed, None)
                        .map_err(|e| format!("serve-mix reference fit: {e}"))?,
                ),
            };
            if rig.answer(&req, &mut lowered).digest() != digest {
                failures += 1;
            }
        }

        // Every request of the prefix must have been answered for the
        // digest to be comparable across runs.
        kept.retain(|(id, _)| *id < PREFIX_IDS);
        kept.sort_unstable();
        let digest = (kept.len() as u64 == PREFIX_IDS)
            .then(|| kept.iter().fold(0, |acc, &(id, d)| fold_digest(acc, id, d)));
        let shown = digest.map_or_else(
            || format!("not reached ({} of {PREFIX_IDS} requests answered)", kept.len()),
            |d| format!("{d:016x}"),
        );
        let notes = vec![format!(
            "serve-mix: {completed} requests answered, {degraded} degraded, {sampled} sampled answers checked against in-process rigs, {failures} failed; fold digest of requests 0..{PREFIX_IDS}: {shown}; server served {} in {} batches, {} rejected",
            stats.served,
            stats.batches,
            stats.rejected
        )];
        Ok(Checked { failures, notes, digest })
    }
}
