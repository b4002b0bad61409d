//! Generator and contract tests.  Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the held-out-seed and traced-run tests solve real FMM problems).

use compat::json::Json;
use dvfs_autoserve::{shard_for, ModelKey};
use perfbench::gen::{self, Class};
use perfbench::serve_mix::ServeMix;
use perfbench::{end_to_end, per_layer, Name, Workload};

/// A seed never used while the benchmark was tuned.
const HELD_OUT_SEED: u64 = 914_257_661;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(section: &str) -> Vec<String> {
    benchmark_json()
        .field(section)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| m.field("name").and_then(Json::as_str).expect("metric name").to_string())
        .collect()
}

#[test]
fn every_listed_workload_is_runnable() {
    let names = listed("workloads");
    assert!(names.len() >= 2, "{names:?}");
    for name in names {
        assert!(Name::parse(&name).is_some(), "{name} is not a workload");
    }
}

#[test]
fn inputs_are_pure_in_seed_and_request_index() {
    for seed in [0, 3, HELD_OUT_SEED] {
        assert_eq!(gen::solve_problem(seed, 5), gen::solve_problem(seed, 5));
        assert_ne!(gen::solve_problem(seed, 5).points, gen::solve_problem(seed, 6).points);
        assert_ne!(gen::solve_problem(seed, 5).points, gen::solve_problem(seed + 1, 5).points);
        assert_eq!(gen::check_targets(seed, 9), gen::check_targets(seed, 9));
        assert_eq!(gen::drift_problem(seed), gen::drift_problem(seed));
        let boards = gen::warm_boards(seed, 2);
        assert_eq!(boards, gen::warm_boards(seed, 2));
        for id in [0, 1, 77, 1 << 20] {
            assert_eq!(
                gen::serve_request(seed, &boards, id),
                gen::serve_request(seed, &boards, id)
            );
        }
    }
}

#[test]
fn serve_mix_class_shares_land_on_their_targets_for_any_seed() {
    const IDS: u64 = 200_000;
    for seed in [0, 1, 42, HELD_OUT_SEED, u64::MAX] {
        let mut seen = [0u64; 4];
        for id in 0..IDS {
            let k = Class::ALL.iter().position(|&c| c == gen::class_of(seed, id)).unwrap();
            seen[k] += 1;
        }
        for (class, n) in Class::ALL.iter().zip(seen) {
            let target = class.per_mille() as f64 / 1000.0;
            let share = n as f64 / IDS as f64;
            // Five binomial standard deviations.
            let tol = 5.0 * (target * (1.0 - target) / IDS as f64).sqrt();
            assert!((share - target).abs() < tol, "seed {seed} {class:?}: {share} vs {target}");
        }
    }
}

#[test]
fn warm_boards_are_distinct_balanced_and_never_cold() {
    for seed in [0, 9, HELD_OUT_SEED] {
        for shards in 1..=4 {
            let boards = gen::warm_boards(seed, shards);
            assert_eq!(boards.len(), gen::WARM_BOARDS);
            let mut per_shard = vec![0; shards];
            for (i, b) in boards.iter().enumerate() {
                assert!(!boards[..i].contains(b), "duplicate board {b}");
                per_shard[shard_for(&ModelKey::new(gen::DEVICE, *b, None), shards)] += 1;
            }
            // 24 boards split evenly over 1–4 shards.
            assert!(per_shard.iter().all(|&n| n == gen::WARM_BOARDS / shards), "{per_shard:?}");
            for id in 0..10_000 {
                assert!(!boards.contains(&gen::cold_board(seed, id)));
            }
        }
    }
}

#[test]
fn a_held_out_seed_passes_every_check() {
    for name in Name::ALL {
        let report = end_to_end(name, HELD_OUT_SEED, 2.0).expect("run completes");
        assert!(report.correct, "{}: {:?}", name.as_str(), report.notes);
        assert_eq!(report.failed, 0, "{}", name.as_str());
        let got: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(got, listed("end_to_end"), "{}", name.as_str());
        let ok = report.metrics.iter().find(|m| m.name == "ok_share").unwrap();
        assert_eq!(ok.value, 1.0);
    }
}

#[test]
fn serve_mix_run_digest_repeats_for_one_seed() {
    let digest = || {
        let mut w = ServeMix::setup(HELD_OUT_SEED).expect("set-up");
        for _ in 0..20 {
            if w.completed() >= perfbench::serve_mix::PREFIX_IDS {
                break;
            }
            w.window(0.5, None);
        }
        w.finish(None).expect("checks").digest.expect("prefix reached")
    };
    assert_eq!(digest(), digest());
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let report = per_layer(Name::StreamDrift, HELD_OUT_SEED, 2.0).expect("traced run");
    assert!(report.correct, "{:?}", report.notes);
    let got: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(got, listed("per_layer"));
    let value = |n: &str| report.metrics.iter().find(|m| m.name == n).unwrap().value;
    assert!(value("kifmm.plan_ms") > 0.0 && value("stream.eval_ms") > 0.0);
    assert!(value("autoserve.hit_p50_ms") > 0.0 && value("kifmm.leaves") > 0.0);
}
