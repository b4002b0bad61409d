//! DVFS governors racing on the FMM's phase sequence.
//!
//! The paper's Related Work contrasts model-based DVFS selection with
//! system-level, slack-reactive governors.  This example stages that
//! comparison directly: the FMM's six phase kernels (profiled at
//! N = 32768, Q = 128) run under four governors, and the energy roofline
//! shows *why* the winners win.
//!
//! Run with: `cargo run --release --example governor_study`

use compat::rng::StdRng;
use fmm_energy::governor::{FixedSetting, OnDemand, RaceToHalt};
use fmm_energy::model::roofline::EnergyRoofline;
use fmm_energy::prelude::*;

fn main() {
    // Fit the model (its estimates drive the model-based governor).
    println!("fitting the model ...");
    let dataset = run_sweep(&SweepConfig::default());
    let model = fit_model(dataset.training()).model;

    // Profile the FMM's phases into executable kernels.
    let n = 32_768;
    let mut rng = StdRng::seed_from_u64(7);
    let pts: Vec<[f64; 3]> = (0..n).map(|_| [rng.random(), rng.random(), rng.random()]).collect();
    let den: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
    let plan = FmmPlan::new(&pts, &den, 128, 4, M2lMethod::Fft);
    let workload = Workload::from_profile(&profile_plan(&plan, &CostModel::default()), 1);

    println!("\nrunning the FMM phase sequence under four governors:\n");
    println!("{:<28} {:>10} {:>12} {:>24}", "governor", "time s", "energy J", "settings used");
    let governors: Vec<(&str, Box<dyn Policy>)> = vec![
        ("performance (race-to-halt)", Box::new(RaceToHalt)),
        ("powersave", Box::new(FixedSetting(Setting::new(0, 0)))),
        ("ondemand (95% target)", Box::new(OnDemand { threshold: 0.95 })),
        ("model-based (this paper)", Box::new(PerPhaseModel::new())),
    ];
    for (name, mut policy) in governors {
        // A fresh, identically seeded device per governor.
        let mut runtime = GovernorRuntime::new(model.clone(), Setting::all().collect(), 99, None);
        let run = runtime.run(&workload, policy.as_mut());
        let mut used: Vec<String> = run.records.iter().map(|r| r.applied.label()).collect();
        used.dedup();
        println!(
            "{name:<28} {:>10.3} {:>12.3} {:>24}",
            run.total_time_s,
            run.total_energy_j,
            used.join(" ")
        );
    }

    // Why: the energy roofline per setting.
    println!("\n{}", EnergyRoofline::new(&model).render(Setting::max_performance(), 44));
    println!(
        "{}",
        EnergyRoofline::new(&model)
            .render(Setting::from_frequencies(396.0, 204.0).expect("valid setting"), 44,)
    );
    println!("the FMM's effective intensity sits left of the energy balance at every");
    println!("setting, so constant power dominates and the fastest clocks win — while a");
    println!("saturating high-intensity kernel sits right of it and profits from slowing down.");
}
