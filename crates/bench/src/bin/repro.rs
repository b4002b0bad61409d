//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro <artifact> [--scale-shift K] [--seed S]
//!
//! artifacts:
//!   table1        DVFS settings and derived energy/power costs
//!   cv            Section II-D cross-validations
//!   table2        energy autotuning: model vs time oracle
//!   table3        the nvprof counters and their values for F1
//!   table4        the S1–S8 / F1–F8 experiment matrix
//!   fig4          FMM instruction/data breakdown
//!   fig5          predicted vs measured FMM energy (64 cases)
//!   fig6          FMM energy breakdown by op class at S1
//!   fig7          computation/data/constant-power shares
//!   observations  the Section IV-C findings
//!   ablation-util race-to-halt penalty vs utilization (A1)
//!   prefetch      prefetch what-if break-even scan (A3)
//!   ablation-model nested predictor comparison (A4)
//!   roofline      energy rooflines and balances per setting
//!   governors     DVFS governors racing on the FMM phase sequence
//!   governor      phase-aware governor policies vs the best static setting
//!   bootstrap     confidence intervals for the fitted constants
//!   csv-export    write the measurement dataset to dataset.csv
//!   service       closed-loop load run against the autotune server
//!   fmm-scaling   FMM evaluate over the 1/2/4/8-thread grid
//!   fleet         device-catalog comparison + sibling model transfer
//!   stream        streaming engine: particle drift, bursty traffic,
//!                 multi-tenant arbitration
//!   all           everything above (except csv-export, service,
//!                 fmm-scaling, fleet and stream), in order
//! ```
//!
//! `--scale-shift K` divides every FMM problem size by `2^K` (profiles
//! only; the pipeline is identical).  The default 0 reproduces the
//! paper-scale inputs.

use dvfs_bench::paper;
use dvfs_bench::pipeline::{self, fitted_model, fmm_profiles};
use dvfs_bench::report::{joules, pct, table};
use dvfs_energy_model::experiments::{FMM_INPUTS, SYSTEM_SETTINGS};
use dvfs_energy_model::{holdout_validation, leave_one_setting_out};
use gpu_counters::TABLE3_EVENTS;

const USAGE: &str = "\
repro <artifact> [--scale-shift K] [--seed S]

artifacts:
  table1        DVFS settings and derived energy/power costs
  cv            Section II-D cross-validations
  table2        energy autotuning: model vs time oracle
  table3        the nvprof counters and their values for F1
  table4        the S1-S8 / F1-F8 experiment matrix
  fig4          FMM instruction/data breakdown
  fig5          predicted vs measured FMM energy (64 cases)
  fig6          FMM energy breakdown by op class at S1
  fig7          computation/data/constant-power shares
  observations  the Section IV-C findings
  ablation-util race-to-halt penalty vs utilization (A1)
  prefetch      prefetch what-if break-even scan (A3)
  ablation-model nested predictor comparison (A4)
  roofline      energy rooflines and balances per setting
  governors     DVFS governors racing on the FMM phase sequence
  governor      phase-aware governor policies vs the best static setting
  bootstrap     confidence intervals for the fitted constants
  csv-export    write the measurement dataset to dataset.csv
  service       closed-loop load run against the autotune server
                (--requests N, default 50000)
  fmm-scaling   FMM evaluate over the 1/2/4/8-thread grid
                (--reps K, --max-n N; also FMM_ENERGY_BENCH_REPS)
  fleet         every catalog device through sweep, fit and FMM
                autotuning, plus the sibling transfer studies
  stream        streaming engine: particle drift with incremental tree
                maintenance, the bursty mixed-size request stream, and
                the multi-tenant arbitration study (FMM_ENERGY_STREAM*
                env knobs apply)
  all           everything above (except csv-export, service,
                fmm-scaling, fleet and stream), in order

--scale-shift K divides every FMM problem size by 2^K (default 0 =
paper scale); --seed S reseeds the whole pipeline (default 0xC0FFEE).";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let artifact = args.first().map(String::as_str).unwrap_or("all");
    if artifact == "--help" || artifact == "-h" || artifact == "help" {
        println!("{USAGE}");
        return;
    }
    let scale_shift = flag_value(&args, "--scale-shift").unwrap_or(0);
    let seed = flag_value(&args, "--seed").unwrap_or(0xC0FFEE);

    let run_all = artifact == "all";
    let want = |name: &str| run_all || artifact == name;
    let mut ran = false;

    // Shared pipeline state, built lazily.
    let mut ctx = Context::new(seed, scale_shift as u32);

    if want("table1") {
        table1(&mut ctx);
        ran = true;
    }
    if want("cv") {
        cv(&mut ctx);
        ran = true;
    }
    if want("table2") {
        table2(&mut ctx);
        ran = true;
    }
    if want("table3") {
        table3(&mut ctx);
        ran = true;
    }
    if want("table4") {
        table4();
        ran = true;
    }
    if want("fig4") {
        fig4(&mut ctx);
        ran = true;
    }
    if want("fig5") {
        fig5(&mut ctx);
        ran = true;
    }
    if want("fig6") {
        fig6(&mut ctx);
        ran = true;
    }
    if want("fig7") {
        fig7(&mut ctx);
        ran = true;
    }
    if want("observations") {
        observations(&mut ctx);
        ran = true;
    }
    if want("ablation-util") {
        ablation_util(&mut ctx);
        ran = true;
    }
    if want("prefetch") {
        prefetch(&mut ctx);
        ran = true;
    }
    if want("roofline") {
        roofline(&mut ctx);
        ran = true;
    }
    if want("governors") {
        governors(&mut ctx);
        ran = true;
    }
    if want("governor") {
        governor(&mut ctx);
        ran = true;
    }
    if want("ablation-model") {
        ablation_model(&mut ctx);
        ran = true;
    }
    if want("bootstrap") {
        bootstrap(&mut ctx);
        ran = true;
    }
    if artifact == "csv-export" {
        csv_export(&mut ctx);
        ran = true;
    }
    if artifact == "service" {
        let requests = flag_value(&args, "--requests").unwrap_or(50_000) as usize;
        service(seed, requests);
        ran = true;
    }
    if artifact == "fleet" {
        fleet(seed, scale_shift as u32);
        ran = true;
    }
    if artifact == "stream" {
        stream(seed);
        ran = true;
    }
    if artifact == "fmm-scaling" {
        let reps = flag_value(&args, "--reps")
            .map(|r| r as usize)
            .unwrap_or_else(|| dvfs_bench::scaling::reps_from_env(3));
        let max_n = flag_value(&args, "--max-n").unwrap_or(32_768) as usize;
        fmm_scaling(reps, max_n);
        ran = true;
    }

    if !ran {
        eprintln!("unknown artifact '{artifact}'\n\n{USAGE}");
        std::process::exit(2);
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<u64> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).and_then(|v| v.parse().ok())
}

/// Lazily built shared pipeline state so `repro all` fits everything
/// once.
struct Context {
    seed: u64,
    scale_shift: u32,
    model: Option<dvfs_energy_model::EnergyModel>,
    dataset: Option<dvfs_microbench::Dataset>,
    profiles: Option<Vec<(dvfs_energy_model::experiments::FmmInput, kifmm::FmmProfile)>>,
    cases: Option<Vec<pipeline::CaseResult>>,
}

impl Context {
    fn new(seed: u64, scale_shift: u32) -> Self {
        Context { seed, scale_shift, model: None, dataset: None, profiles: None, cases: None }
    }

    fn model(&mut self) -> dvfs_energy_model::EnergyModel {
        if self.model.is_none() {
            eprintln!("[repro] running microbenchmark sweep + NNLS fit ...");
            let (m, d) = fitted_model(self.seed);
            self.model = Some(m);
            self.dataset = Some(d);
        }
        self.model.clone().expect("just built")
    }

    fn dataset(&mut self) -> dvfs_microbench::Dataset {
        let _ = self.model();
        self.dataset.clone().expect("built with model")
    }

    fn profiles(&mut self) -> &[(dvfs_energy_model::experiments::FmmInput, kifmm::FmmProfile)] {
        if self.profiles.is_none() {
            eprintln!(
                "[repro] building + profiling FMM plans (scale shift {}) ...",
                self.scale_shift
            );
            self.profiles = Some(fmm_profiles(self.scale_shift, self.seed));
        }
        self.profiles.as_deref().expect("just built")
    }

    fn cases(&mut self) -> Vec<pipeline::CaseResult> {
        if self.cases.is_none() {
            let model = self.model();
            let seed = self.seed;
            let profiles = self.profiles();
            let (cases, _) = pipeline::fig5_validation(&model, profiles, seed);
            self.cases = Some(cases);
        }
        self.cases.clone().expect("just built")
    }
}

fn table1(ctx: &mut Context) {
    let model = ctx.model();
    let rows = pipeline::table1_rows(&model);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let op = r.setting.operating_point();
            vec![
                r.setting_type.to_string(),
                format!("{:.0}", op.core.freq_mhz),
                format!("{:.0}", op.mem.freq_mhz),
                format!("{:.1}/{:.1}", r.measured.0, r.paper.0),
                format!("{:.1}/{:.1}", r.measured.1, r.paper.1),
                format!("{:.1}/{:.1}", r.measured.2, r.paper.2),
                format!("{:.1}/{:.1}", r.measured.3, r.paper.3),
                format!("{:.1}/{:.1}", r.measured.4, r.paper.4),
                format!("{:.0}/{:.0}", r.measured.5, r.paper.5),
                format!("{:.2}/{:.1}", r.measured.6, r.paper.6),
            ]
        })
        .collect();
    println!("== Table I: derived energy and power costs (measured/paper) ==");
    println!(
        "{}",
        table(
            &[
                "Type", "Core", "Mem", "SP pJ", "DP pJ", "Int pJ", "SM pJ", "L2 pJ", "Mem pJ",
                "π0 W"
            ],
            &body
        )
    );
}

fn cv(ctx: &mut Context) {
    let dataset = ctx.dataset();
    let holdout = holdout_validation(&dataset);
    let kfold = leave_one_setting_out(&dataset);
    println!("== Section II-D: cross-validation ==");
    println!(
        "2-fold holdout : measured {} | paper mean {:.2}% (σ {:.2}), range {:.2}–{:.2}%",
        holdout.stats.summary(),
        paper::CV_HOLDOUT.0,
        paper::CV_HOLDOUT.1,
        paper::CV_HOLDOUT.2,
        paper::CV_HOLDOUT.3
    );
    println!(
        "16-fold        : measured {} | paper mean {:.2}% (σ {:.2}), range {:.2}–{:.2}%",
        kfold.stats.summary(),
        paper::CV_16FOLD.0,
        paper::CV_16FOLD.1,
        paper::CV_16FOLD.2,
        paper::CV_16FOLD.3
    );
    println!();
}

fn table2(ctx: &mut Context) {
    let model = ctx.model();
    let outcomes = pipeline::table2_outcomes(&model, ctx.seed ^ 0x7AB2);
    let mut body = Vec::new();
    for o in &outcomes {
        let paper_rows: Vec<_> = paper::TABLE2.iter().filter(|r| r.0 == o.kind.name()).collect();
        for (strategy, result, paper_row) in
            [("Our model", &o.model, paper_rows[0]), ("Time Oracle", &o.oracle, paper_rows[1])]
        {
            body.push(vec![
                o.kind.name().to_string(),
                strategy.to_string(),
                format!(
                    "{}/{} (paper {}/{})",
                    result.mispredictions, o.cases, paper_row.2, paper_row.3
                ),
                format!("{:.2} ({:.2})", result.mean_lost_pct(), paper_row.4),
                format!("{:.2} ({:.2})", result.min_lost_pct(), paper_row.5),
                format!("{:.2} ({:.2})", result.max_lost_pct(), paper_row.6),
            ]);
        }
    }
    println!("== Table II: energy autotuning, measured (paper) ==");
    println!(
        "{}",
        table(&["Benchmark", "Strategy", "Mispredictions", "Mean lost %", "Min %", "Max %"], &body)
    );
}

fn table3(ctx: &mut Context) {
    let profiles = ctx.profiles();
    let f1 = &profiles[0].1;
    let totals = gpu_counters::CounterSet::new();
    for p in &f1.phases {
        totals.merge(&p.counters);
    }
    let body: Vec<Vec<String>> = TABLE3_EVENTS
        .iter()
        .map(|e| {
            vec![
                match e.kind() {
                    gpu_counters::CounterKind::Event => "E".to_string(),
                    gpu_counters::CounterKind::Metric => "M".to_string(),
                },
                e.name().to_string(),
                format!("{}", totals.get(*e)),
                e.description().to_string(),
            ]
        })
        .collect();
    println!("== Table III: counters used to profile the FMM (values for F1) ==");
    println!("{}", table(&["Type", "Name", "Value (F1)", "Description"], &body));
}

fn table4() {
    println!("== Table IV: DVFS settings and FMM inputs used for validation ==");
    let body: Vec<Vec<String>> = SYSTEM_SETTINGS
        .iter()
        .zip(FMM_INPUTS.iter())
        .map(|(s, f)| {
            vec![
                s.id.to_string(),
                format!("{:.0} MHz", s.core_mhz),
                format!("{:.0} MHz", s.mem_mhz),
                f.id.to_string(),
                format!("{}", f.n),
                format!("{}", f.q),
            ]
        })
        .collect();
    println!("{}", table(&["ID", "Core", "Memory", "F", "N", "Q"], &body));
}

fn fig4(ctx: &mut Context) {
    let rows = pipeline::fig4_breakdown(ctx.profiles());
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.f_id.to_string(),
                pct(r.instruction_shares.0),
                pct(r.instruction_shares.1),
                pct(r.byte_shares.0),
                pct(r.byte_shares.1),
                pct(r.byte_shares.2),
                pct(r.byte_shares.3),
            ]
        })
        .collect();
    println!("== Figure 4: FMM instruction mix and data-access breakdown ==");
    println!(
        "{}",
        table(
            &["F", "DP insts", "Int insts", "SM bytes", "L1 bytes", "L2 bytes", "DRAM bytes"],
            &body
        )
    );
    println!(
        "(paper: integer ≈ {:.0}% of instructions; DRAM ≈ {:.0}% of accesses)\n",
        paper::INTEGER_INSTRUCTION_SHARE * 100.0,
        paper::DRAM_ACCESS_SHARE * 100.0
    );
}

fn fig5(ctx: &mut Context) {
    let model = ctx.model();
    let cases = ctx.cases();
    let errors: Vec<f64> = cases.iter().map(|c| c.error()).collect();
    let stats = dvfs_energy_model::ErrorStats::from_relative_errors(&errors);
    let body: Vec<Vec<String>> = cases
        .iter()
        .map(|c| {
            vec![
                format!("{}/{}", c.s_id, c.f_id),
                format!("{:.3}", c.time_s),
                joules(c.measured_j),
                joules(c.predicted_j),
                pct(c.error()),
            ]
        })
        .collect();
    println!("== Figure 5: estimated vs measured FMM energy (64 cases) ==");
    println!("{}", table(&["Case", "Time s", "Measured", "Predicted", "Error"], &body));
    println!(
        "measured: {} | paper: mean {:.2}% (σ {:.2}), range {:.2}–{:.2}%\n",
        stats.summary(),
        paper::FMM_VALIDATION.0,
        paper::FMM_VALIDATION.1,
        paper::FMM_VALIDATION.2,
        paper::FMM_VALIDATION.3
    );
    let _ = model;
}

fn fig6(ctx: &mut Context) {
    let model = ctx.model();
    let seed = ctx.seed;
    let profiles = ctx.profiles();
    let rows = pipeline::fig6_energy_breakdown(&model, profiles, seed);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|(f_id, r)| {
            let mut cells = vec![f_id.to_string()];
            for share in &r.per_class {
                cells.push(pct(share.share));
            }
            cells.push(pct(r.constant_share()));
            cells
        })
        .collect();
    println!("== Figure 6: FMM energy breakdown by class at S1 (shares of total) ==");
    println!("{}", table(&["F", "SP", "DP", "Int", "SM", "L1", "L2", "DRAM", "Constant"], &body));
}

fn fig7(ctx: &mut Context) {
    let model = ctx.model();
    let cases = ctx.cases();
    let rows = pipeline::fig7_buckets(&model, &cases);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.label.clone(), pct(r.computation), pct(r.data), pct(r.constant)])
        .collect();
    println!("== Figure 7: computation / data / constant-power energy shares ==");
    println!("{}", table(&["Case", "Computation", "Data", "Constant"], &body));
    let lo = rows.iter().map(|r| r.constant).fold(f64::INFINITY, f64::min);
    let hi = rows.iter().map(|r| r.constant).fold(0.0f64, f64::max);
    println!(
        "constant-power share range: {}–{} (paper: {:.0}%–{:.0}%)\n",
        pct(lo),
        pct(hi),
        paper::FMM_CONSTANT_SHARE_RANGE.0 * 100.0,
        paper::FMM_CONSTANT_SHARE_RANGE.1 * 100.0
    );
}

fn observations(ctx: &mut Context) {
    let model = ctx.model();
    let seed = ctx.seed;
    let cases = ctx.cases();
    let profiles = ctx.profiles();
    let o = pipeline::observations(&model, profiles, &cases, seed);
    println!("== Section IV-C observations (measured vs paper) ==");
    println!(
        "integer share of instructions : {} (paper ≈ {})",
        pct(o.integer_instruction_share),
        pct(paper::INTEGER_INSTRUCTION_SHARE)
    );
    println!(
        "integer share of compute energy: {} (paper ≈ {})",
        pct(o.integer_energy_share),
        pct(paper::INTEGER_ENERGY_SHARE)
    );
    println!(
        "DRAM share of accesses        : {} (paper ≈ {})",
        pct(o.dram_access_share),
        pct(paper::DRAM_ACCESS_SHARE)
    );
    println!(
        "DRAM share of data energy     : {} (paper: up to {})",
        pct(o.dram_energy_share),
        pct(paper::DRAM_ENERGY_SHARE)
    );
    println!(
        "FMM constant-power share range: {}–{} (paper {}–{})",
        pct(o.fmm_constant_share_range.0),
        pct(o.fmm_constant_share_range.1),
        pct(paper::FMM_CONSTANT_SHARE_RANGE.0),
        pct(paper::FMM_CONSTANT_SHARE_RANGE.1)
    );
    println!(
        "microbench constant share     : {} (paper ≈ {})",
        pct(o.microbench_constant_share),
        pct(paper::MICROBENCH_CONSTANT_SHARE)
    );
    println!(
        "FMM best-energy == best-time  : {} (paper: yes)\n",
        if o.fmm_best_energy_is_best_time { "yes" } else { "no" }
    );
}

fn ablation_util(ctx: &mut Context) {
    let model = ctx.model();
    let points = pipeline::utilization_ablation(&model, ctx.seed ^ 0xAB7);
    let body: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![format!("{:.2}", p.utilization), pct(p.constant_share), pct(p.race_to_halt_loss)]
        })
        .collect();
    println!("== Ablation A1: race-to-halt penalty vs utilization ==");
    println!("{}", table(&["Utilization", "Constant share", "Race-to-halt loss"], &body));
    println!("(the paper's IV-C hypothesis: as utilization falls, constant power dominates and racing to halt becomes energy-optimal)\n");
}

fn prefetch(ctx: &mut Context) {
    let model = ctx.model();
    let cases = ctx.cases();
    let profiles = ctx.profiles();
    let f1_time =
        cases.iter().find(|c| c.s_id == "S1" && c.f_id == "F1").expect("S1/F1 present").time_s;
    let scan = pipeline::prefetch_scan(&model, &profiles[0].1, f1_time);
    let body: Vec<Vec<String>> = scan
        .iter()
        .map(|(unused, breakeven)| vec![pct(*unused), format!("{:.4}×", breakeven)])
        .collect();
    println!("== Ablation A3: prefetch what-if (F1 at S1) ==");
    println!("{}", table(&["Unused prefetched data", "Break-even slowdown"], &body));
    println!("(disabling prefetch saves energy only if the resulting slowdown stays below the break-even factor)\n");
}

fn roofline(ctx: &mut Context) {
    use dvfs_energy_model::EnergyRoofline;
    use tk1_sim::Setting;
    let model = ctx.model();
    let r = EnergyRoofline::new(&model);
    println!("== Energy rooflines (fitted model) ==");
    for (core, mem) in [(852.0, 924.0), (612.0, 528.0), (396.0, 204.0)] {
        let s = Setting::from_frequencies(core, mem).expect("valid setting");
        println!("{}", r.render(s, 44));
    }
    println!("most energy-efficient setting per intensity:");
    for k in 0..9 {
        let intensity = 0.5 * 2f64.powi(k);
        let s = r.most_efficient_setting(intensity);
        println!(
            "  {:>7.1} flop/B -> {} ({:.2} Gflop/J)",
            intensity,
            s.label(),
            r.attainable_flops_per_joule(s, intensity) / 1e9
        );
    }
    println!();
}

fn governors(ctx: &mut Context) {
    use dvfs_governor::{
        FixedSetting, GovernorRuntime, OnDemand, PerPhaseModel, Policy, RaceToHalt, Workload,
    };
    use tk1_sim::Setting;
    let model = ctx.model();
    let seed = ctx.seed ^ 0x60BE;
    let workload = Workload::from_profile(&ctx.profiles()[0].1, 1);
    let mut body = Vec::new();
    let policies: [(&str, Box<dyn Policy>); 4] = [
        ("performance", Box::new(RaceToHalt)),
        ("powersave", Box::new(FixedSetting(Setting::new(0, 0)))),
        ("ondemand-0.95", Box::new(OnDemand { threshold: 0.95 })),
        ("model-based", Box::new(PerPhaseModel::new())),
    ];
    for (name, mut policy) in policies {
        // A fresh, identically seeded device per policy.
        let mut runtime = GovernorRuntime::new(model.clone(), Setting::all().collect(), seed, None);
        let run = runtime.run(&workload, policy.as_mut());
        body.push(vec![
            name.to_string(),
            format!("{:.3}", run.total_time_s),
            format!("{:.3}", run.total_energy_j),
        ]);
    }
    println!("== DVFS governors on the FMM (F1) phase sequence ==");
    println!("{}", table(&["Governor", "Time s", "Energy J"], &body));
}

fn governor(ctx: &mut Context) {
    use dvfs_governor::GovernorConfig;
    use tk1_sim::FaultConfig;
    let model = ctx.model();
    let seed = ctx.seed;
    let cfg = GovernorConfig::from_env();
    let faults = FaultConfig::from_env();
    let profiles = ctx.profiles();
    eprintln!("[repro] running governor policy comparison ({} rounds/input) ...", cfg.rounds);
    let cases = dvfs_bench::governor_comparison(&model, profiles, &cfg, seed, faults.as_ref());
    let mut body = Vec::new();
    for c in &cases {
        body.push(vec![
            c.input.id.to_string(),
            format!("static {}", c.best_static_id),
            joules(c.best_static_j),
            "—".to_string(),
            "—".to_string(),
            "—".to_string(),
            "—".to_string(),
        ]);
        for o in &c.outcomes {
            let delta = (o.energy_j / c.best_static_j - 1.0) * 100.0;
            body.push(vec![
                String::new(),
                o.policy.to_string(),
                joules(o.energy_j),
                format!("{delta:+.2}%"),
                format!("{:.3}", o.time_s),
                format!("{}", o.switches),
                format!("{}", o.latch_retries),
            ]);
        }
    }
    println!("== Governor: per-phase DVFS policies vs best static setting ==");
    println!(
        "{}",
        table(&["F", "Policy", "Energy", "Δ vs static", "Time s", "Switches", "Retries"], &body)
    );
    let wins =
        cases.iter().filter(|c| c.outcome("per-phase-model").energy_j <= c.best_static_j).count();
    println!(
        "per-phase-model matches or beats the best static setting on {wins}/{} inputs\n",
        cases.len()
    );
}

fn ablation_model(ctx: &mut Context) {
    let _ = ctx.model();
    let dataset = ctx.dataset();
    let rows = dvfs_energy_model::model_structure_ablation(&dataset);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.structure.name().to_string(),
                format!("{:.2}", r.holdout.mean_pct),
                format!("{:.2}", r.holdout.std_pct),
                format!("{:.2}", r.holdout.max_pct),
            ]
        })
        .collect();
    println!("== Ablation A4: model structure (held-out settings) ==");
    println!("{}", table(&["Predictor", "Mean err %", "σ", "Max err %"], &body));
    println!("(what DVFS-awareness buys: the static IPDPS'13 roofline and a mean-power\nbaseline degrade once predictions cross DVFS settings)\n");
}

fn bootstrap(ctx: &mut Context) {
    let _ = ctx.model(); // ensure the dataset exists
    let dataset = ctx.dataset();
    let report = dvfs_energy_model::bootstrap_fit(&dataset, 48, ctx.seed ^ 0xB00);
    println!(
        "== Bootstrap {}%-confidence intervals ({} replicates) ==",
        (report.confidence * 100.0) as u32,
        report.replicates
    );
    print!("{}", report.summary());
    let pi0 = report.constant_power_at(tk1_sim::Setting::max_performance());
    println!("π0(852/924) = {:.2} W [{:.2}, {:.2}]\n", pi0.estimate, pi0.lo, pi0.hi);
}

fn fleet(seed: u64, scale_shift: u32) {
    let r = dvfs_bench::fleet_report(seed, scale_shift).expect("clean fleet build");
    println!("== Fleet: the device catalog through the whole pipeline ==");
    let body: Vec<Vec<String>> = r
        .devices
        .iter()
        .map(|d| {
            vec![
                d.id.clone(),
                format!("{}x{}", d.n_core, d.n_mem),
                format!("{:.2}%", d.holdout_mean_pct),
                pct(d.fmm_constant_share),
                format!("{:.0}/{:.0}", d.best_time.core_mhz, d.best_time.mem_mhz),
                format!("{:.0}/{:.0}", d.best_energy.core_mhz, d.best_energy.mem_mhz),
                if d.race_to_idle_optimal { "yes".to_string() } else { "no".to_string() },
                format!("{:.2}%", d.energy_saving_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "Device",
                "Grid",
                "CV err",
                "Const share",
                "Best-time MHz",
                "Best-energy MHz",
                "Race-to-idle",
                "Saved"
            ],
            &body
        )
    );
    println!(
        "-- Cross-device transfer ({} workload, budget = training settings seen) --",
        r.workload
    );
    let body: Vec<Vec<String>> = r
        .transfers
        .iter()
        .map(|t| {
            let p0 = &t.report.points[0];
            vec![
                format!("{} <- {}", t.target, t.source),
                if t.sibling { "sibling".to_string() } else { "control".to_string() },
                format!("{:.2}% / {:.2}%", p0.warm_mean_pct, p0.cold_mean_pct),
                t.report.warm_budget.map_or("—".to_string(), |b| b.to_string()),
                t.report.cold_budget.map_or("—".to_string(), |b| b.to_string()),
                if t.report.warm_start_wins() { "yes".to_string() } else { "no".to_string() },
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["Pair", "Kind", "Warm/cold @1", "Warm budget", "Cold budget", "Warm wins"], &body)
    );
}

fn stream(seed: u64) {
    use dvfs_stream::{run_suite, StreamConfig};
    let (model, _) = fitted_model(seed);
    let cfg = StreamConfig::from_env();
    eprintln!(
        "[repro] streaming suite: {} drift steps, {} requests, gap {}x, slack {}x ...",
        cfg.steps, cfg.requests, cfg.gap_scale, cfg.deadline_slack
    );
    let r = run_suite(&model, &cfg);
    println!("== Stream: particle drift with incremental tree maintenance ==");
    let d = &r.drift;
    let body = vec![
        vec!["steps".to_string(), format!("{}", d.steps)],
        vec!["in-place repairs".to_string(), format!("{}", d.in_place)],
        vec!["full rebuilds".to_string(), format!("{}", d.rebuilds)],
        vec!["migrated particles".to_string(), format!("{}", d.migrants)],
        vec!["energy".to_string(), joules(d.energy_j)],
        vec!["time".to_string(), format!("{:.4} s", d.time_s)],
        vec!["potential digest".to_string(), format!("{:016x}", d.potential_digest)],
    ];
    println!("{}", table(&["Metric", "Value"], &body));
    println!("== Stream: bursty mixed-size traffic under arbitration ==");
    let b = &r.burst;
    let body: Vec<Vec<String>> = b
        .windows
        .iter()
        .map(|w| {
            vec![
                format!("{:.4}", w.start_s),
                format!("{}", w.requests),
                joules(w.energy_j),
                format!("{:.3}", w.lambda_w),
            ]
        })
        .collect();
    println!("{}", table(&["Window start s", "Requests", "Energy", "λ W"], &body));
    let body = vec![
        vec!["requests".to_string(), format!("{}", b.requests)],
        vec![
            "arbitrated energy".to_string(),
            format!(
                "{} (static-best {}, race-to-halt {})",
                joules(b.energy_j),
                joules(b.static_best_j),
                joules(b.race_to_halt_j)
            ),
        ],
        vec!["deadline misses".to_string(), format!("{}", b.deadline_misses)],
        vec![
            "latency".to_string(),
            format!("mean {:.4} s, max {:.4} s", b.mean_latency_s, b.max_latency_s),
        ],
        vec!["makespan".to_string(), format!("{:.4} s", b.makespan_s)],
        vec!["stream digest".to_string(), format!("{:016x}", b.stream_digest)],
    ];
    println!("{}", table(&["Metric", "Value"], &body));
    println!("== Stream: multi-tenant arbitration on one device ==");
    let t = &r.tenants;
    let body = vec![
        vec!["tenants".to_string(), format!("{}", t.tenants)],
        vec!["interleaving".to_string(), t.order.to_string()],
        vec!["deadline pressure λ".to_string(), format!("{:.3} W", t.lambda_w)],
        vec!["plan feasible".to_string(), if t.feasible { "yes".into() } else { "no".into() }],
        vec!["arbitrated energy".to_string(), joules(t.arbitrated_j)],
        vec!["per-job static-best".to_string(), joules(t.static_best_j)],
        vec!["race-to-halt".to_string(), joules(t.race_to_halt_j)],
        vec!["deadline misses".to_string(), format!("{}", t.deadline_misses)],
    ];
    println!("{}", table(&["Metric", "Value"], &body));
    println!(
        "arbitrated saves {:.2}% vs static-best and {:.2}% vs race-to-halt (suite digest {:016x})\n",
        (1.0 - t.arbitrated_j / t.static_best_j) * 100.0,
        (1.0 - t.arbitrated_j / t.race_to_halt_j) * 100.0,
        r.digest
    );
}

fn service(seed: u64, requests: usize) {
    use dvfs_bench::service_load::{service_load, LoadConfig};
    // `FMM_ENERGY_DEVICE` selects the catalog platform the load tunes
    // for (default: the TK1).
    let device_id = tk1_sim::catalog::from_env().id;
    let cfg = LoadConfig { requests, seed, device_id, ..LoadConfig::default() };
    eprintln!(
        "[repro] driving {requests} requests for {device_id} through the autotune server ({} clients, {} shards) ...",
        cfg.clients, cfg.shards
    );
    let r = service_load(&cfg);
    println!("== Service: closed-loop load against the autotune server ==");
    let body = vec![
        vec!["requests served".to_string(), format!("{}/{}", r.served, r.requests)],
        vec!["throughput".to_string(), format!("{:.0} req/s", r.throughput_rps)],
        vec!["elapsed".to_string(), format!("{:.2} s", r.elapsed_s)],
        vec![
            "cache-hit latency".to_string(),
            format!(
                "p50 {:.0} µs, p99 {:.0} µs ({} responses)",
                r.hit.p50_us, r.hit.p99_us, r.hit.count
            ),
        ],
        vec![
            "cold-path latency".to_string(),
            format!(
                "p50 {:.0} µs, p99 {:.0} µs ({} responses)",
                r.cold.p50_us, r.cold.p99_us, r.cold.count
            ),
        ],
        vec!["cache hit rate".to_string(), format!("{:.4}", r.cache_hit_rate)],
        vec!["max queue depth".to_string(), format!("{}", r.max_queue_depth)],
        vec!["degraded responses".to_string(), format!("{}", r.degraded_responses)],
        vec![
            "overload probe".to_string(),
            format!(
                "{}/{} rejected ({:.2}%), {} accepted all answered",
                r.overload.rejections,
                r.overload.attempts,
                r.overload.rejection_rate * 100.0,
                r.overload.served
            ),
        ],
        vec!["run digest".to_string(), format!("{:016x}", r.digest)],
    ];
    println!("{}", table(&["Metric", "Value"], &body));
}

fn fmm_scaling(reps: usize, max_n: usize) {
    use dvfs_bench::scaling::{scaling_grid, DEFAULT_SIZES, DEFAULT_THREAD_GRID};
    let sizes: Vec<usize> = DEFAULT_SIZES.iter().copied().filter(|&n| n <= max_n).collect();
    eprintln!(
        "[repro] FMM thread-scaling grid: sizes {sizes:?} x threads {DEFAULT_THREAD_GRID:?}, \
         {reps} reps ..."
    );
    let cases = scaling_grid(&sizes, &DEFAULT_THREAD_GRID, reps, 3);
    println!("== FMM evaluate: thread scaling (q=64, p=4, FFT M2L) ==");
    let body: Vec<Vec<String>> = cases
        .iter()
        .map(|c| {
            let base = cases
                .iter()
                .find(|b| b.n == c.n && b.threads == 1)
                .map_or(1.0, |b| b.evaluate_median_s);
            let [up, v, x, down, near] = c.phase_medians_s;
            vec![
                format!("{}", c.n),
                format!("{}", c.threads),
                format!("{:.4}", c.evaluate_median_s),
                format!("{:.2}x", base / c.evaluate_median_s),
                format!("{up:.4}"),
                format!("{v:.4}"),
                format!("{x:.4}"),
                format!("{down:.4}"),
                format!("{near:.4}"),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["n", "threads", "eval s", "speedup", "up", "v", "x", "down", "near"], &body)
    );
    let mut consistent = true;
    for &n in &sizes {
        let digests: Vec<u64> = cases.iter().filter(|c| c.n == n).map(|c| c.digest).collect();
        if digests.windows(2).any(|w| w[0] != w[1]) {
            consistent = false;
            println!("n={n}: POTENTIAL DIGESTS DIFFER ACROSS THREAD COUNTS: {digests:016x?}");
        }
    }
    if consistent {
        println!(
            "potentials bitwise-identical across all thread counts at every size \
             (digest check over {} grid points)\n",
            cases.len()
        );
    } else {
        std::process::exit(1);
    }
}

fn csv_export(ctx: &mut Context) {
    let _ = ctx.model();
    let dataset = ctx.dataset();
    let csv = dvfs_microbench::to_csv(&dataset);
    let path = "dataset.csv";
    std::fs::write(path, &csv).expect("write dataset.csv");
    println!("wrote {} samples to {path}", dataset.len());
}
