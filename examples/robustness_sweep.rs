//! Monte Carlo robustness sweeps on the packed deploy engines: train the
//! digits MLP and the objects VGG once each, lower them onto bitplanes,
//! then measure accuracy *distributions* — many independent draws per
//! grid point, fanned across threads.
//!
//! Two campaigns run:
//!
//! 1. **Gray-zone width × fault rate** (digits MLP, packed *stochastic*
//!    engine): every grid point pairs a device-parameter variation
//!    (`scale × ΔIin`, via `VariationModel`) with a fabrication fault
//!    rate, and each trial's seed drives both the fault draw and the SC
//!    switching noise (keyed counter streams rooted at the trial seed).
//!    The packed stochastic engine draws exactly the windows of the scalar
//!    `DeployedModel::classify` reference (same coordinates, same flips)
//!    at many times its speed — see `BENCH_stochastic.json`.
//! 2. **Fault-only** (objects VGG, packed *digital* engine): the
//!    gray-zone → 0 limit at full XNOR–popcount throughput.
//!
//! Run with:
//! `cargo run --release --example robustness_sweep -- [--trials N] [--eval N]`
//! (CI smoke runs `--trials 4` on a tiny grid.)
//!
//! Every SC draw is derived from its coordinates on a keyed counter
//! stream, so results are independent of worker count and trial order.

use std::time::Instant;
use superbnn::experiments::{robustness_campaign, ExperimentScale, RobustnessWorkload};
use superbnn::robustness::{RobustnessReport, SweepConfig};

fn parse_flag(args: &[String], flag: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} wants a number, got {v}"))
        })
        .unwrap_or(default)
}

fn print_report(report: &RobustnessReport) {
    println!(
        "{:>8}  {:>10}  {:>8}  {:>6}  {:>6}  {:>6}  {:>6}  {:>6}  {:>9}",
        "Δ scale", "stuck rate", "defects", "mean", "min", "p10", "p50", "p90", "max"
    );
    for p in &report.points {
        let scale = p
            .variation
            .map_or("—".to_string(), |v| format!("{:.1}", v.grayzone_scale()));
        println!(
            "{scale:>8}  {:>10.3}  {:>8.1}  {:>6.3}  {:>6.3}  {:>6.3}  {:>6.3}  {:>6.3}  {:>9.3}",
            p.fault_model.stuck_cell_rate(),
            p.mean_defects,
            p.mean_accuracy,
            p.min_accuracy,
            p.p10_accuracy,
            p.p50_accuracy,
            p.p90_accuracy,
            p.max_accuracy,
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trials = parse_flag(&args, "--trials", 8);
    let eval = parse_flag(&args, "--eval", 30);

    // Demo scale: small datasets and short training keep the focus on the
    // sweeps themselves (the benches run the ≥100-trial campaigns).
    let scale = ExperimentScale {
        samples_per_class: 60,
        epochs: 15,
        eval_samples: eval,
        width: 8,
        mlp_hidden: [64, 32],
        seed: 7,
    };

    // Campaign 1: gray-zone width × fault rate on the packed stochastic
    // engine. Scale 1.0 is the calibrated 0.4 µA operating point; the
    // wider rows show accuracy eroding as the comparators go noisy on top
    // of whatever the fault draw destroyed.
    let rates = [0.0, 0.02, 0.05];
    let grayzone_scales = [1.0, 8.0, 20.0];
    let cfg = SweepConfig::stuck_cell_grid(&rates, trials, scale.seed)
        .expect("rates are probabilities")
        .with_eval_samples(Some(eval))
        .with_grayzone_scales(&grayzone_scales)
        .expect("scales are non-negative");
    println!(
        "=== digits MLP: gray-zone width x fault rate (packed stochastic engine) ===\n\
         {} scales x {} rates x {trials} trials, {eval} eval samples, {} workers",
        grayzone_scales.len(),
        rates.len(),
        cfg.workers
    );
    let start = Instant::now();
    let report = robustness_campaign(&scale, RobustnessWorkload::DigitsMlp, &cfg);
    let secs = start.elapsed().as_secs_f64();
    print_report(&report);
    let total = report.total_trials();
    println!(
        "{total} trials (train + deploy + sweep) in {secs:.1}s — {:.1} trials/s",
        total as f64 / secs
    );
    // The grid is variation-major: the first point is the nominal
    // operating condition (0.4 µA — only the handful of comparator
    // read-outs landing inside the narrow gray-zone are random, so the
    // printed pristine spread is pure SC switching noise) at the
    // pristine fault rate.
    let nominal_clean = &report.points[0];
    assert_eq!(nominal_clean.fault_model.stuck_cell_rate(), 0.0);
    assert_eq!(nominal_clean.variation.unwrap().grayzone_scale(), 1.0);
    assert!(report
        .points
        .iter()
        .flat_map(|p| &p.trials)
        .all(|t| (0.0..=1.0).contains(&t.accuracy)));
    println!(
        "nominal pristine trial spread: {:.3} (SC switching noise only)",
        nominal_clean.max_accuracy - nominal_clean.min_accuracy
    );

    // Campaign 2: fault-only on the packed digital engine (objects VGG).
    let cfg = SweepConfig::stuck_cell_grid(&[0.0, 0.02, 0.05, 0.10], trials, scale.seed)
        .expect("rates are probabilities")
        .with_eval_samples(Some(eval));
    println!("\n=== objects VGG: fault-only (packed digital engine) ===");
    let start = Instant::now();
    let report = robustness_campaign(&scale, RobustnessWorkload::ObjectsVgg, &cfg);
    let secs = start.elapsed().as_secs_f64();
    print_report(&report);
    println!(
        "{} trials (train + deploy + sweep) in {secs:.1}s — {:.1} trials/s",
        report.total_trials(),
        report.total_trials() as f64 / secs
    );
    // The pristine digital grid point must reproduce one deterministic value.
    let clean = &report.points[0];
    assert_eq!(clean.fault_model.stuck_cell_rate(), 0.0);
    assert_eq!(
        clean.min_accuracy, clean.max_accuracy,
        "pristine trials diverged"
    );
}
