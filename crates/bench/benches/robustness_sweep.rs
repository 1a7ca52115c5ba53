//! Monte Carlo robustness campaigns at benchmark scale: ≥100 fault-draw
//! trials per campaign on the packed deploy engine, aggregated into
//! per-fault-rate accuracy quantiles.
//!
//! Run with `cargo bench -p superbnn-bench --bench robustness_sweep`.
//! Each workload is trained, deployed, and lowered **once** (reported as
//! `train_seconds`); the timed figures are then pure sweep throughput for
//! two campaign disciplines over the same packed model:
//!
//! * `digital` — the gray-zone → 0 fault-only campaign (no SC noise);
//! * `counter` — the stochastic engine at a widened gray-zone, drawing SC
//!   noise from keyed counter streams (order-free draws).
//!
//! Trials run clone-free: each worker patches faults into its one model
//! through the undo journal and reverts them after evaluation. Besides
//! printing the distributions it writes the machine-readable baseline to
//! `BENCH_robustness.json` at the workspace root (override with the
//! `ROBUSTNESS_BENCH_OUT` env var). Faulted packed inference is
//! bit-identical to the faulted scalar reference (enforced by
//! `tests/props.rs` and `tests/packed_faults.rs`), so these numbers are
//! what the slow engine would report.

use std::fmt::Write as _;
use std::time::Instant;
use superbnn::experiments::{robustness_workload, ExperimentScale, RobustnessWorkload};
use superbnn::robustness::{run_sweep, RobustnessReport, SweepConfig};

const RATES: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.10];
const TRIALS_PER_POINT: usize = 24; // 5 × 24 = 120 trials per campaign
/// The stochastic campaigns widen the 0.4 µA operating gray-zone by this
/// factor so a large share of comparator read-outs draw genuine SC noise —
/// the regime where sampling dominates the sweep cost. 10× is
/// the strongest widening that still leaves the sweep scientifically
/// readable on these 32×32-crossbar workloads: accuracy degrades visibly
/// from the digital campaign yet stays well above chance, so the fault
/// grid still resolves. Much wider scales (≥ 40×) push *every* cell into
/// the gray zone and the accuracy column collapses to chance — a pure RNG
/// stress test with no robustness signal (and the sweep cost is flat in
/// the scale anyway, since saturated and live cells are both branchless).
const GRAYZONE_SCALE: f64 = 10.0;

fn grid_json(report: &RobustnessReport) -> String {
    let mut s = String::new();
    for (i, p) in report.points.iter().enumerate() {
        let sep = if i + 1 < report.points.len() { "," } else { "" };
        let _ = write!(
            s,
            "\n          {{\"stuck_cell_rate\": {}, \"dead_column_rate\": {}, \
             \"mean_defects\": {:.1}, \"accuracy\": {{\"mean\": {:.4}, \"min\": {:.4}, \
             \"p10\": {:.4}, \"p50\": {:.4}, \"p90\": {:.4}, \"max\": {:.4}}}}}{sep}",
            p.fault_model.stuck_cell_rate(),
            p.fault_model.dead_column_rate(),
            p.mean_defects,
            p.mean_accuracy,
            p.min_accuracy,
            p.p10_accuracy,
            p.p50_accuracy,
            p.p90_accuracy,
            p.max_accuracy,
        );
    }
    s
}

fn main() {
    let scale = ExperimentScale {
        samples_per_class: 60,
        epochs: 12,
        eval_samples: 48,
        width: 8,
        mlp_hidden: [64, 32],
        seed: 7,
    };
    let base = SweepConfig::stuck_cell_grid(&RATES, TRIALS_PER_POINT, scale.seed)
        .expect("rates are probabilities")
        .with_eval_samples(Some(scale.eval_samples));
    println!(
        "robustness_sweep: {} rates x {TRIALS_PER_POINT} trials, {} eval samples/trial, \
         {} workers",
        RATES.len(),
        scale.eval_samples,
        base.workers
    );

    // The two campaign disciplines measured per workload: the digital
    // fault-only limit, then the stochastic engine.
    let campaigns: [(&str, SweepConfig); 2] = [
        ("digital", base.clone()),
        (
            "counter",
            base.clone()
                .with_grayzone_scales(&[GRAYZONE_SCALE])
                .expect("scale is valid"),
        ),
    ];

    let specs = [
        (RobustnessWorkload::DigitsMlp, "mlp_digits_256-64-32-10"),
        (RobustnessWorkload::ObjectsVgg, "vgg_small_objects_w8"),
    ];
    let mut workloads = String::new();
    for (wi, (workload, tag)) in specs.into_iter().enumerate() {
        println!("\n=== {} ===", workload.label());
        // One-time setup, untimed in the sweep figures: train + deploy +
        // lower + interleave the eval set.
        let start = Instant::now();
        let (packed, eval) = robustness_workload(&scale, workload, Some(scale.eval_samples));
        let train_seconds = start.elapsed().as_secs_f64();
        println!("setup (train + deploy + lower): {train_seconds:.1}s");

        let mut campaign_rows = String::new();
        for (ci, (mode, cfg)) in campaigns.iter().enumerate() {
            let start = Instant::now();
            let report = run_sweep(&packed, &eval, cfg);
            let secs = start.elapsed().as_secs_f64();
            let total = report.total_trials();
            assert!(total >= 100, "campaign must run at least 100 trials");
            let trials_per_s = total as f64 / secs;
            println!("--- rng_mode {mode} ---");
            for p in &report.points {
                println!(
                    "rate {:>5.3}: defects {:>7.1}  acc mean {:.3}  [min {:.3} | p10 {:.3} | \
                     p50 {:.3} | p90 {:.3} | max {:.3}]",
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
            println!("{total} trials in {secs:.1}s ({trials_per_s:.1} trials/s, sweep only)");
            let scale_field = if cfg.variations.is_empty() {
                String::new()
            } else {
                format!("\n        \"grayzone_scale\": {GRAYZONE_SCALE},")
            };
            let sep = if ci + 1 < campaigns.len() { "," } else { "" };
            let _ = write!(
                campaign_rows,
                "\n      {{\n        \"rng_mode\": \"{mode}\",{scale_field}\n        \
                 \"total_trials\": {total},\n        \"wall_seconds\": {secs:.1},\n        \
                 \"trials_per_second\": {trials_per_s:.1},\n        \
                 \"grid\": [{}\n        ]\n      }}{sep}",
                grid_json(&report),
            );
        }
        let sep = if wi + 1 < specs.len() { "," } else { "" };
        let _ = write!(
            workloads,
            "\n    {{\n      \"model\": \"{tag}\",\n      \"crossbar\": \"32x32\",\n      \
             \"trials_per_point\": {TRIALS_PER_POINT},\n      \
             \"eval_samples\": {},\n      \"train_seconds\": {train_seconds:.1},\n      \
             \"campaigns\": [{campaign_rows}\n      ]\n    }}{sep}",
            scale.eval_samples,
        );
    }

    // Trials fan across `measured_workers` threads (each trial evaluates
    // single-threaded).
    let json = format!(
        "{{\n  {},\n  \"campaign_seed\": {},\n  \
         \"bit_identical_to_scalar\": true,\n  \"workloads\": [{workloads}\n  ]\n}}\n",
        superbnn_bench::baseline_header("robustness_sweep", &[("measured_workers", base.workers)]),
        scale.seed,
    );
    superbnn_bench::write_baseline("ROBUSTNESS_BENCH_OUT", "BENCH_robustness.json", &json);
}
