//! Monte Carlo fault-robustness sweeps on the packed deploy engine.
//!
//! The paper's central claim is that stochastic-computing BNN inference on
//! AQFP crossbars degrades gracefully under device-level imperfections —
//! the "immature manufacturing technology" of Section 1. Measuring that
//! claim properly needs *distributions*, not single draws: at a given
//! defect rate, two fabricated dies differ wildly in where their stuck
//! cells land, so a robustness figure is a quantile band over many
//! independent fault draws.
//!
//! This module runs such campaigns at hardware speed. The model is trained,
//! deployed, and lowered to a [`PackedModel`] **once**, each worker clones
//! it **once**; every trial then
//!
//! 1. injects a fresh fault draw directly into the worker's model through
//!    an undo journal ([`PackedModel::inject_faults_journaled`]: stuck
//!    cells as word masks on the weight planes, dead columns folded into
//!    the SWAR lane biases — every touched word recorded with its prior
//!    value),
//! 2. evaluates accuracy over a packed eval set shared by every trial of
//!    the campaign (the planes are packed once up front, not once per
//!    trial) — digital trials score the faulted model with
//!    [`PackedModel::accuracy_planes`], except that a draw with zero
//!    defects leaves the model pristine and takes the clean accuracy,
//!    evaluated once per campaign — and
//! 3. reverts the journal ([`PackedModel::revert_faults`]), restoring the
//!    model bit-for-bit for the next trial — no per-trial clone of the
//!    weight planes at all.
//!
//! Trials fan out across `std::thread::scope` workers. Every trial is
//! deterministic: trial `t` (globally indexed across the grid) draws its
//! faults from `seed = campaign_seed ^ t`, so any individual trial can be
//! reproduced in isolation and whole campaigns are reproducible across
//! machines and worker counts. Faulted packed inference is bit-identical
//! to faulted scalar inference (differentially tested in
//! `tests/props.rs`), so the distributions measured here are exactly what
//! the slow reference engine would report.
//!
//! # The variation axis
//!
//! Fabrication faults are not the only reliability axis: device
//! parameters *drift* (gray-zone width, attenuation, temperature — see
//! [`VariationModel`]). A campaign gains that axis through
//! [`SweepConfig::with_variation_grid`]: the grid becomes the cartesian
//! product *variation × fault rate*, and trials evaluate through the
//! **packed stochastic engine**
//! ([`PackedModel::accuracy_stochastic_planes_ctr`]) — the only fast
//! engine that can see a finite gray-zone — with per-stage flip tables
//! built once per operating condition and shared by every trial at that
//! condition. Trial `t` draws its fault pattern from a serial generator
//! seeded `campaign_seed ^ t`; its SC switching noise comes from keyed
//! counter streams rooted at the same seed, so one seed captures both
//! die-to-die defect and cycle-to-cycle switching randomness. Every
//! observation window is a pure function of its coordinates, so trials
//! are bit-reproducible across worker counts and evaluation orders, and
//! the packed engine draws exactly the windows the scalar
//! `DeployedModel::classify` reference draws from the same stream —
//! keeping the "what the slow engine would report" guarantee on this axis
//! too.

use crate::deploy::{BitMap, PackedModel, RngMode};
use aqfp_crossbar::faults::{FaultModel, PatchJournal};
use aqfp_device::{DeviceRng, SeedableRng, VariationModel};
use aqfp_sc::BitPlane;
use bnn_datasets::Dataset;
use serde::{Deserialize, Serialize};

/// Configuration of one Monte Carlo robustness campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// The fault-rate grid: one accuracy distribution is measured per
    /// entry (per variation, if a variation grid is set).
    pub grid: Vec<FaultModel>,
    /// The device-parameter variation grid. Empty (the default) keeps the
    /// campaign on the deterministic packed digital engine; non-empty
    /// switches evaluation to the packed stochastic engine and measures
    /// every `variation × fault rate` combination.
    pub variations: Vec<VariationModel>,
    /// Independent fault draws per grid point.
    pub trials: usize,
    /// Campaign seed; trial `t` (global index) draws from
    /// `campaign_seed ^ t`.
    pub campaign_seed: u64,
    /// Test samples evaluated per trial (`None` = the whole dataset).
    pub eval_samples: Option<usize>,
    /// Worker threads trials are fanned across.
    pub workers: usize,
}

impl SweepConfig {
    /// A campaign over an explicit fault-model grid, evaluating the whole
    /// dataset with one worker per available core.
    pub fn new(grid: Vec<FaultModel>, trials: usize, campaign_seed: u64) -> Self {
        Self {
            grid,
            variations: Vec::new(),
            trials,
            campaign_seed,
            eval_samples: None,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// The standard stuck-cell sweep grid: each `rate` becomes a
    /// [`FaultModel`] with that stuck-cell rate and a dead-column rate of
    /// `rate / 10` (dead neurons are an order of magnitude rarer than dead
    /// cells — the same convention as the scalar
    /// [`fault_sweep`](crate::experiments::fault_sweep) experiment).
    ///
    /// # Errors
    /// [`CrossbarError::FaultRateOutOfRange`](aqfp_crossbar::CrossbarError::FaultRateOutOfRange)
    /// if any rate is not a probability.
    pub fn stuck_cell_grid(
        rates: &[f64],
        trials: usize,
        campaign_seed: u64,
    ) -> aqfp_crossbar::Result<Self> {
        let grid = rates
            .iter()
            .map(|&r| FaultModel::new(r, r / 10.0))
            .collect::<aqfp_crossbar::Result<Vec<_>>>()?;
        Ok(Self::new(grid, trials, campaign_seed))
    }

    /// Adds a device-parameter variation grid: the campaign measures every
    /// `variation × fault rate` combination through the packed
    /// **stochastic** engine (finite gray-zone, SC noise per trial). Pass
    /// an empty vector to return to the digital fault-only campaign.
    #[must_use]
    pub fn with_variation_grid(mut self, variations: Vec<VariationModel>) -> Self {
        self.variations = variations;
        self
    }

    /// Convenience for the gray-zone-width axis: one variation per scale
    /// factor (`scale × ΔIin`, other knobs nominal) — the
    /// `gray-zone width × fault rate` sweep of
    /// `examples/robustness_sweep.rs`.
    ///
    /// # Errors
    /// [`DeviceError::VariationOutOfRange`](aqfp_device::DeviceError::VariationOutOfRange)
    /// if any scale is negative or non-finite.
    pub fn with_grayzone_scales(self, scales: &[f64]) -> aqfp_device::Result<Self> {
        let variations = scales
            .iter()
            .map(|&s| VariationModel::grayzone_scale_only(s))
            .collect::<aqfp_device::Result<Vec<_>>>()?;
        Ok(self.with_variation_grid(variations))
    }

    /// Limits per-trial evaluation to the first `n` test samples.
    #[must_use]
    pub fn with_eval_samples(mut self, n: Option<usize>) -> Self {
        self.eval_samples = n;
        self
    }

    /// Names the stochastic trials' RNG discipline. Counter streams are
    /// the only one (see [`RngMode`]), so the configuration is unchanged.
    #[must_use]
    pub fn with_rng_mode(self, _mode: RngMode) -> Self {
        self
    }

    /// Overrides the worker-thread count.
    ///
    /// # Errors
    /// [`DeployError::ZeroWorkers`](crate::deploy::DeployError::ZeroWorkers)
    /// if `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> crate::Result<Self> {
        if workers == 0 {
            return Err(crate::deploy::DeployError::ZeroWorkers);
        }
        self.workers = workers;
        Ok(self)
    }
}

/// One fault draw evaluated to completion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialOutcome {
    /// Global trial index across the whole campaign.
    pub trial: usize,
    /// The RNG seed the faults were drawn from (`campaign_seed ^ trial`).
    pub seed: u64,
    /// Defects drawn across the whole pipeline.
    pub defects: usize,
    /// Top-1 accuracy of the faulted packed model.
    pub accuracy: f64,
}

/// The measured accuracy/defect distribution of one fault-rate grid point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridPointReport {
    /// The fault model of this grid point.
    pub fault_model: FaultModel,
    /// The operating condition of this grid point (`None` for digital
    /// fault-only campaigns).
    pub variation: Option<VariationModel>,
    /// Every trial, in global-trial-index order.
    pub trials: Vec<TrialOutcome>,
    /// Mean accuracy over the trials.
    pub mean_accuracy: f64,
    /// Worst-case accuracy.
    pub min_accuracy: f64,
    /// Best-case accuracy.
    pub max_accuracy: f64,
    /// 10th-percentile accuracy (nearest-rank).
    pub p10_accuracy: f64,
    /// Median accuracy (nearest-rank).
    pub p50_accuracy: f64,
    /// 90th-percentile accuracy (nearest-rank).
    pub p90_accuracy: f64,
    /// Mean defect count per draw.
    pub mean_defects: f64,
}

impl GridPointReport {
    fn from_trials(
        fault_model: FaultModel,
        variation: Option<VariationModel>,
        trials: Vec<TrialOutcome>,
    ) -> Self {
        assert!(!trials.is_empty(), "grid point with zero trials");
        let n = trials.len() as f64;
        let mean_accuracy = trials.iter().map(|t| t.accuracy).sum::<f64>() / n;
        let mean_defects = trials.iter().map(|t| t.defects as f64).sum::<f64>() / n;
        let mut sorted: Vec<f64> = trials.iter().map(|t| t.accuracy).collect();
        sorted.sort_by(f64::total_cmp);
        Self {
            fault_model,
            variation,
            mean_accuracy,
            min_accuracy: sorted[0],
            max_accuracy: sorted[sorted.len() - 1],
            p10_accuracy: quantile(&sorted, 0.10),
            p50_accuracy: quantile(&sorted, 0.50),
            p90_accuracy: quantile(&sorted, 0.90),
            mean_defects,
            trials,
        }
    }
}

/// The aggregated result of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// The campaign seed trials derived their draws from.
    pub campaign_seed: u64,
    /// Trials per grid point.
    pub trials_per_point: usize,
    /// Test samples evaluated per trial.
    pub eval_samples: usize,
    /// One distribution per fault-rate grid point, in grid order.
    pub points: Vec<GridPointReport>,
}

impl RobustnessReport {
    /// Total trials across all grid points.
    pub fn total_trials(&self) -> usize {
        self.points.iter().map(|p| p.trials.len()).sum()
    }
}

/// Nearest-rank quantile of an ascending-sorted slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// A class-interleaved subset of up to `n` samples (all of them for
/// `None`): samples are taken round-robin across the classes, preserving
/// each class's internal order.
///
/// The synthetic dataset generators emit samples grouped by class and
/// [`Dataset::split`](bnn_datasets::Dataset::split) preserves that order,
/// so evaluating "the first `n` test samples" — what the per-trial
/// `eval_samples` limit does — would cover only the first few classes.
/// Campaign drivers interleave the evaluation set once up front so every
/// truncated evaluation stays class-balanced.
pub fn interleaved_eval_set(data: &Dataset, n: Option<usize>) -> Dataset {
    let n = n.map_or(data.len(), |n| n.min(data.len()));
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); data.num_classes];
    for (i, &label) in data.labels.iter().enumerate() {
        by_class[label].push(i);
    }
    let mut indices = Vec::with_capacity(n);
    let mut round = 0usize;
    while indices.len() < n {
        let before = indices.len();
        for class in &by_class {
            if let Some(&i) = class.get(round) {
                indices.push(i);
                if indices.len() == n {
                    break;
                }
            }
        }
        assert!(indices.len() > before, "ran out of samples");
        round += 1;
    }
    let (images, labels) = data.batch(&indices);
    Dataset {
        images,
        labels,
        num_classes: data.num_classes,
    }
}

/// Runs a Monte Carlo robustness campaign: `cfg.trials` independent fault
/// draws per grid point, patched into each worker's single model clone
/// through an undo journal (patch → evaluate → revert, no per-trial
/// clone), evaluated on (the first `cfg.eval_samples` of) `data` — packed
/// once and shared across every trial — fanned across `cfg.workers`
/// threads. Deterministic for a given configuration regardless of the
/// worker count.
///
/// With a variation grid ([`SweepConfig::with_variation_grid`]) the grid
/// points become every `variation × fault rate` pair (variation-major
/// order) and trials evaluate through the packed **stochastic** engine:
/// per-condition flip tables are built once up front and shared across
/// trials. Each trial's serial RNG draws the faults; its SC switching
/// noise comes from keyed counter streams rooted at the trial seed —
/// flip-for-flip what the scalar reference would report.
///
/// # Panics
/// Panics if the grid or `data` is empty or `trials == 0`.
pub fn run_sweep(packed: &PackedModel, data: &Dataset, cfg: &SweepConfig) -> RobustnessReport {
    assert!(!cfg.grid.is_empty(), "empty fault-rate grid");
    assert!(cfg.trials > 0, "campaign with zero trials per point");
    assert!(cfg.workers > 0, "need at least one worker");
    let eval_samples = cfg.eval_samples.map_or(data.len(), |n| n.min(data.len()));
    assert!(eval_samples > 0, "campaign over zero samples");

    // One flip-table set per operating condition, shared by every trial
    // at that condition (faults never invalidate the tables).
    let tables: Vec<crate::deploy::StochasticTables> = cfg
        .variations
        .iter()
        .map(|vm| packed.stochastic_tables(vm))
        .collect();
    // The eval set is packed once for the whole campaign.
    let planes: Vec<BitPlane> = (0..eval_samples)
        .map(|i| BitMap::from_tensor_sample(&data.images, i).to_plane())
        .collect();
    let labels = &data.labels[..eval_samples];
    // A digital draw with no defects leaves the model pristine: such
    // trials share one clean evaluation, made before the workers start.
    let clean = cfg
        .variations
        .is_empty()
        .then(|| packed.accuracy_planes(&planes, labels));
    let conditions = cfg.variations.len().max(1);
    let points_per_cond = cfg.grid.len();
    let total = conditions * points_per_cond * cfg.trials;
    let mut outcomes: Vec<Option<TrialOutcome>> = vec![None; total];
    // Trials parallelize at the campaign level, so each trial evaluates
    // its batch single-threaded (no nested fan-out).
    let chunk = total.div_ceil(cfg.workers.min(total));
    std::thread::scope(|s| {
        for (ci, slots) in outcomes.chunks_mut(chunk).enumerate() {
            let tables = &tables;
            let planes = &planes;
            s.spawn(move || {
                // One clone per worker, reused by every trial: faults are
                // patched in through the journal and reverted bit-for-bit
                // after evaluation.
                let mut m = packed
                    .clone()
                    .with_workers(1)
                    .expect("one worker is always valid");
                let mut journal = PatchJournal::new();
                for (j, slot) in slots.iter_mut().enumerate() {
                    let trial = ci * chunk + j;
                    let point = trial / cfg.trials;
                    let seed = cfg.campaign_seed ^ trial as u64;
                    let mut rng = DeviceRng::seed_from_u64(seed);
                    let defects = m.inject_faults_journaled(
                        &cfg.grid[point % points_per_cond],
                        &mut rng,
                        &mut journal,
                    );
                    let accuracy = match tables.get(point / points_per_cond) {
                        Some(t) => m.accuracy_stochastic_planes_ctr(t, planes, labels, seed),
                        None if defects == 0 => {
                            clean.expect("digital campaigns score the clean die")
                        }
                        None => m.accuracy_planes(planes, labels),
                    };
                    m.revert_faults(&mut journal);
                    *slot = Some(TrialOutcome {
                        trial,
                        seed,
                        defects,
                        accuracy,
                    });
                }
            });
        }
    });

    let mut outcomes = outcomes.into_iter().map(|o| o.expect("every trial ran"));
    let mut points = Vec::with_capacity(conditions * points_per_cond);
    for v in 0..conditions {
        for &fm in &cfg.grid {
            points.push(GridPointReport::from_trials(
                fm,
                cfg.variations.get(v).copied(),
                outcomes.by_ref().take(cfg.trials).collect(),
            ));
        }
    }
    RobustnessReport {
        campaign_seed: cfg.campaign_seed,
        trials_per_point: cfg.trials,
        eval_samples,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HardwareConfig;
    use crate::deploy::{deploy, DeployedModel};
    use crate::spec::NetSpec;
    use bnn_datasets::{digits::generate_digits, SynthConfig};

    fn tiny_campaign_deployment() -> (DeployedModel, Dataset) {
        let hw = HardwareConfig {
            crossbar_rows: 8,
            crossbar_cols: 8,
            ..Default::default()
        };
        let spec = NetSpec::mlp(&[1, 16, 16], &[16], 10);
        let model = spec.build_software(&hw, 5);
        let deployed = deploy(&spec, &model, &hw).unwrap();
        let data = generate_digits(&SynthConfig {
            samples_per_class: 2,
            ..Default::default()
        });
        (deployed, data)
    }

    fn tiny_campaign_model() -> (PackedModel, Dataset) {
        let (deployed, data) = tiny_campaign_deployment();
        (deployed.to_packed(), data)
    }

    #[test]
    fn sweeps_are_deterministic_across_worker_counts() {
        let (packed, data) = tiny_campaign_model();
        let cfg = SweepConfig::stuck_cell_grid(&[0.0, 0.1], 3, 42).unwrap();
        let a = run_sweep(&packed, &data, &cfg.clone().with_workers(1).unwrap());
        let b = run_sweep(&packed, &data, &cfg.with_workers(4).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn zero_workers_is_an_error_not_a_panic() {
        let cfg = SweepConfig::stuck_cell_grid(&[0.0], 1, 0).unwrap();
        assert!(matches!(
            cfg.with_workers(0),
            Err(crate::deploy::DeployError::ZeroWorkers)
        ));
    }

    #[test]
    fn pristine_grid_point_reproduces_the_clean_accuracy() {
        let (packed, data) = tiny_campaign_model();
        let clean = packed.accuracy(&data, None);
        let cfg = SweepConfig::stuck_cell_grid(&[0.0], 4, 7).unwrap();
        let report = run_sweep(&packed, &data, &cfg);
        assert_eq!(report.total_trials(), 4);
        for t in &report.points[0].trials {
            assert_eq!(t.defects, 0);
            assert_eq!(t.accuracy, clean);
        }
        assert_eq!(report.points[0].mean_accuracy, clean);
        assert_eq!(report.points[0].p50_accuracy, clean);
    }

    #[test]
    fn report_statistics_are_ordered_and_seeds_are_derived() {
        let (packed, data) = tiny_campaign_model();
        let cfg = SweepConfig::stuck_cell_grid(&[0.05, 0.3], 5, 99)
            .unwrap()
            .with_eval_samples(Some(10));
        let report = run_sweep(&packed, &data, &cfg);
        assert_eq!(report.eval_samples, 10);
        assert_eq!(report.points.len(), 2);
        for (g, p) in report.points.iter().enumerate() {
            assert!(p.min_accuracy <= p.p10_accuracy);
            assert!(p.p10_accuracy <= p.p50_accuracy);
            assert!(p.p50_accuracy <= p.p90_accuracy);
            assert!(p.p90_accuracy <= p.max_accuracy);
            assert!(p.min_accuracy <= p.mean_accuracy && p.mean_accuracy <= p.max_accuracy);
            for (i, t) in p.trials.iter().enumerate() {
                let trial = g * cfg.trials + i;
                assert_eq!(t.trial, trial);
                assert_eq!(t.seed, 99 ^ trial as u64);
            }
        }
        // Heavier faults draw more defects on average.
        assert!(report.points[1].mean_defects > report.points[0].mean_defects);
    }

    #[test]
    fn interleaved_eval_set_is_class_balanced() {
        let data = generate_digits(&SynthConfig {
            samples_per_class: 4,
            ..Default::default()
        });
        // The generator groups by class; a 10-sample interleave must cover
        // all 10 classes exactly once.
        let eval = interleaved_eval_set(&data, Some(10));
        assert_eq!(eval.len(), 10);
        let mut seen = vec![0usize; 10];
        for &l in &eval.labels {
            seen[l] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
        // Taking everything preserves the sample count.
        assert_eq!(interleaved_eval_set(&data, None).len(), data.len());
        assert_eq!(interleaved_eval_set(&data, Some(999)).len(), data.len());
    }

    #[test]
    fn variation_sweep_covers_the_cartesian_grid_deterministically() {
        let (packed, data) = tiny_campaign_model();
        let cfg = SweepConfig::stuck_cell_grid(&[0.0, 0.1], 2, 13)
            .unwrap()
            .with_eval_samples(Some(8))
            .with_grayzone_scales(&[1.0, 3.0])
            .unwrap();
        let a = run_sweep(&packed, &data, &cfg.clone().with_workers(1).unwrap());
        let b = run_sweep(&packed, &data, &cfg.with_workers(4).unwrap());
        assert_eq!(a, b, "stochastic sweeps must not depend on worker count");
        // variation-major × fault-minor ordering, trials globally indexed.
        assert_eq!(a.points.len(), 4);
        assert_eq!(a.total_trials(), 8);
        for (i, p) in a.points.iter().enumerate() {
            let scale = if i < 2 { 1.0 } else { 3.0 };
            assert_eq!(p.variation.unwrap().grayzone_scale(), scale, "point {i}");
            assert_eq!(
                p.fault_model.stuck_cell_rate(),
                if i % 2 == 0 { 0.0 } else { 0.1 },
                "point {i}"
            );
            for (j, t) in p.trials.iter().enumerate() {
                assert_eq!(t.trial, i * 2 + j);
                assert_eq!(t.seed, 13 ^ t.trial as u64);
                assert!((0.0..=1.0).contains(&t.accuracy));
            }
        }
    }

    #[test]
    fn stochastic_trials_reproduce_the_direct_evaluation() {
        // A stochastic trial = inject faults from the trial seed, then
        // evaluate under SC noise keyed on the same seed. Replaying that
        // recipe on the scalar reference — faults on the deployed
        // crossbars, variation on their operating conditions — must give
        // the identical defect count and accuracy.
        let (deployed, data) = tiny_campaign_deployment();
        let packed = deployed.to_packed();
        let vm = VariationModel::grayzone_scale_only(2.0).unwrap();
        let cfg = SweepConfig::stuck_cell_grid(&[0.2], 2, 77)
            .unwrap()
            .with_eval_samples(Some(10))
            .with_variation_grid(vec![vm]);
        let report = run_sweep(&packed, &data, &cfg);
        for t in &report.points[0].trials {
            let mut scalar = deployed.clone();
            let defects = scalar.inject_faults(&cfg.grid[0], &mut DeviceRng::seed_from_u64(t.seed));
            assert_eq!(defects, t.defects);
            scalar.apply_variation(&vm);
            assert_eq!(
                scalar.accuracy(&data, t.seed, Some(10)),
                t.accuracy,
                "trial {}",
                t.trial
            );
        }
    }

    #[test]
    fn digital_trials_reproduce_the_direct_evaluation() {
        // Digital campaigns reuse one clean evaluation for draws with zero
        // defects and run the full forward on every other draw; replaying
        // each trial by hand on a fresh clone must give the identical
        // defect count and accuracy. At the 1e-4 rate the tiny MLP's draws
        // are a mix of defect-free and faulted ones, so the reuse is
        // checked at a nonzero rate against draws that do land faults.
        let (packed, data) = tiny_campaign_model();
        let cfg = SweepConfig::stuck_cell_grid(&[0.15, 1e-4], 8, 31)
            .unwrap()
            .with_eval_samples(Some(12));
        let report = run_sweep(&packed, &data, &cfg);
        for (point, fm) in report.points.iter().zip(&cfg.grid) {
            for t in &point.trials {
                let mut m = packed.clone();
                let defects = m.inject_faults(fm, &mut DeviceRng::seed_from_u64(t.seed));
                assert_eq!(defects, t.defects);
                assert_eq!(m.accuracy(&data, Some(12)), t.accuracy, "trial {}", t.trial);
            }
        }
        let sparse = &report.points[1].trials;
        assert!(sparse.iter().any(|t| t.defects == 0), "no defect-free draw");
        assert!(sparse.iter().any(|t| t.defects > 0), "no faulted draw");
    }

    #[test]
    fn counter_sweeps_are_bit_identical_across_worker_counts() {
        let (packed, data) = tiny_campaign_model();
        let cfg = SweepConfig::stuck_cell_grid(&[0.0, 0.1], 3, 29)
            .unwrap()
            .with_eval_samples(Some(10))
            .with_grayzone_scales(&[1.0, 2.0])
            .unwrap();
        let a = run_sweep(&packed, &data, &cfg.clone().with_workers(1).unwrap());
        let b = run_sweep(&packed, &data, &cfg.clone().with_workers(4).unwrap());
        let c = run_sweep(&packed, &data, &cfg.with_workers(3).unwrap());
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn counter_trials_reproduce_the_direct_evaluation() {
        // A counter trial = inject faults from the trial seed, then
        // evaluate with counter streams rooted at the same seed; replaying
        // that recipe by hand on a fresh clone must give the identical
        // accuracy — the journal left nothing behind.
        let (packed, data) = tiny_campaign_model();
        let cfg = SweepConfig::stuck_cell_grid(&[0.2], 3, 61)
            .unwrap()
            .with_eval_samples(Some(10))
            .with_grayzone_scales(&[2.0])
            .unwrap();
        let report = run_sweep(&packed, &data, &cfg);
        let eval = {
            // The sweep evaluates the first 10 samples of `data`.
            let tables =
                packed.stochastic_tables(&VariationModel::grayzone_scale_only(2.0).unwrap());
            let planes: Vec<BitPlane> = (0..10)
                .map(|i| BitMap::from_tensor_sample(&data.images, i).to_plane())
                .collect();
            move |m: &PackedModel, seed: u64| {
                m.accuracy_stochastic_planes_ctr(&tables, &planes, &data.labels[..10], seed)
            }
        };
        for t in &report.points[0].trials {
            let mut m = packed.clone();
            let mut rng = DeviceRng::seed_from_u64(t.seed);
            let defects = m.inject_faults(&cfg.grid[0], &mut rng);
            assert_eq!(defects, t.defects);
            assert_eq!(eval(&m, t.seed), t.accuracy, "trial {}", t.trial);
        }
    }

    #[test]
    fn grayzone_scale_grid_validates_scales() {
        let cfg = SweepConfig::stuck_cell_grid(&[0.0], 1, 0).unwrap();
        assert!(matches!(
            cfg.clone().with_grayzone_scales(&[1.0, -2.0]),
            Err(aqfp_device::DeviceError::VariationOutOfRange { .. })
        ));
        let cfg = cfg.with_grayzone_scales(&[0.0, 1.0]).unwrap();
        assert_eq!(cfg.variations.len(), 2);
    }

    #[test]
    fn digital_points_carry_no_variation() {
        let (packed, data) = tiny_campaign_model();
        let cfg = SweepConfig::stuck_cell_grid(&[0.0], 1, 3).unwrap();
        let report = run_sweep(&packed, &data, &cfg);
        assert!(report.points.iter().all(|p| p.variation.is_none()));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let sorted = [0.1, 0.2, 0.3, 0.4, 1.0];
        assert_eq!(quantile(&sorted, 0.0), 0.1);
        assert_eq!(quantile(&sorted, 0.5), 0.3);
        assert_eq!(quantile(&sorted, 1.0), 1.0);
        assert_eq!(quantile(&[0.7], 0.9), 0.7);
    }

    #[test]
    fn stuck_cell_grid_validates_rates() {
        assert!(SweepConfig::stuck_cell_grid(&[0.0, 1.5], 2, 0).is_err());
        let cfg = SweepConfig::stuck_cell_grid(&[0.2], 2, 0).unwrap();
        assert_eq!(cfg.grid[0].stuck_cell_rate(), 0.2);
        assert_eq!(cfg.grid[0].dead_column_rate(), 0.02);
    }
}
