//! Experiment drivers for the paper's figures and tables.
//!
//! Each driver is parameterized by an [`ExperimentScale`] so the same code
//! runs as a fast smoke test (`quick`) or at full reproduction scale
//! (`full`, used by the `tablegen` binary). The synthetic-dataset
//! substitution is documented under "Modelling substitutions" in
//! `ARCHITECTURE.md`: every experiment here measures *relative* accuracy
//! across hardware configurations, which is what the paper's Figs. 10–11
//! and the "Ours" table rows report.

use crate::config::HardwareConfig;
use crate::deploy::deploy;
use crate::energy::{self, EnergyReport};
use crate::spec::NetSpec;
use crate::trainer::{TrainConfig, Trainer};
use aqfp_device::{DeviceRng, SeedableRng};
use bnn_datasets::{digits, objects, Dataset, SynthConfig};
use serde::{Deserialize, Serialize};

/// Size/effort knobs shared by all experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Samples generated per class.
    pub samples_per_class: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Test samples evaluated on deployed hardware (per configuration).
    pub eval_samples: usize,
    /// First-stage channel width of the VGG-Small variant.
    pub width: usize,
    /// Hidden sizes of the MLP.
    pub mlp_hidden: [usize; 2],
    /// Base RNG seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// Fast smoke-test scale (a couple of minutes for the full battery).
    pub fn quick() -> Self {
        Self {
            samples_per_class: 60,
            epochs: 15,
            eval_samples: 50,
            width: 8,
            mlp_hidden: [64, 32],
            seed: 7,
        }
    }

    /// Full reproduction scale (tens of minutes on one core; used by
    /// `tablegen`).
    pub fn full() -> Self {
        Self {
            samples_per_class: 80,
            epochs: 30,
            eval_samples: 100,
            width: 8,
            mlp_hidden: [128, 64],
            seed: 7,
        }
    }

    fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: 32,
            lr: 0.02,
            warmup_epochs: (self.epochs / 5).max(1),
            // Deterministic curriculum for the first ~2/3 of training, then
            // adapt to the sampled device law (see TrainConfig docs).
            noise_warmup_epochs: self.epochs * 2 / 3,
            seed: self.seed,
            ..Default::default()
        }
    }

    /// The SynthObjects dataset split for CIFAR-10-class experiments.
    pub fn objects_data(&self) -> (Dataset, Dataset) {
        objects::generate_objects(&SynthConfig {
            samples_per_class: self.samples_per_class,
            seed: self.seed,
            ..Default::default()
        })
        .split(0.25)
    }

    /// The SynthDigits dataset split for MNIST-class experiments.
    pub fn digits_data(&self) -> (Dataset, Dataset) {
        digits::generate_digits(&SynthConfig {
            samples_per_class: self.samples_per_class,
            seed: self.seed,
            ..Default::default()
        })
        .split(0.25)
    }
}

/// Trains a model for `spec` under `hw` and returns it with its final
/// training statistics.
pub fn train_model(
    spec: &NetSpec,
    hw: &HardwareConfig,
    scale: &ExperimentScale,
    train: &Dataset,
) -> (bnn_nn::Sequential, f64) {
    let mut model = spec.build_software(hw, scale.seed);
    let trainer = Trainer::new(scale.train_config());
    let history = trainer.train(&mut model, train);
    let final_acc = history.last().map_or(0.0, |h| h.train_accuracy);
    (model, final_acc)
}

/// One point of the Fig. 10 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BitstreamPoint {
    /// Square crossbar size.
    pub crossbar: usize,
    /// SC bit-stream length.
    pub bitstream_len: usize,
    /// Deployed (hardware-faithful) accuracy.
    pub accuracy: f64,
}

/// Fig. 10: accuracy vs SC bit-stream length, one series per crossbar size.
/// Trains once per crossbar size (L only affects deployment), then deploys
/// at every length.
pub fn bitstream_sweep(
    scale: &ExperimentScale,
    lengths: &[usize],
    crossbar_sizes: &[usize],
    grayzone_ua: f64,
) -> Vec<BitstreamPoint> {
    let (train, test) = scale.objects_data();
    let spec = NetSpec::vgg_small([3, 16, 16], scale.width, 10);
    let mut out = Vec::new();
    for &cs in crossbar_sizes {
        let hw = HardwareConfig {
            crossbar_rows: cs,
            crossbar_cols: cs,
            grayzone_ua,
            ..Default::default()
        };
        let (model, _) = train_model(&spec, &hw, scale, &train);
        for &len in lengths {
            let hw_l = HardwareConfig {
                bitstream_len: len,
                ..hw
            };
            let deployed = deploy(&spec, &model, &hw_l).expect("spec matches model");
            let accuracy = deployed.accuracy(
                &test,
                scale.seed ^ (len as u64) << 8 ^ cs as u64,
                Some(scale.eval_samples),
            );
            out.push(BitstreamPoint {
                crossbar: cs,
                bitstream_len: len,
                accuracy,
            });
        }
    }
    out
}

/// One point of the Fig. 11 surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridPoint {
    /// Square crossbar size.
    pub crossbar: usize,
    /// Gray-zone width ΔIin in µA.
    pub grayzone_ua: f64,
    /// Deployed accuracy (bit-stream length 1, as in the paper's figure).
    pub accuracy: f64,
}

/// Fig. 11: deployed accuracy over the (ΔIin, crossbar size) grid with
/// bit-stream length 1. Trains per grid point (training is config-aware).
pub fn grid_sweep(
    scale: &ExperimentScale,
    crossbar_sizes: &[usize],
    grayzones_ua: &[f64],
) -> Vec<GridPoint> {
    let (train, test) = scale.objects_data();
    let spec = NetSpec::vgg_small([3, 16, 16], scale.width, 10);
    let mut out = Vec::new();
    for &cs in crossbar_sizes {
        for &gz in grayzones_ua {
            let hw = HardwareConfig {
                crossbar_rows: cs,
                crossbar_cols: cs,
                grayzone_ua: gz,
                bitstream_len: 1,
                ..Default::default()
            };
            let (model, _) = train_model(&spec, &hw, scale, &train);
            let deployed = deploy(&spec, &model, &hw).expect("spec matches model");
            let accuracy = deployed.accuracy(
                &test,
                scale.seed ^ (gz.to_bits() >> 3) ^ cs as u64,
                Some(scale.eval_samples),
            );
            out.push(GridPoint {
                crossbar: cs,
                grayzone_ua: gz,
                accuracy,
            });
        }
    }
    out
}

/// One "Ours" row of Table 2 / Table 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OursRow {
    /// Configuration label.
    pub label: String,
    /// Square crossbar size.
    pub crossbar: usize,
    /// SC bit-stream length.
    pub bitstream_len: usize,
    /// Deployed accuracy (fraction).
    pub accuracy: f64,
    /// Software-reference accuracy of the same trained model (fraction).
    pub software_accuracy: f64,
    /// Energy/performance estimate.
    pub energy: EnergyReport,
}

/// The default Table 2 configuration points `(Cs, ΔIin µA, L)`, from the
/// accuracy-first operating point to the efficiency-first one (the paper's
/// four constraint levels).
pub const TABLE2_CONFIGS: [(usize, f64, usize); 4] =
    [(8, 8.0, 32), (8, 8.0, 16), (16, 4.0, 8), (36, 1.6, 4)];

/// Table 2: the "Ours (VGG-Small)" rows across energy-efficiency
/// constraints. Each config is `(crossbar size, ΔIin µA, bit-stream len)`
/// — chosen along the co-optimizer's Pareto front from accurate/expensive
/// to cheap/noisy. (The ResNet variant is evaluated in software and costed
/// structurally; see "Modelling substitutions" in `ARCHITECTURE.md`.)
pub fn table2_ours(scale: &ExperimentScale, configs: &[(usize, f64, usize)]) -> Vec<OursRow> {
    let (train, test) = scale.objects_data();
    let spec = NetSpec::vgg_small([3, 16, 16], scale.width, 10);
    configs
        .iter()
        .map(|&(cs, grayzone_ua, len)| {
            let hw = HardwareConfig {
                crossbar_rows: cs,
                crossbar_cols: cs,
                grayzone_ua,
                bitstream_len: len,
                ..Default::default()
            };
            let (mut model, _) = train_model(&spec, &hw, scale, &train);
            let trainer = Trainer::new(scale.train_config());
            let software_accuracy = trainer.evaluate(&mut model, &test);
            let deployed = deploy(&spec, &model, &hw).expect("spec matches model");
            let accuracy = deployed.accuracy(
                &test,
                scale.seed ^ (cs * 131 + len) as u64,
                Some(scale.eval_samples),
            );
            OursRow {
                label: format!("Ours (VGG-Small, {cs}x{cs}, ΔI={grayzone_ua}µA, L={len})"),
                crossbar: cs,
                bitstream_len: len,
                accuracy,
                software_accuracy,
                energy: energy::estimate(&spec, &hw),
            }
        })
        .collect()
}

/// Table 3: the "Ours (MLP)" row on the MNIST-class dataset.
pub fn table3_ours(scale: &ExperimentScale) -> OursRow {
    let (train, test) = scale.digits_data();
    let spec = NetSpec::mlp(
        &[1, 16, 16],
        &[scale.mlp_hidden[0], scale.mlp_hidden[1]],
        10,
    );
    // The accuracy-first co-optimized operating point (see TABLE2_CONFIGS).
    let (cs, gz, len) = TABLE2_CONFIGS[0];
    let hw = HardwareConfig {
        crossbar_rows: cs,
        crossbar_cols: cs,
        grayzone_ua: gz,
        bitstream_len: len,
        ..Default::default()
    };
    let (mut model, _) = train_model(&spec, &hw, scale, &train);
    let trainer = Trainer::new(scale.train_config());
    let software_accuracy = trainer.evaluate(&mut model, &test);
    let deployed = deploy(&spec, &model, &hw).expect("spec matches model");
    let accuracy = deployed.accuracy(&test, scale.seed ^ 0xAB, Some(scale.eval_samples));
    OursRow {
        label: "Ours (MLP)".to_string(),
        crossbar: hw.crossbar_rows,
        bitstream_len: hw.bitstream_len,
        accuracy,
        software_accuracy,
        energy: energy::estimate(&spec, &hw),
    }
}

/// The Table 2 "Ours (ResNet-18)" row. The residual skip adder stays
/// real-valued (Bi-Real convention), which the crossbar mapper does not
/// cover, so the accuracy is the randomized *software* evaluation (the
/// training law still models the device) and the energy estimate is
/// structural — matching how the paper reports this row (an accuracy and
/// efficiency claim, not a new datapath).
pub fn table2_resnet(scale: &ExperimentScale) -> OursRow {
    let (train, test) = scale.objects_data();
    let spec = NetSpec::resnet_small([3, 16, 16], scale.width, 10);
    let (cs, gz, len) = TABLE2_CONFIGS[0];
    let hw = HardwareConfig {
        crossbar_rows: cs,
        crossbar_cols: cs,
        grayzone_ua: gz,
        bitstream_len: len,
        ..Default::default()
    };
    let (mut model, _) = train_model(&spec, &hw, scale, &train);
    let trainer = Trainer::new(scale.train_config());
    let software_accuracy = trainer.evaluate(&mut model, &test);
    OursRow {
        label: format!("Ours (ResNet, {cs}x{cs}, ΔI={gz}µA, L={len}, software eval)"),
        crossbar: cs,
        bitstream_len: len,
        accuracy: software_accuracy,
        software_accuracy,
        energy: energy::estimate(&spec, &hw),
    }
}

/// One point of the fault-robustness sweep (extension experiment: the
/// paper motivates limited crossbar scalability partly by "immature
/// manufacturing technology"; this measures how gracefully accuracy
/// degrades with fabrication defects).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPoint {
    /// Stuck LiM-cell rate.
    pub stuck_cell_rate: f64,
    /// Defects drawn across the whole deployment.
    pub defects: usize,
    /// Deployed accuracy with the defects.
    pub accuracy: f64,
}

/// Sweeps deployed accuracy against the stuck-cell defect rate (dead-column
/// rate follows at 1/10 of it). One model is trained once; each rate gets a
/// fresh fault draw on a fresh deployment.
pub fn fault_sweep(scale: &ExperimentScale, rates: &[f64]) -> Vec<FaultPoint> {
    let (train, test) = scale.objects_data();
    let spec = NetSpec::vgg_small([3, 16, 16], scale.width, 10);
    let (cs, gz, len) = TABLE2_CONFIGS[1];
    let hw = HardwareConfig {
        crossbar_rows: cs,
        crossbar_cols: cs,
        grayzone_ua: gz,
        bitstream_len: len,
        ..Default::default()
    };
    let (model, _) = train_model(&spec, &hw, scale, &train);
    rates
        .iter()
        .map(|&rate| {
            let mut deployed = deploy(&spec, &model, &hw).expect("spec matches model");
            let fm = aqfp_crossbar::faults::FaultModel::new(rate, rate / 10.0)
                .expect("sweep rates are probabilities");
            let seed = scale.seed ^ rate.to_bits();
            let defects = deployed.inject_faults(&fm, &mut DeviceRng::seed_from_u64(seed));
            let accuracy = deployed.accuracy(&test, seed, Some(scale.eval_samples));
            FaultPoint {
                stuck_cell_rate: rate,
                defects,
                accuracy,
            }
        })
        .collect()
}

/// Which deployed workload a Monte Carlo robustness campaign runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RobustnessWorkload {
    /// The MNIST-class digits MLP.
    DigitsMlp,
    /// The CIFAR-class objects VGG-Small.
    ObjectsVgg,
}

impl RobustnessWorkload {
    /// A short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RobustnessWorkload::DigitsMlp => "digits MLP",
            RobustnessWorkload::ObjectsVgg => "objects VGG-Small",
        }
    }
}

/// Runs a Monte Carlo robustness campaign on the packed deploy engine
/// (see [`crate::robustness`]): trains the workload once, deploys and
/// lowers it once, then measures the accuracy distribution of
/// `cfg.trials` independent fault draws per grid point. Where
/// [`fault_sweep`] reports a single draw per rate through the slow
/// stochastic engine, this driver reports mean/min/quantiles per rate at
/// packed-engine speed.
///
/// The operating point is deliberately *near-deterministic* (32×32
/// crossbars, a narrow 0.4 µA gray-zone): the fault-only campaign
/// evaluates the gray-zone → 0 digital limit, so campaigns train where
/// that limit is most faithful and heavy-tiling partial-sum saturation
/// (which would otherwise dominate the fault signal) stays moderate.
///
/// A `cfg` with a variation grid
/// ([`SweepConfig::with_variation_grid`](crate::robustness::SweepConfig::with_variation_grid))
/// turns this into a **variation campaign**: every
/// `variation × fault rate` point is measured through the packed
/// *stochastic* engine, so gray-zone widening (width scales, temperature
/// drift) and attenuation drift show up as genuine SC switching noise on
/// top of the fault distribution — the per-trial parameter-variation axis
/// thermal-cycling reliability studies sweep.
pub fn robustness_campaign(
    scale: &ExperimentScale,
    workload: RobustnessWorkload,
    cfg: &crate::robustness::SweepConfig,
) -> crate::robustness::RobustnessReport {
    let (packed, eval) = robustness_workload(scale, workload, cfg.eval_samples);
    crate::robustness::run_sweep(&packed, &eval, cfg)
}

/// The one-time setup of [`robustness_campaign`] — trains the workload,
/// deploys and lowers it at the campaign operating point, and interleaves
/// the (class-grouped) test split so a truncated per-trial evaluation of
/// `eval_samples` covers every class. Split out so campaign drivers that
/// measure several sweep configurations over the same workload (e.g. the
/// robustness bench timing its digital and stochastic campaigns) train
/// once instead of once per campaign.
pub fn robustness_workload(
    scale: &ExperimentScale,
    workload: RobustnessWorkload,
    eval_samples: Option<usize>,
) -> (crate::deploy::PackedModel, bnn_datasets::Dataset) {
    let hw = HardwareConfig {
        crossbar_rows: 32,
        crossbar_cols: 32,
        grayzone_ua: 0.4,
        bitstream_len: 16,
        ..Default::default()
    };
    let (spec, (train, test)) = match workload {
        RobustnessWorkload::DigitsMlp => (
            NetSpec::mlp(
                &[1, 16, 16],
                &[scale.mlp_hidden[0], scale.mlp_hidden[1]],
                10,
            ),
            scale.digits_data(),
        ),
        RobustnessWorkload::ObjectsVgg => (
            NetSpec::vgg_small([3, 16, 16], scale.width, 10),
            scale.objects_data(),
        ),
    };
    let (model, _) = train_model(&spec, &hw, scale, &train);
    let deployed = deploy(&spec, &model, &hw).expect("spec matches model");
    let eval = crate::robustness::interleaved_eval_set(&test, eval_samples);
    (deployed.to_packed(), eval)
}

/// One point of the operating-temperature sweep (extension experiment).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemperaturePoint {
    /// Operating temperature in kelvin.
    pub temperature_k: f64,
    /// The resulting gray-zone width in µA (thermal + quantum noise).
    pub grayzone_ua: f64,
    /// Deployed accuracy at this temperature.
    pub accuracy: f64,
}

/// Sweeps deployed accuracy against operating temperature: the gray-zone
/// width follows the calibrated thermal/quantum noise model of
/// `aqfp_device::noise` (Section 4.2's Walls-et-al. citation), so warming
/// the cryostat widens every neuron's randomized band. One model is trained
/// at the 4.2 K point and deployed across temperatures — the *mismatch*
/// experiment an operator would care about.
pub fn temperature_sweep(scale: &ExperimentScale, temperatures_k: &[f64]) -> Vec<TemperaturePoint> {
    let (train, test) = scale.objects_data();
    let spec = NetSpec::vgg_small([3, 16, 16], scale.width, 10);
    let noise = aqfp_device::noise::NoiseModel::calibrated();
    let (cs, _, len) = TABLE2_CONFIGS[1];
    let hw_train = HardwareConfig {
        crossbar_rows: cs,
        crossbar_cols: cs,
        grayzone_ua: noise.grayzone_width_ua(aqfp_device::consts::OPERATING_TEMPERATURE_K),
        bitstream_len: len,
        ..Default::default()
    };
    let (model, _) = train_model(&spec, &hw_train, scale, &train);
    temperatures_k
        .iter()
        .map(|&t| {
            let grayzone_ua = noise.grayzone_width_ua(t);
            let hw = HardwareConfig {
                grayzone_ua,
                ..hw_train
            };
            let deployed = deploy(&spec, &model, &hw).expect("spec matches model");
            let accuracy =
                deployed.accuracy(&test, scale.seed ^ t.to_bits(), Some(scale.eval_samples));
            TemperaturePoint {
                temperature_k: t,
                grayzone_ua,
                accuracy,
            }
        })
        .collect()
}

/// Result of the randomized-aware-training ablation (Contribution #1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AwareAblation {
    /// Deployed accuracy of the AQFP-aware-trained model.
    pub aware_accuracy: f64,
    /// Deployed accuracy of a conventionally trained model (deterministic
    /// sign binarizer) on the *same* hardware.
    pub naive_accuracy: f64,
}

/// Trains one model with the randomized-aware law and one with the plain
/// sign/STE, then deploys both on the same (deliberately noisy) hardware.
pub fn ablation_aware_training(scale: &ExperimentScale) -> AwareAblation {
    let (train, test) = scale.objects_data();
    let spec = NetSpec::vgg_small([3, 16, 16], scale.width, 10);
    // A stressful configuration: large crossbars (deep in the attenuated
    // regime) with a minimal observation window — where awareness matters
    // most (the Fig. 11 cliff).
    let hw = HardwareConfig {
        crossbar_rows: 72,
        crossbar_cols: 72,
        grayzone_ua: 1.6,
        bitstream_len: 2,
        ..Default::default()
    };
    let trainer = Trainer::new(scale.train_config());

    let mut aware_model = spec.build_software(&hw, scale.seed);
    trainer.train(&mut aware_model, &train);
    let deployed = deploy(&spec, &aware_model, &hw).expect("spec matches model");
    let aware_accuracy = deployed.accuracy(&test, scale.seed ^ 0x11, Some(scale.eval_samples));

    // Naive: identical spec/seed/recipe but the conventional deterministic
    // sign/STE binarizer — what a non-co-designed flow would produce.
    let mut naive_model = spec.build_software_with(bnn_nn::Binarizer::Deterministic, scale.seed);
    trainer.train(&mut naive_model, &train);
    let deployed = deploy(&spec, &naive_model, &hw).expect("spec matches model");
    let naive_accuracy = deployed.accuracy(&test, scale.seed ^ 0x11, Some(scale.eval_samples));

    AwareAblation {
        aware_accuracy,
        naive_accuracy,
    }
}

/// Result of the approximate-parallel-counter ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApproxCounterAblation {
    /// Deployed accuracy with exact APCs.
    pub exact_accuracy: f64,
    /// Deployed accuracy with Kim-style approximate APCs.
    pub approx_accuracy: f64,
    /// Energy report with exact APCs.
    pub exact_energy: EnergyReport,
    /// Energy report with approximate APCs.
    pub approx_energy: EnergyReport,
}

/// Deploys one trained model with exact vs approximate parallel counters
/// (paper Section 4.3's reference \[41\]). The approximation sheds
/// accumulation-module JJs; its counting error is unbiased only for
/// *balanced* streams, and SupeRBNN's inter-crossbar column streams are
/// often saturated (deterministic regime), where the error acquires a
/// systematic bias. The measured accuracy gap quantifies why this
/// reproduction keeps the exact Wallace APC as the default.
pub fn ablation_approx_counter(scale: &ExperimentScale) -> ApproxCounterAblation {
    use aqfp_sc::accumulate::CounterKind;

    let (train, test) = scale.digits_data();
    let spec = NetSpec::mlp(
        &[1, 16, 16],
        &[scale.mlp_hidden[0], scale.mlp_hidden[1]],
        10,
    );
    // A multi-tile configuration so inter-crossbar accumulation (where the
    // counter sits) actually carries the decision.
    let hw_exact = HardwareConfig {
        crossbar_rows: 8,
        crossbar_cols: 8,
        grayzone_ua: 8.0,
        bitstream_len: 16,
        ..Default::default()
    };
    let hw_approx = HardwareConfig {
        counter: CounterKind::Approximate,
        ..hw_exact
    };

    let (model, _) = train_model(&spec, &hw_exact, scale, &train);
    let run = |hw: &HardwareConfig| {
        let deployed = deploy(&spec, &model, hw).expect("spec matches model");
        deployed.accuracy(&test, scale.seed ^ 0xA9C, Some(scale.eval_samples))
    };
    ApproxCounterAblation {
        exact_accuracy: run(&hw_exact),
        approx_accuracy: run(&hw_approx),
        exact_energy: energy::estimate(&spec, &hw_exact),
        approx_energy: energy::estimate(&spec, &hw_approx),
    }
}

/// One stream-length point of the pure-SC baseline sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScAqfpPoint {
    /// Stochastic stream length `L`.
    pub stream_len: usize,
    /// Accuracy of the APC-accumulated pure-SC datapath (SC-AQFP style).
    pub apc_accuracy: f64,
    /// Accuracy of the fully stream-domain MUX + `Stanh` datapath.
    pub mux_accuracy: f64,
}

/// Result of the pure-SC baseline comparison (paper Section 2.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScAqfpSweep {
    /// Exact float accuracy of the underlying MLP (the ceiling).
    pub float_accuracy: f64,
    /// Accuracy at each simulated stream length, both datapaths.
    pub points: Vec<ScAqfpPoint>,
}

fn flatten_images(data: &Dataset) -> (Vec<Vec<f32>>, Vec<usize>) {
    let [c, h, w] = data.image_shape();
    let per = c * h * w;
    let inputs = (0..data.len())
        .map(|i| data.images.data()[i * per..(i + 1) * per].to_vec())
        .collect();
    (inputs, data.labels.clone())
}

/// Measures the stream-length requirement of the *pure* stochastic-
/// computing baseline the paper contrasts itself against (Section 2.3:
/// SC-AQFP "requires a pretty large bit-stream length (i.e., 256∼2048)"
/// while SupeRBNN needs 16∼32).
///
/// Trains a float MLP (no batch norm — SC-AQFP's stated limitation) on
/// the MNIST-class dataset and deploys it on the pure-SC datapath of
/// [`baselines::sc_dnn`] at each length in `lengths`.
pub fn scaqfp_sweep(scale: &ExperimentScale, lengths: &[usize]) -> ScAqfpSweep {
    use baselines::sc_dnn::{FloatMlp, PreparedScMlp, ScAccumulator, ScMlpConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng as _;

    let (train, test) = scale.digits_data();
    let (train_x, train_y) = flatten_images(&train);
    let (test_x, test_y) = flatten_images(&test);

    let cfg = ScMlpConfig {
        hidden: scale.mlp_hidden.to_vec(),
        epochs: scale.epochs,
        batch_size: 32,
        lr: 0.05,
        momentum: 0.9,
        seed: scale.seed,
    };
    let mlp = FloatMlp::train(&train_x, &train_y, 10, &cfg);
    let float_accuracy = mlp.accuracy_float(&test_x, &test_y);

    let points = lengths
        .iter()
        .map(|&stream_len| {
            let prepared = PreparedScMlp::new(&mlp, stream_len, scale.seed ^ 0x5C0);
            let mut rng = StdRng::seed_from_u64(scale.seed ^ stream_len as u64);
            let apc_accuracy = prepared.accuracy(
                &test_x,
                &test_y,
                ScAccumulator::Apc,
                Some(scale.eval_samples),
                &mut rng,
            );
            let mux_accuracy = prepared.accuracy(
                &test_x,
                &test_y,
                ScAccumulator::MuxTree,
                Some(scale.eval_samples),
                &mut rng,
            );
            ScAqfpPoint {
                stream_len,
                apc_accuracy,
                mux_accuracy,
            }
        })
        .collect();

    ScAqfpSweep {
        float_accuracy,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table3_pipeline_runs() {
        let scale = ExperimentScale::quick();
        let row = table3_ours(&scale);
        assert!((0.0..=1.0).contains(&row.accuracy));
        assert!(row.energy.tops_per_watt > 0.0);
    }

    #[test]
    fn approx_counter_ablation_saves_energy_without_collapse() {
        let mut scale = ExperimentScale::quick();
        scale.epochs = 4;
        scale.eval_samples = 30;
        let r = ablation_approx_counter(&scale);
        assert!(
            r.approx_energy.tops_per_watt > r.exact_energy.tops_per_watt,
            "approximate counters must be cheaper: {:?} vs {:?}",
            r.approx_energy.tops_per_watt,
            r.exact_energy.tops_per_watt
        );
        // The counting error is small and unbiased; accuracy stays within
        // a loose band of the exact deployment even at smoke scale.
        assert!(r.approx_accuracy >= r.exact_accuracy - 0.25);
    }

    #[test]
    fn scaqfp_sweep_runs_and_orders_lengths() {
        let mut scale = ExperimentScale::quick();
        scale.epochs = 4;
        scale.eval_samples = 20;
        let sweep = scaqfp_sweep(&scale, &[8, 256]);
        assert!((0.0..=1.0).contains(&sweep.float_accuracy));
        assert_eq!(sweep.points.len(), 2);
        for p in &sweep.points {
            assert!((0.0..=1.0).contains(&p.apc_accuracy));
            assert!((0.0..=1.0).contains(&p.mux_accuracy));
        }
    }

    #[test]
    fn quick_robustness_campaign_runs() {
        let mut scale = ExperimentScale::quick();
        scale.samples_per_class = 16;
        scale.epochs = 2;
        scale.eval_samples = 12;
        let cfg = crate::robustness::SweepConfig::stuck_cell_grid(&[0.0, 0.3], 2, scale.seed)
            .unwrap()
            .with_eval_samples(Some(scale.eval_samples));
        let report = robustness_campaign(&scale, RobustnessWorkload::DigitsMlp, &cfg);
        assert_eq!(report.points.len(), 2);
        assert_eq!(report.total_trials(), 4);
        // The pristine point is deterministic: both trials agree exactly.
        let clean = &report.points[0];
        assert_eq!(clean.min_accuracy, clean.max_accuracy);
        assert!(report
            .points
            .iter()
            .flat_map(|p| &p.trials)
            .all(|t| (0.0..=1.0).contains(&t.accuracy)));
    }

    #[test]
    fn quick_variation_campaign_runs_stochastically() {
        let mut scale = ExperimentScale::quick();
        scale.samples_per_class = 16;
        scale.epochs = 2;
        scale.eval_samples = 10;
        let cfg = crate::robustness::SweepConfig::stuck_cell_grid(&[0.0, 0.2], 2, scale.seed)
            .unwrap()
            .with_eval_samples(Some(scale.eval_samples))
            .with_grayzone_scales(&[1.0, 8.0])
            .unwrap();
        let report = robustness_campaign(&scale, RobustnessWorkload::DigitsMlp, &cfg);
        // 2 scales × 2 rates, variation-major.
        assert_eq!(report.points.len(), 4);
        assert_eq!(report.total_trials(), 8);
        assert_eq!(report.points[0].variation.unwrap().grayzone_scale(), 1.0);
        assert_eq!(report.points[2].variation.unwrap().grayzone_scale(), 8.0);
        assert!(report
            .points
            .iter()
            .flat_map(|p| &p.trials)
            .all(|t| (0.0..=1.0).contains(&t.accuracy)));
    }

    #[test]
    fn bitstream_sweep_shape() {
        let mut scale = ExperimentScale::quick();
        scale.epochs = 2;
        scale.eval_samples = 20;
        let pts = bitstream_sweep(&scale, &[1, 8], &[16], 2.4);
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|p| (0.0..=1.0).contains(&p.accuracy)));
    }
}
