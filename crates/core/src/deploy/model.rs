//! The deployed model: mapping from a trained [`Sequential`] and running
//! hardware-faithful inference.

use super::bitmap::BitMap;
use super::layer::{DeployedCell, DeployedConv, DeployedDense};
use crate::bnmatch::bn_match;
use crate::config::HardwareConfig;
use crate::spec::{CellSpec, NetSpec};
use aqfp_crossbar::cost::CrossbarCost;
use aqfp_sc::CounterStream;
use baselines::software::PopcountLinear;
use bnn_nn::layers::{BatchNorm, Conv2d, Linear};
use bnn_nn::{Sequential, Tensor};
use std::fmt;

/// Errors raised while mapping a model onto hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeployError {
    /// The software model's layer at `index` was not the kind the spec
    /// demanded (spec and model out of sync).
    LayerMismatch {
        /// Layer index in the software model.
        index: usize,
        /// What the spec expected.
        expected: &'static str,
        /// What the model contains.
        got: &'static str,
    },
    /// The spec has no classifier cell.
    MissingClassifier,
    /// The spec contains a cell kind the crossbar mapper does not support
    /// (residual blocks keep a real-valued skip adder; see the
    /// `CellSpec::Residual` docs for the substitution note).
    UnsupportedCell {
        /// Human-readable cell kind.
        kind: &'static str,
    },
    /// A worker-thread count of zero was requested (the batch entry points
    /// and the sweep engine need at least one worker).
    ZeroWorkers,
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::LayerMismatch {
                index,
                expected,
                got,
            } => write!(
                f,
                "layer {index}: spec expects {expected}, model has {got} \
                 (was the model built from this spec?)"
            ),
            DeployError::MissingClassifier => {
                write!(f, "network spec has no classifier cell")
            }
            DeployError::UnsupportedCell { kind } => {
                write!(
                    f,
                    "cell kind {kind} is not supported by the crossbar mapper"
                )
            }
            DeployError::ZeroWorkers => {
                write!(f, "worker count must be at least one")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// The digital classifier head: XNOR/popcount logits with the α/bias
/// affine applied at read-out (bit-exact with the software binary-weight
/// linear layer on ±1 inputs; see "Modelling substitutions" in
/// `ARCHITECTURE.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct DeployedClassifier {
    pop: PopcountLinear,
    alphas: Vec<f32>,
    bias: Vec<f32>,
}

impl DeployedClassifier {
    /// Class scores for a flat binary feature vector.
    pub fn scores(&self, input: &BitMap) -> Vec<f32> {
        let signs = input.to_signs();
        self.affine(self.pop.forward(&signs))
    }

    /// Class scores for an already packed ±1 activation plane — the packed
    /// engine's head, bit-identical to [`DeployedClassifier::scores`]
    /// because both apply the same `α·dot + bias` affine to the same
    /// integer XNOR–popcount dots.
    ///
    /// # Panics
    /// Panics on input length mismatch.
    pub fn scores_plane(&self, input: &aqfp_sc::BitPlane) -> Vec<f32> {
        self.affine(self.pop.forward_plane(input))
    }

    fn affine(&self, dots: Vec<i32>) -> Vec<f32> {
        dots.into_iter()
            .zip(self.alphas.iter().zip(&self.bias))
            .map(|(dot, (&a, &b))| a * dot as f32 + b)
            .collect()
    }

    /// The underlying XNOR/popcount linear layer.
    pub fn popcount(&self) -> &PopcountLinear {
        &self.pop
    }

    /// The per-class α scales of the read-out affine.
    pub fn alphas(&self) -> &[f32] {
        &self.alphas
    }

    /// The per-class biases of the read-out affine.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Reassembles a classifier head from its parts — the snapshot
    /// decoder's constructor. The caller (the snapshot codec) validates
    /// that all three parts have the same output count.
    pub(crate) fn from_parts(pop: PopcountLinear, alphas: Vec<f32>, bias: Vec<f32>) -> Self {
        debug_assert_eq!(pop.out_features(), alphas.len());
        debug_assert_eq!(alphas.len(), bias.len());
        Self { pop, alphas, bias }
    }
}

/// The winning class index: the maximum score, with ties resolved the same
/// way in every engine (last maximum, matching `Iterator::max_by`).
pub(crate) fn argmax(scores: &[f32]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("at least one class")
}

/// Hardware inventory of a deployed model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployStats {
    /// Total crossbar arrays.
    pub crossbars: usize,
    /// Total crossbar Josephson junctions.
    pub crossbar_jj: u64,
    /// Per-cell crossbar counts.
    pub per_cell_crossbars: Vec<usize>,
}

/// A model deployed onto AQFP hardware.
#[derive(Debug, Clone)]
pub struct DeployedModel {
    input_shape: [usize; 3],
    cells: Vec<DeployedCell>,
    classifier: DeployedClassifier,
}

impl DeployedModel {
    /// The expected input shape `[C, H, W]`.
    pub fn input_shape(&self) -> [usize; 3] {
        self.input_shape
    }

    /// The deployed crossbar cells.
    pub fn cells(&self) -> &[DeployedCell] {
        &self.cells
    }

    /// Classifies sample `n` of an image batch through the stochastic
    /// datapath; returns `(label, scores)`.
    ///
    /// `stream` is the sample's stream. Each cell draws from the stream of
    /// its pipeline-stage index — the index of its first stage in the
    /// [`PackedModel`](super::PackedModel) lowering, where a conv cell
    /// spans a conv (+ pool) stage and a dense cell on a spatial map is
    /// preceded by a flatten stage — so labels and scores equal
    /// `PackedModel::classify_stochastic_plane_ctr` on the sample's plane
    /// with the same stream, bit for bit.
    pub fn classify(&self, images: &Tensor, n: usize, stream: &CounterStream) -> (usize, Vec<f32>) {
        let mut map = BitMap::from_tensor_sample(images, n);
        let mut stage = 0u64;
        for cell in &self.cells {
            map = match cell {
                DeployedCell::Conv(c) => {
                    let out = c.forward(&map, &stream.derive(stage));
                    stage += 1 + u64::from(c.geometry().4);
                    out
                }
                DeployedCell::Dense(d) => {
                    stage += u64::from(map.h * map.w != 1);
                    let out = d.forward(&map, &stream.derive(stage));
                    stage += 1;
                    out
                }
            };
        }
        // Flatten is implicit: the classifier consumes the bits in row-major
        // order, which matches the software Flatten layout.
        let flat = BitMap::from_bits(map.len(), 1, 1, map.bits().to_vec());
        let scores = self.classifier.scores(&flat);
        (argmax(&scores), scores)
    }

    /// Classifies sample `n` through the *digital* (deterministic) engine:
    /// the gray-zone → 0 limit of the stochastic datapath, evaluated with
    /// per-element scalar loops and no RNG. This is the scalar reference
    /// the packed XNOR–popcount engine
    /// ([`super::PackedModel`]) must reproduce bit-for-bit.
    pub fn classify_digital(&self, images: &Tensor, n: usize) -> (usize, Vec<f32>) {
        let mut map = BitMap::from_tensor_sample(images, n);
        for cell in &self.cells {
            map = match cell {
                DeployedCell::Conv(c) => c.forward_digital(&map),
                DeployedCell::Dense(d) => d.forward_digital(&map),
            };
        }
        let flat = BitMap::from_bits(map.len(), 1, 1, map.bits().to_vec());
        let scores = self.classifier.scores(&flat);
        (argmax(&scores), scores)
    }

    /// Top-1 accuracy of the digital engine over (the first `limit`
    /// samples of) a dataset.
    pub fn accuracy_digital(&self, data: &bnn_datasets::Dataset, limit: Option<usize>) -> f64 {
        let n = limit.map_or(data.len(), |l| l.min(data.len()));
        assert!(n > 0, "accuracy over zero samples");
        let correct = (0..n)
            .filter(|&i| self.classify_digital(&data.images, i).0 == data.labels[i])
            .count();
        correct as f64 / n as f64
    }

    /// The digital classifier head.
    pub fn classifier(&self) -> &DeployedClassifier {
        &self.classifier
    }

    /// Builds the batched bit-packed engine from this deployment (any
    /// injected faults are carried over). Shorthand for
    /// [`super::PackedModel::from_deployed`].
    pub fn to_packed(&self) -> super::PackedModel {
        super::PackedModel::from_deployed(self)
    }

    /// Top-1 accuracy of the stochastic datapath over (the first `limit`
    /// samples of) a dataset. Sample `i` draws from
    /// `CounterStream::from_seed(seed).derive(i)` — the convention of
    /// `PackedModel::accuracy_stochastic_planes_ctr`, which reports the
    /// identical figure over the same samples' planes.
    pub fn accuracy(&self, data: &bnn_datasets::Dataset, seed: u64, limit: Option<usize>) -> f64 {
        let n = limit.map_or(data.len(), |l| l.min(data.len()));
        assert!(n > 0, "accuracy over zero samples");
        let root = CounterStream::from_seed(seed);
        let correct = (0..n)
            .filter(|&i| self.classify(&data.images, i, &root.derive(i as u64)).0 == data.labels[i])
            .count();
        correct as f64 / n as f64
    }

    /// Injects fabrication faults into every crossbar (see
    /// [`aqfp_crossbar::faults`]); the digital classifier head is assumed
    /// testable/repairable and stays clean. Returns the total defect count.
    pub fn inject_faults<R: rand::Rng + ?Sized>(
        &mut self,
        model: &aqfp_crossbar::faults::FaultModel,
        rng: &mut R,
    ) -> usize {
        let mut defects = 0usize;
        for cell in &mut self.cells {
            defects += match cell {
                DeployedCell::Conv(c) => c.matrix_mut().inject_faults(model, rng),
                DeployedCell::Dense(d) => d.matrix_mut().inject_faults(model, rng),
            };
        }
        defects
    }

    /// Applies a device-parameter variation (gray-zone width scale,
    /// attenuation drift, temperature drift) to the *operating conditions*
    /// of every crossbar — see
    /// [`TiledMatrix::apply_variation`](super::TiledMatrix::apply_variation).
    /// Programmed thresholds and the digital
    /// engines' comparator quantization stay at their calibration-time
    /// values; only the stochastic datapath ([`DeployedModel::classify`])
    /// sees the drift. This is the scalar reference of the packed
    /// stochastic engine's variation-parameterized tables
    /// ([`super::PackedModel::stochastic_tables`]): both evaluate the same
    /// effective law, so classifications stay bit-identical under
    /// variation.
    pub fn apply_variation(&mut self, vm: &aqfp_device::VariationModel) {
        for cell in &mut self.cells {
            match cell {
                DeployedCell::Conv(c) => c.matrix_mut().apply_variation(vm),
                DeployedCell::Dense(d) => d.matrix_mut().apply_variation(vm),
            }
        }
    }

    /// Hardware inventory.
    pub fn stats(&self, hw: &HardwareConfig) -> DeployStats {
        let mut crossbars = 0usize;
        let mut crossbar_jj = 0u64;
        let mut per_cell = Vec::new();
        for cell in &self.cells {
            let matrix = match cell {
                DeployedCell::Conv(c) => c.matrix(),
                DeployedCell::Dense(d) => d.matrix(),
            };
            let count = matrix.crossbar_count();
            per_cell.push(count);
            crossbars += count;
            for t in &matrix.plan().tiles {
                crossbar_jj += CrossbarCost {
                    rows: t.rows.min(hw.crossbar_rows),
                    cols: t.cols.min(hw.crossbar_cols),
                }
                .jj_count();
            }
        }
        DeployStats {
            crossbars,
            crossbar_jj,
            per_cell_crossbars: per_cell,
        }
    }
}

/// Extracts the ±1 sign matrix of a latent weight tensor.
fn weight_signs(w: &Tensor) -> Vec<f32> {
    w.data()
        .iter()
        .map(|&v| if v >= 0.0 { 1.0 } else { -1.0 })
        .collect()
}

/// Per-output α (L1 mean of each latent filter row).
fn weight_alphas(w: &Tensor) -> Vec<f32> {
    let (out, fan_in) = (w.shape()[0], w.shape()[1]);
    (0..out)
        .map(|o| {
            let row = &w.data()[o * fan_in..(o + 1) * fan_in];
            (row.iter().map(|v| v.abs()).sum::<f32>() / fan_in as f32).max(f32::MIN_POSITIVE)
        })
        .collect()
}

/// Maps a trained software model built from `spec` onto AQFP hardware.
///
/// # Errors
/// [`DeployError::LayerMismatch`] if the model was not built from this
/// spec; [`DeployError::MissingClassifier`] if the spec lacks a head.
pub fn deploy(
    spec: &NetSpec,
    model: &Sequential,
    hw: &HardwareConfig,
) -> crate::Result<DeployedModel> {
    hw.validate();
    let layers = model.layers();
    let mut idx = 0usize;
    let mut cells = Vec::new();
    let mut classifier = None;

    let expect = |idx: usize, expected: &'static str| DeployError::LayerMismatch {
        index: idx,
        expected,
        got: layers.get(idx).map_or("<end of model>", |l| l.name()),
    };

    for cell in &spec.cells {
        match *cell {
            CellSpec::BinarizeInput | CellSpec::Flatten => {
                idx += 1;
            }
            CellSpec::Residual { .. } => {
                return Err(DeployError::UnsupportedCell { kind: "Residual" });
            }
            CellSpec::Conv {
                in_c,
                out_c,
                k,
                stride,
                pad,
                pool,
            } => {
                let conv = layers
                    .get(idx)
                    .and_then(|l| l.as_any().downcast_ref::<Conv2d>())
                    .ok_or_else(|| expect(idx, "Conv2d"))?;
                // Pooling (if any) precedes BN in the software expansion.
                let bn_idx = idx + if pool { 2 } else { 1 };
                let bn = layers
                    .get(bn_idx)
                    .and_then(|l| l.as_any().downcast_ref::<BatchNorm>())
                    .ok_or_else(|| expect(bn_idx, "BatchNorm"))?;
                let signs = weight_signs(conv.weight());
                let alphas = weight_alphas(conv.weight());
                let p = bn.folded_params();
                let m = bn_match(p.gamma, p.beta, p.mean, p.var, &alphas, p.eps);
                cells.push(DeployedCell::Conv(DeployedConv::new(
                    &signs, in_c, out_c, k, stride, pad, pool, m.vth, m.flip, hw,
                )));
                idx += NetSpec::layers_of(cell);
            }
            CellSpec::Dense { in_f, out_f } => {
                let lin = layers
                    .get(idx)
                    .and_then(|l| l.as_any().downcast_ref::<Linear>())
                    .ok_or_else(|| expect(idx, "Linear"))?;
                let bn = layers
                    .get(idx + 1)
                    .and_then(|l| l.as_any().downcast_ref::<BatchNorm>())
                    .ok_or_else(|| expect(idx + 1, "BatchNorm"))?;
                let signs = weight_signs(lin.weight());
                let alphas = weight_alphas(lin.weight());
                let p = bn.folded_params();
                // The dense cell's linear layer has a trainable bias; it
                // shifts the BN input, so it folds into the matched mean.
                let adj_mean: Vec<f32> = p
                    .mean
                    .iter()
                    .zip(lin.bias().data())
                    .map(|(&m, &b)| m - b)
                    .collect();
                let m = bn_match(p.gamma, p.beta, &adj_mean, p.var, &alphas, p.eps);
                cells.push(DeployedCell::Dense(DeployedDense::new(
                    &signs, in_f, out_f, m.vth, m.flip, hw,
                )));
                idx += NetSpec::layers_of(cell);
            }
            CellSpec::Classifier { in_f, .. } => {
                let lin = layers
                    .get(idx)
                    .and_then(|l| l.as_any().downcast_ref::<Linear>())
                    .ok_or_else(|| expect(idx, "Linear"))?;
                let signs = weight_signs(lin.weight());
                let alphas = weight_alphas(lin.weight());
                classifier = Some(DeployedClassifier {
                    pop: PopcountLinear::new(&signs, in_f),
                    alphas,
                    bias: lin.bias().data().to_vec(),
                });
                idx += 1;
            }
        }
    }

    Ok(DeployedModel {
        input_shape: spec.input_shape,
        cells,
        classifier: classifier.ok_or(DeployError::MissingClassifier)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqfp_device::{DeviceRng, SeedableRng};
    use bnn_datasets::{digits::generate_digits, SynthConfig};

    fn tiny_hw() -> HardwareConfig {
        HardwareConfig {
            crossbar_rows: 32,
            crossbar_cols: 16,
            bitstream_len: 4,
            ..Default::default()
        }
    }

    #[test]
    fn deploys_mlp_and_classifies() {
        let hw = tiny_hw();
        let spec = NetSpec::mlp(&[1, 16, 16], &[32], 10);
        let model = spec.build_software(&hw, 3);
        let deployed = deploy(&spec, &model, &hw).expect("deploys");
        assert_eq!(deployed.cells().len(), 1);
        let data = generate_digits(&SynthConfig {
            samples_per_class: 1,
            ..Default::default()
        });
        let (label, scores) = deployed.classify(&data.images, 0, &CounterStream::from_seed(0));
        assert!(label < 10);
        assert_eq!(scores.len(), 10);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn deploys_vgg_and_runs() {
        let hw = tiny_hw();
        let spec = NetSpec::vgg_small([1, 16, 16], 4, 10);
        let model = spec.build_software(&hw, 4);
        let deployed = deploy(&spec, &model, &hw).expect("deploys");
        assert_eq!(deployed.cells().len(), 6);
        let data = generate_digits(&SynthConfig {
            samples_per_class: 1,
            ..Default::default()
        });
        let (label, _) = deployed.classify(&data.images, 0, &CounterStream::from_seed(1));
        assert!(label < 10);
    }

    #[test]
    fn stats_count_crossbars() {
        let hw = tiny_hw();
        let spec = NetSpec::mlp(&[1, 16, 16], &[32], 10);
        let model = spec.build_software(&hw, 5);
        let deployed = deploy(&spec, &model, &hw).unwrap();
        let stats = deployed.stats(&hw);
        // Dense 256→32: ⌈256/32⌉ × ⌈32/16⌉ = 8 × 2 = 16 crossbars.
        assert_eq!(stats.crossbars, 16);
        assert!(stats.crossbar_jj > 0);
    }

    #[test]
    fn mismatched_spec_is_rejected() {
        let hw = tiny_hw();
        let spec_a = NetSpec::mlp(&[1, 16, 16], &[32], 10);
        let spec_b = NetSpec::vgg_small([1, 16, 16], 4, 10);
        let model_a = spec_a.build_software(&hw, 6);
        let err = deploy(&spec_b, &model_a, &hw).unwrap_err();
        assert!(matches!(err, DeployError::LayerMismatch { .. }));
    }

    #[test]
    fn fault_injection_counts_and_saturated_faults_flip_outputs() {
        let hw = tiny_hw();
        let spec = NetSpec::mlp(&[1, 16, 16], &[16], 10);
        let model = spec.build_software(&hw, 8);
        let mut deployed = deploy(&spec, &model, &hw).unwrap();
        // 100% dead columns: every crossbar output is a fabrication
        // constant; the model still runs and produces labels.
        let fm = aqfp_crossbar::faults::FaultModel::new(0.0, 1.0).unwrap();
        let mut rng = DeviceRng::seed_from_u64(3);
        let defects = deployed.inject_faults(&fm, &mut rng);
        assert!(defects > 0);
        let data = generate_digits(&SynthConfig {
            samples_per_class: 1,
            ..Default::default()
        });
        let (label, scores) = deployed.classify(&data.images, 0, &CounterStream::from_seed(3));
        assert!(label < 10);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn pristine_fault_model_changes_nothing() {
        let hw = tiny_hw();
        let spec = NetSpec::mlp(&[1, 16, 16], &[16], 10);
        let model = spec.build_software(&hw, 8);
        let clean = deploy(&spec, &model, &hw).unwrap();
        let mut faulty = deploy(&spec, &model, &hw).unwrap();
        let mut rng = DeviceRng::seed_from_u64(4);
        let defects =
            faulty.inject_faults(&aqfp_crossbar::faults::FaultModel::pristine(), &mut rng);
        assert_eq!(defects, 0);
        let data = generate_digits(&SynthConfig {
            samples_per_class: 1,
            ..Default::default()
        });
        let stream = CounterStream::from_seed(5);
        assert_eq!(
            clean.classify(&data.images, 0, &stream),
            faulty.classify(&data.images, 0, &stream)
        );
    }

    #[test]
    fn accuracy_runs_over_subset() {
        let hw = tiny_hw();
        let spec = NetSpec::mlp(&[1, 16, 16], &[16], 10);
        let model = spec.build_software(&hw, 7);
        let deployed = deploy(&spec, &model, &hw).unwrap();
        let data = generate_digits(&SynthConfig {
            samples_per_class: 2,
            ..Default::default()
        });
        let acc = deployed.accuracy(&data, 2, Some(10));
        assert!((0.0..=1.0).contains(&acc));
    }
}
