//! Network specifications: one description builds both the software model
//! and its hardware deployment.
//!
//! Keeping a declarative [`NetSpec`] avoids the classic co-design bug where
//! the trained network and the deployed network silently diverge: the
//! trainer and the mapper walk the *same* cell list, and the layer-expansion
//! rules below are the single place that defines what a "BNN cell" is
//! (paper Fig. 8: binary conv → BN → HardTanh → binarize, which deployment
//! collapses into one randomized binary convolution with a programmed
//! threshold).

use crate::config::HardwareConfig;
use bnn_nn::layers::{
    BatchNorm, BinActivation, Conv2d, Flatten, HardTanh, Linear, MaxPool2d, Residual,
};
use bnn_nn::{NnRng, SeedableRng, Sequential};
use serde::{Deserialize, Serialize};

/// One cell of a network specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellSpec {
    /// Binarize the raw input (±1 from the pixel sign) so the first layer
    /// also runs on crossbars.
    BinarizeInput,
    /// A binary convolution cell: conv (pad −1) → BN → HardTanh →
    /// randomized binarize, optionally followed by a 2×2 max-pool (which is
    /// a digital OR in the binary domain).
    Conv {
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
        /// Square kernel size.
        k: usize,
        /// Stride.
        stride: usize,
        /// Zero-... minus-one-padding width.
        pad: usize,
        /// Append a 2×2 max-pool.
        pool: bool,
    },
    /// A Bi-Real-style binary residual block: two 3×3 binary conv + BN
    /// stages with a real-valued skip connection (projection 1×1 conv + BN
    /// when the shape changes), followed by HardTanh and binarization of
    /// the summed output. Used by the ResNet-18-class variant of Table 2.
    /// Software-trainable and energy-estimable; the crossbar deployment
    /// engine does not map the real-valued skip adder (documented
    /// substitution: the paper's ResNet row is an accuracy/energy claim,
    /// not a datapath description).
    Residual {
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
        /// Stride of the first conv (2 = spatial downsample).
        stride: usize,
    },
    /// Flatten to `[N, features]`.
    Flatten,
    /// A binary fully-connected cell: linear → BN → HardTanh → binarize.
    Dense {
        /// Input features.
        in_f: usize,
        /// Output features.
        out_f: usize,
    },
    /// The classifier head: a binary-weight linear layer with bias whose
    /// real-valued logits feed softmax. Deployed as a digital popcount
    /// layer (see "Modelling substitutions" in `ARCHITECTURE.md`).
    Classifier {
        /// Input features.
        in_f: usize,
        /// Number of classes.
        classes: usize,
    },
}

/// A network specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetSpec {
    /// Input shape `[C, H, W]`.
    pub input_shape: [usize; 3],
    /// The cells in order.
    pub cells: Vec<CellSpec>,
}

impl NetSpec {
    /// The scaled VGG-Small used for the CIFAR-10-class experiments:
    /// six binary conv cells in three pooled stages, then a classifier.
    /// `width` is the first-stage channel count (the paper's full-size
    /// network uses 128; the synthetic datasets use 8–16).
    ///
    /// # Panics
    /// Panics unless the spatial size is divisible by 8 (three pools).
    pub fn vgg_small(input_shape: [usize; 3], width: usize, classes: usize) -> Self {
        let [c, h, w] = input_shape;
        assert!(
            h % 8 == 0 && w % 8 == 0,
            "three 2×2 pools need /8 divisibility"
        );
        let (w1, w2, w3) = (width, 2 * width, 4 * width);
        let cells = vec![
            CellSpec::BinarizeInput,
            CellSpec::Conv {
                in_c: c,
                out_c: w1,
                k: 3,
                stride: 1,
                pad: 1,
                pool: false,
            },
            CellSpec::Conv {
                in_c: w1,
                out_c: w1,
                k: 3,
                stride: 1,
                pad: 1,
                pool: true,
            },
            CellSpec::Conv {
                in_c: w1,
                out_c: w2,
                k: 3,
                stride: 1,
                pad: 1,
                pool: false,
            },
            CellSpec::Conv {
                in_c: w2,
                out_c: w2,
                k: 3,
                stride: 1,
                pad: 1,
                pool: true,
            },
            CellSpec::Conv {
                in_c: w2,
                out_c: w3,
                k: 3,
                stride: 1,
                pad: 1,
                pool: false,
            },
            CellSpec::Conv {
                in_c: w3,
                out_c: w3,
                k: 3,
                stride: 1,
                pad: 1,
                pool: true,
            },
            CellSpec::Flatten,
            CellSpec::Classifier {
                in_f: w3 * (h / 8) * (w / 8),
                classes,
            },
        ];
        Self { input_shape, cells }
    }

    /// The scaled binary ResNet used for the Table 2 "Ours (ResNet-18)"
    /// row: a conv stem followed by three residual stages (the second and
    /// third downsampling), then a classifier. `width` is the stem channel
    /// count.
    ///
    /// # Panics
    /// Panics unless the spatial size is divisible by 4 (two stride-2
    /// stages).
    pub fn resnet_small(input_shape: [usize; 3], width: usize, classes: usize) -> Self {
        let [c, h, w] = input_shape;
        assert!(
            h % 4 == 0 && w % 4 == 0,
            "two stride-2 stages need /4 divisibility"
        );
        let (w1, w2, w3) = (width, 2 * width, 4 * width);
        let cells = vec![
            CellSpec::BinarizeInput,
            CellSpec::Conv {
                in_c: c,
                out_c: w1,
                k: 3,
                stride: 1,
                pad: 1,
                pool: false,
            },
            CellSpec::Residual {
                in_c: w1,
                out_c: w1,
                stride: 1,
            },
            CellSpec::Residual {
                in_c: w1,
                out_c: w2,
                stride: 2,
            },
            CellSpec::Residual {
                in_c: w2,
                out_c: w3,
                stride: 2,
            },
            CellSpec::Flatten,
            CellSpec::Classifier {
                in_f: w3 * (h / 4) * (w / 4),
                classes,
            },
        ];
        Self { input_shape, cells }
    }

    /// The MLP used for the MNIST-class comparison (Table 3, following
    /// JBNN's architecture shape): binarized input → dense cells → classifier.
    pub fn mlp(input_shape: &[usize; 3], hidden: &[usize], classes: usize) -> Self {
        let mut cells = vec![CellSpec::BinarizeInput, CellSpec::Flatten];
        let mut in_f = input_shape[0] * input_shape[1] * input_shape[2];
        for &h in hidden {
            cells.push(CellSpec::Dense { in_f, out_f: h });
            in_f = h;
        }
        cells.push(CellSpec::Classifier { in_f, classes });
        Self {
            input_shape: *input_shape,
            cells,
        }
    }

    /// Builds the software model for this spec with the randomized-aware
    /// binarizer of `hw` (paper Section 5.1), seeded for reproducibility.
    pub fn build_software(&self, hw: &HardwareConfig, seed: u64) -> Sequential {
        self.build_software_with(hw.training_binarizer(), seed)
    }

    /// Builds the software model with an explicit activation binarizer —
    /// the conventional sign/STE training of the ablation baselines uses
    /// [`bnn_nn::Binarizer::Deterministic`] here.
    pub fn build_software_with(&self, binarizer: bnn_nn::Binarizer, seed: u64) -> Sequential {
        let mut rng = NnRng::seed_from_u64(seed);
        let mut model = Sequential::new();
        for cell in &self.cells {
            match *cell {
                CellSpec::BinarizeInput => {
                    model.push(BinActivation::new(bnn_nn::Binarizer::Deterministic));
                }
                CellSpec::Conv {
                    in_c,
                    out_c,
                    k,
                    stride,
                    pad,
                    pool,
                } => {
                    model.push(
                        Conv2d::new(in_c, out_c, k, stride, pad, true, &mut rng)
                            .with_pad_value(-1.0),
                    );
                    // Pool *before* BN (XNOR-Net ordering): BN then recenters
                    // the pooled distribution, keeping binarized activations
                    // balanced. Deployment stays exact because BN is
                    // monotone per channel: sign(BN(max x)) = OR of the
                    // per-position threshold bits (AND for γ < 0 channels).
                    if pool {
                        model.push(MaxPool2d::new(2));
                    }
                    model.push(BatchNorm::new(out_c));
                    model.push(HardTanh::new());
                    model.push(BinActivation::new(binarizer));
                }
                CellSpec::Residual {
                    in_c,
                    out_c,
                    stride,
                } => {
                    let mut body = Sequential::new();
                    body.push(
                        Conv2d::new(in_c, out_c, 3, stride, 1, true, &mut rng).with_pad_value(-1.0),
                    );
                    body.push(BatchNorm::new(out_c));
                    body.push(HardTanh::new());
                    body.push(BinActivation::new(binarizer));
                    body.push(
                        Conv2d::new(out_c, out_c, 3, 1, 1, true, &mut rng).with_pad_value(-1.0),
                    );
                    body.push(BatchNorm::new(out_c));
                    let res = if in_c != out_c || stride != 1 {
                        let mut shortcut = Sequential::new();
                        shortcut.push(Conv2d::new(in_c, out_c, 1, stride, 0, true, &mut rng));
                        shortcut.push(BatchNorm::new(out_c));
                        Residual::with_shortcut(body, shortcut)
                    } else {
                        Residual::new(body)
                    };
                    model.push(res);
                    model.push(HardTanh::new());
                    model.push(BinActivation::new(binarizer));
                }
                CellSpec::Flatten => model.push(Flatten::new()),
                CellSpec::Dense { in_f, out_f } => {
                    model.push(Linear::new(in_f, out_f, true, &mut rng));
                    model.push(BatchNorm::new(out_f));
                    model.push(HardTanh::new());
                    model.push(BinActivation::new(binarizer));
                }
                CellSpec::Classifier { in_f, classes } => {
                    model.push(Linear::new(in_f, classes, true, &mut rng));
                }
            }
        }
        model
    }

    /// Number of software layers each cell expands to (used by the mapper
    /// to walk the built model in lock-step with the spec).
    pub fn layers_of(cell: &CellSpec) -> usize {
        match cell {
            CellSpec::BinarizeInput => 1,
            CellSpec::Conv { pool, .. } => {
                if *pool {
                    5
                } else {
                    4
                }
            }
            CellSpec::Residual { .. } => 3,
            CellSpec::Flatten => 1,
            CellSpec::Dense { .. } => 4,
            CellSpec::Classifier { .. } => 1,
        }
    }

    /// Total software layer count of this spec.
    pub fn total_layers(&self) -> usize {
        self.cells.iter().map(Self::layers_of).sum()
    }

    /// Spatial output shape tracking: `[C, H, W]` after each cell.
    pub fn shapes(&self) -> Vec<[usize; 3]> {
        let mut cur = self.input_shape;
        let mut out = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            cur = match *cell {
                CellSpec::BinarizeInput => cur,
                CellSpec::Conv {
                    out_c,
                    k,
                    stride,
                    pad,
                    pool,
                    ..
                } => {
                    let h = (cur[1] + 2 * pad - k) / stride + 1;
                    let w = (cur[2] + 2 * pad - k) / stride + 1;
                    let div = if pool { 2 } else { 1 };
                    [out_c, h / div, w / div]
                }
                CellSpec::Residual { out_c, stride, .. } => {
                    let h = (cur[1] + 2 - 3) / stride + 1;
                    let w = (cur[2] + 2 - 3) / stride + 1;
                    [out_c, h, w]
                }
                CellSpec::Flatten => [cur[0] * cur[1] * cur[2], 1, 1],
                CellSpec::Dense { out_f, .. } => [out_f, 1, 1],
                CellSpec::Classifier { classes, .. } => [classes, 1, 1],
            };
            out.push(cur);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg_small_shapes_chain() {
        let spec = NetSpec::vgg_small([3, 16, 16], 8, 10);
        let shapes = spec.shapes();
        // After the three pooled stages: 32 channels at 2×2.
        assert_eq!(shapes[shapes.len() - 3], [32, 2, 2]);
        assert_eq!(*shapes.last().unwrap(), [10, 1, 1]);
    }

    #[test]
    fn mlp_spec_layers() {
        let spec = NetSpec::mlp(&[1, 16, 16], &[128, 128], 10);
        assert_eq!(spec.cells.len(), 5);
        assert_eq!(spec.total_layers(), 1 + 1 + 4 + 4 + 1);
    }

    #[test]
    fn built_model_matches_layer_count() {
        let hw = HardwareConfig::default();
        let spec = NetSpec::vgg_small([3, 16, 16], 4, 10);
        let model = spec.build_software(&hw, 0);
        assert_eq!(model.len(), spec.total_layers());
    }

    #[test]
    fn built_model_runs_forward() {
        let hw = HardwareConfig::default();
        let spec = NetSpec::mlp(&[1, 16, 16], &[32], 10);
        let mut model = spec.build_software(&hw, 0);
        let mut rng = NnRng::seed_from_u64(0);
        let x = bnn_nn::Tensor::zeros(&[2, 1, 16, 16]);
        let y = model.forward(&x, bnn_nn::layers::Mode::Eval, &mut rng);
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn building_is_deterministic_per_seed() {
        let hw = HardwareConfig::default();
        let spec = NetSpec::mlp(&[1, 16, 16], &[16], 10);
        let mut a = spec.build_software(&hw, 5);
        let mut b = spec.build_software(&hw, 5);
        let mut wa = Vec::new();
        a.visit_params(&mut |p| wa.extend_from_slice(p.value.data()));
        let mut wb = Vec::new();
        b.visit_params(&mut |p| wb.extend_from_slice(p.value.data()));
        assert_eq!(wa, wb);
    }

    #[test]
    #[should_panic(expected = "divisibility")]
    fn vgg_rejects_odd_input() {
        NetSpec::vgg_small([3, 15, 15], 8, 10);
    }

    #[test]
    fn resnet_shapes_chain() {
        let spec = NetSpec::resnet_small([3, 16, 16], 8, 10);
        let shapes = spec.shapes();
        // Stem keeps 16×16; two stride-2 residual stages reach 32ch @ 4×4.
        assert_eq!(shapes[shapes.len() - 3], [32, 4, 4]);
        assert_eq!(*shapes.last().unwrap(), [10, 1, 1]);
        assert_eq!(
            spec.total_layers(),
            spec.build_software(&HardwareConfig::default(), 0).len()
        );
    }

    #[test]
    fn resnet_runs_forward_and_backward() {
        let hw = HardwareConfig::default();
        let spec = NetSpec::resnet_small([3, 16, 16], 4, 10);
        let mut model = spec.build_software(&hw, 1);
        let mut rng = NnRng::seed_from_u64(0);
        let x = bnn_nn::Tensor::zeros(&[2, 3, 16, 16]);
        let y = model.forward(&x, bnn_nn::layers::Mode::Train, &mut rng);
        assert_eq!(y.shape(), &[2, 10]);
        let g = y.clone();
        let din = model.backward(&g);
        assert_eq!(din.shape(), &[2, 3, 16, 16]);
    }
}
