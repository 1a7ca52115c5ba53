//! Hardware-faithful deployment: mapping a trained model onto crossbars and
//! running inference through the stochastic datapath.
//!
//! Deployment collapses each software BNN cell (binary conv → BN →
//! HardTanh → binarize) into crossbar tiles whose neuron thresholds carry
//! the folded batch norm (Eq. 16), with the SC accumulation module adding
//! partial sums across row tiles (Fig. 6b). Max-pooling in the ±1 domain is
//! a digital OR; the classifier head is a digital popcount layer with the
//! α/bias affine applied at read-out (see "Modelling substitutions" in
//! `ARCHITECTURE.md` for the note on the output layer).
//!
//! # Four inference engines
//!
//! | engine | entry points | randomness | speed |
//! |---|---|---|---|
//! | scalar stochastic | [`DeployedModel::classify`], [`DeployedModel::accuracy`] | counter streams | slowest |
//! | packed stochastic | [`PackedModel::classify_stochastic_plane_ctr`], [`PackedModel::accuracy_stochastic_planes_ctr`] | counter streams | fast |
//! | scalar digital | [`DeployedModel::classify_digital`], [`DeployedModel::accuracy_digital`] | none | slow |
//! | packed digital | [`PackedModel::classify_planes`] (the one pipeline fold), [`PackedModel::classify_batch`], [`PackedModel::accuracy_planes`], [`PackedModel::accuracy`] | none | fastest |
//!
//! Each packed engine folds planes through one path: the digital tensor
//! and dataset entry points pack their samples once and hand them to
//! `classify_planes`; the stochastic engine takes planes only.
//!
//! The *stochastic* engines simulate the full SC datapath (gray-zone
//! neuron noise, observation windows, APC accumulation) and are what
//! accuracy-vs-noise and variation-aware robustness experiments use. They
//! share one sampler: every observation window is drawn from a keyed
//! counter stream ([`aqfp_sc::CounterStream`]) at the coordinates
//! sample → pipeline stage → output pixel → cell, under the byte-wide
//! Bernoulli law. The scalar one walks the datapath element by element
//! and is the bit-exact reference; the packed one ([`stochastic`])
//! evaluates the same windows on the `PackedLayer` pipeline — per-tile
//! sums from the SWAR popcount kernels, per-cell gray-zone probabilities
//! precomputed into Bernoulli draw-threshold tables, live windows counted
//! in vectorized batches — so the *same stream produces the same flips,
//! labels and scores* (many times faster; see `BENCH_stochastic.json`).
//! Per-trial device variation ([`aqfp_device::VariationModel`]: gray-zone
//! width scale, attenuation drift, temperature drift) parameterizes the
//! packed tables ([`PackedModel::stochastic_tables`]) and, on the scalar
//! side, the crossbars' operating conditions
//! ([`DeployedModel::apply_variation`]) — the two stay bit-identical
//! under any variation.
//!
//! The *digital* engines evaluate the deterministic limit (gray-zone → 0,
//! exact counters): per-tile saturating comparators against integer
//! thresholds, majority-vote accumulation with ties to '1', dead-column
//! overrides. The scalar one walks activations bit-by-bit through
//! per-element loops and exists as the differential reference; the packed
//! one computes the identical decisions as XNOR + popcount over `u64`
//! bitplanes, batch-major, fanned across `std::thread::scope` workers —
//! use it whenever you need deterministic throughput (accuracy sweeps,
//! fault-injection campaigns, serving).
//!
//! # The packed layer pipeline (see [`pipeline`] and [`packed`])
//!
//! The packed engine is not a dense-only special case: lowering
//! ([`PackedModel::from_deployed`]) turns any deployed cell stack into a
//! linear plan of [`PackedLayer`] stages, each consuming and producing
//! packed `[C, H, W]` planes:
//!
//! | stage | kernel | fast path |
//! |---|---|---|
//! | [`PackedLayer::Conv`] | bitplane im2col (`aqfp_sc::bitplane::packed_im2col`) + tiled XNOR–popcount | word-shift gathers, SWAR tile lanes |
//! | [`PackedLayer::Pool`] | 2×2 OR/AND fold + even-bit compress | whole-word arithmetic |
//! | [`PackedLayer::Linear`] | one tiled XNOR–popcount evaluation | SWAR tile lanes |
//! | [`PackedLayer::Flatten`] | shape rewrite only | free |
//!
//! Lowering rules: conv cell → Conv (+ Pool if the cell pools); dense
//! cell → Linear, with a Flatten inserted when the incoming shape is
//! still spatial; the classifier head consumes the final plane directly.
//! Every stage — not just dense — hits the packed fast path, which is
//! what lets the CIFAR VGG workload run end-to-end on bitplanes.
//!
//! Fabrication faults can be injected on either side of lowering with
//! identical results: into the [`DeployedModel`] before `to_packed()`
//! (stuck cells overwrite crossbar weights) or directly into the lowered
//! [`PackedModel`] ([`PackedModel::inject_faults`] — word masks on the
//! weight planes, dead columns folded into the SWAR biases). The latter
//! is what the Monte Carlo robustness engine ([`crate::robustness`])
//! patches per trial, through an undo journal
//! ([`PackedModel::inject_faults_journaled`] →
//! [`PackedModel::revert_faults`]) on one model clone per worker.
//!
//! # Packed layout (see [`packed`] for details)
//!
//! Bits are packed little-endian in the flat `[C, H, W]` feature index
//! (bit `i` → word `i / 64`, bit `i % 64`; '1' = +1); convolution padding
//! reads as '0' (−1), matching the software model's −1 padding; tail bits
//! of the last word stay zero. Batches are one [`aqfp_sc::PackedMatrix`]
//! row per sample with stride `words_per_row()`. The packed engine is
//! bit-identical to the scalar digital engine by construction *and* by
//! differential/golden tests (`tests/props.rs`, `tests/golden_deploy.rs`).
//!
//! # The wide-word datapath (see [`aqfp_sc::bitplane::Word`])
//!
//! All packed kernels are written against the lane-generic `Word` trait
//! and instantiated twice: at `u64` (the reference width, one output
//! pixel per word step) and at [`aqfp_sc::V256`] (`[u64; 4]`, four pixels
//! per step — plain per-lane loops the autovectorizer lowers to
//! 256-bit-wide instructions, no intrinsics). The hot GEMM path,
//! [`PackedTiledMatrix::forward_matrix_as`], cache-blocks the batch into
//! 64-pixel blocks, transposes each block's tile columns into wide words,
//! runs fused XNOR + SWAR vote accumulation across all tiles, then folds
//! votes back to bit-planes. The zero-tail layout invariant above is what
//! lets the SWAR comparator tables cover *every* tile including the
//! ragged last one: bits past a tile's width XNOR to a constant '1', so
//! the fixed inflation folds into the per-field threshold ("garbage
//! folding" — see [`packed`]). The two widths are pinned bit-identical by
//! width-differential property tests (`tests/props.rs`) and by the
//! `kernel_microbench` bench, which asserts equality before timing.

mod bitmap;
pub mod delta;
mod layer;
mod model;
pub mod packed;
pub mod pipeline;
pub mod snapshot;
pub mod stochastic;

pub(crate) use model::argmax;

pub use bitmap::BitMap;
pub use delta::{ActivationCache, DirtyChannels};
pub use layer::{DeployedCell, DeployedConv, DeployedDense, TiledMatrix};
pub use model::{deploy, DeployError, DeployStats, DeployedClassifier, DeployedModel};
pub use packed::{PackedModel, PackedTiledMatrix};
pub use pipeline::{PackedConvStage, PackedLayer, PackedLinearStage, PackedPoolStage};
pub use snapshot::{SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use stochastic::{MatrixStochasticTables, RngMode, StochasticTables};
