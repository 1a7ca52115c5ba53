//! The packed stochastic engine: the full SC datapath evaluated on
//! bitplanes, bit for bit with the scalar reference.
//!
//! [`DeployedModel::classify`](super::DeployedModel::classify) simulates
//! the stochastic datapath one element at a time: per output pixel, per
//! crossbar tile, per column it computes the merged current, evaluates the
//! erf-shaped gray-zone law, draws an `L`-bit observation window and feeds
//! the streams through the APC accumulator. That fidelity is exactly what
//! variation-aware robustness sweeps need — and far too slow to run at
//! Monte Carlo scale. This module is the word-parallel twin on the
//! [`PackedLayer`] pipeline IR, built from three pieces:
//!
//! 1. **Packed tile sums** — per-tile XNOR match counts come from the same
//!    SWAR `lane_counts_w` reduction and masked-popcount spans the digital
//!    engine votes with ([`PackedTiledMatrix::matches_into`]), instead of
//!    per-element multiply loops.
//! 2. **Flip-probability tables** — every `(tile, column)` cell's
//!    gray-zone law is evaluated **once per operating condition** over all
//!    integer sums it can produce, quantized into byte-lane draw
//!    thresholds ([`aqfp_sc::counter::lane_threshold`]). Per-trial
//!    [`VariationModel`] state (gray-zone width scale, attenuation delta,
//!    temperature drift) enters here: the tables are built from the
//!    *effective* width and unit currents while the programmed thresholds
//!    stay at their calibration-time values.
//! 3. **Counter-keyed Bernoulli windows** — each cell's `L`-cycle
//!    observation window is drawn from a keyed counter stream
//!    ([`aqfp_sc::CounterStream`]). The exact counter consumes only each
//!    window's '1' count, so every cell of a matrix — live, saturated or
//!    dead — is counted straight out of the generator in one call
//!    ([`aqfp_sc::CounterStream::window_counts`]); the approximate
//!    counter materializes the windows and walks them cycle by cycle.
//!
//! # One sampler, shared with the scalar reference
//!
//! Every Bernoulli window is a pure function of its coordinates. Sample
//! `i` of an evaluation draws from `CounterStream::from_seed(seed)
//! .derive(i)`; below it, each coordinate is one
//! [`CounterStream::derive`] step — pipeline-stage index, then output
//! pixel (pixel 0 for linear stages) — and cell `channel·k + tile` reads
//! its window at tape position `cell · window_stride(L)` of the pixel
//! stream. The scalar engine draws each window from the same coordinates
//! with one [`CounterStream::sample_bernoulli_words`] call per cell, so
//! **same seed ⇒ same flips ⇒ identical labels and scores** — enforced by
//! differential proptests over ragged multi-tile geometries, faults,
//! variation, conv pipelines and both counter kinds (`tests/props.rs`).
//! Because no window depends on another, the packed engine evaluates them
//! in whatever order is fastest, on any worker count, and stays
//! bit-reproducible.
//!
//! The decision law is byte-wide: each mixed word yields **eight** 8-bit
//! lanes, and lane `< round(p·2⁸)` fires the bit (see
//! [`aqfp_sc::CounterStream::bernoulli_word`]). Probabilities quantize to
//! 1/256 — at SC window lengths (`L = 16`) that quantization is far
//! inside the sampling noise, and the payoff is an 8× draw-rate win plus
//! a branch-free SWAR byte-compare counter. A whole batch of windows
//! lives on one flat decision tape (window `i` starts at draw-aligned bit
//! `i · ⌈L/8⌉·8`), and the byte-lane threshold `t8 ∈ 0..=256` decides
//! saturated cells exactly (`0` counts no '1', `256` counts `L`), so the
//! exact-counter path needs no screening: it gathers every cell's `t8`
//! from [`MatrixStochasticTables`], pins dead columns to their stuck
//! constant (`0` or `256`) with a select, and counts all cells in one
//! vectorized sweep: drawing a saturated cell costs a few lanes of a
//! vector mix, less than a per-cell screen that skips it would.
//!
//! In the gray-zone → 0 limit (`VariationModel` width scale 0) every
//! table entry saturates and the engine degenerates to the digital
//! decision rule away from exact comparator ties.

use super::model::argmax;
use super::packed::PackedTiledMatrix;
use super::pipeline::{PackedConvStage, PackedLayer};
use super::PackedModel;
use aqfp_device::{Bit, GrayZone, VariationModel};
use aqfp_sc::accumulate::CounterKind;
use aqfp_sc::bitplane::{bernoulli_threshold, packed_im2col};
use aqfp_sc::counter::lane_threshold;
use aqfp_sc::{Apc, BitPlane, CounterStream, PackedMatrix};
use serde::{Deserialize, Serialize};

/// How the stochastic engine draws its Bernoulli observation windows.
/// Keyed counter streams are the one discipline; the enum remains so
/// campaign configurations can name it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RngMode {
    /// Keyed counter streams ([`aqfp_sc::CounterStream`]): each draw is a
    /// pure function of its coordinates, so windows generate independently
    /// and results are bit-reproducible across evaluation order and
    /// worker count.
    #[default]
    Counter,
}

/// The per-cell byte-lane draw thresholds of one [`PackedTiledMatrix`] at
/// one operating condition, indexed by XNOR match count: entry
/// `(channel, tile, matches)` is the tile neuron's probability of reading
/// '1' for that integer sum, quantized to the counter law's lane
/// threshold `t8 ∈ 0..=256` ([`aqfp_sc::counter::lane_threshold`]): `0`
/// never fires, `256` always fires, anything else is `round(p·2⁸)`.
/// Saturated cells need no marking — the count kernel decides them
/// exactly. Built by [`PackedTiledMatrix::stochastic_tables`].
#[derive(Debug, Clone)]
pub struct MatrixStochasticTables {
    /// The sub-tables of every cell, back to back in channel-major cell
    /// order; cell `i`'s entry for a match count is `t8[offs[i] + matches]`.
    t8: Vec<u16>,
    /// `out·k + 1` prefix offsets: cell `i = channel·k + tile` spans
    /// `offs[i]..offs[i + 1]`, `tile_rows(tile) + 1` entries.
    offs: Vec<usize>,
    /// Output channels the tables were built for.
    out: usize,
}

impl MatrixStochasticTables {
    fn build(m: &PackedTiledMatrix, vm: &VariationModel) -> Self {
        let k = m.row_tiles();
        // The one shared definition of how variation lands on operating
        // conditions — the same call the scalar drift path makes, so both
        // engines evaluate the identical effective law.
        let varied = aqfp_crossbar::array::CrossbarConfig {
            grayzone_ua: m.grayzone_ua(),
            attenuation: *m.attenuation(),
        }
        .with_variation(vm);
        let width = varied.grayzone_ua;
        let attenuation = varied.attenuation;
        let mut t8 = Vec::new();
        let mut offs = Vec::with_capacity(m.out() * k + 1);
        for c in 0..m.out() {
            for r in 0..k {
                offs.push(t8.len());
                let rows = m.tile_rows(r);
                // The drifted unit current and gray-zone width; the
                // programmed threshold stays where calibration put it —
                // evaluating exactly the law the (varied) scalar crossbar
                // senses with, so probabilities agree bit-for-bit.
                let i1 = attenuation.i1_ua(rows);
                let th = m.threshold_ua(c, r);
                let law = if width > 0.0 {
                    GrayZone::new(th, width)
                } else {
                    GrayZone::deterministic(th)
                };
                for matches in 0..=rows {
                    let sum = 2 * matches as i64 - rows as i64;
                    let p = law.probability_one(sum as f64 * i1);
                    t8.push(lane_threshold(bernoulli_threshold(p)));
                }
            }
        }
        offs.push(t8.len());
        Self {
            t8,
            offs,
            out: m.out(),
        }
    }

    fn check(&self, m: &PackedTiledMatrix) {
        let k = m.row_tiles();
        let tiles_match = self.offs.len() == m.out() * k + 1
            && (self.offs.windows(2).enumerate())
                .all(|(i, w)| w[1] - w[0] == m.tile_rows(i % k) + 1);
        assert!(
            self.out == m.out() && tiles_match,
            "stochastic tables were built for a different matrix geometry"
        );
    }
}

/// Reusable per-evaluation buffers of the stochastic engine (tile match
/// counts, per-cell lane thresholds and window counts, packed observation
/// streams, the APC's cycle word).
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    matches: Vec<u32>,
    t8: Vec<u16>,
    counts: Vec<u32>,
    streams: Vec<u64>,
    word: Vec<Bit>,
    cur: Vec<u64>,
}

/// Evaluates one packed activation word slice through the stochastic
/// datapath of `m`, reporting each channel's output bit through `sink`:
/// every cell's observation window lives on `stream`'s flat decision tape
/// at window index `channel·k + tile` (see
/// [`aqfp_sc::CounterStream::window_counts`]), so the windows are pure
/// functions of their coordinates — no draw order, no serial chain. Dead
/// columns pin their lane threshold to the stuck constant.
///
/// Callers must have validated `tables` against `m` with
/// [`MatrixStochasticTables::check`] — hoisted out of this (per-pixel)
/// hot path to the per-stage entry points.
fn eval_channels_ctr(
    m: &PackedTiledMatrix,
    tables: &MatrixStochasticTables,
    acts: &[u64],
    stream: &CounterStream,
    scratch: &mut Scratch,
    mut sink: impl FnMut(usize, bool),
) {
    let k = m.row_tiles();
    let out = m.out();
    let window = m.window();

    scratch.matches.resize(out * k, 0);
    m.matches_into(acts, &mut scratch.matches);

    // Window `i` of the batch IS cell `i = channel·k + tile`, so its lane
    // threshold is gathered in natural cell order. A dead column (1 stuck
    // '0', 2 stuck '1') pins its window by a select, not a branch.
    scratch.t8.resize(out * k, 0);
    let cells = scratch.t8.iter_mut().zip(&tables.offs);
    for ((t8, &off), (&matches, &d)) in cells.zip(scratch.matches.iter().zip(m.dead_cells())) {
        let live = tables.t8[off + matches as usize];
        *t8 = if d == 0 { live } else { u16::from(d - 1) << 8 };
    }

    let half = (k * window) as u64; // doubled threshold, like the scalar module
    if matches!(m.counter(), CounterKind::Exact) {
        // The exact APC only consumes each window's popcount: count every
        // cell straight out of the generator, then sum and vote per
        // channel.
        scratch.counts.resize(out * k, 0);
        stream.window_counts(&scratch.t8, window, &mut scratch.counts);
        for (c, (counts, &flip)) in scratch.counts.chunks_exact(k).zip(m.flips()).enumerate() {
            let total: u64 = counts.iter().map(|&x| u64::from(x)).sum();
            sink(c, (2 * total >= half) != flip);
        }
        return;
    }

    // Approximate APC: its counting error depends on the bit pattern
    // *across* tiles per cycle, so materialize every window, transpose the
    // packed streams back into cycle words and mirror the scalar count.
    let stream_words = window.div_ceil(64);
    scratch.streams.resize(out * k * stream_words, 0);
    stream.sample_bernoulli_windows(&scratch.t8, window, &mut scratch.streams);
    let apc = Apc::new(k);
    scratch.word.resize(k, Bit::Zero);
    for c in 0..out {
        let mut total = 0u64;
        for t in 0..window {
            for r in 0..k {
                let w = scratch.streams[(c * k + r) * stream_words + t / 64];
                scratch.word[r] = Bit::from_bool((w >> (t % 64)) & 1 == 1);
            }
            total += apc.count_approx(&scratch.word) as u64;
        }
        sink(c, (2 * total >= half) != m.flips()[c]);
    }
}

impl PackedTiledMatrix {
    /// Precomputes the stochastic engine's flip-probability tables for one
    /// operating condition: for every `(row tile, channel)` cell and every
    /// XNOR match count it can produce, the gray-zone probability of the
    /// merged current (at the variation's effective gray-zone width and
    /// drifted unit currents, against the *programmed* threshold) is
    /// quantized into a byte-lane draw threshold. Faults never invalidate
    /// the tables — stuck cells only move which entry is looked up, and
    /// dead columns are handled at evaluation time — so one table set
    /// serves every trial of a Monte Carlo campaign at the same operating
    /// condition.
    pub fn stochastic_tables(&self, vm: &VariationModel) -> MatrixStochasticTables {
        MatrixStochasticTables::build(self, vm)
    }

    /// Evaluates all output channels for one packed activation plane
    /// through the **stochastic** datapath — the word-parallel counterpart
    /// of `TiledMatrix::forward`, flip for flip: cell `channel·k + tile`
    /// draws its window from `stream` at tape position
    /// `cell · window_stride(L)`, so the result is a pure function of
    /// `(stream, activations)`.
    ///
    /// # Panics
    /// Panics if `act.len() != fan_in()` or `tables` was built for a
    /// different geometry.
    pub fn forward_stochastic_ctr(
        &self,
        tables: &MatrixStochasticTables,
        act: &BitPlane,
        stream: &CounterStream,
    ) -> BitPlane {
        assert_eq!(act.len(), self.fan_in(), "input length mismatch");
        tables.check(self);
        let mut out = BitPlane::zeros(self.out());
        let mut scratch = Scratch::default();
        eval_channels_ctr(self, tables, act.words(), stream, &mut scratch, |c, bit| {
            if bit {
                out.set(c, true);
            }
        });
        out
    }
}

/// The precomputed per-stage flip-probability tables of a
/// [`PackedModel`]'s stochastic mode — one operating condition
/// ([`VariationModel`]) captured once, shared by every evaluation (and
/// every fault-injected clone) at that condition.
#[derive(Debug, Clone)]
pub struct StochasticTables {
    /// Aligned with `PackedModel::layers`: `Some` for weighted stages.
    stages: Vec<Option<MatrixStochasticTables>>,
}

/// Runs one conv stage stochastically: the word-level im2col gather of
/// the digital path, then each output pixel (row-major) draws from its
/// own child stream (`stage_stream.derive(pixel)`), so the stage's flips
/// are pure functions of their coordinates. Output bits are assembled as
/// whole words.
fn conv_forward_stochastic_ctr(
    stage: &PackedConvStage,
    tables: &MatrixStochasticTables,
    input: &BitPlane,
    shape: [usize; 3],
    stage_stream: &CounterStream,
    scratch: &mut Scratch,
) -> (BitPlane, [usize; 3]) {
    let m = stage.matrix();
    tables.check(m);
    let [c, h, w] = shape;
    assert_eq!(input.len(), c * h * w, "plane/shape mismatch");
    let out_shape = stage.out_shape(shape);
    let (_, k, stride, pad) = stage.geometry();
    let fields = packed_im2col(input, c, h, w, k, stride, pad, false);
    let n = fields.rows();
    let fw = fields.words_per_row();
    let storage = fields.storage();
    let mut out = PackedMatrix::zeros(m.out(), n);
    scratch.cur.clear();
    scratch.cur.resize(m.out(), 0);
    let mut cur = std::mem::take(&mut scratch.cur);
    for a in 0..n {
        let acts = &storage[a * fw..(a + 1) * fw];
        let pixel = stage_stream.derive(a as u64);
        eval_channels_ctr(m, tables, acts, &pixel, scratch, |ch, bit| {
            cur[ch] |= (bit as u64) << (a % 64);
        });
        if a % 64 == 63 {
            for (ch, word) in cur.iter_mut().enumerate() {
                out.row_words_mut(ch)[a / 64] = *word;
                *word = 0;
            }
        }
    }
    if !n.is_multiple_of(64) {
        for (ch, word) in cur.iter_mut().enumerate() {
            out.row_words_mut(ch)[n / 64] = *word;
        }
    }
    scratch.cur = cur;
    (out.concat_rows(), out_shape)
}

impl PackedModel {
    /// Precomputes the stochastic mode's flip-probability tables for one
    /// operating condition (see
    /// [`PackedTiledMatrix::stochastic_tables`]): every weighted pipeline
    /// stage gets its per-cell Bernoulli thresholds at the variation's
    /// effective gray-zone width and drifted unit currents. Build once per
    /// condition; the tables are valid for every fault-injected clone of
    /// this model, which is what lets a variation × fault-rate campaign
    /// share them across trials.
    pub fn stochastic_tables(&self, vm: &VariationModel) -> StochasticTables {
        StochasticTables {
            stages: self
                .layers()
                .iter()
                .map(|layer| match layer {
                    PackedLayer::Conv(c) => Some(c.matrix().stochastic_tables(vm)),
                    PackedLayer::Linear(l) => Some(l.matrix().stochastic_tables(vm)),
                    PackedLayer::Pool(_) | PackedLayer::Flatten => None,
                })
                .collect(),
        }
    }

    /// [`PackedModel::stochastic_tables`]; the tables do not depend on the
    /// [`RngMode`].
    pub fn stochastic_tables_mode(&self, vm: &VariationModel, _mode: RngMode) -> StochasticTables {
        self.stochastic_tables(vm)
    }

    /// Classifies one packed `[C, H, W]` plane through the **stochastic**
    /// datapath: weighted stages run the packed SC simulation (gray-zone
    /// flips, observation windows, APC accumulation), pool/flatten stages
    /// and the classifier head are deterministic exactly as in the scalar
    /// engine. Every observation window is drawn from a child of `stream`
    /// keyed by `(stage, pixel, cell)`, so the result is a pure function
    /// of `(stream, plane)` — bit-reproducible regardless of what else has
    /// been evaluated, in what order, on how many workers — and equal to
    /// [`DeployedModel::classify`](super::DeployedModel::classify) with
    /// the same sample stream. Callers give each sample its own stream
    /// (see [`PackedModel::accuracy_stochastic_planes_ctr`] for the
    /// convention).
    pub fn classify_stochastic_plane_ctr(
        &self,
        tables: &StochasticTables,
        plane: &BitPlane,
        stream: &CounterStream,
    ) -> (usize, Vec<f32>) {
        let mut scratch = Scratch::default();
        self.classify_plane_stochastic_ctr_with(tables, plane.clone(), stream, &mut scratch)
    }

    /// Top-1 accuracy of the stochastic engine over pre-packed planes.
    /// Plane `i` draws from `CounterStream::from_seed(seed).derive(i)`, so
    /// each figure is a pure function of `(seed, planes)`: the samples can
    /// be evaluated in any order, split across any worker count, or re-run
    /// individually and the accuracy is bit-identical — and equal to the
    /// scalar [`DeployedModel::accuracy`](super::DeployedModel::accuracy)
    /// at the same seed over the same samples. Monte Carlo campaigns pack
    /// one eval set and share it across every trial.
    ///
    /// # Panics
    /// Panics if `planes` is empty or the lengths differ.
    pub fn accuracy_stochastic_planes_ctr(
        &self,
        tables: &StochasticTables,
        planes: &[BitPlane],
        labels: &[usize],
        seed: u64,
    ) -> f64 {
        assert_eq!(planes.len(), labels.len(), "planes/labels mismatch");
        assert!(!planes.is_empty(), "accuracy over zero samples");
        let root = CounterStream::from_seed(seed);
        let mut scratch = Scratch::default();
        let mut correct = 0usize;
        for (i, (plane, &label)) in planes.iter().zip(labels).enumerate() {
            let (pred, _) = self.classify_plane_stochastic_ctr_with(
                tables,
                plane.clone(),
                &root.derive(i as u64),
                &mut scratch,
            );
            if pred == label {
                correct += 1;
            }
        }
        correct as f64 / planes.len() as f64
    }

    /// The shared folding loop: stage `l` (counting every pipeline layer,
    /// weighted or not, so the coordinates survive pipeline refactors that
    /// only touch table alignment) draws from `sample_stream.derive(l)`,
    /// conv pixels from the stage stream's children, linear stages from
    /// child `0`. Scratch buffers persist across calls so batch evaluation
    /// does one allocation set, not one per sample.
    fn classify_plane_stochastic_ctr_with(
        &self,
        tables: &StochasticTables,
        mut act: BitPlane,
        sample_stream: &CounterStream,
        scratch: &mut Scratch,
    ) -> (usize, Vec<f32>) {
        assert_eq!(
            tables.stages.len(),
            self.layers().len(),
            "stochastic tables were built for a different pipeline"
        );
        let mut shape = self.input_shape();
        for (li, (layer, tab)) in self.layers().iter().zip(&tables.stages).enumerate() {
            (act, shape) = match (layer, tab) {
                (PackedLayer::Conv(c), Some(t)) => {
                    let stage = sample_stream.derive(li as u64);
                    conv_forward_stochastic_ctr(c, t, &act, shape, &stage, scratch)
                }
                (PackedLayer::Linear(l), Some(t)) => {
                    let m = l.matrix();
                    t.check(m);
                    let mut out = BitPlane::zeros(m.out());
                    let pixel = sample_stream.derive(li as u64).derive(0);
                    eval_channels_ctr(m, t, act.words(), &pixel, scratch, |ch, bit| {
                        if bit {
                            out.set(ch, true);
                        }
                    });
                    let f = out.len();
                    (out, [f, 1, 1])
                }
                (PackedLayer::Pool(_) | PackedLayer::Flatten, None) => layer.forward(act, shape),
                _ => unreachable!("stochastic tables misaligned with the pipeline"),
            };
        }
        let scores = self.classifier().scores_plane(&act);
        (argmax(&scores), scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HardwareConfig;
    use crate::deploy::packed::top1;
    use crate::deploy::{deploy, BitMap, TiledMatrix};
    use crate::spec::NetSpec;
    use aqfp_crossbar::faults::InjectedFaults;

    fn hw(rows: usize, cols: usize, grayzone_ua: f64, bitstream_len: usize) -> HardwareConfig {
        HardwareConfig {
            crossbar_rows: rows,
            crossbar_cols: cols,
            grayzone_ua,
            bitstream_len,
            ..Default::default()
        }
    }

    fn planes_of(data: &bnn_datasets::Dataset) -> Vec<BitPlane> {
        (0..data.len())
            .map(|i| BitMap::from_tensor_sample(&data.images, i).to_plane())
            .collect()
    }

    fn pseudo_signs(n: usize, salt: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                if (i * 7 + salt * 11 + 3) % 5 < 2 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect()
    }

    /// The core property at matrix level: same stream, same flips, same
    /// outputs as the scalar stochastic datapath — on a ragged multi-tile
    /// geometry with a wide gray-zone (plenty of unsaturated cells, so the
    /// window coordinates are actually exercised).
    #[test]
    fn packed_stochastic_matches_scalar_bit_for_bit() {
        let h = hw(8, 4, 8.0, 16);
        let (fan_in, out) = (70, 6);
        let signs = pseudo_signs(fan_in * out, 1);
        let vth: Vec<f64> = (0..out).map(|o| o as f64 * 0.3 - 0.7).collect();
        let flips: Vec<bool> = (0..out).map(|o| o % 3 == 0).collect();
        let m = TiledMatrix::new(&signs, fan_in, out, vth, flips, &h);
        let packed = PackedTiledMatrix::from_tiled(&m);
        let tables = packed.stochastic_tables(&VariationModel::nominal());
        let root = CounterStream::from_seed(33);
        for salt in 0..16 {
            let input: Vec<Bit> = (0..fan_in)
                .map(|i| Bit::from_bool((i * 13 + salt * 7) % 3 == 0))
                .collect();
            let stream = root.derive(salt as u64);
            let scalar = m.forward(&input, &stream);
            let plane =
                packed.forward_stochastic_ctr(&tables, &BitPlane::from_bits(&input), &stream);
            assert_eq!(plane.to_bits(), scalar, "salt {salt}");
        }
    }

    /// Model level: the packed stochastic engine reproduces
    /// `DeployedModel::classify` — labels and scores — from the same
    /// sample streams, and whole-accuracy figures from the same seed.
    #[test]
    fn packed_model_stochastic_matches_scalar_classify() {
        let h = hw(16, 16, 4.0, 8);
        let spec = NetSpec::mlp(&[1, 16, 16], &[32], 10);
        let model = spec.build_software(&h, 3);
        let deployed = deploy(&spec, &model, &h).unwrap();
        let packed = deployed.to_packed();
        let tables = packed.stochastic_tables(&VariationModel::nominal());
        let data = bnn_datasets::digits::generate_digits(&bnn_datasets::SynthConfig {
            samples_per_class: 2,
            ..Default::default()
        });
        let planes = planes_of(&data);
        let root = CounterStream::from_seed(7);
        for (i, plane) in planes.iter().enumerate() {
            let stream = root.derive(i as u64);
            assert_eq!(
                packed.classify_stochastic_plane_ctr(&tables, plane, &stream),
                deployed.classify(&data.images, i, &stream),
                "sample {i}"
            );
        }
        assert_eq!(
            packed.accuracy_stochastic_planes_ctr(&tables, &planes[..10], &data.labels[..10], 8),
            deployed.accuracy(&data, 8, Some(10)),
        );
    }

    /// In the gray-zone → 0 limit the scalar stochastic reference
    /// collapses onto the digital decision rule (no comparator ties at
    /// these thresholds): every window saturates, whatever the stream.
    #[test]
    fn zero_width_limit_is_the_digital_engine() {
        let h = hw(8, 8, 2.4, 8);
        let (fan_in, out) = (40, 5);
        let signs = pseudo_signs(fan_in * out, 2);
        let vth: Vec<f64> = (0..out).map(|o| o as f64 * 0.37 + 0.11).collect();
        let mut m = TiledMatrix::new(&signs, fan_in, out, vth, vec![false; out], &h);
        m.apply_variation(&VariationModel::new(0.0, 0.0, 0.0).unwrap());
        let root = CounterStream::from_seed(5);
        for salt in 0..8u64 {
            let input: Vec<Bit> = (0..fan_in)
                .map(|i| Bit::from_bool((i * 5 + salt as usize * 11) % 4 < 2))
                .collect();
            assert_eq!(
                m.forward(&input, &root.derive(salt)),
                m.forward_digital(&input),
                "salt {salt}"
            );
        }
    }

    /// Every classification is a pure function of its `(seed, sample)`
    /// coordinates — replaying a sample or walking the batch in reverse
    /// order reproduces bit-identical labels and scores, and the
    /// plane-batch accuracy counts exactly the per-sample walk's hits.
    #[test]
    fn counter_mode_is_pure_and_order_free() {
        let h = hw(16, 16, 4.0, 8);
        let spec = NetSpec::mlp(&[1, 16, 16], &[32], 10);
        let model = spec.build_software(&h, 3);
        let packed = deploy(&spec, &model, &h).unwrap().to_packed();
        let tables = packed.stochastic_tables(&VariationModel::nominal());
        let data = bnn_datasets::digits::generate_digits(&bnn_datasets::SynthConfig {
            samples_per_class: 2,
            ..Default::default()
        });
        let planes = planes_of(&data);
        let root = CounterStream::from_seed(99);
        let classify = |i: usize| {
            packed.classify_stochastic_plane_ctr(&tables, &planes[i], &root.derive(i as u64))
        };
        let forward: Vec<_> = (0..planes.len()).map(classify).collect();
        for i in (0..planes.len()).rev() {
            assert_eq!(classify(i), forward[i], "sample {i}");
        }
        assert_eq!(
            packed.accuracy_stochastic_planes_ctr(&tables, &planes, &data.labels, 99),
            top1(&forward, &data.labels),
        );
    }

    /// In the gray-zone → 0 limit the packed engine also collapses onto
    /// the digital decision rule: saturated tables pin every window to a
    /// constant, whatever the stream draws.
    #[test]
    fn counter_zero_width_limit_is_the_digital_engine() {
        let h = hw(8, 8, 2.4, 8);
        let (fan_in, out) = (40, 5);
        let signs = pseudo_signs(fan_in * out, 2);
        let vth: Vec<f64> = (0..out).map(|o| o as f64 * 0.37 + 0.11).collect();
        let m = TiledMatrix::new(&signs, fan_in, out, vth, vec![false; out], &h);
        let packed = PackedTiledMatrix::from_tiled(&m);
        let zero = VariationModel::new(0.0, 0.0, 0.0).unwrap();
        let tables = packed.stochastic_tables(&zero);
        let root = CounterStream::from_seed(41);
        for salt in 0..8u64 {
            let input: Vec<Bit> = (0..fan_in)
                .map(|i| Bit::from_bool((i * 5 + salt as usize * 11) % 4 < 2))
                .collect();
            let plane = packed.forward_stochastic_ctr(
                &tables,
                &BitPlane::from_bits(&input),
                &root.derive(salt),
            );
            assert_eq!(plane.to_bits(), m.forward_digital(&input), "salt {salt}");
        }
    }

    /// Dead columns pin the window at the source: the stuck channel reads
    /// its fabrication constant for every stream.
    #[test]
    fn counter_mode_dead_columns_read_their_constant() {
        let h = hw(64, 8, 8.0, 16);
        let (fan_in, out) = (40, 5);
        let signs = pseudo_signs(fan_in * out, 3);
        let vth = vec![0.0; out];
        let m = TiledMatrix::new(&signs, fan_in, out, vth, vec![false; out], &h);
        let mut packed = PackedTiledMatrix::from_tiled(&m);
        // Single-tile, single-group geometry: one die holds everything.
        packed.apply_faults(&[InjectedFaults {
            stuck_cells: vec![],
            dead_columns: vec![(1, Bit::One), (3, Bit::Zero)],
        }]);
        let tables = packed.stochastic_tables(&VariationModel::nominal());
        let root = CounterStream::from_seed(7);
        for salt in 0..8u64 {
            let input: Vec<Bit> = (0..fan_in)
                .map(|i| Bit::from_bool((i * 3 + salt as usize) % 5 < 2))
                .collect();
            let o = packed
                .forward_stochastic_ctr(&tables, &BitPlane::from_bits(&input), &root.derive(salt))
                .to_bits();
            assert_eq!(o[1], Bit::One, "stuck-'1' column, salt {salt}");
            assert_eq!(o[3], Bit::Zero, "stuck-'0' column, salt {salt}");
        }
    }

    /// The plane-batch accuracy of the packed engine is draw-identical to
    /// the scalar reference's dataset walk at the same seed — the
    /// guarantee that lets sweeps share one packed eval set across trials
    /// and still report what the scalar engine would.
    #[test]
    fn plane_batch_accuracy_is_rng_identical_to_the_dataset_walk() {
        let h = hw(16, 16, 4.0, 8);
        let spec = NetSpec::mlp(&[1, 16, 16], &[32], 10);
        let model = spec.build_software(&h, 5);
        let deployed = deploy(&spec, &model, &h).unwrap();
        let packed = deployed.to_packed();
        let tables = packed.stochastic_tables(&VariationModel::nominal());
        let data = bnn_datasets::digits::generate_digits(&bnn_datasets::SynthConfig {
            samples_per_class: 2,
            ..Default::default()
        });
        let planes = planes_of(&data);
        assert_eq!(
            deployed.accuracy(&data, 5, None),
            packed.accuracy_stochastic_planes_ctr(&tables, &planes, &data.labels, 5),
        );
    }

    /// Variation threading: drifting the scalar model's operating
    /// conditions equals parameterizing the packed tables — flip for flip.
    #[test]
    fn variation_tables_match_varied_scalar_model() {
        let h = hw(16, 8, 2.4, 16);
        let spec = NetSpec::mlp(&[1, 16, 16], &[16], 10);
        let model = spec.build_software(&h, 11);
        let vm = VariationModel::new(2.0, -0.15, 5.0).unwrap();
        let mut varied = deploy(&spec, &model, &h).unwrap();
        let packed = varied.to_packed();
        varied.apply_variation(&vm);
        let tables = packed.stochastic_tables(&vm);
        let data = bnn_datasets::digits::generate_digits(&bnn_datasets::SynthConfig {
            samples_per_class: 1,
            ..Default::default()
        });
        let root = CounterStream::from_seed(21);
        for (i, plane) in planes_of(&data).iter().enumerate() {
            let stream = root.derive(i as u64);
            assert_eq!(
                packed.classify_stochastic_plane_ctr(&tables, plane, &stream),
                varied.classify(&data.images, i, &stream),
                "sample {i}"
            );
        }
    }
}
