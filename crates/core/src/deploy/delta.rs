//! Event-driven fault-cone evaluation: incremental delta forward over a
//! cached clean activation trace.
//!
//! The fault-facing consumers in the workspace — the ATPG detection
//! matrix and the four-engine fault-universe check — used to pay a
//! **full** [`PackedModel::classify_planes`] pass per fault class, even
//! though a stuck cell or dead column perturbs
//! exactly one output column of one crossbar tile. This module is the
//! classic event-driven / PPSFP answer: evaluate the clean die once,
//! remember every stage's activations, and per fault recompute only the
//! *fault cone* — the dirtied output channels, then whatever actually
//! changed downstream.
//!
//! # Cache layout
//!
//! [`ActivationCache::new`] folds a candidate plane batch through the
//! pipeline once and records, per stage `l`:
//!
//! * `acts[l]` — each sample's packed *input* plane to stage `l`
//!   (`acts[0]` is the raw input batch, `acts[L]` the final feature
//!   planes the classifier head consumes);
//! * for conv stages, the per-sample im2col field matrix (one row per
//!   output pixel), so a single faulted channel re-votes against cached
//!   receptive fields instead of re-gathering them;
//! * the golden `(label, scores)` per sample — bit-identical to
//!   [`PackedModel::classify_planes`] on the clean model.
//!
//! The batch dimension is already bit-parallel (64/256 patterns per
//! word), so one cache serves parallel-pattern single-fault propagation
//! for free.
//!
//! # Quiescence rule
//!
//! A fault draw dirties a known channel set per stage
//! ([`DirtyChannels`], via
//! [`PackedTiledMatrix::fault_channels`](super::PackedTiledMatrix::fault_channels)).
//! [`PackedModel::delta_changed`] re-votes *only* those channels against
//! the cached stage inputs and diffs each re-voted bit against the cached
//! output:
//!
//! * no bit flips → the fault is unobservable for this sample *at this
//!   stage*; the sample stays on the cached trace (quiescent);
//! * some bit flips → the sample's perturbed plane propagates through
//!   the next stage by a full stage forward (on the faulted model, so
//!   downstream fault sites are honored), and drops back to the cached
//!   trace the moment its output re-converges;
//! * once no sample is perturbed and no dirty channel remains ahead, the
//!   evaluation terminates without touching downstream stages.
//!
//! Only samples still perturbed at the output are re-scored; everyone
//! else keeps the golden result. The full-forward engine stays alive as
//! the differential oracle — `tests/props.rs` proves the two engines
//! bit-identical over every fault class on random ragged geometries.
//!
//! # Consumers
//!
//! * `screening::detection_matrix` — one shared cache per ATPG run, one
//!   [`DirtyChannels::from_layer_draws`] + [`PackedModel::delta_changed`]
//!   per fault class.
//! * `equiv::DieChecker::check_fault_universe` — the delta splice is
//!   checked as a fifth engine against the faulted full forward.

use super::model::argmax;
use super::packed::PackedModel;
use super::pipeline::PackedLayer;
use aqfp_crossbar::faults::{InjectedFaults, StructuralFault};
use aqfp_sc::bitplane::packed_im2col;
use aqfp_sc::{BitPlane, PackedMatrix};

/// The clean activation trace of one candidate plane batch: per-stage
/// input planes, cached conv receptive fields, and the golden
/// classifications. Immutable once built — every fault evaluation borrows
/// it, none mutates it.
///
/// `PartialEq` compares the complete trace; the journal-interaction
/// tests lean on it to prove fault evaluation leaves the cache
/// bit-for-bit intact.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationCache {
    /// `acts[l][s]` = sample `s`'s packed input plane to stage `l`;
    /// `acts[layers.len()]` holds the final feature planes.
    acts: Vec<Vec<BitPlane>>,
    /// `shapes[l]` = the `[C, H, W]` shape of `acts[l]`.
    shapes: Vec<[usize; 3]>,
    /// Per conv stage: each sample's im2col field matrix (row = output
    /// pixel, width = `in_c · k · k`). `None` for non-conv stages.
    fields: Vec<Option<Vec<PackedMatrix>>>,
    /// Golden `(label, scores)` per sample, bit-identical to
    /// [`PackedModel::classify_planes`] on the clean model.
    golden: Vec<(usize, Vec<f32>)>,
}

impl ActivationCache {
    /// Evaluates the clean model once over `planes` and records the full
    /// activation trace.
    ///
    /// # Panics
    /// Panics if any plane's length does not match the model's input
    /// shape.
    pub fn new(model: &PackedModel, planes: &[BitPlane]) -> Self {
        let n = planes.len();
        let in_bits: usize = model.input_shape().iter().product();
        for p in planes {
            assert_eq!(p.len(), in_bits, "input plane length mismatch");
        }
        let mut acts: Vec<Vec<BitPlane>> = Vec::with_capacity(model.layers().len() + 1);
        let mut shapes = Vec::with_capacity(model.layers().len() + 1);
        let mut fields: Vec<Option<Vec<PackedMatrix>>> = Vec::with_capacity(model.layers().len());
        acts.push(planes.to_vec());
        let mut shape = model.input_shape();
        shapes.push(shape);
        for layer in model.layers() {
            let cur = acts.last().expect("trace starts with the input batch");
            let mut next = Vec::with_capacity(n);
            let stage_fields = match layer {
                PackedLayer::Conv(conv) => {
                    // Evaluate the conv stage explicitly so the gathered
                    // receptive fields survive for per-channel re-votes.
                    let [c, h, w] = shape;
                    let (_, k, stride, pad) = conv.geometry();
                    let mut fs = Vec::with_capacity(n);
                    for plane in cur {
                        let f = packed_im2col(plane, c, h, w, k, stride, pad, false);
                        next.push(conv.matrix().forward_matrix(&f).concat_rows());
                        fs.push(f);
                    }
                    Some(fs)
                }
                _ => {
                    for plane in cur {
                        let (out, _) = layer.forward(plane.clone(), shape);
                        next.push(out);
                    }
                    None
                }
            };
            shape = layer.out_shape(shape);
            shapes.push(shape);
            fields.push(stage_fields);
            acts.push(next);
        }
        let golden = acts
            .last()
            .expect("trace ends with the final planes")
            .iter()
            .map(|p| {
                let scores = model.classifier().scores_plane(p);
                (argmax(&scores), scores)
            })
            .collect();
        Self {
            acts,
            shapes,
            fields,
            golden,
        }
    }

    /// The number of cached samples.
    pub fn len(&self) -> usize {
        self.golden.len()
    }

    /// `true` when the cache holds no samples.
    pub fn is_empty(&self) -> bool {
        self.golden.is_empty()
    }

    /// The golden `(label, scores)` per sample — what the clean model
    /// returns from [`PackedModel::classify_planes`] on the cached batch.
    pub fn golden(&self) -> &[(usize, Vec<f32>)] {
        &self.golden
    }
}

/// The output channels a fault draw dirties, per pipeline stage — the
/// seed of the fault cone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtyChannels {
    per_layer: Vec<Vec<usize>>,
}

impl DirtyChannels {
    /// Maps a per-stage fault draw (as produced by
    /// [`PackedModel::draw_faults`]) to its dirtied output channels.
    ///
    /// # Panics
    /// Panics if `draws` does not line up with the model's stages (one
    /// entry per stage, empty on weight-free stages).
    pub fn from_draws(model: &PackedModel, draws: &[Vec<InjectedFaults>]) -> Self {
        assert_eq!(
            draws.len(),
            model.layers().len(),
            "draw / stage count mismatch"
        );
        let per_layer = model
            .layers()
            .iter()
            .zip(draws)
            .map(|(layer, faults)| match layer.matrix() {
                Some(m) => m.fault_channels(faults),
                None => {
                    assert!(faults.is_empty(), "fault draw on a weight-free stage");
                    Vec::new()
                }
            })
            .collect();
        Self { per_layer }
    }

    /// Maps one enumerated fault class on stage `layer` to its dirtied
    /// channels — the ATPG entry point: exactly one stage is dirty, with
    /// (for single-site faults) exactly one channel.
    ///
    /// # Panics
    /// Panics if `layer` is out of range or names a weight-free stage.
    pub fn from_site(model: &PackedModel, layer: usize, fault: &StructuralFault) -> Self {
        let m = model.layers()[layer]
            .matrix()
            .expect("fault sites target weighted stages");
        Self::from_layer_draws(model, layer, &fault.to_draws(m.tile_dims().len()))
    }

    /// Like [`Self::from_site`] but reusing an already-rendered per-die
    /// draw vector for stage `layer` — the ATPG detection loop renders
    /// the draws once for the journaled patch and hands them here rather
    /// than paying a second
    /// [`StructuralFault::to_draws`](aqfp_crossbar::faults::StructuralFault::to_draws)
    /// per class.
    ///
    /// # Panics
    /// Panics if `layer` is out of range, names a weight-free stage, or
    /// `draws` does not match the stage's tile count.
    pub fn from_layer_draws(model: &PackedModel, layer: usize, draws: &[InjectedFaults]) -> Self {
        let m = model.layers()[layer]
            .matrix()
            .expect("fault sites target weighted stages");
        let mut per_layer = vec![Vec::new(); model.layers().len()];
        per_layer[layer] = m.fault_channels(draws);
        Self { per_layer }
    }

    /// The dirty channels of stage `layer` (sorted, deduplicated).
    pub fn channels(&self, layer: usize) -> &[usize] {
        &self.per_layer[layer]
    }

    /// Total dirty channel count across all stages.
    pub fn total(&self) -> usize {
        self.per_layer.iter().map(Vec::len).sum()
    }

    /// `true` when no stage has a dirty channel (the draw was clean or
    /// fell outside every tile) — the fault cone is empty and the golden
    /// results stand as-is.
    pub fn is_empty(&self) -> bool {
        self.per_layer.iter().all(Vec::is_empty)
    }
}

impl PackedModel {
    /// Event-driven delta forward: evaluates the faulted model (`self`,
    /// with the fault draw already applied) against the cached clean
    /// trace and returns `(sample, (label, scores))` for **only** the
    /// samples whose final feature plane differs from the cache. Every
    /// other sample provably produces its golden result.
    ///
    /// Note that a changed plane does not imply a changed
    /// classification — the popcount scores can coincide — so detection
    /// logic must still diff the returned scores against
    /// [`ActivationCache::golden`].
    ///
    /// # Panics
    /// Panics if the cache or the dirty set was built for a different
    /// pipeline geometry.
    pub fn delta_changed(
        &self,
        cache: &ActivationCache,
        dirty: &DirtyChannels,
    ) -> Vec<(usize, (usize, Vec<f32>))> {
        let layers = self.layers();
        assert_eq!(
            cache.acts.len(),
            layers.len() + 1,
            "cache / pipeline stage count mismatch"
        );
        assert_eq!(
            dirty.per_layer.len(),
            layers.len(),
            "dirty set / pipeline stage count mismatch"
        );
        assert_eq!(
            cache.shapes[0],
            self.input_shape(),
            "cache built for a different input shape"
        );
        let n = cache.len();
        if n == 0 || dirty.is_empty() {
            return Vec::new();
        }
        // dirty_ahead[l]: does any stage >= l have dirty channels? Once a
        // perturbation quiesces with nothing dirty ahead, we can stop.
        let mut dirty_ahead = vec![false; layers.len() + 1];
        for l in (0..layers.len()).rev() {
            dirty_ahead[l] = dirty_ahead[l + 1] || !dirty.per_layer[l].is_empty();
        }
        // cur[s]: the faulted input plane to the current stage where it
        // differs from the cached trace; None = quiescent (on-trace).
        let mut cur: Vec<Option<BitPlane>> = vec![None; n];
        let mut n_dirty = 0usize;
        for (l, layer) in layers.iter().enumerate() {
            if n_dirty == 0 && !dirty_ahead[l] {
                break;
            }
            let chans = &dirty.per_layer[l];
            if n_dirty == 0 && chans.is_empty() {
                continue;
            }
            let shape = cache.shapes[l];
            // This stage's perturbed outputs; `cur` keeps marking which
            // *inputs* were perturbed until both passes ran.
            let mut next: Vec<Option<BitPlane>> = vec![None; n];
            // On-trace inputs: re-vote only the dirty channels against
            // the cached activations and splice any flipped bits into a
            // copy of the cached output. Channel-major so each channel's
            // evaluator (weight row, SWAR biases, thresholds) is hoisted
            // once per channel, not rebuilt per sample (or per pixel).
            if !chans.is_empty() {
                match layer {
                    PackedLayer::Linear(lin) => {
                        for &ch in chans.iter() {
                            let eval = lin.matrix().channel_eval(ch);
                            for s in 0..n {
                                if cur[s].is_some() {
                                    continue;
                                }
                                let bit = eval.bit(cache.acts[l][s].words());
                                let clean = &cache.acts[l + 1][s];
                                if bit != clean.get(ch) {
                                    next[s].get_or_insert_with(|| clean.clone()).set(ch, bit);
                                }
                            }
                        }
                    }
                    PackedLayer::Conv(conv) => {
                        let fields = cache.fields[l]
                            .as_ref()
                            .expect("conv stage caches its im2col fields");
                        for &ch in chans.iter() {
                            let eval = conv.matrix().channel_eval(ch);
                            for s in 0..n {
                                if cur[s].is_some() {
                                    continue;
                                }
                                let field = &fields[s];
                                let px_count = field.rows();
                                let clean = &cache.acts[l + 1][s];
                                for px in 0..px_count {
                                    let bit = eval.bit(field.row_words(px));
                                    let idx = ch * px_count + px;
                                    if bit != clean.get(idx) {
                                        next[s].get_or_insert_with(|| clean.clone()).set(idx, bit);
                                    }
                                }
                            }
                        }
                    }
                    PackedLayer::Pool(_) | PackedLayer::Flatten => {
                        unreachable!("weight-free stages have no dirty channels")
                    }
                }
            }
            // Perturbed inputs: full stage forward on the faulted model
            // (captures this stage's own fault sites too), dropping back
            // to the cached trace on re-convergence.
            for s in 0..n {
                if let Some(plane) = cur[s].take() {
                    let (out, _) = layer.forward(plane, shape);
                    if out != cache.acts[l + 1][s] {
                        next[s] = Some(out);
                    }
                }
            }
            n_dirty = next.iter().filter(|p| p.is_some()).count();
            cur = next;
        }
        cur.iter()
            .enumerate()
            .filter_map(|(s, plane)| {
                plane.as_ref().map(|p| {
                    let scores = self.classifier().scores_plane(p);
                    (s, (argmax(&scores), scores))
                })
            })
            .collect()
    }

    /// Full-vector twin of [`Self::delta_changed`]: the faulted
    /// classifications for every cached sample, bit-identical to
    /// [`Self::classify_planes`] on the faulted model over the cached
    /// batch — quiescent samples return their golden entry by reference
    /// to the cache.
    pub fn delta_classify_planes(
        &self,
        cache: &ActivationCache,
        dirty: &DirtyChannels,
    ) -> Vec<(usize, Vec<f32>)> {
        let mut out = cache.golden.clone();
        for (s, result) in self.delta_changed(cache, dirty) {
            out[s] = result;
        }
        out
    }

    /// Top-1 accuracy of the faulted model over the cached batch —
    /// bit-identical to [`Self::accuracy_planes`] on the same planes, but
    /// only the fault cone is re-evaluated.
    ///
    /// # Panics
    /// Panics if the cache is empty or `labels` does not match it.
    pub fn delta_accuracy_planes(
        &self,
        cache: &ActivationCache,
        dirty: &DirtyChannels,
        labels: &[usize],
    ) -> f64 {
        assert_eq!(cache.len(), labels.len(), "plane/label count mismatch");
        assert!(!cache.is_empty(), "accuracy over zero samples");
        let mut correct = cache
            .golden
            .iter()
            .zip(labels)
            .filter(|((p, _), &l)| *p == l)
            .count() as i64;
        for (s, (pred, _)) in self.delta_changed(cache, dirty) {
            correct += (pred == labels[s]) as i64 - (cache.golden[s].0 == labels[s]) as i64;
        }
        correct as f64 / cache.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HardwareConfig;
    use crate::deploy::{deploy, BitMap};
    use crate::spec::NetSpec;
    use aqfp_crossbar::faults::{enumerate_fault_universe, FaultModel, PatchJournal};
    use aqfp_device::{DeviceRng, SeedableRng};

    fn packed(spec: &NetSpec, hw: &HardwareConfig, seed: u64) -> PackedModel {
        let model = spec.build_software(hw, seed);
        deploy(spec, &model, hw).expect("deploys").to_packed()
    }

    fn sample_planes(model: &PackedModel, n: usize, salt: usize) -> Vec<BitPlane> {
        let [c, h, w] = model.input_shape();
        (0..n)
            .map(|s| {
                let bits: Vec<aqfp_device::Bit> = (0..c * h * w)
                    .map(|i| aqfp_device::Bit::from_bool((i * 7 + s * 13 + salt) % 5 < 2))
                    .collect();
                BitMap::from_bits(c, h, w, bits).to_plane()
            })
            .collect()
    }

    fn mlp_under_test() -> PackedModel {
        let hw = HardwareConfig {
            crossbar_rows: 8,
            crossbar_cols: 4,
            ..Default::default()
        };
        packed(&NetSpec::mlp(&[1, 6, 6], &[12], 5), &hw, 11)
    }

    fn conv_under_test() -> PackedModel {
        let hw = HardwareConfig {
            crossbar_rows: 16,
            crossbar_cols: 8,
            ..Default::default()
        };
        packed(&NetSpec::vgg_small([1, 8, 8], 4, 6), &hw, 5)
    }

    #[test]
    fn cache_golden_matches_classify_planes() {
        for model in [mlp_under_test(), conv_under_test()] {
            let planes = sample_planes(&model, 9, 3);
            let cache = ActivationCache::new(&model, &planes);
            assert_eq!(cache.len(), planes.len());
            assert_eq!(cache.golden(), model.classify_planes(&planes).as_slice());
        }
    }

    #[test]
    fn delta_matches_full_forward_over_the_fault_universe() {
        for model in [mlp_under_test(), conv_under_test()] {
            let planes = sample_planes(&model, 6, 1);
            let cache = ActivationCache::new(&model, &planes);
            let mut journal = PatchJournal::new();
            for (layer, stage) in model.layers().iter().enumerate() {
                let Some(m) = stage.matrix() else { continue };
                let dims = m.tile_dims();
                for fault in enumerate_fault_universe(&dims) {
                    let mut faulted = model.clone();
                    faulted.apply_layer_faults_journaled(
                        layer,
                        &fault.to_draws(dims.len()),
                        &mut journal,
                    );
                    let dirty = DirtyChannels::from_site(&model, layer, &fault);
                    assert_eq!(
                        faulted.delta_classify_planes(&cache, &dirty),
                        faulted.classify_planes(&planes),
                        "stage {layer} fault {fault:?}"
                    );
                    faulted.revert_faults(&mut journal);
                    assert_eq!(faulted, model, "revert must restore the die");
                }
            }
        }
    }

    #[test]
    fn delta_accuracy_matches_full_accuracy_under_random_draws() {
        let model = mlp_under_test();
        let planes = sample_planes(&model, 16, 2);
        let labels: Vec<usize> = (0..planes.len()).map(|s| s % 5).collect();
        let cache = ActivationCache::new(&model, &planes);
        let fm = FaultModel::new(0.02, 0.01).expect("valid rates");
        let mut rng = DeviceRng::seed_from_u64(99);
        let mut journal = PatchJournal::new();
        for trial in 0..20 {
            let draws = model.draw_faults(&fm, &mut rng);
            let dirty = DirtyChannels::from_draws(&model, &draws);
            let mut faulted = model.clone();
            faulted.apply_draws_journaled(&draws, &mut journal);
            assert_eq!(
                faulted.delta_accuracy_planes(&cache, &dirty, &labels),
                faulted.accuracy_planes(&planes, &labels),
                "trial {trial}"
            );
            faulted.revert_faults(&mut journal);
        }
    }

    #[test]
    fn empty_dirty_set_returns_no_changes() {
        let model = mlp_under_test();
        let planes = sample_planes(&model, 4, 5);
        let cache = ActivationCache::new(&model, &planes);
        let dirty = DirtyChannels::from_draws(
            &model,
            &model
                .layers()
                .iter()
                .map(|_| Vec::new())
                .collect::<Vec<_>>(),
        );
        assert!(dirty.is_empty());
        assert_eq!(dirty.total(), 0);
        assert!(model.delta_changed(&cache, &dirty).is_empty());
        assert_eq!(
            model.delta_classify_planes(&cache, &dirty),
            cache.golden().to_vec()
        );
    }

    #[test]
    fn delta_eval_leaves_cache_and_model_intact_after_revert() {
        let model = conv_under_test();
        let planes = sample_planes(&model, 5, 7);
        let cache = ActivationCache::new(&model, &planes);
        let snapshot = cache.clone();
        let mut die = model.clone();
        let mut journal = PatchJournal::new();
        let stage = model
            .layers()
            .iter()
            .position(|l| l.matrix().is_some())
            .expect("a weighted stage exists");
        let dims = model.layers()[stage].matrix().unwrap().tile_dims();
        let fault = enumerate_fault_universe(&dims)
            .into_iter()
            .next()
            .expect("non-empty universe");
        die.apply_layer_faults_journaled(stage, &fault.to_draws(dims.len()), &mut journal);
        let dirty = DirtyChannels::from_site(&model, stage, &fault);
        let _ = die.delta_changed(&cache, &dirty);
        die.revert_faults(&mut journal);
        assert_eq!(die, model, "patch → delta eval → revert is bit-for-bit");
        assert_eq!(cache, snapshot, "fault evaluation never mutates the cache");
    }
}
