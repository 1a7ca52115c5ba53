//! ATPG die screening: minimal probe-vector generation over the
//! structural fault universe.
//!
//! The robustness engine ([`crate::robustness`]) measures how much
//! accuracy a die *loses* under random defects. A production fab line
//! asks the inverse question: **which handful of inputs distinguishes a
//! defective die from a golden one?** This module answers it the way
//! logic-level ATPG tools do — enumerate the fault classes, measure which
//! candidate test vectors detect which faults, and greedily cover:
//!
//! 1. [`fault_universe`] enumerates the *targeted* structural fault
//!    classes of a lowered [`PackedModel`]: for every physical die
//!    (see `PackedTiledMatrix::tile_dims`), each LiM cell stuck at the
//!    **opposite** of its stored weight (the same-polarity stuck-at is
//!    behaviorally benign — the cell already reads that value), plus
//!    both polarities of every dead column.
//! 2. [`generate_probes`] plays each fault class against a candidate
//!    pool (eval-set planes plus [`synthesize_probes`] patterns) using
//!    the clone-free journal path — patch the fault in
//!    (`PackedModel::apply_layer_faults_journaled`), evaluate the whole
//!    pool in the digital limit, revert — building a fault × vector
//!    detection matrix, then runs a greedy set cover that picks the
//!    smallest vector set reaching the coverage target. By default the
//!    evaluation rides the event-driven fault-cone engine
//!    ([`crate::deploy::delta`]): the clean pool is traced into one
//!    shared [`ActivationCache`], and each fault class re-votes only its
//!    dirtied channels, propagating forward only while the perturbation
//!    stays live — bit-identical to the full forward
//!    ([`ScreenEngine::Full`] keeps it as the differential oracle) but
//!    orders of magnitude cheaper per class.
//! 3. The chosen vectors and their golden `(label, scores)` outputs are
//!    sealed into a [`ProbeSet`] — a versioned binary artifact
//!    (magic `SBNNPROB`, same wire discipline as
//!    [`deploy::snapshot`](crate::deploy::snapshot)) that
//!    [`ProbeSet::screen`] replays against any die snapshot in
//!    milliseconds: any output mismatch flags the die as defective.
//!
//! Detection compares **labels and score bit patterns**: the classifier
//! head is a deterministic popcount, so any activation flip that reaches
//! it perturbs the scores even when the argmax survives — a far more
//! sensitive screen than label agreement alone.

use crate::deploy::snapshot::{
    r_f32, r_len, r_u32, r_u64s, r_vec, shape_volume, w_f32, w_u32, w_u64,
};
use crate::deploy::{ActivationCache, DirtyChannels, PackedLayer, PackedModel, SnapshotError};
use aqfp_crossbar::faults::{
    fault_universe_size, FaultKind, InjectedFaults, PatchJournal, StructuralFault,
};
use aqfp_device::Bit;
use aqfp_sc::{random_probe_plane, striped_probe_plane, BitPlane};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// The 8-byte magic prefix of every probe-set file.
pub const PROBESET_MAGIC: [u8; 8] = *b"SBNNPROB";

/// The probe-set wire-format version this build writes and reads.
pub const PROBESET_VERSION: u32 = 1;

/// Why a screening run could not produce a meaningful report. Every
/// variant names a degenerate input that would otherwise surface as a
/// NaN or vacuous coverage number; [`generate_probes`] refuses instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScreeningError {
    /// The candidate pool is empty — no vector can detect anything.
    NoCandidates,
    /// The coverage target lies outside `[0, 1]`.
    InvalidCoverageTarget(f64),
    /// The probe-vector budget is zero.
    ZeroVectorBudget,
    /// The (possibly subsampled) fault universe is empty: the model has
    /// no weighted stages, or [`ScreeningConfig::fault_classes`] capped
    /// the targeted set to nothing. Coverage over zero classes is
    /// undefined, not 100%.
    EmptyFaultUniverse,
    /// Every targeted fault class is logically masked: no candidate
    /// vector perturbs any output. Test coverage (covered / detectable)
    /// would be 0/0; the pool needs different vectors, not a report.
    MaskedFaultUniverse,
}

impl std::fmt::Display for ScreeningError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoCandidates => write!(f, "screening needs candidate vectors"),
            Self::InvalidCoverageTarget(t) => {
                write!(f, "coverage target {t} outside [0, 1]")
            }
            Self::ZeroVectorBudget => write!(f, "probe budget must be positive"),
            Self::EmptyFaultUniverse => {
                write!(f, "fault universe is empty: nothing to cover")
            }
            Self::MaskedFaultUniverse => {
                write!(
                    f,
                    "every targeted fault class is masked: no candidate vector detects any"
                )
            }
        }
    }
}

impl std::error::Error for ScreeningError {}

/// Which forward engine evaluates the fault × vector detection matrix.
/// Both are bit-identical by construction (and pinned so by property
/// tests); the delta engine is the production default, the full engine
/// the differential oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ScreenEngine {
    /// Full `classify_planes` forward per fault class.
    Full,
    /// Event-driven fault-cone evaluation over a shared
    /// [`ActivationCache`] (see [`crate::deploy::delta`]).
    #[default]
    Delta,
}

/// One targeted structural fault class of a lowered model: a named
/// defect ([`StructuralFault`], die-local coordinates) on one weighted
/// pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// Pipeline stage index of the afflicted matrix.
    pub layer: usize,
    /// The defect, localized to a die of that stage.
    pub fault: StructuralFault,
}

/// Configuration of a screening run. Builder-style, like
/// [`SweepConfig`](crate::robustness::SweepConfig).
#[derive(Debug, Clone, Copy)]
pub struct ScreeningConfig {
    /// Cap on the number of fault classes targeted (seeded uniform
    /// subsample of the universe); `None` targets every class.
    pub fault_classes: Option<usize>,
    /// Hard cap on the probe-vector count (the fab-line budget).
    pub max_vectors: usize,
    /// Stop once this fraction of targeted classes is covered.
    pub target_coverage: f64,
    /// Seed of the class subsample.
    pub seed: u64,
    /// Worker threads for the fault × vector detection matrix.
    pub workers: usize,
    /// Forward engine for the detection matrix (default: delta).
    pub engine: ScreenEngine,
}

impl Default for ScreeningConfig {
    fn default() -> Self {
        Self {
            fault_classes: None,
            max_vectors: 64,
            target_coverage: 1.0,
            seed: 0x5C12EE,
            workers: 1,
            engine: ScreenEngine::default(),
        }
    }
}

impl ScreeningConfig {
    /// Caps the targeted fault classes.
    pub fn with_fault_classes(mut self, classes: usize) -> Self {
        self.fault_classes = Some(classes);
        self
    }

    /// Sets the probe-vector budget.
    pub fn with_max_vectors(mut self, max: usize) -> Self {
        self.max_vectors = max;
        self
    }

    /// Sets the coverage target in `[0, 1]`.
    pub fn with_target_coverage(mut self, target: f64) -> Self {
        self.target_coverage = target;
        self
    }

    /// Sets the subsample seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Selects the detection-matrix forward engine.
    pub fn with_engine(mut self, engine: ScreenEngine) -> Self {
        self.engine = engine;
        self
    }
}

/// The result of a screening run: coverage accounting, the chosen
/// vectors, the undetected-fault census, and the sealed [`ProbeSet`].
///
/// `PartialEq` compares every field including the sealed probes — it is
/// what the delta-vs-full differential gates (`--verify` in the screen
/// example, the engine-equivalence tests) assert with.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreeningReport {
    /// Size of the **full** enumerable universe (both stuck-at
    /// polarities of every cell, both dead-column polarities), across
    /// all weighted stages.
    pub universe: usize,
    /// Fault classes actually targeted: the behaviorally relevant subset
    /// (opposite-polarity stuck cells + dead columns), after any
    /// [`ScreeningConfig::fault_classes`] subsample.
    pub targeted: usize,
    /// Targeted classes detected by at least one candidate vector — the
    /// ceiling any vector selection can reach with this pool.
    pub detectable: usize,
    /// Targeted classes covered by the chosen vectors.
    pub covered: usize,
    /// `covered / targeted` — the fault coverage of the probe set.
    pub coverage: f64,
    /// Indices into the candidate pool, in greedy selection order.
    pub chosen: Vec<usize>,
    /// Targeted classes the chosen vectors detect.
    pub detected: Vec<FaultSite>,
    /// Census of targeted classes the chosen vectors do **not** detect.
    pub undetected: Vec<FaultSite>,
    /// The sealed probe set (chosen vectors + golden outputs).
    pub probes: ProbeSet,
}

impl ScreeningReport {
    /// `covered / detectable` — the **test coverage** in ATPG terms:
    /// coverage over the classes the candidate pool can distinguish at
    /// all. Targeted classes no vector detects are logically masked in
    /// the digital limit (a stuck cell propagates only when its tile
    /// comparator *and* the majority vote both sit at margin); they are
    /// censused in [`Self::undetected`] rather than silently hidden, but
    /// they bound what any vector selection can reach, so the screening
    /// quality gate reads this ratio.
    pub fn test_coverage(&self) -> f64 {
        if self.detectable == 0 {
            1.0
        } else {
            self.covered as f64 / self.detectable as f64
        }
    }
}

/// Enumerates the targeted structural fault classes of a lowered model:
/// per weighted stage and die, every LiM cell stuck at the opposite of
/// its stored weight, plus both polarities of every dead column.
/// Same-polarity stuck cells are omitted — a cell stuck at the value it
/// already stores is undetectable by construction (the die computes the
/// same function), and keeping them would only dilute the coverage
/// metric with vacuous classes.
pub fn fault_universe(model: &PackedModel) -> Vec<FaultSite> {
    let mut sites = Vec::new();
    for (li, layer) in model.layers().iter().enumerate() {
        let Some(m) = layer.matrix() else {
            continue;
        };
        let dims = m.tile_dims();
        let k = m.row_tiles();
        let row_starts = m.row_tile_starts();
        let col_starts = m.col_group_starts();
        for (die, &(rows, cols)) in dims.iter().enumerate() {
            let (g, r) = (die / k, die % k);
            let (row0, col0) = (row_starts[r], col_starts[g]);
            for row in 0..rows {
                for col in 0..cols {
                    let stored = m.weight_bit(col0 + col, row0 + row);
                    sites.push(FaultSite {
                        layer: li,
                        fault: StructuralFault {
                            die,
                            kind: FaultKind::StuckCell {
                                row,
                                col,
                                value: Bit::from_bool(!stored),
                            },
                        },
                    });
                }
            }
            for col in 0..cols {
                for value in [Bit::Zero, Bit::One] {
                    sites.push(FaultSite {
                        layer: li,
                        fault: StructuralFault {
                            die,
                            kind: FaultKind::DeadColumn { col, value },
                        },
                    });
                }
            }
        }
    }
    sites
}

/// The full two-polarity enumerable universe size of a model (the
/// denominator context [`ScreeningReport::universe`] reports).
pub fn model_universe_size(model: &PackedModel) -> usize {
    model
        .layers()
        .iter()
        .filter_map(PackedLayer::matrix)
        .map(|m| fault_universe_size(&m.tile_dims()))
        .sum()
}

/// Synthesizes `n` probe-candidate planes of `len` bits: density-swept
/// random planes interleaved with striped patterns (period swept across
/// powers of two, phases rotated). Natural eval inputs cluster in a
/// narrow activation-statistics band; these synthetic planes push tile
/// partial sums toward their extremes, exciting comparators the eval set
/// never stresses.
pub fn synthesize_probes(len: usize, n: usize, seed: u64) -> Vec<BitPlane> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut probes = Vec::with_capacity(n);
    let densities = [0.05, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 0.95];
    for i in 0..n {
        if i % 3 == 2 {
            // Striped: period cycles through powers of two up to len.
            let max_pow = usize::BITS - len.max(2).leading_zeros();
            let period = 1usize << (1 + (i / 3) as u32 % max_pow.max(1));
            let phase = rng.gen_range(0..period.min(len.max(1)));
            probes.push(striped_probe_plane(len, period, phase));
        } else {
            let p = densities[(i * 7 + i / 3) % densities.len()];
            probes.push(random_probe_plane(len, p, &mut rng));
        }
    }
    probes
}

/// Runs the ATPG loop: builds the fault × vector detection matrix over
/// `candidates` with the clone-free journal path, then greedily covers.
/// Detection is in the **digital limit** (the deterministic engine the
/// fab tester replays), comparing labels and score bit patterns against
/// the golden die. The matrix is evaluated by the engine
/// [`ScreeningConfig::engine`] selects — fault-cone delta by default,
/// full forward as the oracle — with bit-identical results either way.
///
/// Worker fan-out follows the robustness sweeps: each worker owns one
/// model clone and one [`PatchJournal`], patching and reverting in
/// place per fault class; the delta engine additionally shares one
/// immutable [`ActivationCache`] across all workers.
///
/// # Errors
/// Returns a [`ScreeningError`] on degenerate inputs — an empty
/// candidate pool, a coverage target outside `[0, 1]`, a zero vector
/// budget, an empty (possibly subsampled-to-nothing) fault universe, or
/// a universe the pool cannot detect any class of. Every one of these
/// used to surface as a vacuous or undefined coverage ratio.
pub fn generate_probes(
    model: &PackedModel,
    candidates: &[BitPlane],
    cfg: &ScreeningConfig,
) -> Result<ScreeningReport, ScreeningError> {
    if candidates.is_empty() {
        return Err(ScreeningError::NoCandidates);
    }
    if !(0.0..=1.0).contains(&cfg.target_coverage) {
        return Err(ScreeningError::InvalidCoverageTarget(cfg.target_coverage));
    }
    if cfg.max_vectors == 0 {
        return Err(ScreeningError::ZeroVectorBudget);
    }
    let universe = model_universe_size(model);
    let mut sites = fault_universe(model);
    if let Some(cap) = cfg.fault_classes {
        subsample(&mut sites, cap, cfg.seed);
    }
    if sites.is_empty() {
        return Err(ScreeningError::EmptyFaultUniverse);
    }
    let cache = match cfg.engine {
        ScreenEngine::Delta => Some(ActivationCache::new(model, candidates)),
        ScreenEngine::Full => None,
    };
    let golden = match &cache {
        Some(c) => c.golden().to_vec(),
        None => model.classify_planes(candidates),
    };
    let detect = detection_matrix(
        model,
        &sites,
        candidates,
        &golden,
        cache.as_ref(),
        cfg.workers,
    );
    let detectable = detect.iter().filter(|m| m.iter().any(|&w| w != 0)).count();
    if detectable == 0 {
        return Err(ScreeningError::MaskedFaultUniverse);
    }

    // Greedy set cover over the targeted classes, run on the transposed
    // per-candidate site masks: each gain is then a masked popcount over
    // the uncovered set instead of a walk over every class, which keeps
    // the cover negligible next to the detection matrix even at large
    // class counts. Selection order is unchanged (strict improvement,
    // lowest candidate index wins ties), so reports are bit-identical to
    // the per-class formulation.
    let words = candidates.len().div_ceil(64);
    let site_words = sites.len().div_ceil(64);
    let mut cand_sites: Vec<Vec<u64>> = vec![vec![0u64; site_words]; candidates.len()];
    for (s, mask) in detect.iter().enumerate() {
        for (w, &word) in mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let c = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                cand_sites[c][s / 64] |= 1 << (s % 64);
            }
        }
    }
    let mut uncovered = vec![u64::MAX; site_words];
    if !sites.len().is_multiple_of(64) {
        uncovered[site_words - 1] = (1u64 << (sites.len() % 64)) - 1;
    }
    let mut covered_count = 0usize;
    let mut chosen: Vec<usize> = Vec::new();
    let mut in_set = vec![false; candidates.len()];
    let target = (cfg.target_coverage * sites.len() as f64).ceil() as usize;
    while chosen.len() < cfg.max_vectors && covered_count < target {
        let mut best = (usize::MAX, 0usize);
        for (c, &taken) in in_set.iter().enumerate() {
            if taken {
                continue;
            }
            let gain: usize = cand_sites[c]
                .iter()
                .zip(&uncovered)
                .map(|(cand, open)| (cand & open).count_ones() as usize)
                .sum();
            if gain > best.1 {
                best = (c, gain);
            }
        }
        if best.1 == 0 {
            break;
        }
        in_set[best.0] = true;
        chosen.push(best.0);
        covered_count += best.1;
        for (open, &cand) in uncovered.iter_mut().zip(&cand_sites[best.0]) {
            *open &= !cand;
        }
    }
    let covered: Vec<bool> = (0..sites.len())
        .map(|s| uncovered[s / 64] >> (s % 64) & 1 == 0)
        .collect();
    debug_assert_eq!(words, detect.first().map_or(words, Vec::len));

    let (detected, undetected): (Vec<FaultSite>, Vec<FaultSite>) = {
        let (yes, no): (Vec<_>, Vec<_>) = sites.iter().zip(&covered).partition(|&(_, &done)| done);
        (
            yes.into_iter().map(|(s, _)| *s).collect(),
            no.into_iter().map(|(s, _)| *s).collect(),
        )
    };
    let coverage = covered_count as f64 / sites.len() as f64;
    let probes = ProbeSet::new(
        model.input_shape(),
        chosen.iter().map(|&c| candidates[c].clone()).collect(),
        chosen.iter().map(|&c| golden[c].clone()).collect(),
    );
    Ok(ScreeningReport {
        universe,
        targeted: sites.len(),
        detectable,
        covered: covered_count,
        coverage,
        chosen,
        detected,
        undetected,
        probes,
    })
}

/// Seeded partial Fisher–Yates subsample: keeps the first `cap` entries
/// of a uniform shuffle.
fn subsample(sites: &mut Vec<FaultSite>, cap: usize, seed: u64) {
    if cap >= sites.len() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..cap {
        let j = rng.gen_range(i..sites.len());
        sites.swap(i, j);
    }
    sites.truncate(cap);
}

/// Whether `(label, scores)` differ bit-exactly.
fn outputs_differ(a: &(usize, Vec<f32>), b: &(usize, Vec<f32>)) -> bool {
    a.0 != b.0
        || a.1.len() != b.1.len()
        || a.1
            .iter()
            .zip(&b.1)
            .any(|(x, y)| x.to_bits() != y.to_bits())
}

/// Builds the fault × vector detection matrix: one candidate bitmask per
/// fault site, fanned across `workers` threads (one clone + journal
/// each). With a `cache`, each site is evaluated by the fault-cone delta
/// engine — only samples whose final plane actually changed are diffed
/// against the golden outputs (an unchanged plane cannot detect, and a
/// changed one still might not: the popcount scores can coincide).
/// Without one, each site pays a full `classify_planes` pass.
fn detection_matrix(
    model: &PackedModel,
    sites: &[FaultSite],
    candidates: &[BitPlane],
    golden: &[(usize, Vec<f32>)],
    cache: Option<&ActivationCache>,
    workers: usize,
) -> Vec<Vec<u64>> {
    let words = candidates.len().div_ceil(64);
    let mut detect: Vec<Vec<u64>> = vec![Vec::new(); sites.len()];
    if sites.is_empty() {
        return detect;
    }
    // Dies per stage, for rendering a site's per-die draw vector.
    let layer_dies: Vec<usize> = model
        .layers()
        .iter()
        .map(|l| l.matrix().map_or(0, |m| m.tile_dims().len()))
        .collect();
    let workers = workers.max(1).min(sites.len());
    let chunk = sites.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (ci, slots) in detect.chunks_mut(chunk).enumerate() {
            let layer_dies = &layer_dies;
            scope.spawn(move || {
                let mut m = model.clone();
                let mut journal = PatchJournal::new();
                for (j, slot) in slots.iter_mut().enumerate() {
                    let site = &sites[ci * chunk + j];
                    let draws: Vec<InjectedFaults> = site.fault.to_draws(layer_dies[site.layer]);
                    let mut mask = vec![0u64; words];
                    m.apply_layer_faults_journaled(site.layer, &draws, &mut journal);
                    match cache {
                        Some(cache) => {
                            let dirty = DirtyChannels::from_layer_draws(model, site.layer, &draws);
                            for (i, p) in m.delta_changed(cache, &dirty) {
                                if outputs_differ(&p, &golden[i]) {
                                    mask[i / 64] |= 1 << (i % 64);
                                }
                            }
                        }
                        None => {
                            for (i, (p, g)) in
                                m.classify_planes(candidates).iter().zip(golden).enumerate()
                            {
                                if outputs_differ(p, g) {
                                    mask[i / 64] |= 1 << (i % 64);
                                }
                            }
                        }
                    }
                    m.revert_faults(&mut journal);
                    *slot = mask;
                }
            });
        }
    });
    detect
}

/// The outcome of replaying a [`ProbeSet`] against a die.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScreenOutcome {
    /// Per-probe mismatch flags (`true` = this probe's output diverged
    /// from the golden die).
    pub mismatches: Vec<bool>,
}

impl ScreenOutcome {
    /// Whether the die matched the golden outputs on every probe.
    pub fn clean(&self) -> bool {
        !self.mismatches.iter().any(|&m| m)
    }

    /// How many probes flagged a divergence.
    pub fn detections(&self) -> usize {
        self.mismatches.iter().filter(|&&m| m).count()
    }
}

/// A sealed, replayable screening artifact: the chosen probe planes and
/// the golden die's `(label, scores)` for each. Serialized with the same
/// hand-rolled little-endian discipline as the model snapshots (magic
/// [`PROBESET_MAGIC`]), so a fab tester ships one file per model and
/// screens dies without the training stack.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSet {
    input_shape: [usize; 3],
    planes: Vec<BitPlane>,
    golden: Vec<(usize, Vec<f32>)>,
}

impl ProbeSet {
    /// Seals a probe set.
    ///
    /// # Panics
    /// Panics if plane and golden counts differ, a plane's length does
    /// not match the input shape, or score vectors have inconsistent
    /// lengths.
    pub fn new(
        input_shape: [usize; 3],
        planes: Vec<BitPlane>,
        golden: Vec<(usize, Vec<f32>)>,
    ) -> Self {
        assert_eq!(planes.len(), golden.len(), "plane/golden count mismatch");
        let len: usize = input_shape.iter().product();
        for p in &planes {
            assert_eq!(p.len(), len, "probe plane length mismatch");
        }
        if let Some(classes) = golden.first().map(|(_, s)| s.len()) {
            for (label, scores) in &golden {
                assert_eq!(scores.len(), classes, "score length mismatch");
                assert!(*label < classes, "golden label out of range");
            }
        }
        Self {
            input_shape,
            planes,
            golden,
        }
    }

    /// Probe count.
    pub fn len(&self) -> usize {
        self.planes.len()
    }

    /// Whether the set holds no probes.
    pub fn is_empty(&self) -> bool {
        self.planes.is_empty()
    }

    /// The model input shape the probes were generated for.
    pub fn input_shape(&self) -> [usize; 3] {
        self.input_shape
    }

    /// The probe planes.
    pub fn planes(&self) -> &[BitPlane] {
        &self.planes
    }

    /// The golden `(label, scores)` per probe.
    pub fn golden(&self) -> &[(usize, Vec<f32>)] {
        &self.golden
    }

    /// Replays the probes against a die (digital limit) and compares
    /// labels + score bits against the golden outputs. A faulty die
    /// shows up as one or more mismatches; a golden-equivalent die comes
    /// back [`ScreenOutcome::clean`].
    ///
    /// # Panics
    /// Panics if the model's input shape differs from the probe set's.
    pub fn screen(&self, model: &PackedModel) -> ScreenOutcome {
        assert_eq!(
            model.input_shape(),
            self.input_shape,
            "probe set / model shape mismatch"
        );
        let preds = model.classify_planes(&self.planes);
        ScreenOutcome {
            mismatches: preds
                .iter()
                .zip(&self.golden)
                .map(|(p, g)| outputs_differ(p, g))
                .collect(),
        }
    }

    /// Writes the probe set to a stream (see the module docs for the
    /// wire format).
    ///
    /// # Errors
    /// [`SnapshotError::Io`] on write failure.
    pub fn write<W: Write>(&self, w: &mut W) -> Result<(), SnapshotError> {
        w.write_all(&PROBESET_MAGIC).map_err(SnapshotError::Io)?;
        w_u32(w, PROBESET_VERSION)?;
        for d in self.input_shape {
            w_u64(w, d as u64)?;
        }
        w_u64(w, self.planes.len() as u64)?;
        let classes = self.golden.first().map_or(0, |(_, s)| s.len());
        w_u64(w, classes as u64)?;
        for plane in &self.planes {
            for &word in plane.words() {
                w_u64(w, word)?;
            }
        }
        for (label, scores) in &self.golden {
            w_u64(w, *label as u64)?;
            for &s in scores {
                w_f32(w, s)?;
            }
        }
        Ok(())
    }

    /// Reads and validates a probe set from a stream.
    ///
    /// # Errors
    /// [`SnapshotError`] on I/O failure, bad magic/version, or any
    /// structural-invariant violation (lengths, zero-tail, label range).
    pub fn read<R: Read>(r: &mut R) -> Result<Self, SnapshotError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic).map_err(SnapshotError::Io)?;
        if magic != PROBESET_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r_u32(r)?;
        if version != PROBESET_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let mut input_shape = [0usize; 3];
        for d in &mut input_shape {
            *d = r_len(r)?;
        }
        let len =
            shape_volume(input_shape).ok_or(SnapshotError::Corrupt("input shape out of range"))?;
        let n = r_len(r)?;
        let classes = r_len(r)?;
        let words = len.div_ceil(64);
        // Every vector below grows with the data actually read, never
        // reserved from a declared count.
        let mut planes = Vec::new();
        for _ in 0..n {
            let buf = r_u64s(r, words)?;
            let rem = len % 64;
            if rem > 0 && buf[words - 1] >> rem != 0 {
                return Err(SnapshotError::Corrupt("probe plane tail bits set"));
            }
            planes.push(BitPlane::from_words(buf, len));
        }
        let mut golden = Vec::new();
        for _ in 0..n {
            let label = r_len(r)?;
            if label >= classes.max(1) {
                return Err(SnapshotError::Corrupt("golden label out of range"));
            }
            let scores = r_vec(r, classes, r_f32)?;
            golden.push((label, scores));
        }
        Ok(Self {
            input_shape,
            planes,
            golden,
        })
    }

    /// Writes the probe set to a file (buffered).
    ///
    /// # Errors
    /// See [`Self::write`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let mut w = BufWriter::new(File::create(path).map_err(SnapshotError::Io)?);
        self.write(&mut w)?;
        w.flush().map_err(SnapshotError::Io)
    }

    /// Reads a probe set from a file (buffered).
    ///
    /// # Errors
    /// See [`Self::read`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::read(&mut BufReader::new(
            File::open(path).map_err(SnapshotError::Io)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HardwareConfig;
    use crate::deploy::deploy;
    use crate::spec::NetSpec;
    use crate::trainer::{TrainConfig, Trainer};
    use bnn_datasets::{digits::generate_digits, SynthConfig};

    fn tiny_model() -> (PackedModel, Vec<BitPlane>) {
        let data = generate_digits(&SynthConfig {
            samples_per_class: 4,
            ..Default::default()
        });
        let hw = HardwareConfig {
            crossbar_rows: 8,
            crossbar_cols: 8,
            ..Default::default()
        };
        let spec = NetSpec::mlp(&[1, 16, 16], &[12], 10);
        let mut net = spec.build_software(&hw, 5);
        Trainer::new(TrainConfig {
            epochs: 1,
            ..Default::default()
        })
        .train(&mut net, &data);
        let deployed = deploy(&spec, &net, &hw).unwrap();
        let packed = deployed.to_packed();
        let planes: Vec<BitPlane> = (0..16)
            .map(|n| crate::deploy::BitMap::from_tensor_sample(&data.images, n).to_plane())
            .collect();
        (packed, planes)
    }

    #[test]
    fn universe_targets_malignant_polarities_only() {
        let (packed, _) = tiny_model();
        let sites = fault_universe(&packed);
        let full = model_universe_size(&packed);
        // Stuck cells contribute half their two-polarity count; dead
        // columns contribute all of theirs — targeted < full, and every
        // stuck-at value opposes the stored weight.
        assert!(sites.len() < full);
        assert!(!sites.is_empty());
        for site in &sites {
            if let FaultKind::StuckCell { row, col, value } = site.fault.kind {
                let m = packed.layers()[site.layer].matrix().unwrap();
                let k = m.row_tiles();
                let (g, r) = (site.fault.die / k, site.fault.die % k);
                let global_row = m.row_tile_starts()[r] + row;
                let global_col = m.col_group_starts()[g] + col;
                assert_ne!(m.weight_bit(global_col, global_row), value.as_bool());
            }
        }
    }

    #[test]
    fn greedy_cover_detects_what_it_claims() {
        let (packed, planes) = tiny_model();
        let mut candidates = planes;
        candidates.extend(synthesize_probes(
            packed.input_shape().iter().product(),
            24,
            9,
        ));
        let cfg = ScreeningConfig::default()
            .with_fault_classes(40)
            .with_max_vectors(16)
            .with_workers(2);
        let report = generate_probes(&packed, &candidates, &cfg).unwrap();
        assert_eq!(report.targeted, 40);
        assert!(report.covered <= report.detectable);
        assert_eq!(report.targeted, report.covered + report.undetected.len());
        assert!(report.probes.len() <= 16);
        assert_eq!(report.probes.len(), report.chosen.len());
        // The golden die itself must screen clean.
        assert!(report.probes.screen(&packed).clean());
        // Every covered fault class must be caught by the probe set when
        // actually injected.
        assert_eq!(report.detected.len(), report.covered);
        let mut m = packed.clone();
        let mut journal = PatchJournal::new();
        let mut checked = 0;
        for site in report.detected.iter().take(10) {
            let dims = packed.layers()[site.layer].matrix().unwrap().tile_dims();
            m.apply_layer_faults_journaled(
                site.layer,
                &site.fault.to_draws(dims.len()),
                &mut journal,
            );
            let outcome = report.probes.screen(&m);
            m.revert_faults(&mut journal);
            assert!(!outcome.clean(), "covered fault {site:?} must be detected");
            checked += 1;
        }
        assert!(checked > 0, "some classes must be covered");
    }

    #[test]
    fn probe_set_roundtrips_bit_exactly() {
        let (packed, planes) = tiny_model();
        let cfg = ScreeningConfig::default()
            .with_fault_classes(12)
            .with_max_vectors(8);
        let report = generate_probes(&packed, &planes, &cfg).unwrap();
        let mut buf = Vec::new();
        report.probes.write(&mut buf).unwrap();
        let back = ProbeSet::read(&mut buf.as_slice()).unwrap();
        assert_eq!(back, report.probes);
        // Tampered magic is rejected.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            ProbeSet::read(&mut bad.as_slice()),
            Err(SnapshotError::BadMagic)
        ));
        // A truncated stream errors instead of panicking.
        let cut = &buf[..buf.len() - 3];
        assert!(ProbeSet::read(&mut &cut[..]).is_err());
    }

    #[test]
    fn delta_and_full_engines_build_identical_reports() {
        let (packed, planes) = tiny_model();
        let mut candidates = planes;
        candidates.extend(synthesize_probes(
            packed.input_shape().iter().product(),
            16,
            21,
        ));
        let cfg = ScreeningConfig::default()
            .with_fault_classes(60)
            .with_max_vectors(16)
            .with_workers(2);
        let full = generate_probes(&packed, &candidates, &cfg.with_engine(ScreenEngine::Full))
            .expect("full engine report");
        let delta = generate_probes(&packed, &candidates, &cfg.with_engine(ScreenEngine::Delta))
            .expect("delta engine report");
        assert_eq!(full.targeted, delta.targeted);
        assert_eq!(full.detectable, delta.detectable);
        assert_eq!(full.covered, delta.covered);
        assert_eq!(full.chosen, delta.chosen);
        assert_eq!(full.detected, delta.detected);
        assert_eq!(full.undetected, delta.undetected);
        assert_eq!(full.probes, delta.probes);
    }

    #[test]
    fn degenerate_screening_inputs_return_typed_errors() {
        let (packed, planes) = tiny_model();
        let cfg = ScreeningConfig::default();
        assert_eq!(
            generate_probes(&packed, &[], &cfg).unwrap_err(),
            ScreeningError::NoCandidates
        );
        assert_eq!(
            generate_probes(&packed, &planes, &cfg.with_target_coverage(1.5)).unwrap_err(),
            ScreeningError::InvalidCoverageTarget(1.5)
        );
        assert_eq!(
            generate_probes(&packed, &planes, &cfg.with_max_vectors(0)).unwrap_err(),
            ScreeningError::ZeroVectorBudget
        );
        // A subsample capped to zero classes empties the universe.
        assert_eq!(
            generate_probes(&packed, &planes, &cfg.with_fault_classes(0)).unwrap_err(),
            ScreeningError::EmptyFaultUniverse
        );
        // Every variant renders a human-readable message.
        for err in [
            ScreeningError::NoCandidates,
            ScreeningError::InvalidCoverageTarget(2.0),
            ScreeningError::ZeroVectorBudget,
            ScreeningError::EmptyFaultUniverse,
            ScreeningError::MaskedFaultUniverse,
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn fully_masked_universe_is_a_typed_error() {
        let (packed, planes) = tiny_model();
        // Find a seeded 1-class subsample landing on a class the pool
        // cannot detect; such classes exist on this operating point (the
        // example's census reports them on every run).
        let masked = (0..512).find_map(|seed| {
            let cfg = ScreeningConfig::default()
                .with_fault_classes(1)
                .with_seed(seed);
            generate_probes(&packed, &planes, &cfg).err()
        });
        assert_eq!(masked, Some(ScreeningError::MaskedFaultUniverse));
    }

    /// Header-only probe files whose declared shape is beyond the cap:
    /// `[2²⁸, 2²⁸, 128]` (a 2⁶³-bit plane) and `[2²⁸, 2²⁸, 2²⁸]` (a product
    /// that overflows) decode to a typed error, not an allocation abort or
    /// an overflow panic.
    #[test]
    fn oversized_probe_shapes_are_corrupt() {
        for shape in [[1u64 << 28, 1 << 28, 128], [1 << 28, 1 << 28, 1 << 28]] {
            let mut bytes = PROBESET_MAGIC.to_vec();
            bytes.extend_from_slice(&PROBESET_VERSION.to_le_bytes());
            for d in shape {
                bytes.extend_from_slice(&d.to_le_bytes());
            }
            bytes.extend_from_slice(&1u64.to_le_bytes()); // one probe
            bytes.extend_from_slice(&10u64.to_le_bytes()); // ten classes
            assert_eq!(bytes.len(), 52);
            assert!(
                matches!(
                    ProbeSet::read(&mut bytes.as_slice()),
                    Err(SnapshotError::Corrupt(_))
                ),
                "shape {shape:?}"
            );
        }
    }

    #[test]
    fn synthesized_probes_cover_densities_and_stripes() {
        let probes = synthesize_probes(100, 12, 3);
        assert_eq!(probes.len(), 12);
        for p in &probes {
            assert_eq!(p.len(), 100);
        }
        // Densities actually vary.
        let counts: Vec<usize> = probes.iter().map(BitPlane::count_ones).collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min > 20, "probe densities too uniform: {counts:?}");
    }
}
