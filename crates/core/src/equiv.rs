//! Bounded equivalence checking across the four inference engines.
//!
//! The workspace carries one semantic invariant above all others: the
//! **scalar digital**, **packed digital**, **wide-word SIMD** and
//! **stochastic-limit** engines (see [`Engine`]) compute the same
//! function, bit for bit. Until now that invariant lived as test-suite
//! habit — `assert_eq!` calls scattered across the differential proptests.
//! This module makes it a first-class, *bounded* equivalence checker in
//! the spirit of logic-synthesis `check-equivalence` tools:
//!
//! * [`DieChecker`] proves any two engines agree on a single tiled matrix
//!   (one deployment "die" stack) — **exhaustively** over every input bit
//!   pattern for small fan-ins ([`DieChecker::prove_exhaustive`]), by
//!   directed random sampling at scale ([`DieChecker::check_random`]),
//!   and under **every structural fault class** the ATPG subsystem
//!   enumerates ([`DieChecker::check_fault_universe`], which puts the
//!   same named defect on both engines before comparing).
//! * [`ModelChecker`] lifts the comparison to a whole deployed model,
//!   walking the pipeline cell by cell so a divergence is localized
//!   before it is reported.
//!
//! On disagreement every entry point returns a typed [`Counterexample`] —
//! the failing input plus `(layer, lane, tile)` coordinates — instead of
//! a bare assert, so a differential test failure reads like a bug report:
//! which engines, which pipeline stage, which output channel, and (when
//! the per-tile votes themselves disagree) which physical die.
//!
//! The stochastic engine is checked in its **digital limit**: tables
//! built at gray-zone width 0 ([`VariationModel`] scale 0) make every
//! Bernoulli window saturate, so every window reads a constant whatever
//! its counter stream draws, and the datapath must collapse to the
//! digital decision rule exactly.
//!
//! A fifth axis, [`Engine::PackedDelta`], covers the event-driven
//! fault-cone engine ([`crate::deploy::delta`]): fault-free it collapses
//! to the packed digital forward by definition, and
//! [`DieChecker::check_fault_universe`] proves per fault class that
//! re-voting only the dirtied channels reproduces the faulted full
//! forward bit-for-bit. It stays out of the canonical four-engine
//! lattice ([`Engine::ALL`]).

use crate::deploy::{
    argmax, BitMap, DeployedCell, DeployedModel, MatrixStochasticTables, PackedLayer, PackedModel,
    PackedTiledMatrix, TiledMatrix,
};
use aqfp_crossbar::faults::{enumerate_fault_universe, PatchJournal, StructuralFault};
use aqfp_device::VariationModel;
use aqfp_sc::bitplane::packed_im2col;
use aqfp_sc::{random_probe_plane, BitPlane, CounterStream, PackedMatrix, V256};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Fan-in bound of [`DieChecker::prove_exhaustive`]: `2^20` evaluations
/// is the largest budget the exhaustive mode accepts.
pub const MAX_EXHAUSTIVE_FAN_IN: usize = 20;

/// One of the inference engines under equivalence checking: the four
/// canonical datapaths of [`Engine::ALL`], plus the fault-cone delta
/// axis ([`Engine::PackedDelta`]) that only differentiates itself when a
/// structural fault is in play.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The per-element scalar reference (`TiledMatrix::forward_digital`).
    ScalarDigital,
    /// The bit-packed XNOR–popcount per-plane kernel
    /// (`PackedTiledMatrix::forward_plane`, `u64` words).
    PackedDigital,
    /// The lane-generic blocked GEMM kernel at [`V256`] width
    /// (`PackedTiledMatrix::forward_matrix_as`).
    PackedSimd,
    /// The packed stochastic datapath evaluated in its digital limit
    /// (gray-zone width 0: saturated flip tables, constant windows).
    StochasticLimit,
    /// The event-driven fault-cone splice (see [`crate::deploy::delta`]):
    /// a clean forward plus a per-channel re-vote of the fault's dirtied
    /// columns. On a fault-free die the cone is empty and this collapses
    /// to [`Engine::PackedDigital`] exactly; it earns its keep inside
    /// [`DieChecker::check_fault_universe`], where the splice is diffed
    /// against the faulted full forward per fault class. Not part of
    /// [`Engine::ALL`] — the exhaustive lattice stays the four canonical
    /// datapaths.
    PackedDelta,
}

impl Engine {
    /// The four canonical engines, in canonical order.
    pub const ALL: [Engine; 4] = [
        Engine::ScalarDigital,
        Engine::PackedDigital,
        Engine::PackedSimd,
        Engine::StochasticLimit,
    ];

    /// The six unordered engine pairs — the full equivalence lattice.
    pub fn pairs() -> Vec<(Engine, Engine)> {
        let mut pairs = Vec::with_capacity(6);
        for (i, &a) in Self::ALL.iter().enumerate() {
            for &b in &Self::ALL[i + 1..] {
                pairs.push((a, b));
            }
        }
        pairs
    }

    /// A short stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::ScalarDigital => "scalar-digital",
            Engine::PackedDigital => "packed-digital",
            Engine::PackedSimd => "wide-simd",
            Engine::StochasticLimit => "stochastic-limit",
            Engine::PackedDelta => "packed-delta",
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed divergence witness: the input on which two engines disagreed,
/// localized to a pipeline stage, an output lane, and — when the
/// per-tile votes of the scalar and packed states themselves disagree —
/// a physical die (row tile).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The engine pair that diverged.
    pub engines: (Engine, Engine),
    /// The failing input plane (die input for [`DieChecker`], model
    /// input for [`ModelChecker`]).
    pub input: BitPlane,
    /// Pipeline stage index of the diverging activation (always 0 for
    /// die-level checks).
    pub layer: usize,
    /// Output channel (lane) whose bit diverged.
    pub lane: usize,
    /// The row tile whose vote diverged, when the divergence localizes
    /// to one physical die; `None` when the per-tile votes agree and the
    /// divergence is in vote accumulation or a kernel.
    pub tile: Option<usize>,
    /// The first engine's output bit at `lane`.
    pub left: bool,
    /// The second engine's output bit at `lane`.
    pub right: bool,
    /// The structural fault class under which the divergence was found,
    /// for fault-universe checks.
    pub fault: Option<StructuralFault>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ≢ {}: lane {} diverged at layer {} ({} = {}, {} = {})",
            self.engines.0,
            self.engines.1,
            self.lane,
            self.layer,
            self.engines.0,
            self.left as u8,
            self.engines.1,
            self.right as u8,
        )?;
        match self.tile {
            Some(t) => write!(f, ", die vote mismatch at row tile {t}")?,
            None => write!(f, ", per-tile votes agree (accumulation/kernel)")?,
        }
        if let Some(fault) = &self.fault {
            write!(f, ", under injected fault {fault:?}")?;
        }
        write!(f, "; input[{}] = 0x", self.input.len())?;
        for w in self.input.words().iter().rev() {
            write!(f, "{w:016x}")?;
        }
        Ok(())
    }
}

/// A completed bounded-equivalence run: which engines, how many cases,
/// in which mode. Returned by every checking entry point on success so
/// callers (and CI logs) can assert the intended coverage actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquivProof {
    /// The engine pair proven equivalent over the run.
    pub engines: (Engine, Engine),
    /// Total `(input, engine-pair)` comparisons performed.
    pub cases: usize,
    /// `"exhaustive"`, `"random"` or `"fault-universe"`.
    pub mode: &'static str,
}

/// The digital-limit variation point: gray-zone width scaled to 0, no
/// attenuation or temperature drift.
fn zero_variation() -> VariationModel {
    VariationModel::new(0.0, 0.0, 0.0).expect("zero variation is valid")
}

/// Extracts column `col` of a `[rows × n]` packed output matrix as a
/// plane of `rows` bits — the de-batching step of single-input GEMM
/// evaluation.
fn matrix_column(m: &PackedMatrix, col: usize) -> BitPlane {
    let mut out = BitPlane::zeros(m.rows());
    for r in 0..m.rows() {
        if m.get(r, col) {
            out.set(r, true);
        }
    }
    out
}

/// Compares the per-row-tile votes the scalar and packed states produce
/// for `channel` on `input`; returns the first diverging tile. Both
/// sides read their own fault state (crossbar weights + dead map vs
/// packed planes + overrides), so a `Some(tile)` pinpoints the die whose
/// *state* disagrees between the engines; `None` means the states vote
/// identically and a divergence lies in accumulation or a kernel.
fn tile_divergence(
    scalar: &TiledMatrix,
    packed: &PackedTiledMatrix,
    channel: usize,
    input: &BitPlane,
) -> Option<usize> {
    let bits = input.to_bits();
    let plan = scalar.plan();
    let k = plan.row_tiles();
    // Plan tiles are column-group-major: find the group holding `channel`.
    let mut base = 0;
    loop {
        let t = &plan.tiles[base];
        if channel >= t.col_start && channel < t.col_start + t.cols {
            break;
        }
        base += k;
    }
    let c = channel - plan.tiles[base].col_start;
    let mut matches = vec![0u32; packed.out() * k];
    packed.matches_into(input.words(), &mut matches);
    for r in 0..k {
        let idx = base + r;
        let scalar_vote = if let Some(&b) = scalar.dead_outputs().get(&(idx, c)) {
            b.as_bool()
        } else {
            let t = &plan.tiles[idx];
            let slice = &bits[t.row_start..t.row_start + t.rows];
            let sum = scalar.tile_crossbars()[idx]
                .raw_sum(c, slice)
                .expect("tile geometry is consistent");
            sum as i64 >= scalar.digital_min_sums()[idx][c]
        };
        let packed_vote = match packed.dead_override(channel, r) {
            Some(b) => b.as_bool(),
            None => {
                let m = matches[channel * k + r] as i64;
                2 * m - packed.tile_rows(r) as i64 >= packed.min_sum(channel, r)
            }
        };
        if scalar_vote != packed_vote {
            return Some(r);
        }
    }
    None
}

/// A bounded equivalence checker over one tiled weight matrix — the
/// die-level harness. Owns a scalar [`TiledMatrix`] and its packed
/// lowering (plus digital-limit stochastic tables), evaluates any
/// [`Engine`] on any input, and localizes divergences.
#[derive(Debug, Clone)]
pub struct DieChecker {
    scalar: TiledMatrix,
    packed: PackedTiledMatrix,
    tables: MatrixStochasticTables,
}

impl DieChecker {
    /// Builds the harness from a scalar deployment: the packed lowering
    /// and the digital-limit stochastic tables are derived here, so all
    /// four engines evaluate the *same* die stack.
    pub fn new(scalar: &TiledMatrix) -> Self {
        let packed = PackedTiledMatrix::from_tiled(scalar);
        let tables = packed.stochastic_tables(&zero_variation());
        Self {
            scalar: scalar.clone(),
            packed,
            tables,
        }
    }

    /// The die's fan-in.
    pub fn fan_in(&self) -> usize {
        self.packed.fan_in()
    }

    /// The packed lowering under check.
    pub fn packed(&self) -> &PackedTiledMatrix {
        &self.packed
    }

    /// Evaluates one engine on one input plane against an explicit die
    /// state — the shared kernel of [`Self::check`] and the journal-path
    /// fault-universe walk (which patches one reusable packed clone
    /// instead of building a checker per fault).
    fn eval_parts(
        scalar: &TiledMatrix,
        packed: &PackedTiledMatrix,
        tables: &MatrixStochasticTables,
        engine: Engine,
        input: &BitPlane,
    ) -> BitPlane {
        match engine {
            Engine::ScalarDigital => {
                let bits = input.to_bits();
                BitPlane::from_bits(&scalar.forward_digital(&bits))
            }
            // On a die evaluated in isolation the delta engine has an
            // empty fault cone, which collapses to the full packed
            // forward by definition; its faulted splice is exercised by
            // `check_fault_universe`.
            Engine::PackedDigital | Engine::PackedDelta => packed.forward_plane(input),
            Engine::PackedSimd => {
                let batch = PackedMatrix::from_planes(std::slice::from_ref(input));
                matrix_column(&packed.forward_matrix_as::<V256>(&batch), 0)
            }
            Engine::StochasticLimit => {
                // The zero-width tables saturate every window: nothing is
                // drawn, so the fixed stream is inert.
                packed.forward_stochastic_ctr(tables, input, &CounterStream::from_seed(0))
            }
        }
    }

    /// [`Self::check`] against an explicit die state.
    fn check_parts(
        scalar: &TiledMatrix,
        packed: &PackedTiledMatrix,
        tables: &MatrixStochasticTables,
        engines: (Engine, Engine),
        input: &BitPlane,
    ) -> Result<(), Counterexample> {
        let a = Self::eval_parts(scalar, packed, tables, engines.0, input);
        let b = Self::eval_parts(scalar, packed, tables, engines.1, input);
        if a == b {
            return Ok(());
        }
        let lane = (0..a.len())
            .find(|&i| a.get(i) != b.get(i))
            .expect("unequal planes differ somewhere");
        Err(Counterexample {
            engines,
            input: input.clone(),
            layer: 0,
            lane,
            tile: tile_divergence(scalar, packed, lane, input),
            left: a.get(lane),
            right: b.get(lane),
            fault: None,
        })
    }

    /// Checks one input: both engines must produce identical output
    /// planes.
    ///
    /// # Errors
    /// The localized [`Counterexample`] on divergence.
    pub fn check(&self, engines: (Engine, Engine), input: &BitPlane) -> Result<(), Counterexample> {
        Self::check_parts(&self.scalar, &self.packed, &self.tables, engines, input)
    }

    /// Proves the pair equivalent over **every** input bit pattern —
    /// `2^fan_in` evaluations.
    ///
    /// # Errors
    /// The first [`Counterexample`] found.
    ///
    /// # Panics
    /// Panics if `fan_in > `[`MAX_EXHAUSTIVE_FAN_IN`].
    pub fn prove_exhaustive(
        &self,
        engines: (Engine, Engine),
    ) -> Result<EquivProof, Counterexample> {
        let n = self.fan_in();
        assert!(
            n <= MAX_EXHAUSTIVE_FAN_IN,
            "exhaustive proof over 2^{n} inputs exceeds the 2^{MAX_EXHAUSTIVE_FAN_IN} budget"
        );
        for pat in 0..(1u64 << n) {
            self.check(engines, &BitPlane::from_words(vec![pat], n))?;
        }
        Ok(EquivProof {
            engines,
            cases: 1 << n,
            mode: "exhaustive",
        })
    }

    /// Proves **all six** engine pairs equivalent exhaustively — the full
    /// lattice on one die.
    ///
    /// # Errors
    /// The first [`Counterexample`] found.
    pub fn prove_exhaustive_lattice(&self) -> Result<Vec<EquivProof>, Counterexample> {
        Engine::pairs()
            .into_iter()
            .map(|pair| self.prove_exhaustive(pair))
            .collect()
    }

    /// Checks the pair on `cases` seeded random inputs with densities
    /// swept across `(0, 1)` — the at-scale mode for fan-ins past the
    /// exhaustive budget.
    ///
    /// # Errors
    /// The first [`Counterexample`] found.
    pub fn check_random(
        &self,
        engines: (Engine, Engine),
        cases: usize,
        seed: u64,
    ) -> Result<EquivProof, Counterexample> {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..cases {
            let p = rng.gen::<f64>();
            let input = random_probe_plane(self.fan_in(), p, &mut rng);
            self.check(engines, &input)?;
        }
        Ok(EquivProof {
            engines,
            cases,
            mode: "random",
        })
    }

    /// Checks the pair under **every** structural fault class of this
    /// die stack: for each enumerated defect, both engines receive the
    /// identical named fault (scalar: crossbar weights + dead map;
    /// packed: bitplane masks + vote pins + SWAR bias folds) and are
    /// compared on `cases_per_fault` seeded random inputs. The packed
    /// side rides the clone-free journal path — one reusable die is
    /// patched and reverted per fault — and each input additionally
    /// proves the fault-cone splice ([`Engine::PackedDelta`]): re-voting
    /// only the fault's dirtied channels on top of the clean forward
    /// must reproduce the faulted full forward bit-for-bit. Returned
    /// counterexamples carry the fault class that exposed them.
    ///
    /// # Errors
    /// The first [`Counterexample`] found.
    pub fn check_fault_universe(
        &self,
        engines: (Engine, Engine),
        cases_per_fault: usize,
        seed: u64,
    ) -> Result<EquivProof, Counterexample> {
        let dims = self.packed.tile_dims();
        let universe = enumerate_fault_universe(&dims);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cases = 0usize;
        // One reusable faulted die on the packed side; the scalar side
        // has no journal and is cloned per fault.
        let mut packed = self.packed.clone();
        let mut journal = PatchJournal::new();
        for fault in &universe {
            let draws = fault.to_draws(dims.len());
            let dirty = self.packed.fault_channels(&draws);
            let mut scalar = self.scalar.clone();
            scalar.apply_faults(&draws);
            // The flip tables are programmed-threshold state, invariant
            // under fault injection — the clean tables serve the
            // faulted die.
            packed.apply_faults_journaled(&draws, 0, &mut journal);
            for _ in 0..cases_per_fault {
                let p = rng.gen::<f64>();
                let input = random_probe_plane(self.fan_in(), p, &mut rng);
                Self::check_parts(&scalar, &packed, &self.tables, engines, &input).map_err(
                    |mut ce| {
                        ce.fault = Some(*fault);
                        ce
                    },
                )?;
                cases += 1;
                // Fifth axis: the delta splice vs the faulted forward.
                let full = packed.forward_plane(&input);
                let mut spliced = self.packed.forward_plane(&input);
                for &ch in &dirty {
                    let bit = packed.channel_eval(ch).bit(input.words());
                    if bit != spliced.get(ch) {
                        spliced.set(ch, bit);
                    }
                }
                if spliced != full {
                    let lane = (0..full.len())
                        .find(|&i| spliced.get(i) != full.get(i))
                        .expect("unequal planes differ somewhere");
                    let tile = tile_divergence(&scalar, &packed, lane, &input);
                    return Err(Counterexample {
                        engines: (Engine::PackedDigital, Engine::PackedDelta),
                        input,
                        layer: 0,
                        lane,
                        tile,
                        left: full.get(lane),
                        right: spliced.get(lane),
                        fault: Some(*fault),
                    });
                }
                cases += 1;
            }
            packed.revert_faults(&mut journal);
            debug_assert!(packed == self.packed, "revert must restore the die");
        }
        Ok(EquivProof {
            engines,
            cases,
            mode: "fault-universe",
        })
    }
}

/// A bounded equivalence checker over a whole deployed model. Walks the
/// pipeline **cell by cell** on both engines, so the first diverging
/// activation plane — not just the final label — is what gets reported,
/// localized to `(layer, lane)` and, for dense cells, to the diverging
/// row tile.
#[derive(Debug, Clone)]
pub struct ModelChecker {
    scalar: DeployedModel,
    packed: PackedModel,
    /// Exclusive pipeline-stage index after each deployed cell — the
    /// cell → stage-range map of the lowering.
    cell_stage_end: Vec<usize>,
}

impl ModelChecker {
    /// Builds the harness: lowers the model and reconstructs the
    /// cell → pipeline-stage map from the stage sequence.
    pub fn new(model: &DeployedModel) -> Self {
        let packed = model.to_packed();
        let mut ends = Vec::with_capacity(model.cells().len());
        let mut stage = 0usize;
        for cell in model.cells() {
            match cell {
                DeployedCell::Conv(c) => {
                    debug_assert!(matches!(packed.layers()[stage], PackedLayer::Conv(_)));
                    stage += 1;
                    if c.geometry().4 {
                        debug_assert!(matches!(packed.layers()[stage], PackedLayer::Pool(_)));
                        stage += 1;
                    }
                }
                DeployedCell::Dense(_) => {
                    if matches!(packed.layers()[stage], PackedLayer::Flatten) {
                        stage += 1;
                    }
                    debug_assert!(matches!(packed.layers()[stage], PackedLayer::Linear(_)));
                    stage += 1;
                }
            }
            ends.push(stage);
        }
        debug_assert_eq!(stage, packed.layers().len());
        Self {
            scalar: model.clone(),
            packed,
            cell_stage_end: ends,
        }
    }

    /// The packed lowering under check.
    pub fn packed(&self) -> &PackedModel {
        &self.packed
    }

    /// Runs one cell's pipeline stages on one engine.
    fn cell_forward(
        &self,
        engine: Engine,
        cell_idx: usize,
        act: BitPlane,
        shape: [usize; 3],
    ) -> (BitPlane, [usize; 3]) {
        let start = if cell_idx == 0 {
            0
        } else {
            self.cell_stage_end[cell_idx - 1]
        };
        let end = self.cell_stage_end[cell_idx];
        match engine {
            Engine::ScalarDigital => {
                let [c, h, w] = shape;
                let map = BitMap::from_bits(c, h, w, act.to_bits());
                let out = match &self.scalar.cells()[cell_idx] {
                    DeployedCell::Conv(cell) => cell.forward_digital(&map),
                    DeployedCell::Dense(cell) => cell.forward_digital(&map),
                };
                let out_shape = [out.c, out.h, out.w];
                (out.to_plane(), out_shape)
            }
            // At the model level the delta engine degenerates the same
            // way as at the die level: with no fault in play its cone is
            // empty, so it walks the packed pipeline verbatim.
            Engine::PackedDigital | Engine::PackedDelta => {
                let mut act = act;
                let mut shape = shape;
                for layer in &self.packed.layers()[start..end] {
                    let (next, ns) = layer.forward(act, shape);
                    act = next;
                    shape = ns;
                }
                (act, shape)
            }
            Engine::PackedSimd => {
                let mut act = act;
                let mut shape = shape;
                for layer in &self.packed.layers()[start..end] {
                    match layer {
                        // The SIMD axis differentiates on the batched
                        // GEMM path: linear stages run the blocked V256
                        // kernel on a one-row activation matrix (conv
                        // stages already run it inside `forward`).
                        PackedLayer::Linear(l) => {
                            let batch = PackedMatrix::from_planes(std::slice::from_ref(&act));
                            let out = l.matrix().forward_matrix_as::<V256>(&batch);
                            shape = [out.rows(), 1, 1];
                            act = matrix_column(&out, 0);
                        }
                        _ => {
                            let (next, ns) = layer.forward(act, shape);
                            act = next;
                            shape = ns;
                        }
                    }
                }
                (act, shape)
            }
            Engine::StochasticLimit => {
                let zero = zero_variation();
                let stream = CounterStream::from_seed(0);
                let mut act = act;
                let mut shape = shape;
                for layer in &self.packed.layers()[start..end] {
                    match layer {
                        PackedLayer::Linear(l) => {
                            let tables = l.matrix().stochastic_tables(&zero);
                            act = l.matrix().forward_stochastic_ctr(&tables, &act, &stream);
                            shape = [l.matrix().out(), 1, 1];
                        }
                        PackedLayer::Conv(c) => {
                            // Public re-walk of the stochastic conv
                            // stage: im2col the plane, evaluate each
                            // output pixel's receptive field through the
                            // draw-free zero-width tables.
                            let tables = c.matrix().stochastic_tables(&zero);
                            let [ci, h, w] = shape;
                            let (_, k, stride, pad) = c.geometry();
                            let fields = packed_im2col(&act, ci, h, w, k, stride, pad, false);
                            let out_shape = c.out_shape(shape);
                            let [oc, oh, ow] = out_shape;
                            let mut out = BitPlane::zeros(oc * oh * ow);
                            for a in 0..fields.rows() {
                                let bits = c.matrix().forward_stochastic_ctr(
                                    &tables,
                                    &fields.row_plane(a),
                                    &stream,
                                );
                                for ch in 0..oc {
                                    if bits.get(ch) {
                                        out.set(ch * oh * ow + a, true);
                                    }
                                }
                            }
                            act = out;
                            shape = out_shape;
                        }
                        _ => {
                            let (next, ns) = layer.forward(act, shape);
                            act = next;
                            shape = ns;
                        }
                    }
                }
                (act, shape)
            }
        }
    }

    /// Classifies one input plane on one engine, walking the cell map.
    /// Bit-identical to the engine's own end-to-end entry point.
    pub fn classify(&self, engine: Engine, plane: &BitPlane) -> (usize, Vec<f32>) {
        let mut act = plane.clone();
        let mut shape = self.packed.input_shape();
        for cell_idx in 0..self.cell_stage_end.len() {
            let (next, ns) = self.cell_forward(engine, cell_idx, act, shape);
            act = next;
            shape = ns;
        }
        let scores = self.packed.classifier().scores_plane(&act);
        (argmax(&scores), scores)
    }

    /// Checks one input plane: walks both engines cell by cell and
    /// compares every intermediate activation. Equal activations at
    /// every cell boundary imply equal labels and scores (the classifier
    /// head is shared), so this subsumes the end-to-end comparison while
    /// localizing the divergence.
    ///
    /// # Errors
    /// The localized [`Counterexample`] on divergence.
    pub fn check_plane(
        &self,
        engines: (Engine, Engine),
        plane: &BitPlane,
    ) -> Result<(), Counterexample> {
        let mut a = plane.clone();
        let mut b = plane.clone();
        let mut shape = self.packed.input_shape();
        for cell_idx in 0..self.cell_stage_end.len() {
            let stage_in = a.clone();
            let (na, sa) = self.cell_forward(engines.0, cell_idx, a, shape);
            let (nb, sb) = self.cell_forward(engines.1, cell_idx, b, shape);
            debug_assert_eq!(sa, sb);
            if na != nb {
                let lane_bit = (0..na.len())
                    .find(|&i| na.get(i) != nb.get(i))
                    .expect("unequal planes differ somewhere");
                // [C, H, W] layout: the channel is the plane-major index.
                let lane = lane_bit / (sa[1] * sa[2]);
                let layer = self.cell_stage_end[cell_idx] - 1;
                let tile = match &self.scalar.cells()[cell_idx] {
                    DeployedCell::Dense(cell) => {
                        // The dense stage input is the (possibly
                        // flattened) cell input plane.
                        tile_divergence(
                            cell.matrix(),
                            self.dense_stage_matrix(cell_idx),
                            lane,
                            &stage_in,
                        )
                    }
                    // Conv divergences are per-pixel; the die-level
                    // localization does not apply.
                    DeployedCell::Conv(_) => None,
                };
                return Err(Counterexample {
                    engines,
                    input: plane.clone(),
                    layer,
                    lane,
                    tile,
                    left: na.get(lane_bit),
                    right: nb.get(lane_bit),
                    fault: None,
                });
            }
            a = na;
            b = nb;
            shape = sa;
        }
        Ok(())
    }

    /// The packed matrix of a dense cell's linear stage.
    fn dense_stage_matrix(&self, cell_idx: usize) -> &PackedTiledMatrix {
        let stage = self.cell_stage_end[cell_idx] - 1;
        match &self.packed.layers()[stage] {
            PackedLayer::Linear(l) => l.matrix(),
            _ => unreachable!("dense cells lower to a linear stage"),
        }
    }

    /// Checks the pair over a slice of input planes.
    ///
    /// # Errors
    /// The first [`Counterexample`] found.
    pub fn check_planes(
        &self,
        engines: (Engine, Engine),
        planes: &[BitPlane],
    ) -> Result<EquivProof, Counterexample> {
        for plane in planes {
            self.check_plane(engines, plane)?;
        }
        Ok(EquivProof {
            engines,
            cases: planes.len(),
            mode: "random",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HardwareConfig;
    use aqfp_device::Bit;

    fn die(fan_in: usize, out: usize, rows: usize, cols: usize, seed: u64) -> TiledMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let signs: Vec<f32> = (0..fan_in * out)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        let vth: Vec<f64> = (0..out).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let flips: Vec<bool> = (0..out).map(|_| rng.gen()).collect();
        let hw = HardwareConfig {
            crossbar_rows: rows,
            crossbar_cols: cols,
            ..Default::default()
        };
        TiledMatrix::new(&signs, fan_in, out, vth, flips, &hw)
    }

    #[test]
    fn exhaustive_lattice_on_a_single_tile_die() {
        // ≤12-bit fan-in, single row tile: every input pattern, all six
        // engine pairs.
        let checker = DieChecker::new(&die(9, 5, 12, 8, 3));
        let proofs = checker.prove_exhaustive_lattice().unwrap_or_else(|ce| {
            panic!("equivalence broken: {ce}");
        });
        assert_eq!(proofs.len(), 6);
        for p in &proofs {
            assert_eq!(p.cases, 512);
            assert_eq!(p.mode, "exhaustive");
        }
    }

    #[test]
    fn random_mode_covers_multi_tile_geometry() {
        let checker = DieChecker::new(&die(70, 9, 16, 4, 5));
        for pair in Engine::pairs() {
            let proof = checker
                .check_random(pair, 24, 99)
                .unwrap_or_else(|ce| panic!("equivalence broken: {ce}"));
            assert_eq!(proof.cases, 24);
        }
    }

    #[test]
    fn fault_universe_check_holds_on_a_small_die() {
        let checker = DieChecker::new(&die(10, 3, 6, 4, 11));
        let proof = checker
            .check_fault_universe((Engine::ScalarDigital, Engine::PackedDigital), 4, 7)
            .unwrap_or_else(|ce| panic!("equivalence broken: {ce}"));
        assert_eq!(proof.mode, "fault-universe");
        assert!(proof.cases > 0);
    }

    #[test]
    fn delta_axis_stays_out_of_the_canonical_lattice() {
        assert_eq!(Engine::ALL.len(), 4);
        assert_eq!(Engine::pairs().len(), 6);
        assert!(!Engine::ALL.contains(&Engine::PackedDelta));
        assert_eq!(Engine::PackedDelta.name(), "packed-delta");
        // Fault-free, the delta engine is the packed digital forward.
        let checker = DieChecker::new(&die(70, 9, 16, 4, 23));
        let proof = checker
            .check_random((Engine::PackedDigital, Engine::PackedDelta), 16, 41)
            .unwrap_or_else(|ce| panic!("equivalence broken: {ce}"));
        assert_eq!(proof.cases, 16);
    }

    #[test]
    fn fault_universe_counts_the_delta_splice_cases() {
        // Every input now runs the engine-pair comparison *and* the
        // delta-splice proof: twice the cases of the pair alone.
        let checker = DieChecker::new(&die(10, 3, 6, 4, 11));
        let universe = enumerate_fault_universe(&checker.packed.tile_dims()).len();
        let proof = checker
            .check_fault_universe((Engine::ScalarDigital, Engine::PackedDigital), 4, 7)
            .unwrap_or_else(|ce| panic!("equivalence broken: {ce}"));
        assert_eq!(proof.cases, 2 * 4 * universe);
    }

    #[test]
    fn counterexample_reports_the_diverging_tile() {
        // Manufacture a divergence: pin a dead column on the packed side
        // only, then check scalar vs packed. The counterexample must
        // carry the failing lane and localize the vote mismatch to the
        // tampered tile.
        let scalar = die(10, 4, 6, 4, 17);
        let mut checker = DieChecker::new(&scalar);
        let dims = checker.packed.tile_dims();
        let fault = StructuralFault {
            die: 0,
            kind: aqfp_crossbar::faults::FaultKind::DeadColumn {
                col: 1,
                value: Bit::One,
            },
        };
        checker.packed.apply_faults(&fault.to_draws(dims.len()));
        let pair = (Engine::ScalarDigital, Engine::PackedDigital);
        let mut found = None;
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let input = random_probe_plane(10, rng.gen(), &mut rng);
            if let Err(ce) = checker.check(pair, &input) {
                found = Some(ce);
                break;
            }
        }
        let ce = found.expect("a pinned '1' column must diverge on some input");
        assert_eq!(ce.lane, 1, "the tampered channel");
        assert_eq!(ce.tile, Some(0), "die 0 is row tile 0 of column group 0");
        assert_ne!(ce.left, ce.right);
        // Display renders without panicking and names both engines.
        let msg = format!("{ce}");
        assert!(msg.contains("scalar-digital") && msg.contains("packed-digital"));
    }
}
