//! Deployed crossbar layers: convolution and dense cells.

use super::bitmap::BitMap;
use crate::config::HardwareConfig;
use aqfp_crossbar::array::Crossbar;
use aqfp_crossbar::faults::{apply_stuck_cells, draw_faults, FaultModel};
use aqfp_crossbar::tile::TilingPlan;
use aqfp_device::Bit;
use aqfp_sc::bitplane::bernoulli_threshold;
use aqfp_sc::{AccumulationModule, BitPlane, Bitstream, CounterStream};
use rand::Rng;
use std::collections::HashMap;

/// Shared machinery of conv and dense cells: a weight matrix tiled over
/// crossbars, BN-matched thresholds, SC accumulation across row tiles.
#[derive(Debug, Clone)]
pub struct TiledMatrix {
    plan: TilingPlan,
    /// Crossbars aligned with `plan.tiles`.
    tiles: Vec<Crossbar>,
    /// Per-output-channel inversion from BN matching (γ < 0).
    flips: Vec<bool>,
    /// Per-output-channel latent threshold (for bookkeeping/reports).
    vth: Vec<f64>,
    /// Dead neuron columns from fault injection: `(tile index, column
    /// within tile) → stuck output bit`.
    dead: HashMap<(usize, usize), Bit>,
    /// Per-tile, per-column integer comparator thresholds of the digital
    /// (deterministic) engines: tile bit = '1' iff the tile's XNOR-product
    /// sum is `≥ min_sums[tile][col]`. Quantized once from the programmed
    /// µA thresholds so the scalar and packed engines share one decision
    /// rule bit-for-bit.
    min_sums: Vec<Vec<i64>>,
    window: usize,
    counter: aqfp_sc::accumulate::CounterKind,
    fan_in: usize,
    out: usize,
}

impl TiledMatrix {
    /// Builds the tiled deployment of a `[out, fan_in]` ±1 sign matrix with
    /// per-channel latent thresholds `vth` and inversion flags `flips`.
    ///
    /// Each tile's neuron thresholds get `vth/row_tiles` scaled by that
    /// tile's own attenuated unit current (Section 5.2: "divide Ith evenly
    /// and assign them to the corresponding crossbar").
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn new(
        signs: &[f32],
        fan_in: usize,
        out: usize,
        vth: Vec<f64>,
        flips: Vec<bool>,
        hw: &HardwareConfig,
    ) -> Self {
        assert_eq!(signs.len(), fan_in * out, "sign matrix shape mismatch");
        assert_eq!(vth.len(), out, "threshold count mismatch");
        assert_eq!(flips.len(), out, "flip count mismatch");
        let plan = TilingPlan::new(fan_in, out, hw.crossbar_rows, hw.crossbar_cols);
        let row_tiles = plan.row_tiles() as f64;
        let mut tiles = Vec::with_capacity(plan.tiles.len());
        for t in &plan.tiles {
            // Weight submatrix: rows are fan-in positions, cols channels.
            let weights: Vec<Vec<Bit>> = (t.row_start..t.row_start + t.rows)
                .map(|r| {
                    (t.col_start..t.col_start + t.cols)
                        .map(|c| Bit::from_sign(signs[c * fan_in + r] as f64))
                        .collect()
                })
                .collect();
            let mut xbar =
                Crossbar::new(hw.crossbar_config(), weights).expect("plan tiles are non-empty");
            let i1 = hw.attenuation.i1_ua(t.rows);
            let thresholds: Vec<f64> = (t.col_start..t.col_start + t.cols)
                .map(|c| {
                    let v = vth[c] / row_tiles;
                    if v.is_finite() {
                        v * i1
                    } else {
                        // Constant channels (γ ≈ 0): an unreachable current.
                        v.signum() * 1e9
                    }
                })
                .collect();
            xbar.set_thresholds_ua(thresholds).expect("lengths match");
            tiles.push(xbar);
        }
        let min_sums = tiles.iter().map(digital_min_sums).collect();
        Self {
            plan,
            tiles,
            flips,
            vth,
            dead: HashMap::new(),
            min_sums,
            window: hw.bitstream_len,
            counter: hw.counter,
            fan_in,
            out,
        }
    }

    /// Injects fabrication faults into every tile: stuck LiM cells
    /// overwrite stored weights; dead columns pin that tile's neuron output
    /// to a constant. Returns the total defect count. Deterministic for a
    /// given RNG state.
    pub fn inject_faults<R: Rng + ?Sized>(&mut self, model: &FaultModel, rng: &mut R) -> usize {
        let mut defects = 0usize;
        for (i, xbar) in self.tiles.iter_mut().enumerate() {
            let faults = draw_faults(model, xbar.rows(), xbar.cols(), rng);
            defects += faults.count();
            apply_stuck_cells(xbar, &faults);
            for &(col, bit) in &faults.dead_columns {
                self.dead.insert((i, col), bit);
            }
        }
        defects
    }

    /// Applies **pre-drawn** fabrication faults, one
    /// [`aqfp_crossbar::faults::InjectedFaults`] per tile crossbar in
    /// plan order — the scalar twin of
    /// `PackedTiledMatrix::apply_faults`, used by the fault-universe
    /// equivalence checks to put the same named defect on both engines.
    /// Out-of-range cells within an entry are ignored (matching
    /// [`apply_stuck_cells`]); an empty slice is a no-op.
    ///
    /// # Panics
    /// Panics if `faults` is non-empty and its length does not match the
    /// crossbar count.
    pub fn apply_faults(&mut self, faults: &[aqfp_crossbar::faults::InjectedFaults]) {
        if faults.is_empty() {
            return;
        }
        assert_eq!(
            faults.len(),
            self.tiles.len(),
            "fault draw / tile count mismatch"
        );
        for (i, (xbar, f)) in self.tiles.iter_mut().zip(faults).enumerate() {
            apply_stuck_cells(xbar, f);
            for &(col, bit) in &f.dead_columns {
                if col < xbar.cols() {
                    self.dead.insert((i, col), bit);
                }
            }
        }
    }

    /// Fan-in of the matrix.
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// Output channels.
    pub fn out(&self) -> usize {
        self.out
    }

    /// The tiling plan.
    pub fn plan(&self) -> &TilingPlan {
        &self.plan
    }

    /// Per-channel latent thresholds (for reports).
    pub fn vth(&self) -> &[f64] {
        &self.vth
    }

    /// Per-channel output-inversion flags (γ < 0 channels).
    pub fn flips(&self) -> &[bool] {
        &self.flips
    }

    /// The SC observation window `L` (bit-stream length) of the
    /// stochastic datapath.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The parallel-counter implementation of the SC accumulation module.
    pub fn counter(&self) -> aqfp_sc::accumulate::CounterKind {
        self.counter
    }

    /// Applies a device-parameter variation to the *operating conditions*
    /// of every tile crossbar: the gray-zone width and the attenuation
    /// model drift, while the programmed thresholds — and the digital
    /// engines' quantized comparator tables, which model the
    /// calibration-time programming — stay untouched. Only the stochastic
    /// datapath ([`TiledMatrix::forward`]) sees the drift, exactly like
    /// the packed engine's variation-parameterized flip tables.
    pub fn apply_variation(&mut self, vm: &aqfp_device::VariationModel) {
        for xbar in &mut self.tiles {
            xbar.set_config(xbar.config().with_variation(vm));
        }
    }

    /// Evaluates all output channels for one input vector through the full
    /// stochastic datapath: crossbar observation windows → APC accumulation
    /// → comparator → (optional) inversion.
    ///
    /// Cell `channel·k + tile` (`k` row tiles) draws its `L`-cycle window
    /// from `stream` at tape position `cell · window_stride(L)` under the
    /// byte-wide counter law
    /// ([`CounterStream::sample_bernoulli_words`]) at the column's
    /// gray-zone probability; a dead column reads its stuck constant. The
    /// packed engine draws the identical windows
    /// (`PackedTiledMatrix::forward_stochastic_ctr`), which makes this the
    /// stochastic engines' bit-exact reference.
    ///
    /// # Panics
    /// Panics if `input.len() != fan_in`.
    pub fn forward(&self, input: &[Bit], stream: &CounterStream) -> Vec<Bit> {
        assert_eq!(input.len(), self.fan_in, "input length mismatch");
        let k = self.plan.row_tiles();
        let acc = AccumulationModule::new(k, self.window).with_counter(self.counter);
        let stride = CounterStream::window_stride(self.window);
        let mut out = vec![Bit::Zero; self.out];

        // Plan tiles are emitted column-major (all row tiles of one column
        // group consecutively).
        let mut tile_idx = 0;
        while tile_idx < self.tiles.len() {
            let col_start = self.plan.tiles[tile_idx].col_start;
            let cols = self.plan.tiles[tile_idx].cols;
            for c in 0..cols {
                let channel = col_start + c;
                let streams: Vec<Bitstream> = (0..k)
                    .map(|r| {
                        let idx = tile_idx + r;
                        if let Some(&bit) = self.dead.get(&(idx, c)) {
                            return Bitstream::from_bits(vec![bit; self.window]);
                        }
                        let t = &self.plan.tiles[idx];
                        let p = self.tiles[idx]
                            .column_probability(c, &input[t.row_start..t.row_start + t.rows])
                            .expect("tile geometry is consistent");
                        let cell = (channel * k + r) as u64;
                        let mut words = vec![0u64; self.window.div_ceil(64)];
                        stream.sample_bernoulli_words(
                            bernoulli_threshold(p),
                            cell * stride,
                            self.window,
                            &mut words,
                        );
                        Bitstream::from_bits(BitPlane::from_words(words, self.window).to_bits())
                    })
                    .collect();
                let bit = acc.binarize(&streams).expect("window lengths match");
                out[channel] = if self.flips[channel] { bit.not() } else { bit };
            }
            tile_idx += k;
        }
        out
    }

    /// The noiseless reference decision (ideal comparators, no SC noise):
    /// sign of the whole latent sum against the channel threshold. Used by
    /// tests to check the stochastic path converges to the right answer.
    #[allow(clippy::needless_range_loop)] // r walks two indexings at once
    pub fn forward_ideal(&self, input: &[Bit]) -> Vec<Bit> {
        assert_eq!(input.len(), self.fan_in, "input length mismatch");
        (0..self.out)
            .map(|channel| {
                let mut sum = 0i64;
                for r in 0..self.fan_in {
                    let w = self.weight_sign(r, channel);
                    let a = input[r].to_value() as i64;
                    sum += w as i64 * a;
                }
                let decision = (sum as f64) >= self.vth[channel];
                Bit::from_bool(decision != self.flips[channel])
            })
            .collect()
    }

    /// The digital (deterministic) engine: the gray-zone → 0 limit of the
    /// stochastic datapath with exact counters, evaluated with per-element
    /// scalar loops. Each row tile's XNOR-product sum is compared against
    /// its quantized integer threshold (a saturating per-tile comparator,
    /// faithful to the hardware's partial-sum binarization); the SC
    /// accumulation reduces to a majority vote over the tile bits with
    /// ties resolving to '1' (the comparator's `T ≥ kL/2` midpoint rule on
    /// constant streams); dead columns pin their tile's vote.
    ///
    /// This is the *scalar reference* the packed XNOR–popcount engine in
    /// [`super::packed`] is differentially tested against: both must agree
    /// bit-for-bit on every input.
    ///
    /// # Panics
    /// Panics if `input.len() != fan_in`.
    pub fn forward_digital(&self, input: &[Bit]) -> Vec<Bit> {
        assert_eq!(input.len(), self.fan_in, "input length mismatch");
        let k = self.plan.row_tiles();
        let mut out = vec![Bit::Zero; self.out];
        let mut tile_idx = 0;
        while tile_idx < self.tiles.len() {
            let col_start = self.plan.tiles[tile_idx].col_start;
            let cols = self.plan.tiles[tile_idx].cols;
            for c in 0..cols {
                let channel = col_start + c;
                let mut votes = 0usize;
                for r in 0..k {
                    let idx = tile_idx + r;
                    let vote = if let Some(&b) = self.dead.get(&(idx, c)) {
                        b.as_bool()
                    } else {
                        let t = &self.plan.tiles[idx];
                        let slice = &input[t.row_start..t.row_start + t.rows];
                        let sum = self.tiles[idx]
                            .raw_sum(c, slice)
                            .expect("tile geometry is consistent");
                        sum as i64 >= self.min_sums[idx][c]
                    };
                    votes += vote as usize;
                }
                let bit = Bit::from_bool(2 * votes >= k);
                out[channel] = if self.flips[channel] { bit.not() } else { bit };
            }
            tile_idx += k;
        }
        out
    }

    /// The per-tile crossbars, aligned with `plan().tiles` (weight source
    /// of the packed engine — includes any injected stuck-cell faults).
    pub fn tile_crossbars(&self) -> &[Crossbar] {
        &self.tiles
    }

    /// Dead neuron columns from fault injection:
    /// `(tile index, column within tile) → stuck output bit`.
    pub fn dead_outputs(&self) -> &HashMap<(usize, usize), Bit> {
        &self.dead
    }

    /// The quantized per-tile integer comparator thresholds of the digital
    /// engines, aligned with `plan().tiles`.
    pub fn digital_min_sums(&self) -> &[Vec<i64>] {
        &self.min_sums
    }

    fn weight_sign(&self, row: usize, channel: usize) -> i32 {
        // Find the tile containing (row, channel).
        for (i, t) in self.plan.tiles.iter().enumerate() {
            if row >= t.row_start
                && row < t.row_start + t.rows
                && channel >= t.col_start
                && channel < t.col_start + t.cols
            {
                return self.tiles[i]
                    .weight(row - t.row_start, channel - t.col_start)
                    .to_value() as i32;
            }
        }
        unreachable!("tiling covers the matrix");
    }

    /// Number of crossbars.
    pub fn crossbar_count(&self) -> usize {
        self.tiles.len()
    }
}

/// Quantizes one crossbar's programmed µA thresholds into integer
/// XNOR-sum comparator references: the tile bit of the digital engines is
/// '1' iff `sum ≥ min_sum`, the deterministic limit of the neuron's
/// `current ≥ Ith` decision (`sum · I1 ≥ Ith ⟺ sum ≥ ⌈Ith / I1⌉` for
/// integer sums with `I1 > 0`). Values are clamped to `±(rows + 1)` so the
/// `±1e9`-encoded constant channels (γ ≈ 0) stay constant and comparisons
/// never overflow.
fn digital_min_sums(xbar: &Crossbar) -> Vec<i64> {
    let i1 = xbar.unit_current_ua();
    let rows = xbar.rows() as i64;
    xbar.thresholds_ua()
        .iter()
        .map(|&th| {
            let min = (th / i1).ceil();
            if min <= -(rows as f64 + 1.0) {
                -(rows + 1)
            } else if min >= rows as f64 + 1.0 {
                rows + 1
            } else {
                min as i64
            }
        })
        .collect()
}

/// A deployed convolution cell (conv + folded BN + binarize + optional
/// OR-pool).
#[derive(Debug, Clone)]
pub struct DeployedConv {
    matrix: TiledMatrix,
    in_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    pool: bool,
}

impl DeployedConv {
    /// Builds the cell. `signs` is the `[out, in·k·k]` weight-sign matrix.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        signs: &[f32],
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        pool: bool,
        vth: Vec<f64>,
        flips: Vec<bool>,
        hw: &HardwareConfig,
    ) -> Self {
        let fan_in = in_c * k * k;
        Self {
            matrix: TiledMatrix::new(signs, fan_in, out_c, vth, flips, hw),
            in_c,
            k,
            stride,
            pad,
            pool,
        }
    }

    /// The tiled weight matrix.
    pub fn matrix(&self) -> &TiledMatrix {
        &self.matrix
    }

    /// Mutable access (fault injection).
    pub fn matrix_mut(&mut self) -> &mut TiledMatrix {
        &mut self.matrix
    }

    /// Output spatial size for an input of `h × w`.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad - self.k) / self.stride + 1;
        let ow = (w + 2 * self.pad - self.k) / self.stride + 1;
        if self.pool {
            (oh / 2, ow / 2)
        } else {
            (oh, ow)
        }
    }

    /// Runs the cell on one binary feature map through the stochastic
    /// datapath. `stream` is the cell's pipeline-stage stream: output pixel
    /// `oy·ow + ox` (before pooling) draws its windows from
    /// `stream.derive(pixel)` (see [`TiledMatrix::forward`]).
    pub fn forward(&self, input: &BitMap, stream: &CounterStream) -> BitMap {
        assert_eq!(input.c, self.in_c, "channel mismatch");
        let oh = (input.h + 2 * self.pad - self.k) / self.stride + 1;
        let ow = (input.w + 2 * self.pad - self.k) / self.stride + 1;
        let out_c = self.matrix.out();
        let mut out = BitMap::zeros(out_c, oh, ow);
        for oy in 0..oh {
            for ox in 0..ow {
                let field = input.receptive_field(oy, ox, self.k, self.stride, self.pad);
                let bits = self
                    .matrix
                    .forward(&field, &stream.derive((oy * ow + ox) as u64));
                for (c, &b) in bits.iter().enumerate() {
                    out.set(c, oy, ox, b);
                }
            }
        }
        if self.pool {
            out.pool2_mixed(self.matrix.flips())
        } else {
            out
        }
    }

    /// Runs the cell through the digital (deterministic) engine — the
    /// scalar reference of the packed path. See
    /// [`TiledMatrix::forward_digital`].
    pub fn forward_digital(&self, input: &BitMap) -> BitMap {
        assert_eq!(input.c, self.in_c, "channel mismatch");
        let oh = (input.h + 2 * self.pad - self.k) / self.stride + 1;
        let ow = (input.w + 2 * self.pad - self.k) / self.stride + 1;
        let out_c = self.matrix.out();
        let mut out = BitMap::zeros(out_c, oh, ow);
        for oy in 0..oh {
            for ox in 0..ow {
                let field = input.receptive_field(oy, ox, self.k, self.stride, self.pad);
                let bits = self.matrix.forward_digital(&field);
                for (c, &b) in bits.iter().enumerate() {
                    out.set(c, oy, ox, b);
                }
            }
        }
        if self.pool {
            out.pool2_mixed(self.matrix.flips())
        } else {
            out
        }
    }

    /// `(input channels, kernel, stride, pad, pooled)` — the geometry the
    /// packed engine replicates.
    pub fn geometry(&self) -> (usize, usize, usize, usize, bool) {
        (self.in_c, self.k, self.stride, self.pad, self.pool)
    }
}

/// A deployed dense (fully-connected) cell.
#[derive(Debug, Clone)]
pub struct DeployedDense {
    matrix: TiledMatrix,
}

impl DeployedDense {
    /// Builds from a `[out, in]` sign matrix.
    pub fn new(
        signs: &[f32],
        in_f: usize,
        out_f: usize,
        vth: Vec<f64>,
        flips: Vec<bool>,
        hw: &HardwareConfig,
    ) -> Self {
        Self {
            matrix: TiledMatrix::new(signs, in_f, out_f, vth, flips, hw),
        }
    }

    /// The tiled weight matrix.
    pub fn matrix(&self) -> &TiledMatrix {
        &self.matrix
    }

    /// Mutable access (fault injection).
    pub fn matrix_mut(&mut self) -> &mut TiledMatrix {
        &mut self.matrix
    }

    /// Runs the cell on a flat binary vector (a `[F, 1, 1]` map) through
    /// the stochastic datapath. `stream` is the cell's pipeline-stage
    /// stream; its windows come from pixel `0` (`stream.derive(0)`).
    pub fn forward(&self, input: &BitMap, stream: &CounterStream) -> BitMap {
        let bits = self.matrix.forward(input.bits(), &stream.derive(0));
        BitMap::from_bits(bits.len(), 1, 1, bits)
    }

    /// Runs the cell through the digital (deterministic) engine — the
    /// scalar reference of the packed path. See
    /// [`TiledMatrix::forward_digital`].
    pub fn forward_digital(&self, input: &BitMap) -> BitMap {
        let bits = self.matrix.forward_digital(input.bits());
        BitMap::from_bits(bits.len(), 1, 1, bits)
    }
}

/// One deployed cell of the pipeline.
#[derive(Debug, Clone)]
pub enum DeployedCell {
    /// A convolution cell.
    Conv(DeployedConv),
    /// A dense cell.
    Dense(DeployedDense),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw_small() -> HardwareConfig {
        HardwareConfig {
            crossbar_rows: 8,
            crossbar_cols: 8,
            // Narrow gray-zone → near-deterministic neurons for exact tests.
            grayzone_ua: 0.05,
            bitstream_len: 8,
            ..Default::default()
        }
    }

    #[test]
    fn single_tile_matches_ideal_in_deterministic_regime() {
        // With fan-in ≤ crossbar rows (one row tile) and a vanishing
        // gray-zone, the stochastic datapath must agree with the ideal sign
        // decision except at exact ties.
        let hw = hw_small();
        let fan_in = 7; // odd: integer sums are never exactly 0
        let out = 3;
        let signs: Vec<f32> = (0..fan_in * out)
            .map(|i| if (i * 7) % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let m = TiledMatrix::new(&signs, fan_in, out, vec![0.0; 3], vec![false; 3], &hw);
        assert_eq!(m.crossbar_count(), 1);
        let stream = CounterStream::from_seed(0);
        for pat in 0..128u32 {
            let input: Vec<Bit> = (0..fan_in)
                .map(|i| Bit::from_bool((pat >> i) & 1 == 1))
                .collect();
            let ideal = m.forward_ideal(&input);
            let got = m.forward(&input, &stream);
            assert_eq!(got, ideal, "pattern {pat:b}");
        }
    }

    #[test]
    fn multi_tile_accumulation_saturates_partial_sums() {
        // Splitting a filter across crossbars binarizes each partial sum
        // before accumulation: a +2 partial and a −6 partial both saturate
        // to ±1 and cancel — the information loss the paper's SC bit-stream
        // and gray-zone co-optimization exists to manage (Challenge #3).
        let hw = hw_small(); // 8 rows per tile, near-zero gray-zone
        let fan_in = 16; // 2 row tiles
        let signs = vec![1.0f32; fan_in];
        let m = TiledMatrix::new(&signs, fan_in, 1, vec![0.0], vec![false], &hw);
        assert_eq!(m.plan().row_tiles(), 2);
        // First tile: 5 ones, 3 zeros → partial +2. Second: all zeros → −8.
        let mut input = vec![Bit::Zero; fan_in];
        for bit in input.iter_mut().take(5) {
            *bit = Bit::One;
        }
        // Ideal whole-sum decision: +2 − 8 = −6 → '0'.
        assert_eq!(m.forward_ideal(&input), vec![Bit::Zero]);
        // Deployed: tile bits (+1, −1) tie at the midpoint → '1' (ties
        // resolve up). The saturation flipped the decision.
        let stream = CounterStream::from_seed(9);
        assert_eq!(m.forward(&input, &stream), vec![Bit::One]);
    }

    #[test]
    fn digital_engine_matches_stochastic_in_deterministic_regime() {
        // With a vanishing gray-zone every observation window saturates, so
        // the stochastic datapath is the digital engine: every decision must
        // agree away from exact ties (odd fan-in avoids them).
        let hw = hw_small();
        let fan_in = 7;
        let out = 3;
        let signs: Vec<f32> = (0..fan_in * out)
            .map(|i| if (i * 7) % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let m = TiledMatrix::new(&signs, fan_in, out, vec![0.0; 3], vec![false; 3], &hw);
        let stream = CounterStream::from_seed(12);
        for pat in 0..128u32 {
            let input: Vec<Bit> = (0..fan_in)
                .map(|i| Bit::from_bool((pat >> i) & 1 == 1))
                .collect();
            assert_eq!(
                m.forward_digital(&input),
                m.forward(&input, &stream),
                "pattern {pat:b}"
            );
        }
    }

    #[test]
    fn digital_engine_reproduces_tile_saturation_and_tie_up() {
        // Same scenario as multi_tile_accumulation_saturates_partial_sums:
        // partial sums +2 and −8 saturate to per-tile bits (1, 0); the
        // majority vote ties at the midpoint and resolves to '1'.
        let hw = hw_small();
        let fan_in = 16;
        let signs = vec![1.0f32; fan_in];
        let m = TiledMatrix::new(&signs, fan_in, 1, vec![0.0], vec![false], &hw);
        let mut input = vec![Bit::Zero; fan_in];
        for bit in input.iter_mut().take(5) {
            *bit = Bit::One;
        }
        assert_eq!(m.forward_ideal(&input), vec![Bit::Zero]);
        assert_eq!(m.forward_digital(&input), vec![Bit::One]);
    }

    #[test]
    fn flips_invert_output() {
        let hw = hw_small();
        let signs = vec![1.0f32; 4];
        let m_plain = TiledMatrix::new(&signs, 4, 1, vec![0.0], vec![false], &hw);
        let m_flip = TiledMatrix::new(&signs, 4, 1, vec![0.0], vec![true], &hw);
        let input = vec![Bit::One; 4]; // sum +4, clearly positive
        let stream = CounterStream::from_seed(1);
        assert_eq!(m_plain.forward(&input, &stream), vec![Bit::One]);
        assert_eq!(m_flip.forward(&input, &stream), vec![Bit::Zero]);
    }

    #[test]
    fn thresholds_shift_decisions() {
        let hw = hw_small();
        let signs = vec![1.0f32; 4];
        // Threshold above +4: even an all-ones input reads '0'.
        let m = TiledMatrix::new(&signs, 4, 1, vec![5.0], vec![false], &hw);
        let stream = CounterStream::from_seed(2);
        assert_eq!(m.forward(&[Bit::One; 4], &stream), vec![Bit::Zero]);
    }

    #[test]
    fn conv_cell_identity_kernel() {
        let hw = hw_small();
        // 1 channel, 1×1 kernel, weight +1, threshold 0: identity.
        let cell = DeployedConv::new(&[1.0], 1, 1, 1, 1, 0, false, vec![0.0], vec![false], &hw);
        let mut input = BitMap::zeros(1, 2, 2);
        input.set(0, 0, 1, Bit::One);
        input.set(0, 1, 0, Bit::One);
        let stream = CounterStream::from_seed(3);
        let out = cell.forward(&input, &stream);
        assert_eq!(out.bits(), input.bits());
    }

    #[test]
    fn conv_cell_pooling_halves_size() {
        let hw = hw_small();
        let cell = DeployedConv::new(&[1.0], 1, 1, 1, 1, 0, true, vec![0.0], vec![false], &hw);
        let input = BitMap::zeros(1, 4, 4);
        let stream = CounterStream::from_seed(4);
        let out = cell.forward(&input, &stream);
        assert_eq!((out.h, out.w), (2, 2));
        assert_eq!(cell.out_size(4, 4), (2, 2));
    }

    #[test]
    fn dense_cell_shape() {
        let hw = hw_small();
        let signs: Vec<f32> = vec![1.0; 6 * 4];
        let cell = DeployedDense::new(&signs, 6, 4, vec![0.0; 4], vec![false; 4], &hw);
        let input = BitMap::from_bits(6, 1, 1, vec![Bit::One; 6]);
        let stream = CounterStream::from_seed(5);
        let out = cell.forward(&input, &stream);
        assert_eq!((out.c, out.h, out.w), (4, 1, 1));
        assert_eq!(out.bits(), &[Bit::One; 4]);
    }
}
