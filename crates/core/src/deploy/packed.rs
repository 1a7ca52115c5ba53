//! The batched bit-packed deploy engine: XNOR + popcount over `u64`
//! words, fanned across threads.
//!
//! [`PackedModel`] is the word-parallel twin of the scalar digital engine
//! ([`DeployedModel::classify_digital`]): same deterministic semantics —
//! per-tile saturating comparators, majority-vote SC accumulation with
//! ties to '1', dead-column overrides, flip channels, popcount classifier
//! head — but every XNOR-product sum is a masked popcount over packed
//! weight/activation planes instead of a per-element loop, and batches are
//! split across `std::thread::scope` workers. The model is *lowered* into
//! a [`PackedLayer`] pipeline plan (see [`super::pipeline`]): conv cells
//! gather receptive fields with the word-level bitplane im2col, pool cells
//! fold words, dense cells run one tiled evaluation — heterogeneous
//! stacks (CIFAR VGG) and MLPs ride the same substrate. The two engines
//! are differentially tested to be bit-identical on every input; the
//! packed one is an order of magnitude faster (see the
//! `deploy_throughput` / `deploy_conv_throughput` benches).
//!
//! # Packed layout
//!
//! * **Bit order** — little-endian in the flat feature index: activation
//!   `i` of a `[C, H, W]` map (row-major, channel-major like
//!   [`BitMap`]) lives in word `i / 64`, bit `i % 64`; logic '1' = value
//!   `+1`. Weight rows use the same order over the fan-in
//!   (`in_c · k · k`, matching the im2col receptive-field order).
//! * **Padding semantics** — convolution padding contributes '0' bits
//!   (value −1), exactly the software model's −1 padding; tail bits past
//!   `len` are kept zero so whole-plane popcounts need no masking.
//! * **Batch-major stride** — a batch is a [`PackedMatrix`]: one row per
//!   sample, row stride `words_per_row()`. Workers slice the batch by
//!   rows, so each thread streams contiguous words.
//!
//! Crossbar *tiles* are sub-ranges of the fan-in: each tile's partial sum
//! is `2 · popcount(XNOR(w, a) & tile mask) − rows`. When the tiles fit
//! one lane width of 4, 8, 16 or 32 bits (a ragged last tile included),
//! whole words of them are counted at once in SWAR lane fields
//! ([`lane_counts_w`]). Tiles outside that layout are counted over their
//! precomputed word spans with boundary-word masks, so ragged tiles
//! (fan-in not a multiple of 64, or tiles narrower than a word) are
//! exact. Injected faults carry over from the deployment: stuck LiM cells
//! are baked into the packed weight planes, dead columns override the
//! tile vote.

use super::bitmap::BitMap;
use super::layer::{DeployedCell, TiledMatrix};
use super::model::{argmax, DeployedClassifier, DeployedModel};
use super::pipeline::PackedLayer;
use aqfp_crossbar::faults::{draw_faults_tiled, FaultModel, InjectedFaults, PatchJournal};
use aqfp_device::Bit;
use aqfp_sc::bitplane::lane_counts_w;
use aqfp_sc::{BitPlane, PackedMatrix, Word, V256};
use bnn_nn::Tensor;
use rand::Rng;

/// The packed twin of a [`TiledMatrix`]: weight bitplanes (one row per
/// output channel, faults included), per-tile integer comparator
/// thresholds and dead-column overrides.
///
/// `PartialEq` compares the *complete* packed state — weight planes,
/// tile spans, dead overrides, SWAR lane biases — which is what the
/// journal tests lean on to prove `patch → revert` is bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedTiledMatrix {
    /// `[out × fan_in]` weight bits, reassembled from the tile crossbars.
    weights: PackedMatrix,
    /// Row-tile boundaries over the fan-in (`k + 1` entries).
    row_starts: Vec<usize>,
    /// Column-group boundaries over the output channels (`groups + 1`
    /// entries) — kept so faults drawn per physical die can be mapped back
    /// onto the packed planes.
    col_starts: Vec<usize>,
    /// `[out × k]` channel-major integer thresholds.
    min_sums: Vec<i64>,
    /// `[out × k]` channel-major dead-column overrides
    /// (0 = live, 1 = stuck '0', 2 = stuck '1').
    dead: Vec<u8>,
    /// Per-tile word spans and boundary masks, aligned with the row
    /// tiles: tile `r`'s XNOR matches are the masked popcounts of words
    /// `first..=last` — precomputed once so the per-pixel tile loop does
    /// no index or mask arithmetic.
    spans: Vec<TileSpan>,
    /// SWAR acceleration for uniform power-of-two tile widths.
    swar: Option<Swar>,
    /// `[out × k]` channel-major programmed neuron thresholds in µA — the
    /// *analog* source the digital `min_sums` were quantized from, kept so
    /// the stochastic engine can evaluate finite-gray-zone flip
    /// probabilities (`super::stochastic`).
    thresholds_ua: Vec<f64>,
    /// Gray-zone width `ΔIin` of the neuron buffers at deployment, in µA.
    grayzone_ua: f64,
    /// Current-attenuation model at deployment.
    attenuation: aqfp_crossbar::AttenuationModel,
    /// SC observation window `L`.
    window: usize,
    /// Parallel-counter implementation of the SC accumulation module.
    counter: aqfp_sc::accumulate::CounterKind,
    flips: Vec<bool>,
    fan_in: usize,
    out: usize,
}

/// Widest `Word` the blocked matrix kernel's stack-allocated per-lane
/// vote buffer accommodates ([`V256`] today).
const MAX_LANES: usize = 4;

/// One row tile's precomputed word coverage: bit range
/// `[64·first + lo offset, 64·last + hi offset)` with `lo`/`hi` the valid
/// bit masks of the boundary words (interior words are whole).
#[derive(Debug, Clone, PartialEq, Eq)]
struct TileSpan {
    first: usize,
    last: usize,
    lo: u64,
    hi: u64,
    /// Tile width in bits (`end − start`), cached for the vote compare.
    len: i64,
}

impl TileSpan {
    fn new(start: usize, end: usize) -> Self {
        let first = start / 64;
        let last = (end - 1) / 64;
        let lo = u64::MAX << (start % 64);
        let hi_bits = end % 64;
        let hi = if hi_bits == 0 {
            u64::MAX
        } else {
            (1u64 << hi_bits) - 1
        };
        Self {
            first,
            last,
            lo,
            hi,
            len: (end - start) as i64,
        }
    }

    /// XNOR match count of the tile over `row`/`acts`.
    #[inline]
    fn matches(&self, row: &[u64], acts: &[u64]) -> usize {
        self.matches_with(row, |w| acts[w])
    }

    /// XNOR match count with the activation words read through `act` — the
    /// indirection that lets the lane-generic matrix kernel evaluate tail
    /// tiles on one lane of a transposed wide-word block without copying
    /// it back out to a `u64` slice first.
    #[inline]
    fn matches_with(&self, row: &[u64], act: impl Fn(usize) -> u64) -> usize {
        if self.first == self.last {
            return (!(row[self.first] ^ act(self.first)) & self.lo & self.hi).count_ones()
                as usize;
        }
        let mut m = (!(row[self.first] ^ act(self.first)) & self.lo).count_ones() as usize;
        for (w, &rw) in row.iter().enumerate().take(self.last).skip(self.first + 1) {
            m += (!(rw ^ act(w))).count_ones() as usize;
        }
        m + ((!(row[self.last] ^ act(self.last)) & self.hi).count_ones() as usize)
    }
}

/// SWAR (SIMD-within-a-register) tile evaluation: when every row tile is
/// `lane ∈ {4, 8, 16, 32}` bits wide, one XNOR word holds `64 / lane`
/// complete tiles. A parallel bit-count reduction yields all lane
/// popcounts at once, and adding a per-lane bias of `2^(lane−1) − t`
/// (where `t` is the tile's minimum match count, with dead columns encoded
/// as `t = 0` / `t = lane + 1`) sets each lane's top bit exactly when the
/// tile votes — so a channel's votes over a word are one popcount of the
/// masked top bits. When the tiles are lane-aligned (the planner's normal
/// output) the tables cover every tile — ragged last included, via
/// garbage-folded thresholds (see [`PackedTiledMatrix::build_swar`]) — and
/// `tail_tile` equals the tile count; only misaligned layouts leave tiles
/// on the generic range path.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Swar {
    /// Tile width in bits.
    lane: u32,
    /// Words per row covered by the tables (all of them when aligned).
    words: usize,
    /// First tile index evaluated generically (the tile count when the
    /// tables cover everything).
    tail_tile: usize,
    /// `[tail_tile]` per-tile constant count inflation (`lane − width`,
    /// the garbage-fold amount) — precomputed so per-pixel count readout
    /// ([`PackedTiledMatrix::matches_into`]) doesn't re-derive it from
    /// `row_starts` on every cell.
    slack: Vec<u32>,
    /// Lane top bits (`1 << (lane − 1)` replicated).
    msb_mask: u64,
    /// `[out × words]` per-lane comparator biases.
    bias: Vec<u64>,
}

impl PackedTiledMatrix {
    /// Packs a deployed tiled matrix (reads the crossbars' *stored*
    /// weights, so stuck-cell faults are baked in).
    pub fn from_tiled(m: &TiledMatrix) -> Self {
        let plan = m.plan();
        let k = plan.row_tiles();
        let (fan_in, out) = (m.fan_in(), m.out());
        let mut weights = PackedMatrix::zeros(out, fan_in);
        let mut min_sums = vec![0i64; out * k];
        let mut thresholds_ua = vec![0f64; out * k];
        let mut dead = vec![0u8; out * k];
        let xbars = m.tile_crossbars();
        let mins = m.digital_min_sums();
        #[allow(clippy::needless_range_loop)] // c indexes tile cols and mins
        for (idx, t) in plan.tiles.iter().enumerate() {
            let r = idx % k;
            for c in 0..t.cols {
                let channel = t.col_start + c;
                for row in 0..t.rows {
                    if xbars[idx].weight(row, c).as_bool() {
                        weights.set(channel, t.row_start + row, true);
                    }
                }
                min_sums[channel * k + r] = mins[idx][c];
                thresholds_ua[channel * k + r] = xbars[idx].thresholds_ua()[c];
                if let Some(&b) = m.dead_outputs().get(&(idx, c)) {
                    dead[channel * k + r] = if b.as_bool() { 2 } else { 1 };
                }
            }
        }
        let config = *xbars[0].config();
        let mut row_starts: Vec<usize> = plan.tiles[..k].iter().map(|t| t.row_start).collect();
        row_starts.push(fan_in);
        // Plan tiles are emitted column-major (all row tiles of one column
        // group consecutively), so every k-th tile starts a new group.
        let mut col_starts: Vec<usize> =
            plan.tiles.iter().step_by(k).map(|t| t.col_start).collect();
        col_starts.push(out);
        let spans = (0..k)
            .map(|r| TileSpan::new(row_starts[r], row_starts[r + 1]))
            .collect();
        let swar = Self::build_swar(&row_starts, &min_sums, &dead, out, fan_in);
        Self {
            weights,
            row_starts,
            col_starts,
            min_sums,
            dead,
            spans,
            swar,
            thresholds_ua,
            grayzone_ua: config.grayzone_ua,
            attenuation: config.attenuation,
            window: m.window(),
            counter: m.counter(),
            flips: m.flips().to_vec(),
            fan_in,
            out,
        }
    }

    /// Precomputes the SWAR tables when the tile geometry allows them.
    ///
    /// When every tile starts at a multiple of the lane width and is at
    /// most one lane wide — which [`TilingPlan`](super::layer) guarantees:
    /// all tiles are full `crossbar_rows` chunks except a ragged last —
    /// the tables cover **every** tile, ragged last included, and the
    /// per-pixel kernels have no scalar tail at all. The trick is that
    /// bits past a tile's width (ragged-tile slack and bits past `fan_in`)
    /// XNOR to a *constant* '1' — weight rows and activation planes both
    /// keep their tails zero (the bitplane layout invariant) — so each
    /// field's count is inflated by a fixed `garbage` amount that folds
    /// straight into the comparator threshold. Fields past the last tile
    /// get a never-vote threshold the same way.
    fn build_swar(
        row_starts: &[usize],
        min_sums: &[i64],
        dead: &[u8],
        out: usize,
        fan_in: usize,
    ) -> Option<Swar> {
        let k = row_starts.len() - 1;
        // Round the leading tile width up to a supported lane: a single
        // narrow tile (fan_in below the crossbar row count, e.g. a first
        // conv layer's 27-bit receptive field) rides the wider datapath
        // with its slack garbage-folded like any ragged tile. Multi-tile
        // layouts only align when the width is already a power of two.
        let lane = (row_starts[1] - row_starts[0]).next_power_of_two().max(4);
        if lane > 32 {
            return None;
        }
        let aligned =
            (0..k).all(|r| row_starts[r] == r * lane && row_starts[r + 1] - row_starts[r] <= lane);
        // Words covered by the tables: all of them when aligned (the
        // common case), else the whole-word uniform prefix with the rest
        // falling back to the generic span path.
        let (words, tail_tile) = if aligned {
            (fan_in.div_ceil(64), k)
        } else {
            let uniform = (0..k)
                .take_while(|&r| row_starts[r + 1] - row_starts[r] == lane)
                .count();
            let words = uniform * lane / 64;
            (words, words * (64 / lane))
        };
        if words == 0 {
            return None;
        }
        let lanes_per_word = 64 / lane;
        let msb = 1u64 << (lane - 1);
        let mut msb_mask = 0u64;
        for j in 0..lanes_per_word {
            msb_mask |= msb << (j * lane);
        }
        let mut bias = vec![0u64; out * words];
        for channel in 0..out {
            for i in 0..words {
                for j in 0..lanes_per_word {
                    let r = i * lanes_per_word + j;
                    let t = if r < tail_tile {
                        // Tile width and constant count inflation of this
                        // field (0 for full tiles in the uniform prefix).
                        let width = (row_starts[r + 1] - row_starts[r]) as i64;
                        let garbage = lane as i64 - width;
                        // Minimum XNOR match count for a vote: tile bit =
                        // '1' iff `2·matches − width ≥ min_sum`, i.e.
                        // `matches ≥ ⌈(min_sum + width) / 2⌉`; dead columns
                        // pin the vote via t = 0 (stuck '1') /
                        // width + 1 (stuck '0'); `garbage` shifts every
                        // threshold by the field's constant inflation.
                        garbage
                            + match dead[channel * k + r] {
                                1 => width + 1,
                                2 => 0,
                                _ => (min_sums[channel * k + r] + width + 1)
                                    .div_euclid(2)
                                    .clamp(0, width + 1),
                            }
                    } else {
                        // Field past the last tile: every bit is tail
                        // slack counting '1', so `lane + 1` never votes.
                        lane as i64 + 1
                    } as u64;
                    bias[channel * words + i] |= (msb - t) << (j * lane);
                }
            }
        }
        let slack = (0..tail_tile)
            .map(|r| lane as u32 - (row_starts[r + 1] - row_starts[r]) as u32)
            .collect();
        Some(Swar {
            lane: lane as u32,
            words,
            tail_tile,
            msb_mask,
            slack,
            bias,
        })
    }

    /// The primitive (serializable) state of the matrix — everything the
    /// snapshot codec persists. The derived acceleration state (tile
    /// spans, SWAR tables) is *not* part of it; [`Self::from_parts`]
    /// rebuilds it, which is faithful even for faulted matrices because
    /// fault injection keeps `dead` and the SWAR biases mutually
    /// consistent ([`Self::set_dead`] patches both from the same rule
    /// [`Self::build_swar`] applies).
    pub(crate) fn to_parts(&self) -> MatrixParts {
        MatrixParts {
            weights: self.weights.clone(),
            row_starts: self.row_starts.clone(),
            col_starts: self.col_starts.clone(),
            min_sums: self.min_sums.clone(),
            dead: self.dead.clone(),
            thresholds_ua: self.thresholds_ua.clone(),
            grayzone_ua: self.grayzone_ua,
            attenuation: self.attenuation,
            window: self.window,
            counter: self.counter,
            flips: self.flips.clone(),
            fan_in: self.fan_in,
            out: self.out,
        }
    }

    /// Reassembles a matrix from decoded snapshot parts, rebuilding the
    /// derived tile spans and SWAR tables. The snapshot codec validates
    /// the parts' internal consistency (monotone tile boundaries, table
    /// lengths, zero weight tails) before calling this.
    pub(crate) fn from_parts(p: MatrixParts) -> Self {
        let k = p.row_starts.len() - 1;
        let spans = (0..k)
            .map(|r| TileSpan::new(p.row_starts[r], p.row_starts[r + 1]))
            .collect();
        let swar = Self::build_swar(&p.row_starts, &p.min_sums, &p.dead, p.out, p.fan_in);
        Self {
            weights: p.weights,
            row_starts: p.row_starts,
            col_starts: p.col_starts,
            min_sums: p.min_sums,
            dead: p.dead,
            spans,
            swar,
            thresholds_ua: p.thresholds_ua,
            grayzone_ua: p.grayzone_ua,
            attenuation: p.attenuation,
            window: p.window,
            counter: p.counter,
            flips: p.flips,
            fan_in: p.fan_in,
            out: p.out,
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

    /// Number of row tiles `k` (crossbars accumulated per output channel).
    pub fn row_tiles(&self) -> usize {
        self.row_starts.len() - 1
    }

    /// The fan-in rows merged by row tile `r` (the `Cs` of the
    /// attenuation law for that die).
    pub fn tile_rows(&self, r: usize) -> usize {
        self.row_starts[r + 1] - self.row_starts[r]
    }

    /// Column-group boundaries over the output channels (`groups + 1`
    /// ascending entries, last = `out()`) — the deployment-plan grouping
    /// the scalar engine walks, exposed so the stochastic engine can
    /// consume the RNG in the identical (group, tile, column) order.
    pub fn col_group_starts(&self) -> &[usize] {
        &self.col_starts
    }

    /// The SC observation window `L` of the stochastic datapath.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The parallel-counter implementation of the SC accumulation module.
    pub fn counter(&self) -> aqfp_sc::accumulate::CounterKind {
        self.counter
    }

    /// The programmed neuron threshold of `channel` at row tile `r`, µA.
    pub fn threshold_ua(&self, channel: usize, r: usize) -> f64 {
        self.thresholds_ua[channel * self.row_tiles() + r]
    }

    /// Gray-zone width `ΔIin` the matrix was deployed with, in µA.
    pub fn grayzone_ua(&self) -> f64 {
        self.grayzone_ua
    }

    /// The current-attenuation model the matrix was deployed with.
    pub fn attenuation(&self) -> &aqfp_crossbar::AttenuationModel {
        &self.attenuation
    }

    /// Per-channel output-inversion flags (γ < 0 channels).
    pub fn flips(&self) -> &[bool] {
        &self.flips
    }

    /// The raw `[out × k]` dead-column state (0 live, 1 stuck '0', 2 stuck
    /// '1') — the bulk form of [`Self::dead_override`] for kernels that
    /// walk every cell and want the branch decided from one slice load.
    pub(crate) fn dead_cells(&self) -> &[u8] {
        &self.dead
    }

    /// The dead-column override of `channel` at row tile `r`, if that
    /// die's neuron is stuck.
    pub fn dead_override(&self, channel: usize, r: usize) -> Option<Bit> {
        match self.dead[channel * self.row_tiles() + r] {
            1 => Some(Bit::Zero),
            2 => Some(Bit::One),
            _ => None,
        }
    }

    /// Row-tile boundaries over the fan-in (`row_tiles() + 1` ascending
    /// entries, last = `fan_in()`) — the row twin of
    /// [`Self::col_group_starts`], exposed so the verification subsystem
    /// can map a die index to global `(row, channel)` coordinates.
    pub fn row_tile_starts(&self) -> &[usize] {
        &self.row_starts
    }

    /// The quantized integer comparator reference of `channel` at row
    /// tile `r`: the tile votes '1' iff its signed XNOR sum is
    /// `≥ min_sum`. Read-only access for per-tile counterexample
    /// localization (the decision kernels read the same table).
    pub fn min_sum(&self, channel: usize, r: usize) -> i64 {
        self.min_sums[channel * self.row_tiles() + r]
    }

    /// The currently stored weight bit of `channel` at fan-in position
    /// `bit` ('1' = +1) — faults included, since stuck cells overwrite
    /// the packed planes. The screening loop reads this to classify a
    /// stuck-at polarity as benign (equal to the stored weight) or
    /// malignant.
    pub fn weight_bit(&self, channel: usize, bit: usize) -> bool {
        self.weights.get(channel, bit)
    }

    /// Writes every channel's per-row-tile XNOR match count for one packed
    /// activation word slice into `out` (channel-major `[out × k]`,
    /// `matches ∈ 0..=tile_rows(r)`; the tile's signed partial sum is
    /// `2·matches − tile_rows(r)`).
    ///
    /// This is the counting stage of the stochastic engine: where the
    /// digital vote kernel ([`Self::forward_plane`]) only needs the
    /// *threshold* bit of each SWAR lane, the stochastic datapath needs
    /// the full per-tile sums (they set the gray-zone flip probability),
    /// so the same `lane_counts_w` reduction is read out lane-by-lane
    /// instead of being bias-compared.
    ///
    /// # Panics
    /// Panics if `out.len() != out() · row_tiles()` or the activation
    /// slice is shorter than the weight rows.
    pub fn matches_into(&self, acts: &[u64], out: &mut [u32]) {
        let k = self.spans.len();
        assert_eq!(out.len(), self.out * k, "match buffer shape mismatch");
        for channel in 0..self.out {
            let row = self.weights.row_words(channel);
            let dst = &mut out[channel * k..(channel + 1) * k];
            let mut tail = 0usize;
            if let Some(sw) = &self.swar {
                // `slack` has exactly `tail_tile` entries, so zipping the
                // destination against it both applies the garbage fold and
                // terminates the readout at the last covered tile —
                // fields past it (full-coverage tables round rows up to
                // whole words) are never visited. Bits past a tile's
                // width XNOR-match constantly (both planes keep zeroed
                // tails), so each raw field count is inflated by exactly
                // the slack width.
                let mut cells = dst.iter_mut().zip(&sw.slack);
                if sw.lane == 32 {
                    // Half-word tiles resolve with two hardware popcounts,
                    // skipping the SWAR reduction pyramid entirely — the
                    // 32×32-crossbar operating point, so this is the hot
                    // shape of the robustness engine.
                    'half: for (&rw, &aw) in row.iter().zip(acts).take(sw.words) {
                        let z = !(rw ^ aw);
                        for half in [z & 0xFFFF_FFFF, z >> 32] {
                            let Some((slot, &slack)) = cells.next() else {
                                break 'half;
                            };
                            *slot = half.count_ones() - slack;
                        }
                    }
                } else {
                    let lanes_per_word = (64 / sw.lane) as usize;
                    let lane_mask = (1u64 << sw.lane) - 1;
                    'words: for (&rw, &aw) in row.iter().zip(acts).take(sw.words) {
                        let counts = lane_counts_w(!(rw ^ aw), sw.lane);
                        for j in 0..lanes_per_word as u32 {
                            let Some((slot, &slack)) = cells.next() else {
                                break 'words;
                            };
                            *slot = ((counts >> (j * sw.lane)) & lane_mask) as u32 - slack;
                        }
                    }
                }
                tail = sw.tail_tile;
            }
            for (r, slot) in dst.iter_mut().enumerate().skip(tail) {
                *slot = self.spans[r].matches(row, acts) as u32;
            }
        }
    }

    /// The `(rows, cols)` of every physical crossbar die behind this
    /// packed matrix, in deployment plan order (column groups outer, row
    /// tiles inner). This is the geometry
    /// [`aqfp_crossbar::faults::draw_faults_tiled`] needs so a packed
    /// fault campaign consumes the RNG exactly like the scalar
    /// [`TiledMatrix::inject_faults`] walking its crossbars.
    pub fn tile_dims(&self) -> Vec<(usize, usize)> {
        let k = self.row_starts.len() - 1;
        let groups = self.col_starts.len() - 1;
        let mut dims = Vec::with_capacity(groups * k);
        for g in 0..groups {
            let cols = self.col_starts[g + 1] - self.col_starts[g];
            for r in 0..k {
                dims.push((self.row_starts[r + 1] - self.row_starts[r], cols));
            }
        }
        dims
    }

    /// Applies pre-drawn fabrication faults directly to the packed state —
    /// the word-level twin of
    /// [`apply_stuck_cells`](aqfp_crossbar::faults::apply_stuck_cells) plus
    /// dead-column registration, with the same semantics as re-lowering a
    /// faulted [`TiledMatrix`]:
    ///
    /// * stuck LiM cells overwrite weight bits, applied as per-word
    ///   clear/set masks on the packed planes
    ///   ([`PackedMatrix::apply_row_mask`]) instead of per-bit writes;
    /// * dead columns pin their tile's vote, folded into the SWAR lane
    ///   biases in place where the tile geometry uses them.
    ///
    /// `faults` must be aligned with [`Self::tile_dims`] (one entry per
    /// die, plan order); out-of-range cells within an entry are ignored,
    /// matching the scalar applier. An **empty** slice is an explicit
    /// no-op (a filtered-out draw), not a shape error.
    ///
    /// # Panics
    /// Panics if `faults` is non-empty and its length does not match the
    /// tile count.
    pub fn apply_faults(&mut self, faults: &[InjectedFaults]) {
        self.apply_faults_inner(faults, 0, None);
    }

    /// [`Self::apply_faults`] with an undo journal: every weight word and
    /// dead-column pin is recorded with its prior value (tagged with
    /// `layer`, the caller's pipeline-stage index) **before** being
    /// overwritten, so the caller can later restore the matrix bit-for-bit
    /// via the recorded entries in reverse order (see
    /// [`PackedModel::revert_faults`]). The applied state is identical to
    /// the unjournaled path; an empty slice is a no-op that records
    /// nothing.
    ///
    /// # Panics
    /// Panics if `faults` is non-empty and its length does not match the
    /// tile count.
    pub fn apply_faults_journaled(
        &mut self,
        faults: &[InjectedFaults],
        layer: usize,
        journal: &mut PatchJournal,
    ) {
        self.apply_faults_inner(faults, layer, Some(journal));
    }

    fn apply_faults_inner(
        &mut self,
        faults: &[InjectedFaults],
        layer: usize,
        mut journal: Option<&mut PatchJournal>,
    ) {
        // An empty draw is an explicit no-op, not a shape error: a
        // campaign that filters its draw list (or a pristine fault model
        // short-circuiting before the per-die walk) must leave the matrix
        // and the journal untouched, so the paired `revert_faults` is a
        // no-op too.
        if faults.is_empty() {
            return;
        }
        let k = self.row_starts.len() - 1;
        assert_eq!(
            faults.len(),
            (self.col_starts.len() - 1) * k,
            "fault draw / tile count mismatch"
        );
        for (idx, f) in faults.iter().enumerate() {
            let (g, r) = (idx / k, idx % k);
            let row_start = self.row_starts[r];
            let rows = self.row_starts[r + 1] - row_start;
            let col_start = self.col_starts[g];
            let cols = self.col_starts[g + 1] - col_start;
            if !f.stuck_cells.is_empty() {
                // Fold this die's stuck cells into one clear/set mask pair
                // per (channel, covered word) and apply them wholesale.
                let first = row_start / 64;
                let span = (row_start + rows - 1) / 64 - first + 1;
                let mut masks = vec![(0u64, 0u64); cols * span];
                for &(row, col, v) in &f.stuck_cells {
                    if row >= rows || col >= cols {
                        continue;
                    }
                    let bit = row_start + row;
                    let m = &mut masks[col * span + (bit / 64 - first)];
                    m.0 |= 1 << (bit % 64);
                    if v.as_bool() {
                        m.1 |= 1 << (bit % 64);
                    }
                }
                for c in 0..cols {
                    for w in 0..span {
                        let (clear, set) = masks[c * span + w];
                        if clear != 0 {
                            if let Some(j) = journal.as_deref_mut() {
                                j.record_word(
                                    layer,
                                    col_start + c,
                                    first + w,
                                    self.weights.row_words(col_start + c)[first + w],
                                );
                            }
                            self.weights
                                .apply_row_mask(col_start + c, first + w, clear, set);
                        }
                    }
                }
            }
            for &(col, b) in &f.dead_columns {
                if col < cols {
                    self.set_dead(col_start + col, r, b, layer, journal.as_deref_mut());
                }
            }
        }
    }

    /// Restores one journaled weight word (see
    /// [`PackedModel::revert_faults`] for the reverse-order contract).
    pub(crate) fn restore_word(&mut self, channel: usize, word: usize, prior: u64) {
        self.weights.row_words_mut(channel)[word] = prior;
    }

    /// Restores one journaled dead-column pin: the dead-override byte,
    /// and — where the tile runs on SWAR tables — the folded bias word its
    /// lane lives in.
    pub(crate) fn restore_pin(&mut self, channel: usize, tile: usize, dead: u8, bias: Option<u64>) {
        let k = self.row_starts.len() - 1;
        self.dead[channel * k + tile] = dead;
        if let Some(prior) = bias {
            let sw = self
                .swar
                .as_mut()
                .expect("a journaled bias word implies SWAR tables");
            let lanes_per_word = (64 / sw.lane) as usize;
            sw.bias[channel * sw.words + tile / lanes_per_word] = prior;
        }
    }

    /// Pins one channel's row-tile vote to a fabrication constant: updates
    /// the dead-override table and patches the affected SWAR bias lane in
    /// place (dead columns are encoded as comparator thresholds `t = 0`
    /// for stuck '1' / `t = lane + 1` for stuck '0'; see
    /// [`Self::build_swar`]).
    fn set_dead(
        &mut self,
        channel: usize,
        r: usize,
        stuck: Bit,
        layer: usize,
        journal: Option<&mut PatchJournal>,
    ) {
        let k = self.row_starts.len() - 1;
        if let Some(j) = journal {
            // SWAR tiles record the whole bias word their lane lives in;
            // overlapping pins restore correctly because reverts run in
            // reverse record order.
            let prior_bias = self.swar.as_ref().and_then(|sw| {
                (r < sw.tail_tile)
                    .then(|| sw.bias[channel * sw.words + r / (64 / sw.lane) as usize])
            });
            j.record_pin(layer, channel, r, self.dead[channel * k + r], prior_bias);
        }
        self.dead[channel * k + r] = if stuck.as_bool() { 2 } else { 1 };
        let width = (self.row_starts[r + 1] - self.row_starts[r]) as u64;
        if let Some(sw) = &mut self.swar {
            if r < sw.tail_tile {
                let lanes_per_word = (64 / sw.lane) as usize;
                let (i, j) = (r / lanes_per_word, r % lanes_per_word);
                let shift = (j as u32) * sw.lane;
                let msb = 1u64 << (sw.lane - 1);
                // Same garbage fold as `build_swar`: slack bits past the
                // tile's width count '1' constantly, shifting the pin
                // thresholds by `lane − width`.
                let garbage = sw.lane as u64 - width;
                let t = garbage + if stuck.as_bool() { 0 } else { width + 1 };
                let lane_mask = ((1u64 << sw.lane) - 1) << shift;
                let word = &mut sw.bias[channel * sw.words + i];
                *word = (*word & !lane_mask) | ((msb - t) << shift);
            }
        }
    }

    /// Per-channel loop-invariant state hoisted out of per-pixel inner
    /// loops: the weight row, SWAR bias slice, and the channel's slices of
    /// the tile threshold/override tables.
    #[inline]
    fn channel_ctx(&self, channel: usize) -> ChannelCtx<'_> {
        let k = self.row_starts.len() - 1;
        let base = channel * k;
        ChannelCtx {
            row: self.weights.row_words(channel),
            bias: self
                .swar
                .as_ref()
                .map(|sw| &sw.bias[channel * sw.words..(channel + 1) * sw.words]),
            min_sums: &self.min_sums[base..base + k],
            dead: &self.dead[base..base + k],
            flip: self.flips[channel],
        }
    }

    /// The output bit of one channel for one activation word slice: SWAR
    /// lane votes over the uniform tile prefix (the XNOR word is formed on
    /// the fly — no scratch buffer), precomputed-span masked popcounts for
    /// the tail tiles, majority vote with ties to '1', dead-column
    /// overrides, flip. The one decision kernel both
    /// [`Self::forward_plane`] and [`Self::forward_matrix`] evaluate
    /// through.
    #[inline]
    fn channel_bit(&self, ctx: &ChannelCtx<'_>, acts: &[u64]) -> bool {
        let k = self.spans.len();
        let mut votes = 0usize;
        let mut tail = 0usize;
        if let (Some(sw), Some(bias)) = (&self.swar, ctx.bias) {
            for i in 0..sw.words {
                let x = !(ctx.row[i] ^ acts[i]);
                votes +=
                    ((lane_counts_w(x, sw.lane) + bias[i]) & sw.msb_mask).count_ones() as usize;
            }
            tail = sw.tail_tile;
        }
        for r in tail..k {
            let vote = match ctx.dead[r] {
                1 => false,
                2 => true,
                _ => {
                    let sp = &self.spans[r];
                    2 * sp.matches(ctx.row, acts) as i64 - sp.len >= ctx.min_sums[r]
                }
            };
            votes += vote as usize;
        }
        (2 * votes >= k) != ctx.flip
    }

    /// A hoisted single-channel evaluator: the per-channel weight row,
    /// SWAR biases, thresholds, dead overrides, and flip resolved
    /// **once**, so a caller voting one channel across a whole sample
    /// batch (the event-driven delta engine re-voting a fault cone over
    /// every cached activation, or a conv channel over every output
    /// pixel) pays the context lookup per channel instead of per call.
    ///
    /// # Panics
    /// Panics if `channel >= out()`.
    #[inline]
    pub fn channel_eval(&self, channel: usize) -> ChannelEval<'_> {
        ChannelEval {
            matrix: self,
            ctx: self.channel_ctx(channel),
        }
    }

    /// The output channels a per-die fault draw vector can perturb:
    /// sorted, deduplicated global channel indices — the *fault cone
    /// roots* of the delta engine. A stuck cell or dead column on die
    /// `g·k + r` touches only channel `col_starts[g] + col`; draws that
    /// the applier would ignore (out-of-range die-local coordinates) are
    /// skipped here too, so the dirty set never overstates the cone. An
    /// empty slice (the explicit no-op draw) yields an empty set.
    ///
    /// # Panics
    /// Panics if `faults` is non-empty and its length does not match the
    /// tile count (same contract as [`Self::apply_faults`]).
    pub fn fault_channels(&self, faults: &[InjectedFaults]) -> Vec<usize> {
        if faults.is_empty() {
            return Vec::new();
        }
        let k = self.row_starts.len() - 1;
        assert_eq!(
            faults.len(),
            (self.col_starts.len() - 1) * k,
            "fault draw / tile count mismatch"
        );
        let mut channels = Vec::new();
        for (idx, f) in faults.iter().enumerate() {
            let (g, r) = (idx / k, idx % k);
            let rows = self.row_starts[r + 1] - self.row_starts[r];
            let col_start = self.col_starts[g];
            let cols = self.col_starts[g + 1] - col_start;
            for &(row, col, _) in &f.stuck_cells {
                if row < rows && col < cols {
                    channels.push(col_start + col);
                }
            }
            for &(col, _) in &f.dead_columns {
                if col < cols {
                    channels.push(col_start + col);
                }
            }
        }
        channels.sort_unstable();
        channels.dedup();
        channels
    }

    /// Reverts every patch of `journal` recorded against **this** matrix
    /// (in reverse record order — the overlapping-patch contract of
    /// [`PackedModel::revert_faults`]), then clears the journal. The
    /// matrix-level twin for callers that patch a bare
    /// [`PackedTiledMatrix`] rather than a whole pipeline (the die-level
    /// equivalence checker); the journal's `layer` tags are ignored, so
    /// only use it with journals recorded through this matrix's own
    /// [`Self::apply_faults_journaled`] calls.
    pub fn revert_faults(&mut self, journal: &mut PatchJournal) {
        for p in journal.pins().iter().rev() {
            self.restore_pin(p.channel, p.tile, p.prior_dead, p.prior_bias);
        }
        for w in journal.words().iter().rev() {
            self.restore_word(w.channel, w.word, w.prior);
        }
        journal.clear();
    }

    /// Evaluates all output channels for one packed activation plane —
    /// the word-parallel counterpart of [`TiledMatrix::forward_digital`].
    ///
    /// Per channel the XNOR product is formed word-by-word inside the
    /// vote kernel; each tile's partial sum is a masked popcount of its
    /// bit range, so the cost per channel is `O(words + tiles)` instead of
    /// `O(fan_in)`.
    ///
    /// # Panics
    /// Panics if `act.len() != fan_in`.
    pub fn forward_plane(&self, act: &BitPlane) -> BitPlane {
        assert_eq!(act.len(), self.fan_in, "input length mismatch");
        let mut out = BitPlane::zeros(self.out);
        let acts = act.words();
        for channel in 0..self.out {
            if self.channel_bit(&self.channel_ctx(channel), acts) {
                out.set(channel, true);
            }
        }
        out
    }

    /// Evaluates all output channels for *every row* of a packed
    /// activation matrix — the batched kernel of the packed conv stage,
    /// where the rows are the im2col receptive fields of all output
    /// pixels. Returns a `[out × acts.rows()]` matrix whose row `ch` holds
    /// channel `ch`'s bit per activation row; output bits are assembled as
    /// whole `u64` words, never set one at a time.
    ///
    /// Runs the lane-generic blocked kernel at [`V256`] width (four
    /// activation rows per machine word); see [`Self::forward_matrix_as`]
    /// for the kernel structure and the width-generic entry point.
    ///
    /// # Panics
    /// Panics if `acts.width() != fan_in`.
    pub fn forward_matrix(&self, acts: &PackedMatrix) -> PackedMatrix {
        self.forward_matrix_as::<V256>(acts)
    }

    /// The width-generic blocked matrix kernel behind
    /// [`Self::forward_matrix`], exposed so the differential tests and
    /// kernel benches can pin the lane count (`u64` = the scalar
    /// reference, [`V256`] = the wide datapath; both are bit-identical by
    /// construction and by proptest).
    ///
    /// Structure — cache-blocked, activation-stationary:
    ///
    /// * The activation rows are walked in **64-row blocks** (one output
    ///   word per channel per block). Each block is transposed once into
    ///   word-major wide words: wide word `s·words + w` holds activation
    ///   word `w` of rows `64·blk + s·LANES ..`, one row per lane. The
    ///   transposed block (`words × 64` words ≈ a few KiB for every
    ///   deployed geometry) stays L1-resident while **all** output
    ///   channels consume it — where the per-row kernel re-streamed the
    ///   whole im2col matrix once per channel, this streams it once per
    ///   block.
    /// * Per (channel, wide word): one splatted-weight XNOR, the
    ///   lane-generic SWAR reduction ([`lane_counts_w`]), a per-lane bias
    ///   add and MSB mask — `LANES` activation rows per operation. Vote
    ///   bits are shifted to their SWAR field base and accumulated
    ///   *vertically* in a wide accumulator, folded horizontally once per
    ///   sub-block (with a mid-loop fold only where the field width could
    ///   overflow), so the per-word work has no lane extractions.
    /// * Tail tiles (ragged last tile, bits past the SWAR words) use the
    ///   precomputed span popcounts per lane, reading the transposed
    ///   block in place.
    ///
    /// # Panics
    /// Panics if `acts.width() != fan_in`.
    pub fn forward_matrix_as<W: Word>(&self, acts: &PackedMatrix) -> PackedMatrix {
        assert_eq!(acts.width(), self.fan_in, "input width mismatch");
        let n = acts.rows();
        let words = acts.words_per_row();
        let mut out = PackedMatrix::zeros(self.out, n);
        if n == 0 || words == 0 {
            return out;
        }
        let k = self.spans.len();
        let lanes = W::LANES;
        assert!(
            64 % lanes == 0 && lanes <= MAX_LANES,
            "lane count must divide the output block and fit the vote buffer"
        );
        let subs = 64 / lanes;
        let storage = acts.storage();
        let ctxs: Vec<ChannelCtx<'_>> = (0..self.out).map(|c| self.channel_ctx(c)).collect();
        let sw = self.swar.as_ref();
        // Words the vertical vote accumulator can absorb before a SWAR
        // field (width `lane`, one vote bit per word) could overflow.
        let flush_every = sw.map_or(usize::MAX, |sw| {
            if sw.lane >= 32 {
                usize::MAX
            } else {
                (1usize << sw.lane) - 1
            }
        });
        let mut tbuf: Vec<W> = vec![W::zero(); subs * words];
        for blk in 0..n.div_ceil(64) {
            let base = blk * 64;
            let bcount = (n - base).min(64);
            // Transpose the block: lane l of tbuf[s·words + w] = word w of
            // activation row base + s·LANES + l (absent rows stay zero and
            // are never read back).
            tbuf.fill(W::zero());
            for p in 0..bcount {
                let row = &storage[(base + p) * words..(base + p + 1) * words];
                let (s, l) = (p / lanes, p % lanes);
                for (w, &word) in row.iter().enumerate() {
                    tbuf[s * words + w].set_lane(l, word);
                }
            }
            for (channel, ctx) in ctxs.iter().enumerate() {
                let mut cur = 0u64;
                // Channel-invariant SWAR state, hoisted out of the
                // sub-block loop: bias slice zipped with the weight words,
                // broadcast MSB mask, vote-bit downshift.
                let swar = match (sw, ctx.bias) {
                    (Some(sw), Some(bias)) => Some((sw, bias)),
                    _ => None,
                };
                let tail = swar.map_or(0, |(sw, _)| sw.tail_tile);
                for s in 0..bcount.div_ceil(lanes) {
                    let block = &tbuf[s * words..s * words + words];
                    let in_s = lanes.min(bcount - s * lanes);
                    // Per-lane votes of the uniform SWAR tiles, accumulated
                    // vertically at field bases.
                    let mut votes = [0usize; MAX_LANES];
                    if let Some((sw, bias)) = swar {
                        let msb = W::splat(sw.msb_mask);
                        let down = sw.lane - 1;
                        if sw.words < flush_every {
                            // Common case: the whole row fits one vertical
                            // accumulator without field overflow.
                            let mut acc = W::zero();
                            for ((&w, &b), &a) in ctx.row.iter().zip(bias).zip(&block[..sw.words]) {
                                let x = W::splat(w).xnor(a);
                                acc = acc.add64(
                                    lane_counts_w(x, sw.lane)
                                        .add64(W::splat(b))
                                        .and(msb)
                                        .shr(down),
                                );
                            }
                            Self::fold_votes(&acc, sw.lane, in_s, &mut votes);
                        } else {
                            let mut acc = W::zero();
                            let mut pending = 0usize;
                            for i in 0..sw.words {
                                let x = W::splat(ctx.row[i]).xnor(block[i]);
                                let hit =
                                    lane_counts_w(x, sw.lane).add64(W::splat(bias[i])).and(msb);
                                acc = acc.add64(hit.shr(down));
                                pending += 1;
                                if pending == flush_every {
                                    Self::fold_votes(&acc, sw.lane, in_s, &mut votes);
                                    acc = W::zero();
                                    pending = 0;
                                }
                            }
                            if pending > 0 {
                                Self::fold_votes(&acc, sw.lane, in_s, &mut votes);
                            }
                        }
                    }
                    for (l, votes) in votes.iter_mut().enumerate().take(in_s) {
                        for (r, sp) in self.spans.iter().enumerate().skip(tail) {
                            let vote = match ctx.dead[r] {
                                1 => false,
                                2 => true,
                                _ => {
                                    2 * sp.matches_with(ctx.row, |w| block[w].lane(l)) as i64
                                        - sp.len
                                        >= ctx.min_sums[r]
                                }
                            };
                            *votes += vote as usize;
                        }
                        let bit = (2 * *votes >= k) != ctx.flip;
                        cur |= (bit as u64) << (s * lanes + l);
                    }
                }
                out.row_words_mut(channel)[blk] = cur;
            }
        }
        out
    }

    /// Folds one vertical vote accumulator into per-lane totals: each
    /// 64-bit lane of `acc` holds SWAR fields of width `lane` counting the
    /// votes of the tiles at that field position; the horizontal field sum
    /// is lane `l`'s vote count, added into `votes[l]`.
    #[inline]
    fn fold_votes<W: Word>(acc: &W, lane: u32, in_s: usize, votes: &mut [usize; MAX_LANES]) {
        let field_mask = if lane == 32 {
            // `lane_counts_w` leaves 32-bit-lane counts in 16-bit
            // sub-fields, but vote bits were masked to the field MSB and
            // shifted to the base, so the full field mask is correct here.
            0xffff_ffffu64
        } else {
            (1u64 << lane) - 1
        };
        let fields = (64 / lane) as usize;
        for (l, votes) in votes.iter_mut().enumerate().take(in_s) {
            let v = acc.lane(l);
            let mut sum = 0u64;
            for j in 0..fields {
                sum += (v >> (j as u32 * lane)) & field_mask;
            }
            *votes += sum as usize;
        }
    }
}

/// The primitive state of a [`PackedTiledMatrix`], as persisted by the
/// snapshot codec (see [`super::snapshot`] for the wire format). Derived
/// state (tile spans, SWAR tables) is rebuilt on reassembly.
#[derive(Debug, Clone)]
pub(crate) struct MatrixParts {
    pub(crate) weights: PackedMatrix,
    pub(crate) row_starts: Vec<usize>,
    pub(crate) col_starts: Vec<usize>,
    pub(crate) min_sums: Vec<i64>,
    pub(crate) dead: Vec<u8>,
    pub(crate) thresholds_ua: Vec<f64>,
    pub(crate) grayzone_ua: f64,
    pub(crate) attenuation: aqfp_crossbar::AttenuationModel,
    pub(crate) window: usize,
    pub(crate) counter: aqfp_sc::accumulate::CounterKind,
    pub(crate) flips: Vec<bool>,
    pub(crate) fan_in: usize,
    pub(crate) out: usize,
}

/// Loop-invariant per-channel slices of a [`PackedTiledMatrix`] (see
/// [`PackedTiledMatrix::channel_ctx`]).
#[derive(Clone, Copy)]
struct ChannelCtx<'a> {
    row: &'a [u64],
    bias: Option<&'a [u64]>,
    min_sums: &'a [i64],
    dead: &'a [u8],
    flip: bool,
}

/// A single output channel's decision kernel with its per-channel state
/// pre-resolved — see [`PackedTiledMatrix::channel_eval`]. Borrows the
/// matrix; build one per channel, evaluate it across many activation
/// slices.
#[derive(Clone, Copy)]
pub struct ChannelEval<'a> {
    matrix: &'a PackedTiledMatrix,
    ctx: ChannelCtx<'a>,
}

impl ChannelEval<'_> {
    /// The channel's output bit for one packed activation word slice —
    /// bit `channel` of [`PackedTiledMatrix::forward_plane`] on the same
    /// activations, so the delta engine ([`super::delta`]) can splice
    /// re-voted faulted channels over a cached clean output bit for bit.
    ///
    /// # Panics
    /// Panics if `acts` is shorter than the weight rows.
    #[inline]
    pub fn bit(&self, acts: &[u64]) -> bool {
        self.matrix.channel_bit(&self.ctx, acts)
    }
}

/// The batched bit-packed deploy engine: a lowered [`PackedLayer`]
/// pipeline plus the digital classifier head.
///
/// Built once from a [`DeployedModel`] (carrying over any injected
/// faults), then evaluated on whole batches without RNG. Predictions are
/// bit-identical to [`DeployedModel::classify_digital`].
///
/// `PartialEq` compares the full lowered state (pipeline stages with
/// their packed matrices, classifier head, worker knob) — the equality
/// the undo-journal tests assert across `patch → evaluate → revert`.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedModel {
    input_shape: [usize; 3],
    layers: Vec<PackedLayer>,
    classifier: DeployedClassifier,
    workers: usize,
}

impl PackedModel {
    /// Lowers a deployed model into its packed pipeline plan (see
    /// [`super::pipeline`] for the lowering rules): conv cells become
    /// conv (+ pool) stages, dense cells become linear stages with a
    /// [`PackedLayer::Flatten`] inserted wherever the incoming shape is
    /// still spatial.
    pub fn from_deployed(model: &DeployedModel) -> Self {
        let mut layers = Vec::new();
        let mut shape = model.input_shape();
        for cell in model.cells() {
            if matches!(cell, DeployedCell::Dense(_)) && shape[1] * shape[2] != 1 {
                layers.push(PackedLayer::Flatten);
                shape = [shape[0] * shape[1] * shape[2], 1, 1];
            }
            for stage in PackedLayer::lower(cell) {
                shape = stage.out_shape(shape);
                layers.push(stage);
            }
        }
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            input_shape: model.input_shape(),
            layers,
            classifier: model.classifier().clone(),
            workers,
        }
    }

    /// Reassembles a packed model from decoded snapshot parts (the
    /// snapshot codec validates the layer shape chain before calling
    /// this). The worker count is a runtime knob, not model state, so it
    /// resets to the machine default.
    pub(crate) fn from_parts(
        input_shape: [usize; 3],
        layers: Vec<PackedLayer>,
        classifier: DeployedClassifier,
    ) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            input_shape,
            layers,
            classifier,
            workers,
        }
    }

    /// The lowered pipeline stages, in execution order.
    pub fn layers(&self) -> &[PackedLayer] {
        &self.layers
    }

    /// The digital classifier head the pipeline's final plane feeds.
    pub fn classifier(&self) -> &DeployedClassifier {
        &self.classifier
    }

    /// Overrides the worker-thread count of the batch entry points
    /// (default: `std::thread::available_parallelism()`).
    ///
    /// # Errors
    /// [`DeployError::ZeroWorkers`](super::DeployError::ZeroWorkers) if
    /// `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> crate::Result<Self> {
        if workers == 0 {
            return Err(super::DeployError::ZeroWorkers);
        }
        self.workers = workers;
        Ok(self)
    }

    /// The worker-thread count the batch entry points fan across.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The expected input shape `[C, H, W]`.
    pub fn input_shape(&self) -> [usize; 3] {
        self.input_shape
    }

    /// Injects fabrication faults directly into the lowered pipeline — the
    /// packed twin of [`DeployedModel::inject_faults`], built for Monte
    /// Carlo robustness campaigns where re-deploying and re-lowering the
    /// whole model per trial would dominate the runtime. Faults are drawn
    /// per physical die with the *same* RNG consumption order as the
    /// scalar path (layer by layer, tiles in plan order), so the same seed
    /// produces the same defects on either engine and faulted predictions
    /// stay bit-identical to the faulted scalar reference. The digital
    /// classifier head is assumed testable/repairable and stays clean.
    /// Returns the total defect count.
    pub fn inject_faults<R: Rng + ?Sized>(&mut self, model: &FaultModel, rng: &mut R) -> usize {
        let mut defects = 0usize;
        for layer in &mut self.layers {
            let Some(m) = layer.matrix_mut() else {
                continue;
            };
            let faults = draw_faults_tiled(model, &m.tile_dims(), rng);
            defects += faults.iter().map(InjectedFaults::count).sum::<usize>();
            m.apply_faults(&faults);
        }
        defects
    }

    /// [`Self::inject_faults`] with an undo journal — the clone-free trial
    /// primitive of the Monte Carlo robustness engine. Every patched
    /// weight word and dead-column pin is recorded with its prior value in
    /// `journal` (which is **appended to**, not cleared), so
    /// [`Self::revert_faults`] restores the model bit-for-bit afterwards.
    /// RNG consumption, the injected state and the returned defect count
    /// are identical to the unjournaled path.
    pub fn inject_faults_journaled<R: Rng + ?Sized>(
        &mut self,
        model: &FaultModel,
        rng: &mut R,
        journal: &mut PatchJournal,
    ) -> usize {
        let draws = self.draw_faults(model, rng);
        self.apply_draws_journaled(&draws, journal)
    }

    /// Draws one fault pattern for the whole pipeline **without applying
    /// it**: one per-die draw vector per pipeline stage (empty for
    /// weight-free stages), in stage order. Drawing is state-independent
    /// — [`draw_faults_tiled`] reads only the tile geometry and the RNG —
    /// so drawing every layer up front consumes the RNG exactly like the
    /// interleaved draw-and-apply walk of [`Self::inject_faults`]; the
    /// same seed names the same defects. The split exists for the delta
    /// engine: a caller can inspect the draw's fault cone
    /// ([`super::delta::DirtyChannels::from_draws`]) before committing it
    /// with [`Self::apply_draws_journaled`].
    pub fn draw_faults<R: Rng + ?Sized>(
        &self,
        model: &FaultModel,
        rng: &mut R,
    ) -> Vec<Vec<InjectedFaults>> {
        self.layers
            .iter()
            .map(|layer| match layer {
                PackedLayer::Conv(c) => draw_faults_tiled(model, &c.matrix().tile_dims(), rng),
                PackedLayer::Linear(l) => draw_faults_tiled(model, &l.matrix().tile_dims(), rng),
                PackedLayer::Pool(_) | PackedLayer::Flatten => Vec::new(),
            })
            .collect()
    }

    /// Applies a pre-drawn pipeline fault pattern (one entry per stage,
    /// as produced by [`Self::draw_faults`]) through the undo journal and
    /// returns the defect count. `draw_faults` + `apply_draws_journaled`
    /// is state-for-state identical to [`Self::inject_faults_journaled`].
    ///
    /// # Panics
    /// Panics if `draws.len()` does not match the stage count, a
    /// weight-free stage carries a non-empty draw, or a stage draw's
    /// length does not match its tile count.
    pub fn apply_draws_journaled(
        &mut self,
        draws: &[Vec<InjectedFaults>],
        journal: &mut PatchJournal,
    ) -> usize {
        assert_eq!(
            draws.len(),
            self.layers.len(),
            "draw / stage count mismatch"
        );
        let mut defects = 0usize;
        for (li, (layer, faults)) in self.layers.iter_mut().zip(draws).enumerate() {
            let Some(m) = layer.matrix_mut() else {
                assert!(faults.is_empty(), "fault draw on a weight-free stage");
                continue;
            };
            defects += faults.iter().map(InjectedFaults::count).sum::<usize>();
            m.apply_faults_journaled(faults, li, journal);
        }
        defects
    }

    /// Applies one stage's **pre-drawn** fault set through the journal —
    /// the explicit-site injection primitive of the ATPG screening loop
    /// and the fault-universe equivalence checks, which iterate *named*
    /// defects (see [`aqfp_crossbar::faults::StructuralFault`]) instead
    /// of drawing them from rates. `faults` must be aligned with the
    /// stage matrix's [`PackedTiledMatrix::tile_dims`] (or empty for a
    /// no-op); [`Self::revert_faults`] restores the model bit-for-bit.
    ///
    /// # Panics
    /// Panics if `layer` is out of range or names a weight-free stage
    /// (pool/flatten), or on a non-empty draw/tile count mismatch.
    pub fn apply_layer_faults_journaled(
        &mut self,
        layer: usize,
        faults: &[InjectedFaults],
        journal: &mut PatchJournal,
    ) {
        self.layers[layer]
            .matrix_mut()
            .expect("fault injection on a weight-free stage")
            .apply_faults_journaled(faults, layer, journal);
    }

    /// Reverts every patch recorded in `journal` — in reverse record
    /// order, the contract that makes overlapping patches (adjacent row
    /// tiles sharing a boundary word, repeated pins of one SWAR bias word)
    /// unwind to the original state — then clears the journal for reuse.
    /// After the call the model is bit-for-bit the one
    /// [`Self::inject_faults_journaled`] started from: weight planes, dead
    /// overrides and SWAR lane biases included.
    ///
    /// # Panics
    /// Panics if a journal entry references a stage without a weight
    /// matrix (a journal recorded on a different model).
    pub fn revert_faults(&mut self, journal: &mut PatchJournal) {
        for p in journal.pins().iter().rev() {
            self.layers[p.layer]
                .matrix_mut()
                .expect("journal entry on a weight-free stage")
                .restore_pin(p.channel, p.tile, p.prior_dead, p.prior_bias);
        }
        for w in journal.words().iter().rev() {
            self.layers[w.layer]
                .matrix_mut()
                .expect("journal entry on a weight-free stage")
                .restore_word(w.channel, w.word, w.prior);
        }
        journal.clear();
    }

    /// Classifies a batch of packed `[C, H, W]` input planes on the calling
    /// thread — the one fold over the pipeline plan that every digital
    /// entry point (the worker fan-out of [`Self::classify_batch`], the
    /// serving layer's batch kernel, the robustness trials) runs. Conv,
    /// pool and flatten stages fold each plane individually; linear stages
    /// pack the whole batch into one activation matrix and run the blocked
    /// GEMM kernel ([`PackedTiledMatrix::forward_matrix`]), which is where
    /// coalescing arrivals into one batch pays. Results come back in input
    /// order, and a one-plane batch folds through the per-plane stage
    /// kernels alone, so any batching of the same planes gives bit-identical
    /// results.
    ///
    /// # Panics
    /// Panics if any plane's length does not match the input shape.
    pub fn classify_planes(&self, planes: &[BitPlane]) -> Vec<(usize, Vec<f32>)> {
        let n = planes.len();
        if n == 0 {
            return Vec::new();
        }
        let in_bits: usize = self.input_shape.iter().product();
        for p in planes {
            assert_eq!(p.len(), in_bits, "input plane length mismatch");
        }
        let mut acts: Vec<BitPlane> = planes.to_vec();
        let mut shape = self.input_shape;
        for layer in &self.layers {
            match layer {
                PackedLayer::Linear(l) if n > 1 => {
                    let out = l.matrix().forward_matrix(&PackedMatrix::from_planes(&acts));
                    for (s, plane) in acts.iter_mut().enumerate() {
                        let mut p = BitPlane::zeros(out.rows());
                        for c in 0..out.rows() {
                            if out.get(c, s) {
                                p.set(c, true);
                            }
                        }
                        *plane = p;
                    }
                    shape = [out.rows(), 1, 1];
                }
                _ => {
                    let mut next_shape = shape;
                    for plane in acts.iter_mut() {
                        let taken = std::mem::replace(plane, BitPlane::zeros(0));
                        let (next, ns) = layer.forward(taken, shape);
                        *plane = next;
                        next_shape = ns;
                    }
                    shape = next_shape;
                }
            }
        }
        acts.iter()
            .map(|plane| {
                let scores = self.classifier.scores_plane(plane);
                (argmax(&scores), scores)
            })
            .collect()
    }

    /// Classifies the first `limit` samples (default: all) of a
    /// `[N, C, H, W]` tensor: packs each sample once (sign-binarized by
    /// [`BitMap::from_tensor_sample`]) and fans one contiguous chunk of
    /// planes per worker through [`Self::classify_planes`]. Results come
    /// back in sample order.
    pub fn classify_batch(&self, images: &Tensor, limit: Option<usize>) -> Vec<(usize, Vec<f32>)> {
        let n = limit.map_or(images.shape()[0], |l| l.min(images.shape()[0]));
        if n == 0 {
            return Vec::new();
        }
        let planes: Vec<BitPlane> = (0..n)
            .map(|i| BitMap::from_tensor_sample(images, i).to_plane())
            .collect();
        let chunk = n.div_ceil(self.workers.min(n));
        std::thread::scope(|s| {
            let handles: Vec<_> = planes
                .chunks(chunk)
                .map(|c| s.spawn(move || self.classify_planes(c)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("classify worker panicked"))
                .collect()
        })
    }

    /// Top-1 accuracy over pre-packed input planes with their labels —
    /// the eval-set-cache entry point of the robustness sweeps: the
    /// campaign packs its evaluation samples once and every trial scores
    /// the shared planes on the calling thread through
    /// [`Self::classify_planes`], instead of re-binarizing the tensor per
    /// trial.
    ///
    /// # Panics
    /// Panics if `planes` is empty or the lengths differ.
    pub fn accuracy_planes(&self, planes: &[BitPlane], labels: &[usize]) -> f64 {
        assert_eq!(planes.len(), labels.len(), "plane/label count mismatch");
        top1(&self.classify_planes(planes), labels)
    }

    /// Top-1 accuracy over (the first `limit` samples of) a dataset,
    /// classified by [`Self::classify_batch`].
    ///
    /// # Panics
    /// Panics if no sample is evaluated.
    pub fn accuracy(&self, data: &bnn_datasets::Dataset, limit: Option<usize>) -> f64 {
        let n = limit.map_or(data.len(), |l| l.min(data.len()));
        top1(&self.classify_batch(&data.images, Some(n)), &data.labels)
    }
}

/// The share of `preds` whose label matches `labels` (zipped in order) —
/// the counting rule of both digital accuracy entry points.
///
/// # Panics
/// Panics if `preds` is empty.
pub(super) fn top1(preds: &[(usize, Vec<f32>)], labels: &[usize]) -> f64 {
    assert!(!preds.is_empty(), "accuracy over zero samples");
    let correct = preds
        .iter()
        .zip(labels)
        .filter(|((p, _), &l)| *p == l)
        .count();
    correct as f64 / preds.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HardwareConfig;
    use crate::deploy::deploy;
    use crate::spec::NetSpec;
    use aqfp_device::Bit;

    fn hw(rows: usize, cols: usize) -> HardwareConfig {
        HardwareConfig {
            crossbar_rows: rows,
            crossbar_cols: cols,
            ..Default::default()
        }
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

    #[test]
    fn packed_matrix_matches_scalar_digital_on_ragged_geometry() {
        // fan_in 70 with 8-row crossbars: 9 row tiles, the last ragged;
        // 6 outputs over 4-col crossbars: ragged column group too.
        let h = hw(8, 4);
        let fan_in = 70;
        let out = 6;
        let signs = pseudo_signs(fan_in * out, 1);
        let vth: Vec<f64> = (0..out).map(|o| o as f64 - 2.5).collect();
        let flips: Vec<bool> = (0..out).map(|o| o % 3 == 0).collect();
        let m = TiledMatrix::new(&signs, fan_in, out, vth, flips, &h);
        let packed = PackedTiledMatrix::from_tiled(&m);
        for salt in 0..24 {
            let input: Vec<Bit> = (0..fan_in)
                .map(|i| Bit::from_bool((i * 13 + salt * 7) % 3 == 0))
                .collect();
            let scalar = m.forward_digital(&input);
            let plane = packed.forward_plane(&BitPlane::from_bits(&input));
            assert_eq!(plane.to_bits(), scalar, "salt {salt}");
        }
    }

    #[test]
    fn packed_model_is_bit_identical_to_scalar_digital_mlp() {
        let h = hw(16, 16);
        let spec = NetSpec::mlp(&[1, 16, 16], &[32], 10);
        let model = spec.build_software(&h, 3);
        let deployed = deploy(&spec, &model, &h).unwrap();
        let packed = deployed.to_packed().with_workers(2).unwrap();
        let data = bnn_datasets::digits::generate_digits(&bnn_datasets::SynthConfig {
            samples_per_class: 2,
            ..Default::default()
        });
        let batch = packed.classify_batch(&data.images, None);
        assert_eq!(batch.len(), data.len());
        for (i, (label, scores)) in batch.iter().enumerate() {
            let (sl, ss) = deployed.classify_digital(&data.images, i);
            assert_eq!((*label, scores), (sl, &ss), "sample {i}");
        }
    }

    #[test]
    fn packed_model_is_bit_identical_on_conv_pipeline() {
        let h = hw(32, 16);
        let spec = NetSpec::vgg_small([1, 16, 16], 4, 10);
        let model = spec.build_software(&h, 4);
        let deployed = deploy(&spec, &model, &h).unwrap();
        let packed = deployed.to_packed();
        let data = bnn_datasets::digits::generate_digits(&bnn_datasets::SynthConfig {
            samples_per_class: 1,
            ..Default::default()
        });
        let batch = packed.classify_batch(&data.images, Some(3));
        for (i, got) in batch.iter().enumerate() {
            assert_eq!(
                *got,
                deployed.classify_digital(&data.images, i),
                "sample {i}"
            );
        }
    }

    #[test]
    fn tile_dims_cover_the_matrix() {
        let h = hw(8, 4);
        let (fan_in, out) = (70, 6);
        let signs = pseudo_signs(fan_in * out, 2);
        let m = TiledMatrix::new(&signs, fan_in, out, vec![0.0; out], vec![false; out], &h);
        let packed = PackedTiledMatrix::from_tiled(&m);
        let dims = packed.tile_dims();
        assert_eq!(dims.len(), m.plan().tiles.len());
        for (d, t) in dims.iter().zip(&m.plan().tiles) {
            assert_eq!(*d, (t.rows, t.cols));
        }
        let cells: usize = dims.iter().map(|&(r, c)| r * c).sum();
        assert_eq!(cells, fan_in * out);
    }

    /// Injecting the same seed into the scalar deployment and into the
    /// lowered packed pipeline must produce the same defects and
    /// bit-identical classifications — including saturated dead-column
    /// rates that exercise the SWAR bias patching.
    #[test]
    fn packed_injection_matches_scalar_injection() {
        use aqfp_device::{DeviceRng, SeedableRng};
        let h = hw(16, 16); // 16-bit SWAR lanes on the dense stages
        let spec = NetSpec::mlp(&[1, 16, 16], &[32], 10);
        let model = spec.build_software(&h, 9);
        let data = bnn_datasets::digits::generate_digits(&bnn_datasets::SynthConfig {
            samples_per_class: 2,
            ..Default::default()
        });
        for (stuck, dead) in [(0.0, 0.0), (0.3, 0.0), (0.0, 1.0), (0.2, 0.4)] {
            let fm = FaultModel::new(stuck, dead).unwrap();
            let mut deployed = deploy(&spec, &model, &h).unwrap();
            let mut packed = deployed.to_packed().with_workers(2).unwrap();
            let scalar_defects = deployed.inject_faults(&fm, &mut DeviceRng::seed_from_u64(21));
            let packed_defects = packed.inject_faults(&fm, &mut DeviceRng::seed_from_u64(21));
            assert_eq!(scalar_defects, packed_defects, "rates ({stuck}, {dead})");
            for (i, got) in packed.classify_batch(&data.images, None).iter().enumerate() {
                assert_eq!(
                    *got,
                    deployed.classify_digital(&data.images, i),
                    "rates ({stuck}, {dead}), sample {i}"
                );
            }
        }
    }

    /// Chunking the batch across workers never changes a result, on the
    /// MLP (linear GEMM per chunk) and on the VGG conv pipeline, at
    /// sample counts the worker counts leave ragged chunks of.
    #[test]
    fn single_worker_and_many_workers_agree() {
        for (spec, rows, cols, n) in [
            (NetSpec::mlp(&[1, 16, 16], &[16], 10), 16, 16, 10),
            (NetSpec::vgg_small([1, 16, 16], 4, 10), 32, 16, 13),
        ] {
            let h = hw(rows, cols);
            let model = spec.build_software(&h, 5);
            let deployed = deploy(&spec, &model, &h).unwrap();
            let data = bnn_datasets::digits::generate_digits(&bnn_datasets::SynthConfig {
                samples_per_class: 2,
                ..Default::default()
            });
            let one = deployed
                .to_packed()
                .with_workers(1)
                .unwrap()
                .classify_batch(&data.images, Some(n));
            assert_eq!(one.len(), n);
            for workers in [3, 4, 7] {
                let many = deployed.to_packed().with_workers(workers).unwrap();
                assert_eq!(
                    one,
                    many.classify_batch(&data.images, Some(n)),
                    "{workers} workers"
                );
            }
        }
    }

    #[test]
    fn zero_workers_is_an_error_not_a_panic() {
        let h = hw(16, 16);
        let spec = NetSpec::mlp(&[1, 16, 16], &[16], 10);
        let model = spec.build_software(&h, 5);
        let deployed = deploy(&spec, &model, &h).unwrap();
        assert!(matches!(
            deployed.to_packed().with_workers(0),
            Err(crate::deploy::DeployError::ZeroWorkers)
        ));
    }

    /// The coalesced batch kernel must be bit-identical to one-plane
    /// batches on both pipeline shapes (MLP: the batched linear GEMM
    /// against the per-plane linear kernel; VGG: conv/pool stages folding
    /// per plane), for every batch size around the word boundary.
    #[test]
    fn classify_planes_matches_per_sample_classify() {
        for (spec, rows, cols) in [
            (NetSpec::mlp(&[1, 16, 16], &[32], 10), 16usize, 16usize),
            (NetSpec::vgg_small([1, 16, 16], 4, 10), 32, 16),
        ] {
            let h = hw(rows, cols);
            let model = spec.build_software(&h, 6);
            let deployed = deploy(&spec, &model, &h).unwrap();
            let packed = deployed.to_packed();
            let data = bnn_datasets::digits::generate_digits(&bnn_datasets::SynthConfig {
                samples_per_class: 7,
                ..Default::default()
            });
            let planes: Vec<BitPlane> = (0..data.len())
                .map(|i| BitMap::from_tensor_sample(&data.images, i).to_plane())
                .collect();
            for n in [0usize, 1, 2, 63, 64, 65, 70] {
                let n = n.min(planes.len());
                let batch = packed.classify_planes(&planes[..n]);
                assert_eq!(batch.len(), n);
                for (i, got) in batch.iter().enumerate() {
                    let one = packed.classify_planes(std::slice::from_ref(&planes[i]));
                    assert_eq!(*got, one[0], "sample {i} of {n}");
                }
            }
        }
    }
}
