//! Bit-packed ±1 planes and matrices — the shared substrate of every
//! XNOR–popcount fast path in the workspace.
//!
//! A [`BitPlane`] packs a vector of AQFP logic values (±1 in the BNN value
//! domain) into `u64` words, 64 bits per word. The packing is little-endian
//! in the index: element `i` lives in word `i / 64`, bit `i % 64`. Unused
//! high bits of the last word are kept zero by every constructor and
//! mutation, so whole-plane popcounts need no masking.
//!
//! On top of the plane, [`PackedMatrix`] stores a row-major matrix of
//! planes sharing one width (one contiguous `u64` buffer, each row padded
//! to a whole number of words). Together they turn the signed dot product
//! of ±1 vectors into `2·popcount(XNOR(a, b)) − n` evaluated word-by-word —
//! the software analogue of the paper's massively parallel single-bit
//! hardware datapath. [`xnor_ones_range`] additionally counts matches over
//! an arbitrary bit range, which is what crossbar *tiles* (sub-ranges of a
//! layer's fan-in) need.
//!
//! # Word layout invariant
//!
//! Every kernel in this module — and every consumer in the workspace, from
//! the software BNN baseline to the batched deploy engine — assumes
//! **little-endian-in-index** packing: element `i` lives in word `i / 64`
//! at bit position `i % 64`, logic '1' encodes the value `+1`, and bits
//! past the declared length (the *tail* of the last word, and row bits
//! past `width` in a [`PackedMatrix`]) are zero. Constructors establish
//! the tail invariant and safe mutators preserve it; the raw-word escape
//! hatches ([`PackedMatrix::storage_mut`], [`PackedMatrix::row_words_mut`],
//! [`PackedMatrix::apply_row_mask`]) document it as a caller obligation.
//! Breaking it silently corrupts whole-plane popcounts.
//!
//! # Worked example: pack → `packed_im2col` → XNOR dot
//!
//! The three steps every packed convolution takes — binarize and pack a
//! feature map, unfold its receptive fields by whole-word shifts, and
//! take the XNOR–popcount dot of each field with a filter:
//!
//! ```
//! use aqfp_sc::bitplane::{packed_im2col, BitPlane};
//!
//! // 1. Pack a 1-channel 4×4 feature map by sign (v ≥ 0 packs as +1).
//! let values: Vec<f32> = (0..16).map(|i| if i % 3 == 0 { 1.0 } else { -1.0 }).collect();
//! let plane = BitPlane::from_signs(&values);
//! assert_eq!(plane.len(), 16);
//!
//! // 2. Unfold 3×3 receptive fields (stride 1, pad 1 reads as −1):
//! //    one row per output pixel, c·k·k = 9 bits per row.
//! let fields = packed_im2col(&plane, 1, 4, 4, 3, 1, 1, false);
//! assert_eq!((fields.rows(), fields.width()), (16, 9));
//!
//! // 3. A ±1 filter as a packed plane; each pixel's signed dot is
//! //    `2·popcount(XNOR) − 9`. An all-(+1) filter's dot is the field's
//! //    popcount scaled to ±1.
//! let filter = BitPlane::ones(9);
//! for pixel in 0..fields.rows() {
//!     let field = fields.row_plane(pixel);
//!     assert_eq!(filter.xnor_dot(&field), 2 * field.count_ones() as i64 - 9);
//! }
//! ```

use aqfp_device::Bit;
use serde::{Deserialize, Serialize};

/// A packed vector of ±1 values: bit `1` carries `+1`, bit `0` carries `−1`.
///
/// Layout invariant (see the [module docs](self)): element `i` is stored
/// little-endian in the index — word `i / 64`, bit `i % 64` — and all bits
/// of the last word past [`len`](BitPlane::len) are zero, so whole-plane
/// popcounts ([`count_ones`](BitPlane::count_ones), XNOR dots) never need a
/// tail mask.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitPlane {
    words: Vec<u64>,
    len: usize,
}

/// Popcount of the bit range `[start, start + len)` of a packed word
/// slice, with [`BitPlane`] bit order. The one audited boundary-masking
/// kernel: [`BitPlane::count_ones_prefix`] and the packed deploy engine's
/// tile loop both count through it.
///
/// # Panics
/// Panics if the range reads past the slice.
#[inline]
pub fn count_ones_range(words: &[u64], start: usize, len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let end = start + len;
    let first = start / 64;
    let last = (end - 1) / 64;
    assert!(last < words.len(), "range past packed slice");
    if first == last {
        let mask = if len == 64 {
            u64::MAX
        } else {
            ((1u64 << len) - 1) << (start % 64)
        };
        return (words[first] & mask).count_ones() as usize;
    }
    let mut n = (words[first] >> (start % 64)).count_ones() as usize;
    for w in &words[first + 1..last] {
        n += w.count_ones() as usize;
    }
    let hi = end % 64;
    let last_word = if hi == 0 {
        words[last]
    } else {
        words[last] & ((1u64 << hi) - 1)
    };
    n + last_word.count_ones() as usize
}

/// Counts the positions in `[start, start + len)` where `a` and `b` agree
/// (XNOR ones), reading both slices with the [`BitPlane`] bit order.
///
/// This is the tile-partial kernel of the packed deploy engine: a crossbar
/// tile covers a sub-range of the fan-in, and its XNOR-product sum is
/// `2·matches − len`. Boundary words are masked like
/// [`count_ones_range`], so ranges may start and end anywhere, including
/// mid-word and at non-multiple-of-64 widths.
///
/// # Panics
/// Panics if the range reads past either slice.
pub fn xnor_ones_range(a: &[u64], b: &[u64], start: usize, len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let end = start + len;
    let first = start / 64;
    let last = (end - 1) / 64;
    assert!(last < a.len() && last < b.len(), "range past packed slice");
    let mut ones = 0usize;
    for w in first..=last {
        let mut x = !(a[w] ^ b[w]);
        if w == first {
            let lo = start % 64;
            if lo > 0 {
                x &= u64::MAX << lo;
            }
        }
        if w == last {
            let hi = end % 64;
            if hi > 0 {
                x &= (1u64 << hi) - 1;
            }
        }
        ones += x.count_ones() as usize;
    }
    ones
}

/// Reads up to 64 bits starting at bit `start` of a packed slice,
/// low-aligned (bit `start` lands in bit 0 of the result), with bits past
/// the requested count cleared.
///
/// # Panics
/// Debug-panics if the range reads past the slice (release builds index
/// out of bounds only when the *first* needed word is past the end).
#[inline]
fn read_bits(src: &[u64], start: usize, n: usize) -> u64 {
    debug_assert!((1..=64).contains(&n), "read_bits takes 1..=64 bits");
    debug_assert!(start + n <= src.len() * 64, "read past packed slice");
    let w = start / 64;
    let b = start % 64;
    let mut val = src[w] >> b;
    if b != 0 && b + n > 64 {
        val |= src[w + 1] << (64 - b);
    }
    if n < 64 {
        val &= (1u64 << n) - 1;
    }
    val
}

/// Writes `n ≤ 64` low-aligned bits at bit `pos` of a packed slice,
/// handling a word straddle; with `overwrite` the destination range is
/// cleared first, otherwise bits OR in.
#[inline]
fn write_bits(dst: &mut [u64], pos: usize, bits: u64, n: usize, overwrite: bool) {
    debug_assert!((1..=64).contains(&n), "write_bits takes 1..=64 bits");
    debug_assert!(pos + n <= dst.len() * 64, "write past packed slice");
    let w = pos / 64;
    let b = pos % 64;
    let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    if overwrite {
        dst[w] &= !(mask << b);
    }
    dst[w] |= bits << b;
    if b + n > 64 {
        if overwrite {
            dst[w + 1] &= !(mask >> (64 - b));
        }
        dst[w + 1] |= bits >> (64 - b);
    }
}

/// ORs the bit range `[src_start, src_start + len)` of `src` into `dst` at
/// `dst_start`, moving whole `u64` words per step (a shifted-word
/// scatter). This is the gather kernel of [`packed_im2col`]: one call
/// moves a full kernel row of a receptive field instead of `k` per-bit
/// `set` calls.
///
/// Destination bits already set stay set (OR semantics); use
/// [`copy_bits_range`] to overwrite.
///
/// # Panics
/// Panics if either range reads or writes past its slice.
#[inline]
pub fn or_shifted_range(
    dst: &mut [u64],
    dst_start: usize,
    src: &[u64],
    src_start: usize,
    len: usize,
) {
    if len == 0 {
        return;
    }
    assert!(src_start + len <= src.len() * 64, "source range past slice");
    assert!(
        dst_start + len <= dst.len() * 64,
        "destination range past slice"
    );
    let mut done = 0usize;
    while done < len {
        let d = dst_start + done;
        let take = (64 - d % 64).min(len - done);
        dst[d / 64] |= read_bits(src, src_start + done, take) << (d % 64);
        done += take;
    }
}

/// Copies (overwrites) the bit range `[src_start, src_start + len)` of
/// `src` into `dst` at `dst_start`, clearing the destination bits first.
/// The word-shift kernel of [`or_shifted_range`] with replace semantics —
/// what a `+1`-filled (all-ones) im2col row needs.
///
/// # Panics
/// Panics if either range reads or writes past its slice.
#[inline]
pub fn copy_bits_range(
    dst: &mut [u64],
    dst_start: usize,
    src: &[u64],
    src_start: usize,
    len: usize,
) {
    if len == 0 {
        return;
    }
    assert!(src_start + len <= src.len() * 64, "source range past slice");
    assert!(
        dst_start + len <= dst.len() * 64,
        "destination range past slice"
    );
    let mut done = 0usize;
    while done < len {
        let d = dst_start + done;
        let take = (64 - d % 64).min(len - done);
        let mask = if take == 64 {
            u64::MAX
        } else {
            (1u64 << take) - 1
        };
        let w = &mut dst[d / 64];
        *w = (*w & !(mask << (d % 64))) | (read_bits(src, src_start + done, take) << (d % 64));
        done += take;
    }
}

/// Draw threshold of the "never" Bernoulli law (`p ≤ 0`): sampling
/// consumes **no** RNG draws and every lane reads '0' — mirroring the
/// saturated fast path of the scalar gray-zone sampler
/// (`GrayZone::sample` skips the draw outside the gray-zone).
pub const BERNOULLI_NEVER: u64 = 0;

/// Draw threshold of the "always" Bernoulli law (`p ≥ 1`): sampling
/// consumes **no** RNG draws and every lane reads '1'.
pub const BERNOULLI_ALWAYS: u64 = u64::MAX;

/// Quantizes a Bernoulli probability into the integer draw threshold the
/// packed samplers compare against: `⌈p · 2⁵³⌉` for `p ∈ (0, 1)`, or the
/// draw-free sentinels [`BERNOULLI_NEVER`] / [`BERNOULLI_ALWAYS`] for the
/// saturated cases (NaN quantizes to never, like the `f64` comparison it
/// replaces).
///
/// The stochastic inference engines — scalar and packed alike — draw
/// their observation windows from keyed counter streams
/// ([`crate::CounterStream`]), which round this threshold to a byte-lane
/// threshold `round(p·2⁸)` (realized probability within 2⁻⁹ of `p`). Both
/// engines apply that one rounding at the same coordinates, which is what
/// makes them flip for flip identical. The serial
/// [`sample_bernoulli_words`] (probe synthesis) uses the threshold
/// *exactly*: a 53-bit uniform draw `u` (one `next_u64() >> 11`)
/// satisfies `u < ⌈p·2⁵³⌉` **iff** `u · 2⁻⁵³ < p`, precisely the
/// `rng.gen::<f64>() < p` decision.
pub fn bernoulli_threshold(p: f64) -> u64 {
    if p >= 1.0 {
        BERNOULLI_ALWAYS
    } else if p > 0.0 {
        // Exact: p has a 53-bit mantissa, so p·2⁵³ and its ceiling are
        // representable without rounding. The result is in 1..=2⁵³, which
        // cannot collide with either sentinel.
        (p * (1u64 << 53) as f64).ceil() as u64
    } else {
        BERNOULLI_NEVER
    }
}

/// Samples `len` i.i.d. Bernoulli bits into a packed word slice
/// ([`BitPlane`] bit order, tail bits of the last touched word cleared):
/// bit `t` is '1' iff `rng.next_u64() >> 11 < threshold`.
///
/// With a sentinel threshold ([`BERNOULLI_NEVER`] / [`BERNOULLI_ALWAYS`])
/// the words are filled constant and **no draws are consumed** — the
/// packed mirror of the scalar `AqfpBuffer::observe` saturation fast
/// path. Otherwise exactly `len` draws are consumed, each deciding one
/// lane, in stream order: the draw sequence (count *and* decisions) is
/// identical to `len` scalar `rng.gen::<f64>() < p` samples of the same
/// probability (see [`bernoulli_threshold`]).
///
/// # Panics
/// Panics if `out` is shorter than `⌈len/64⌉` words.
pub fn sample_bernoulli_words<R: rand::RngCore + ?Sized>(
    threshold: u64,
    len: usize,
    out: &mut [u64],
    rng: &mut R,
) {
    let words = len.div_ceil(64);
    assert!(words <= out.len(), "mask slice too short for {len} bits");
    match threshold {
        BERNOULLI_NEVER => out[..words].fill(0),
        BERNOULLI_ALWAYS => {
            out[..words].fill(u64::MAX);
            let rem = len % 64;
            if rem > 0 {
                out[words - 1] = (1u64 << rem) - 1;
            }
        }
        thr => {
            for (w, slot) in out[..words].iter_mut().enumerate() {
                let bits = (len - w * 64).min(64);
                *slot = sample_window_word(thr, bits, rng);
            }
        }
    }
}

/// Draws one packed word of up to 64 live Bernoulli bits — the inner loop
/// of [`sample_bernoulli_words`]. Draw `t` decides bit `t`, in draw order;
/// the 4-way unroll only splits the bit-OR accumulation across
/// independent registers (the RNG chain itself is inherently serial), so
/// the draw sequence and decisions are untouched.
#[inline]
fn sample_window_word<R: rand::RngCore + ?Sized>(thr: u64, bits: usize, rng: &mut R) -> u64 {
    let (mut w0, mut w1, mut w2, mut w3) = (0u64, 0u64, 0u64, 0u64);
    let mut t = 0;
    while t + 4 <= bits {
        w0 |= (((rng.next_u64() >> 11) < thr) as u64) << t;
        w1 |= (((rng.next_u64() >> 11) < thr) as u64) << (t + 1);
        w2 |= (((rng.next_u64() >> 11) < thr) as u64) << (t + 2);
        w3 |= (((rng.next_u64() >> 11) < thr) as u64) << (t + 3);
        t += 4;
    }
    let mut word = (w0 | w1) | (w2 | w3);
    while t < bits {
        word |= (((rng.next_u64() >> 11) < thr) as u64) << t;
        t += 1;
    }
    word
}

/// Packs a density-`p` pseudo-random probe input plane: `len` i.i.d.
/// Bernoulli('1' with probability `p`) bits with the zero-tail invariant
/// established. This is the probe-synthesis entry point of the ATPG
/// screening loop — sweeping `p` from sparse to dense excites comparators
/// whose XNOR sums sit far from threshold on natural eval inputs, which a
/// single density cannot reach.
pub fn random_probe_plane<R: rand::RngCore + ?Sized>(len: usize, p: f64, rng: &mut R) -> BitPlane {
    let mut words = vec![0u64; len.div_ceil(64)];
    sample_bernoulli_words(bernoulli_threshold(p), len, &mut words, rng);
    BitPlane::from_words(words, len)
}

/// Packs a deterministic striped probe plane: alternating runs of
/// `period` '1's and `period` '0's, shifted left by `phase` bits. Stripes
/// are the structured complement of [`random_probe_plane`]: walking
/// `period` across powers of two and `phase` across offsets toggles
/// aligned groups of fan-in rows together, driving tile partial sums
/// through their full range (all-'0' and all-'1' planes are the
/// `period ≥ len` degenerate cases). Synthesis-time only — built per-bit,
/// not a packed kernel.
///
/// # Panics
/// Panics if `period == 0`.
pub fn striped_probe_plane(len: usize, period: usize, phase: usize) -> BitPlane {
    assert!(period > 0, "stripe period must be positive");
    let mut plane = BitPlane::zeros(len);
    for i in 0..len {
        if ((i + phase) / period).is_multiple_of(2) {
            plane.set(i, true);
        }
    }
    plane
}

/// Compresses the even-position bits of `x` (positions 0, 2, 4, …) into
/// the low 32 bits — the classic shift-or bit-compress for the mask
/// `0x5555…`. Odd-position bits of `x` are ignored. This is the
/// column-halving step of the word-level 2×2 pooling kernel: after a
/// pairwise OR/AND folds bit pairs into their even slots, one call packs a
/// word of 32 pooled outputs.
#[inline]
pub fn compress_even_bits(x: u64) -> u64 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    (x | (x >> 16)) & 0x0000_0000_ffff_ffff
}

/// Lane-generic machine word of the wide SIMD datapath: a fixed array of
/// `u64` lanes with element-wise bit logic, per-lane shifts, and per-lane
/// wrapping adds — the operation set the SWAR kernels
/// ([`lane_counts_w`], the fused XNOR+vote tile kernel of the packed
/// deploy engine) are written against.
///
/// Two widths are provided: plain `u64` (`LANES = 1`, the scalar
/// reference every wider width is differentially tested to be
/// bit-identical with) and [`V256`] (`LANES = 4`, one AVX2-sized chunk).
/// Every operation is expressed as a short per-lane loop over the array,
/// which the autovectorizer turns into single wide instructions when the
/// target has them (`-C target-cpu=native`); per-lane
/// [`count_ones`](Word::count_ones) lowers to the hardware popcount the
/// same way. No `unsafe`, no intrinsics, no new dependencies — the crate
/// keeps its `forbid(unsafe_code)`.
///
/// Kernels generic over `Word` process `LANES` independent bit-streams
/// (e.g. `LANES` output pixels of a conv layer) per operation; lane `l`
/// of every word belongs to stream `l` throughout, so results are read
/// back per lane with [`lane`](Word::lane).
pub trait Word: Copy + core::fmt::Debug + PartialEq + Eq + Send + Sync + 'static {
    /// Number of 64-bit lanes.
    const LANES: usize;

    /// The all-zero word.
    fn zero() -> Self;

    /// Broadcasts `w` into every lane.
    fn splat(w: u64) -> Self;

    /// Reads lane `i` (`i < LANES`).
    fn lane(&self, i: usize) -> u64;

    /// Writes lane `i` (`i < LANES`).
    fn set_lane(&mut self, i: usize, w: u64);

    /// Lane-wise XNOR: `!(self ^ other)` per lane — the ±1 product word
    /// of the packed datapath.
    fn xnor(self, other: Self) -> Self;

    /// Lane-wise AND.
    fn and(self, other: Self) -> Self;

    /// Lane-wise wrapping add. SWAR counter fields live *inside* lanes,
    /// so a 64-bit add per lane is exactly the field-parallel add of the
    /// scalar reduction, `LANES` streams at once.
    fn add64(self, other: Self) -> Self;

    /// Lane-wise wrapping subtract.
    fn sub64(self, other: Self) -> Self;

    /// Lane-wise logical right shift by `n < 64` bits.
    fn shr(self, n: u32) -> Self;

    /// Sum of the popcounts of all lanes (masked popcount when the caller
    /// ANDs a boundary mask in first).
    fn count_ones(&self) -> u32;
}

impl Word for u64 {
    const LANES: usize = 1;

    #[inline(always)]
    fn zero() -> Self {
        0
    }

    #[inline(always)]
    fn splat(w: u64) -> Self {
        w
    }

    #[inline(always)]
    fn lane(&self, i: usize) -> u64 {
        debug_assert_eq!(i, 0);
        *self
    }

    #[inline(always)]
    fn set_lane(&mut self, i: usize, w: u64) {
        debug_assert_eq!(i, 0);
        *self = w;
    }

    #[inline(always)]
    fn xnor(self, other: Self) -> Self {
        !(self ^ other)
    }

    #[inline(always)]
    fn and(self, other: Self) -> Self {
        self & other
    }

    #[inline(always)]
    fn add64(self, other: Self) -> Self {
        self.wrapping_add(other)
    }

    #[inline(always)]
    fn sub64(self, other: Self) -> Self {
        self.wrapping_sub(other)
    }

    #[inline(always)]
    fn shr(self, n: u32) -> Self {
        self >> n
    }

    #[inline(always)]
    fn count_ones(&self) -> u32 {
        u64::count_ones(*self)
    }
}

/// A 256-bit wide word: four `u64` lanes in one chunk (see [`Word`]).
///
/// The representation is a plain `[u64; 4]` and every operation a
/// fixed-length per-lane loop, which the autovectorizer lowers to one
/// 256-bit instruction on AVX2 targets; per-lane popcounts lower to four
/// hardware `popcnt`s. Lane `l` holds bit-stream `l` of whatever the
/// kernel is processing four-at-a-time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V256([u64; 4]);

impl Word for V256 {
    const LANES: usize = 4;

    #[inline(always)]
    fn zero() -> Self {
        V256([0; 4])
    }

    #[inline(always)]
    fn splat(w: u64) -> Self {
        V256([w; 4])
    }

    #[inline(always)]
    fn lane(&self, i: usize) -> u64 {
        self.0[i]
    }

    #[inline(always)]
    fn set_lane(&mut self, i: usize, w: u64) {
        self.0[i] = w;
    }

    #[inline(always)]
    fn xnor(self, other: Self) -> Self {
        V256(core::array::from_fn(|l| !(self.0[l] ^ other.0[l])))
    }

    #[inline(always)]
    fn and(self, other: Self) -> Self {
        V256(core::array::from_fn(|l| self.0[l] & other.0[l]))
    }

    #[inline(always)]
    fn add64(self, other: Self) -> Self {
        V256(core::array::from_fn(|l| self.0[l].wrapping_add(other.0[l])))
    }

    #[inline(always)]
    fn sub64(self, other: Self) -> Self {
        V256(core::array::from_fn(|l| self.0[l].wrapping_sub(other.0[l])))
    }

    #[inline(always)]
    fn shr(self, n: u32) -> Self {
        V256(core::array::from_fn(|l| self.0[l] >> n))
    }

    #[inline(always)]
    fn count_ones(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }
}

/// Per-lane-field popcounts of `x` for SWAR field width
/// `lane ∈ {4, 8, 16, 32}`: a truncated parallel bit-count reduction, run
/// on every 64-bit lane of `x` at once. After the call each `lane`-bit
/// field of each 64-bit lane holds the popcount of that field's input
/// bits (for `lane == 32` the counts sit in 16-bit sub-fields, which is
/// wide enough — a 32-bit field counts at most 32).
///
/// This is the counting stage of the packed deploy engine's tile kernels:
/// at `W = u64` it is the classic scalar SWAR reduction; at [`V256`] it
/// reduces four activation words (four output pixels) per step.
#[inline]
pub fn lane_counts_w<W: Word>(x: W, lane: u32) -> W {
    let mut x = x.sub64(x.shr(1).and(W::splat(0x5555_5555_5555_5555)));
    let m2 = W::splat(0x3333_3333_3333_3333);
    x = x.and(m2).add64(x.shr(2).and(m2));
    if lane == 4 {
        return x;
    }
    x = x.add64(x.shr(4)).and(W::splat(0x0f0f_0f0f_0f0f_0f0f));
    if lane == 8 {
        return x;
    }
    x = x.add64(x.shr(8)).and(W::splat(0x00ff_00ff_00ff_00ff));
    if lane == 16 {
        return x;
    }
    x.add64(x.shr(16)).and(W::splat(0x0000_ffff_0000_ffff))
}

/// Unfolds the receptive fields of a packed `[C, H, W]` feature plane into
/// a `[oh·ow × c·k·k]` [`PackedMatrix`] — im2col evaluated by whole-word
/// shifts instead of per-bit gathers.
///
/// Row `oy·ow + ox` of the result is the flattened (channel-major, then
/// kernel-row-major — the deploy weight order) receptive field of output
/// pixel `(oy, ox)`. Each in-bounds kernel row moves as **one**
/// [`copy_bits_range`] call of up to `k` bits, so the gather cost per
/// field is `O(c·k)` word operations instead of `O(c·k²)` bit operations.
///
/// Padding fills with `pad_one`: `false` packs out-of-bounds positions as
/// '0' (value −1, the BNN deployment convention), `true` as '1' (+1, for
/// layers padded with +1).
///
/// # Panics
/// Panics unless `plane.len() == c·h·w`, `k, stride > 0` and the kernel
/// fits the padded input.
#[allow(clippy::too_many_arguments)] // conv geometry is irreducibly 5 scalars
pub fn packed_im2col(
    plane: &BitPlane,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    pad_one: bool,
) -> PackedMatrix {
    assert_eq!(plane.len(), c * h * w, "plane length mismatch");
    assert!(k > 0 && stride > 0, "kernel and stride must be positive");
    assert!(
        h + 2 * pad >= k && w + 2 * pad >= k,
        "kernel exceeds padded input"
    );
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    let width = c * k * k;
    let mut m = if pad_one {
        PackedMatrix::ones(oh * ow, width)
    } else {
        PackedMatrix::zeros(oh * ow, width)
    };
    let wpr = m.words_per_row();
    let src = plane.words();
    let dst = m.storage.as_mut_slice();
    for oy in 0..oh {
        let y0 = oy * stride;
        let pix_base = oy * ow;
        for ky in 0..k {
            let iy = y0 + ky;
            if iy < pad || iy >= h + pad {
                continue; // padding row: keep the fill
            }
            let iy = iy - pad;
            // Pixels whose kernel row needs no clipping: pad ≤ x0 and
            // x0 + k ≤ w + pad.
            let ox_lo = pad.div_ceil(stride).min(ow);
            let ox_hi = ((w + pad).saturating_sub(k) / stride + 1).clamp(ox_lo, ow);
            for ci in 0..c {
                let src_off = (ci * h + iy) * w;
                let dst_off = (ci * k + ky) * k;
                // Clipped border pixels: compute the valid sub-range.
                for ox in (0..ox_lo).chain(ox_hi..ow) {
                    let x0 = ox * stride;
                    // Valid kernel-column sub-range: 0 ≤ x0 + kx − pad < w.
                    let kx0 = pad.saturating_sub(x0).min(k);
                    let kx1 = (w + pad).saturating_sub(x0).min(k);
                    if kx1 <= kx0 {
                        continue;
                    }
                    let len = kx1 - kx0;
                    let d = (pix_base + ox) * wpr * 64 + dst_off + kx0;
                    let s = src_off + x0 + kx0 - pad;
                    if len <= 64 {
                        write_bits(dst, d, read_bits(src, s, len), len, pad_one);
                    } else {
                        copy_bits_range(dst, d, src, s, len);
                    }
                }
                // Interior: whole kernel rows, incremental offsets only.
                // Consecutive receptive fields overlap by `k − stride`
                // bits, so a 64-bit window is loaded once and sliced for
                // every pixel it covers — the per-pixel cost drops to a
                // shift, a mask and the destination write.
                if k <= 64 {
                    let mask = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
                    let mut s = src_off + ox_lo * stride - pad.min(ox_lo * stride);
                    let mut d = (pix_base + ox_lo) * wpr * 64 + dst_off;
                    let mut ox = ox_lo;
                    while ox < ox_hi {
                        let wq = s / 64;
                        let b = (s % 64) as u32;
                        let mut win = src[wq] >> b;
                        if b != 0 && wq + 1 < src.len() {
                            win |= src[wq + 1] << (64 - b);
                        }
                        // Valid low bits of the window (short only at the
                        // very end of the source slice).
                        let avail = 64.min(src.len() * 64 - s);
                        let mut off = 0usize;
                        // Always advances: the k-bit read at `s` is in
                        // bounds, so `k ≤ avail` on entry.
                        while ox < ox_hi && off + k <= avail {
                            write_bits(dst, d, (win >> off) & mask, k, pad_one);
                            off += stride;
                            d += wpr * 64;
                            ox += 1;
                        }
                        s += off;
                    }
                } else {
                    for ox in ox_lo..ox_hi {
                        copy_bits_range(
                            dst,
                            (pix_base + ox) * wpr * 64 + dst_off,
                            src,
                            src_off + ox * stride - pad,
                            k,
                        );
                    }
                }
            }
        }
    }
    m
}

impl BitPlane {
    /// An all-zero (all-`−1`) plane of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// An all-one (all-`+1`) plane of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut p = Self {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        p.mask_tail();
        p
    }

    /// Packs a slice of logic values.
    pub fn from_bits(bits: &[Bit]) -> Self {
        let mut p = Self::zeros(bits.len());
        for (i, b) in bits.iter().enumerate() {
            if b.as_bool() {
                p.words[i / 64] |= 1 << (i % 64);
            }
        }
        p
    }

    /// Packs a slice of booleans (`true` = `+1`).
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut p = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                p.words[i / 64] |= 1 << (i % 64);
            }
        }
        p
    }

    /// Packs real values by sign: `v ≥ 0` packs as `+1`, matching the
    /// paper's Eq. 6 binarization convention.
    pub fn from_signs(values: &[f32]) -> Self {
        let mut p = Self::zeros(values.len());
        for (i, &v) in values.iter().enumerate() {
            if v >= 0.0 {
                p.words[i / 64] |= 1 << (i % 64);
            }
        }
        p
    }

    /// Adopts a pre-packed word buffer. The tail bits beyond `len` are
    /// cleared to restore the invariant.
    ///
    /// # Panics
    /// Panics if `words` is not exactly `⌈len/64⌉` long.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count mismatch");
        let rem = len % 64;
        if rem > 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        Self { words, len }
    }

    /// Unpacks into logic values.
    pub fn to_bits(&self) -> Vec<Bit> {
        (0..self.len).map(|i| Bit::from_bool(self.get(i))).collect()
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the plane is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words (tail bits zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The bit at `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the bit at `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        if value {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Number of `+1` bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of `+1` bits among the first `prefix` bits.
    ///
    /// # Panics
    /// Panics if `prefix > len`.
    pub fn count_ones_prefix(&self, prefix: usize) -> usize {
        assert!(prefix <= self.len, "prefix {prefix} exceeds {}", self.len);
        count_ones_range(&self.words, 0, prefix)
    }

    /// Number of positions where `self` and `other` agree.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn xnor_ones(&self, other: &BitPlane) -> usize {
        assert_eq!(self.len, other.len, "plane length mismatch");
        xnor_ones_range(&self.words, &other.words, 0, self.len)
    }

    /// Signed ±1 dot product via XNOR + popcount:
    /// `2·matches − len ∈ [−len, +len]`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn xnor_dot(&self, other: &BitPlane) -> i64 {
        2 * self.xnor_ones(other) as i64 - self.len as i64
    }

    /// Bitwise XNOR (±1 elementwise product) as a new plane.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn xnor(&self, other: &BitPlane) -> BitPlane {
        assert_eq!(self.len, other.len, "plane length mismatch");
        let mut out = Self {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| !(a ^ b))
                .collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// Bitwise AND as a new plane.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn and(&self, other: &BitPlane) -> BitPlane {
        assert_eq!(self.len, other.len, "plane length mismatch");
        Self {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Bitwise complement (±1 negation) as a new plane.
    pub fn not(&self) -> BitPlane {
        let mut out = Self {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    pub(crate) fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// A row-major matrix of equally wide [`BitPlane`]s in one contiguous
/// buffer. Rows are padded to whole words, so `row_words(r)` is always a
/// word-aligned slice — the layout packed GEMMs and the batched deploy
/// engine iterate over (row index = output channel or batch sample, stride
/// = `words_per_row()`).
///
/// Each row obeys the [`BitPlane`] layout invariant: bit `i` of a row is
/// word `i / 64`, bit `i % 64` of that row's slice, and row bits past
/// [`width`](PackedMatrix::width) stay zero (padding words included).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedMatrix {
    storage: Vec<u64>,
    rows: usize,
    width: usize,
    words_per_row: usize,
}

impl PackedMatrix {
    /// An all-zero (all-`−1`) matrix.
    pub fn zeros(rows: usize, width: usize) -> Self {
        let words_per_row = width.div_ceil(64).max(1);
        Self {
            storage: vec![0; rows * words_per_row],
            rows,
            width,
            words_per_row,
        }
    }

    /// An all-one (all-`+1`) matrix. Row bits past `width` stay zero, so
    /// whole-row popcounts need no masking.
    pub fn ones(rows: usize, width: usize) -> Self {
        let mut m = Self::zeros(rows, width);
        let words = width / 64;
        let rem = width % 64;
        for r in 0..rows {
            let row = &mut m.storage[r * m.words_per_row..(r + 1) * m.words_per_row];
            row[..words].fill(u64::MAX);
            if rem > 0 {
                row[words] = (1u64 << rem) - 1;
            }
        }
        m
    }

    /// Packs a row-major `[rows × width]` sign matrix (`v ≥ 0` = `+1`).
    ///
    /// # Panics
    /// Panics if `values.len() != rows * width`.
    pub fn from_signs(values: &[f32], rows: usize, width: usize) -> Self {
        assert_eq!(values.len(), rows * width, "sign matrix shape mismatch");
        let mut m = Self::zeros(rows, width);
        for r in 0..rows {
            for (i, &v) in values[r * width..(r + 1) * width].iter().enumerate() {
                if v >= 0.0 {
                    m.storage[r * m.words_per_row + i / 64] |= 1 << (i % 64);
                }
            }
        }
        m
    }

    /// Builds from equally long planes.
    ///
    /// # Panics
    /// Panics if the planes' lengths differ.
    pub fn from_planes(planes: &[BitPlane]) -> Self {
        let width = planes.first().map_or(0, BitPlane::len);
        let mut m = Self::zeros(planes.len(), width);
        for (r, p) in planes.iter().enumerate() {
            assert_eq!(p.len(), width, "row {r} length mismatch");
            m.storage[r * m.words_per_row..r * m.words_per_row + p.words().len()]
                .copy_from_slice(p.words());
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bits per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Words per row (the row stride of the backing buffer).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed words of row `r`.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_words(&self, r: usize) -> &[u64] {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        &self.storage[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// The packed words of row `r`, mutable — for kernels that assemble
    /// whole words per row (vectorized sign packing, the batched deploy
    /// engine's channel loop). Callers must keep row bits past `width`
    /// zero.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_words_mut(&mut self, r: usize) -> &mut [u64] {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        &mut self.storage[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Applies a clear/set mask pair to word `w` of row `r`: bits in
    /// `clear` are zeroed first, then bits in `set` are ORed in
    /// (`word = (word & !clear) | set`).
    ///
    /// This is the masked mutation primitive of stuck-at fault injection
    /// on packed weight planes: a die's stuck cells for one output channel
    /// reduce to one mask pair per covered word (`clear` = every stuck
    /// position, `set` = the positions stuck at '1'), applied without
    /// unpacking the row. Callers must keep row bits past
    /// [`width`](Self::width) zero, i.e. `set` must not reach into the
    /// tail of the last data word.
    ///
    /// # Panics
    /// Panics if `r >= rows` or `w >= words_per_row`.
    #[inline]
    pub fn apply_row_mask(&mut self, r: usize, w: usize, clear: u64, set: u64) {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        assert!(
            w < self.words_per_row,
            "word {w} out of range ({} words per row)",
            self.words_per_row
        );
        let word = &mut self.storage[r * self.words_per_row + w];
        *word = (*word & !clear) | set;
    }

    /// The whole backing buffer, row stride [`Self::words_per_row`] —
    /// lets batched kernels walk rows with `chunks_exact` instead of
    /// per-row slicing.
    #[inline]
    pub fn storage(&self) -> &[u64] {
        &self.storage
    }

    /// The whole backing buffer, mutable, row stride
    /// [`Self::words_per_row`] — the scatter target of the word-level
    /// im2col gather ([`packed_im2col`] writes receptive-field spans at
    /// `row · words_per_row · 64 + bit` offsets). Callers must keep row
    /// bits past `width` zero.
    #[inline]
    pub fn storage_mut(&mut self) -> &mut [u64] {
        &mut self.storage
    }

    /// Concatenates all rows tightly (row `r` at bit `r · width`) into one
    /// [`BitPlane`] — the word-level inverse of row padding, used to turn a
    /// `[channels × pixels]` output matrix into a flat `[C, H, W]` feature
    /// plane.
    pub fn concat_rows(&self) -> BitPlane {
        let len = self.rows * self.width;
        let mut words = vec![0u64; len.div_ceil(64)];
        for r in 0..self.rows {
            or_shifted_range(&mut words, r * self.width, self.row_words(r), 0, self.width);
        }
        BitPlane::from_words(words, len)
    }

    /// The bit at `(r, i)`.
    #[inline]
    pub fn get(&self, r: usize, i: usize) -> bool {
        assert!(
            i < self.width,
            "bit {i} out of range (width {})",
            self.width
        );
        (self.row_words(r)[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the bit at `(r, i)`.
    pub fn set(&mut self, r: usize, i: usize, value: bool) {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        assert!(
            i < self.width,
            "bit {i} out of range (width {})",
            self.width
        );
        let w = r * self.words_per_row + i / 64;
        if value {
            self.storage[w] |= 1 << (i % 64);
        } else {
            self.storage[w] &= !(1 << (i % 64));
        }
    }

    /// Copies row `r` out as a plane.
    pub fn row_plane(&self, r: usize) -> BitPlane {
        // Rows are padded to at least one word; a plane wants exactly
        // ⌈width/64⌉ of them (0 for a width-0 matrix).
        let words = self.width.div_ceil(64);
        BitPlane::from_words(self.row_words(r)[..words].to_vec(), self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_dot(a: &[bool], b: &[bool]) -> i64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| if x == y { 1i64 } else { -1 })
            .sum()
    }

    fn pseudo_bools(n: usize, salt: usize) -> Vec<bool> {
        (0..n).map(|i| (i * 7 + salt * 13 + 3) % 5 < 2).collect()
    }

    #[test]
    fn random_probe_plane_keeps_tail_zero_and_tracks_density() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for len in [1usize, 63, 64, 65, 1000] {
            for p in [0.0, 0.3, 1.0] {
                let plane = random_probe_plane(len, p, &mut rng);
                assert_eq!(plane.len(), len);
                let rem = len % 64;
                if rem > 0 {
                    assert_eq!(plane.words().last().unwrap() >> rem, 0, "tail bits set");
                }
                if p == 0.0 {
                    assert_eq!(plane.count_ones(), 0);
                }
                if p == 1.0 {
                    assert_eq!(plane.count_ones(), len);
                }
            }
        }
        let plane = random_probe_plane(10_000, 0.3, &mut rng);
        let ones = plane.count_ones();
        assert!((2500..3500).contains(&ones), "{ones} ones at p = 0.3");
    }

    #[test]
    fn striped_probe_plane_alternates_runs() {
        let plane = striped_probe_plane(10, 3, 0);
        let want = [
            true, true, true, false, false, false, true, true, true, false,
        ];
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(plane.get(i), w, "bit {i}");
        }
        // Phase shifts the pattern left; period ≥ len degenerates to ones.
        let shifted = striped_probe_plane(10, 3, 3);
        for i in 0..7 {
            assert_eq!(shifted.get(i), plane.get(i + 3));
        }
        assert_eq!(striped_probe_plane(16, 16, 0).count_ones(), 16);
        let rem_plane = striped_probe_plane(70, 2, 1);
        assert_eq!(rem_plane.words().last().unwrap() >> (70 % 64), 0);
    }

    #[test]
    fn dot_matches_scalar_on_ragged_widths() {
        for len in [1usize, 7, 63, 64, 65, 127, 128, 130, 200, 1000] {
            let a = pseudo_bools(len, 1);
            let b = pseudo_bools(len, 2);
            let pa = BitPlane::from_bools(&a);
            let pb = BitPlane::from_bools(&b);
            assert_eq!(pa.xnor_dot(&pb), scalar_dot(&a, &b), "len {len}");
        }
    }

    #[test]
    fn range_counts_match_scalar_on_boundary_words() {
        let len = 200;
        let a = pseudo_bools(len, 3);
        let b = pseudo_bools(len, 4);
        let pa = BitPlane::from_bools(&a);
        let pb = BitPlane::from_bools(&b);
        for &(start, sub) in &[
            (0usize, 200usize),
            (0, 1),
            (63, 2),
            (64, 64),
            (1, 63),
            (65, 70),
            (199, 1),
            (128, 0),
            (60, 8),
        ] {
            let expect = (start..start + sub).filter(|&i| a[i] == b[i]).count();
            assert_eq!(
                xnor_ones_range(pa.words(), pb.words(), start, sub),
                expect,
                "start {start} len {sub}"
            );
        }
    }

    #[test]
    fn set_get_roundtrip_and_tail_invariant() {
        let mut p = BitPlane::zeros(70);
        p.set(69, true);
        p.set(0, true);
        assert!(p.get(69) && p.get(0) && !p.get(33));
        assert_eq!(p.count_ones(), 2);
        let q = p.not();
        assert_eq!(q.count_ones(), 68);
        // Tail bits of the last word stay clear through not().
        assert_eq!(q.words()[1] >> 6, 0);
    }

    #[test]
    fn from_words_clears_tail() {
        let p = BitPlane::from_words(vec![u64::MAX, u64::MAX], 70);
        assert_eq!(p.count_ones(), 70);
    }

    #[test]
    fn plane_ops_match_bit_ops() {
        let a = pseudo_bools(130, 5);
        let b = pseudo_bools(130, 6);
        let pa = BitPlane::from_bools(&a);
        let pb = BitPlane::from_bools(&b);
        for i in 0..130 {
            assert_eq!(pa.xnor(&pb).get(i), a[i] == b[i]);
            assert_eq!(pa.and(&pb).get(i), a[i] && b[i]);
        }
        assert_eq!(pa.to_bits().len(), 130);
        assert_eq!(BitPlane::from_bits(&pa.to_bits()), pa);
    }

    #[test]
    fn matrix_rows_behave_like_planes() {
        let width = 100;
        let rows = 5;
        let values: Vec<f32> = (0..rows * width)
            .map(|i| if (i * 11) % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let m = PackedMatrix::from_signs(&values, rows, width);
        assert_eq!(m.rows(), rows);
        assert_eq!(m.width(), width);
        for r in 0..rows {
            let row = BitPlane::from_signs(&values[r * width..(r + 1) * width]);
            assert_eq!(m.row_plane(r), row);
        }
    }

    #[test]
    fn ones_prefix_is_truncated_count() {
        let bits = pseudo_bools(300, 9);
        let p = BitPlane::from_bools(&bits);
        for cut in [0usize, 1, 63, 64, 65, 128, 299, 300] {
            assert_eq!(
                p.count_ones_prefix(cut),
                bits[..cut].iter().filter(|&&b| b).count()
            );
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_mismatch() {
        BitPlane::zeros(8).xnor_dot(&BitPlane::zeros(9));
    }

    #[test]
    fn zero_width_matrix_rows_are_empty_planes() {
        let m = PackedMatrix::zeros(2, 0);
        let p = m.row_plane(0);
        assert!(p.is_empty());
        assert_eq!(p.words().len(), 0);
    }

    #[test]
    fn shifted_copies_match_per_bit_reference() {
        let bits = pseudo_bools(300, 13);
        let src = BitPlane::from_bools(&bits);
        for &(dst_start, src_start, len) in &[
            (0usize, 0usize, 300usize),
            (1, 0, 64),
            (0, 1, 64),
            (63, 65, 130),
            (64, 64, 64),
            (37, 191, 109),
            (250, 299, 1),
            (10, 10, 0),
        ] {
            // OR into a pre-seeded buffer: old bits survive.
            let seed = pseudo_bools(384, 17);
            let mut ored = BitPlane::from_bools(&seed);
            or_shifted_range(&mut ored.words, dst_start, src.words(), src_start, len);
            // Overwrite copy into the same seed: old bits in range die.
            let mut copied = BitPlane::from_bools(&seed);
            copy_bits_range(&mut copied.words, dst_start, src.words(), src_start, len);
            for i in 0..384 {
                let in_range = i >= dst_start && i < dst_start + len;
                let moved = in_range && bits[src_start + (i - dst_start)];
                assert_eq!(
                    ored.get(i),
                    seed[i] || moved,
                    "or: bit {i} (dst {dst_start} src {src_start} len {len})"
                );
                assert_eq!(
                    copied.get(i),
                    if in_range { moved } else { seed[i] },
                    "copy: bit {i} (dst {dst_start} src {src_start} len {len})"
                );
            }
        }
    }

    #[test]
    fn compress_even_bits_packs_alternating_positions() {
        assert_eq!(compress_even_bits(0), 0);
        assert_eq!(compress_even_bits(u64::MAX), 0xffff_ffff);
        assert_eq!(compress_even_bits(0x5555_5555_5555_5555), 0xffff_ffff);
        // Odd positions are ignored.
        assert_eq!(compress_even_bits(0xaaaa_aaaa_aaaa_aaaa), 0);
        for salt in 0..8u64 {
            let x = salt
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(salt as u32 * 7);
            let mut expect = 0u64;
            for i in 0..32 {
                if (x >> (2 * i)) & 1 == 1 {
                    expect |= 1 << i;
                }
            }
            assert_eq!(compress_even_bits(x), expect, "salt {salt}");
        }
    }

    #[test]
    fn packed_im2col_matches_per_bit_gather() {
        // 2 channels, 5×7, 3×3 kernel, stride 2, pad 1 — boundary-heavy.
        let (c, h, w, k, stride, pad) = (2usize, 5usize, 7usize, 3usize, 2usize, 1usize);
        let bits = pseudo_bools(c * h * w, 21);
        let plane = BitPlane::from_bools(&bits);
        for pad_one in [false, true] {
            let m = packed_im2col(&plane, c, h, w, k, stride, pad, pad_one);
            let oh = (h + 2 * pad - k) / stride + 1;
            let ow = (w + 2 * pad - k) / stride + 1;
            assert_eq!((m.rows(), m.width()), (oh * ow, c * k * k));
            for oy in 0..oh {
                for ox in 0..ow {
                    for ci in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                let inside =
                                    iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize;
                                let expect = if inside {
                                    bits[(ci * h + iy as usize) * w + ix as usize]
                                } else {
                                    pad_one
                                };
                                assert_eq!(
                                    m.get(oy * ow + ox, (ci * k + ky) * k + kx),
                                    expect,
                                    "pad_one {pad_one} pixel ({oy},{ox}) ch {ci} k ({ky},{kx})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn apply_row_mask_clears_then_sets() {
        let mut m = PackedMatrix::zeros(3, 130);
        for i in 0..130 {
            m.set(1, i, i % 2 == 0);
        }
        // Word 1 of row 1 covers bits 64..128: stick bits 64, 65, 70
        // (clear all three, re-set 65 and 70 to '1').
        m.apply_row_mask(1, 1, 0b100_0011, 0b100_0010);
        assert!(!m.get(1, 64)); // was 1 (even), stuck at 0
        assert!(m.get(1, 65)); // was 0 (odd), stuck at 1
        assert!(m.get(1, 70)); // was 1, stuck at 1
        assert!(m.get(1, 66) && !m.get(1, 67)); // untouched bits survive
        assert_eq!(m.row_plane(0).count_ones(), 0, "other rows untouched");
        assert_eq!(m.row_plane(2).count_ones(), 0, "other rows untouched");
    }

    #[test]
    fn ones_matrix_keeps_row_tails_clear() {
        let m = PackedMatrix::ones(3, 70);
        for r in 0..3 {
            assert_eq!(m.row_plane(r).count_ones(), 70, "row {r}");
            assert_eq!(m.row_words(r)[1] >> 6, 0, "row {r} tail");
        }
    }

    #[test]
    fn concat_rows_is_tight_row_major() {
        let values: Vec<f32> = (0..3 * 70)
            .map(|i| if (i * 7) % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let m = PackedMatrix::from_signs(&values, 3, 70);
        let plane = m.concat_rows();
        assert_eq!(plane.len(), 210);
        for r in 0..3 {
            for i in 0..70 {
                assert_eq!(plane.get(r * 70 + i), m.get(r, i), "({r}, {i})");
            }
        }
    }

    #[test]
    fn bernoulli_threshold_quantizes_exactly() {
        assert_eq!(bernoulli_threshold(0.0), BERNOULLI_NEVER);
        assert_eq!(bernoulli_threshold(-0.5), BERNOULLI_NEVER);
        assert_eq!(bernoulli_threshold(f64::NAN), BERNOULLI_NEVER);
        assert_eq!(bernoulli_threshold(1.0), BERNOULLI_ALWAYS);
        assert_eq!(bernoulli_threshold(1.5), BERNOULLI_ALWAYS);
        assert_eq!(bernoulli_threshold(0.5), 1u64 << 52);
        // Open interval probabilities stay clear of both sentinels.
        for p in [1e-300, 0.25, 0.999_999, 1.0 - f64::EPSILON] {
            let t = bernoulli_threshold(p);
            assert!(t > BERNOULLI_NEVER && t < BERNOULLI_ALWAYS, "p = {p}");
        }
    }

    #[test]
    fn bernoulli_mask_matches_scalar_f64_draws() {
        use rand::{Rng as _, SeedableRng as _};
        // The serial word sampler must reproduce the scalar
        // `gen::<f64>() < p` decision sequence draw-for-draw from the same
        // seed — the exactness of the 53-bit threshold.
        for (seed, p, len) in [
            (1u64, 0.5f64, 64usize),
            (2, 0.123456789, 37),
            (3, 0.9999, 64),
            (4, 1e-9, 10),
            (5, 0.75, 1),
        ] {
            let thr = bernoulli_threshold(p);
            let mut packed_rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut word = [0u64; 1];
            sample_bernoulli_words(thr, len, &mut word, &mut packed_rng);
            let mask = word[0];
            let mut scalar_rng = rand::rngs::StdRng::seed_from_u64(seed);
            for t in 0..len {
                let want = scalar_rng.gen::<f64>() < p;
                assert_eq!((mask >> t) & 1 == 1, want, "p {p} bit {t}");
            }
            if len < 64 {
                assert_eq!(mask >> len, 0, "bits past the window stay clear");
            }
            // Both consumed the same number of draws: the next value agrees.
            assert_eq!(packed_rng.gen::<u64>(), scalar_rng.gen::<u64>());
        }
    }

    #[test]
    fn saturated_bernoulli_consumes_no_draws() {
        use rand::{Rng as _, SeedableRng as _};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let untouched = rand::rngs::StdRng::seed_from_u64(9).gen::<u64>();
        let mut out = [u64::MAX; 2];
        sample_bernoulli_words(BERNOULLI_NEVER, 70, &mut out, &mut rng);
        assert_eq!(out, [0, 0]);
        sample_bernoulli_words(BERNOULLI_ALWAYS, 70, &mut out, &mut rng);
        assert_eq!(out, [u64::MAX, (1 << 6) - 1], "tail bits stay clear");
        assert_eq!(rng.gen::<u64>(), untouched, "no draws were consumed");
    }

    #[test]
    fn multi_word_bernoulli_covers_every_lane() {
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let thr = bernoulli_threshold(0.6);
        let len = 200;
        let mut out = [0u64; 4];
        sample_bernoulli_words(thr, len, &mut out, &mut rng);
        let ones: u32 = out.iter().map(|w| w.count_ones()).sum();
        // 6σ binomial bound around 120.
        assert!((78..=162).contains(&ones), "{ones} ones of {len}");
        assert_eq!(out[3] >> (len - 192), 0, "tail bits stay clear");
    }

    #[test]
    fn word_lanes_roundtrip_and_ops_match_u64() {
        // Every V256 op must equal the u64 op applied lane by lane — the
        // property that makes kernels generic over `Word` bit-identical
        // across widths.
        let a = [0x0123_4567_89ab_cdefu64, u64::MAX, 0, 0x5555_aaaa_0f0f_f0f0];
        let b = [0xdead_beef_0bad_f00du64, 0x8000_0000_0000_0001, 7, !0 >> 3];
        let mut va = V256::zero();
        let mut vb = V256::zero();
        for l in 0..4 {
            va.set_lane(l, a[l]);
            vb.set_lane(l, b[l]);
        }
        for l in 0..4 {
            assert_eq!(va.lane(l), a[l]);
            assert_eq!(va.xnor(vb).lane(l), !(a[l] ^ b[l]));
            assert_eq!(va.and(vb).lane(l), a[l] & b[l]);
            assert_eq!(va.add64(vb).lane(l), a[l].wrapping_add(b[l]));
            assert_eq!(va.sub64(vb).lane(l), a[l].wrapping_sub(b[l]));
            assert_eq!(va.shr(13).lane(l), a[l] >> 13);
            assert_eq!(V256::splat(a[l]).lane(3 - l), a[l]);
        }
        assert_eq!(
            Word::count_ones(&va),
            a.iter().map(|w| w.count_ones()).sum::<u32>()
        );
        assert_eq!(Word::count_ones(&V256::zero()), 0);
    }

    #[test]
    fn lane_counts_w_matches_per_field_popcounts_at_both_widths() {
        for lane in [4u32, 8, 16, 32] {
            let fields = 64 / lane;
            let mask = if lane == 64 {
                u64::MAX
            } else {
                (1u64 << lane) - 1
            };
            // Counts for lane 32 land in 16-bit sub-fields.
            let read = |counts: u64, j: u32| -> u64 {
                if lane == 32 {
                    (counts >> (j * lane)) & 0xffff
                } else {
                    (counts >> (j * lane)) & mask
                }
            };
            for salt in 0..16u64 {
                let x = salt
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .rotate_left((salt as u32) * 11)
                    ^ (salt << 40);
                let scalar = lane_counts_w::<u64>(x, lane);
                for j in 0..fields {
                    let expect = ((x >> (j * lane)) & mask).count_ones() as u64;
                    assert_eq!(read(scalar, j), expect, "lane {lane} field {j}");
                }
                // The wide word agrees with the scalar reduction per lane.
                let mut v = V256::zero();
                for l in 0..4 {
                    v.set_lane(l, x.rotate_left(l as u32 * 17));
                }
                let wide = lane_counts_w(v, lane);
                for l in 0..4 {
                    assert_eq!(
                        wide.lane(l),
                        lane_counts_w::<u64>(v.lane(l), lane),
                        "lane {lane} u64-lane {l}"
                    );
                }
            }
        }
    }

    #[test]
    fn count_ones_range_matches_prefix_counts() {
        let bits = pseudo_bools(200, 11);
        let p = BitPlane::from_bools(&bits);
        for &(start, len) in &[
            (0usize, 0usize),
            (0, 64),
            (63, 2),
            (10, 150),
            (199, 1),
            (64, 64),
        ] {
            let expect = bits[start..start + len].iter().filter(|&&b| b).count();
            assert_eq!(count_ones_range(p.words(), start, len), expect);
        }
    }
}
