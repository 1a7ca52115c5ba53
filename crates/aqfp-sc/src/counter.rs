//! Counter-based (stateless, keyed) random-bit generation — the one
//! Bernoulli sampler of the stochastic inference engines.
//!
//! A serial generator makes every decision advance shared state, so draw
//! `t + 1` cannot start before draw `t` retires: a dependency chain that
//! bounds any sampler built on it once everything around the draws is
//! vectorized, and an evaluation order every consumer must replay to
//! reproduce a result.
//!
//! This module is the alternative: a **keyed counter stream** in the
//! Philox/SplitMix tradition, where draw `t` of a stream is the *pure
//! function* `mix(key + t · γ)` of the stream's key and the counter — no
//! state, no chain. Two consequences:
//!
//! * **Parallelism** — all 64 bits of an observation window (and all
//!   windows of a plane batch) are independent expressions; the inner
//!   loop is unrolled with no loop-carried dependency, so the
//!   multiply/xor-shift mix pipelines and autovectorizes instead of
//!   serializing.
//! * **Order-free reproducibility** — a draw is addressed by
//!   *coordinates* (derived stream key, counter), not by how many draws
//!   happened before it. Evaluating samples, pixels or trials in any
//!   order, on any worker count, reproduces identical bits — which is
//!   what lets the element-by-element scalar engine serve as the
//!   bit-exact reference of the packed one: both address every window by
//!   the same coordinates.
//!
//! Streams form a tree: [`CounterStream::from_seed`] roots a campaign,
//! and [`CounterStream::derive`] splits off statistically independent
//! child streams by index (sample → stage → pixel in the stochastic
//! engines; cell windows then sit side by side on the pixel stream's
//! tape), so every Bernoulli window is addressed by its full coordinate
//! tuple. The per-draw output function is the SplitMix64 finalizer over a
//! Weyl sequence — exactly the generator SplitMix64 iterates, evaluated
//! at an arbitrary counter instead of sequentially — and key derivation
//! uses a *different* finalizer (the 64-bit Murmur3/variant mix) so child
//! keys never collide with draw outputs by construction of the same
//! function.
//!
//! Decisions consume the draw words eight Bernoulli bits at a time: each
//! 64-bit draw is split into eight independent byte-wide uniform lanes,
//! and bit `g` of a stream's decision tape compares lane `g mod 8` of
//! draw `⌊g/8⌋` against the **lane threshold** `t8 ∈ 0..=256`, the draw
//! threshold rounded to 8 bits ([`lane_threshold`]; see
//! [`bernoulli_threshold`](crate::bitplane::bernoulli_threshold) for the
//! 53-bit threshold it is rounded from). One mix is amortized over eight
//! decisions at a probability quantization of 2⁻⁸ (bias ≤ 2⁻⁹ — the
//! resolution of the byte-wide LFSR comparators real SC front-ends
//! deploy, and well below the gray-zone model's own tolerances; the
//! `word_fill_rate_tracks_probability` test checks the byte law against
//! the `f64` law). `t8 = 0` never fires and `t8 = 256` always fires, so
//! the saturated ends need no sentinel: the same compare decides them.
//!
//! Within one stream, a *batch* of observation windows (the cells of a
//! packed matrix evaluation) lives on that flat decision tape: window `i`
//! of length `L` starts at bit `i · ⌈L/8⌉·8` (draw-aligned), so a window
//! costs exactly `⌈L/8⌉` mixes and no per-window key derivation.
//! [`CounterStream::window_counts`] counts the '1's of a whole batch
//! without materializing it — every window, saturated or not, through one
//! branch-free SWAR compare, eight windows per block;
//! [`CounterStream::window_counts_across`] counts the same window of many
//! streams through the same block routine, eight streams per block (one
//! crossbar cell over a block of conv output pixels); and
//! [`CounterStream::sample_bernoulli_windows`] materializes the batch for
//! consumers that need the bits themselves. The stream *tree*
//! ([`CounterStream::derive`]) addresses coarser coordinates — sample,
//! stage, pixel — where the fan-out is irregular.

/// The golden-ratio Weyl increment of SplitMix64: coprime to 2⁶⁴, so
/// `key + ctr·γ` walks all of `u64` before repeating.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 output finalizer (Stafford's Mix13): a bijective
/// xor-shift/multiply avalanche — every input bit flips each output bit
/// with probability ≈ 1/2.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rounds a 53-bit draw threshold (`⌈p·2⁵³⌉`, see
/// [`crate::bitplane::bernoulli_threshold`]) to the byte-lane domain: a
/// lane fires iff its 8 uniform bits fall below `t8 = round(p·2⁸)`, so
/// the realized probability is within 2⁻⁹ of `p`. The result spans
/// `0..=256`: `0` never fires — [`BERNOULLI_NEVER`](crate::bitplane::BERNOULLI_NEVER)
/// and every deep-gray-zone tail `0 < p < 2⁻⁹` — and `256` always fires —
/// [`BERNOULLI_ALWAYS`](crate::bitplane::BERNOULLI_ALWAYS) and every
/// `p > 1 − 2⁻⁹`. A window at either end is constant under the counter
/// law, so table builders can resolve it without drawing and get the
/// sampler's bits exactly.
#[inline]
#[must_use]
pub fn lane_threshold(threshold: u64) -> u16 {
    (((threshold >> 44) + 1) >> 1).min(1 << 8) as u16
}

const LO: u64 = 0x00FF_00FF_00FF_00FF;
const ONES: u64 = 0x0001_0001_0001_0001;

/// Whole draws per SWAR fold: two lanes per 16-bit field per draw keeps
/// the four field sums, and the one-multiply sum over them, below 2¹⁶.
const FOLD_DRAWS: usize = 1 << 12;

/// The SWAR addend of lane threshold `t8 ∈ 0..=256`: `256 - t8` in every
/// 16-bit field, so bit 8 of `byte + addend` is the lane's `byte ≥ t8`
/// carry (field sums peak at 511, so carries never cross fields).
#[inline]
fn lane_addend(t8: u16) -> u64 {
    (0x100 - u64::from(t8)) * ONES
}

/// Per-16-bit-field counts of the byte lanes of draw `z` at or above the
/// lane threshold whose addend is `c` (two lanes per field).
#[inline]
fn lanes_ge(z: u64, c: u64) -> u64 {
    (((z & LO).wrapping_add(c) >> 8) & ONES) + ((((z >> 8) & LO).wrapping_add(c) >> 8) & ONES)
}

/// The sum of the four 16-bit fields of `ge`, in one multiply.
#[inline]
fn fold_fields(ge: u64) -> u32 {
    (ge.wrapping_mul(ONES) >> 48) as u32
}

/// An 8-bit mask with bit `j` set iff byte lane `j` of draw `z` falls
/// below `t8 ∈ 0..=256`: the inverted carries of [`lanes_ge`] gathered
/// back into one byte, branch-free.
#[inline]
fn byte_lt_mask(z: u64, t8: u16) -> u64 {
    let c = lane_addend(t8);
    let even = !((z & LO).wrapping_add(c) >> 8) & ONES; // lanes 0,2,4,6
    let odd = !(((z >> 8) & LO).wrapping_add(c) >> 8) & ONES; // lanes 1,3,5,7
    ((even | (even >> 14) | (even >> 28) | (even >> 42)) & 0x55)
        | (((odd << 1) | (odd >> 13) | (odd >> 27) | (odd >> 41)) & 0xAA)
}

/// The low `bits` bits set (`bits ≤ 64`).
#[inline]
fn low_mask(bits: usize) -> u64 {
    if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Whether windows of `len` decisions run the eight-window block routine
/// ([`count_block8`]): whole draws, few enough for one SWAR fold.
#[inline]
fn whole_draw_blocks(len: usize) -> bool {
    len.is_multiple_of(8) && len / 8 <= FOLD_DRAWS
}

/// Counts eight whole-draw windows of `draws ≤ FOLD_DRAWS` draws each:
/// window `j` reads the draws at Weyl positions `base + offsets[j] + d·γ`,
/// `d ∈ 0..draws`, against lane threshold `t8[j]`, and its '1' count lands
/// in `out[j]`. Straight-line elementwise arithmetic over independent
/// draws, which the compiler turns into vector mixes; a block whose eight
/// windows are all saturated skips its draws. The one block routine of
/// both [`CounterStream::window_counts`] (eight windows of one stream)
/// and [`CounterStream::window_counts_across`] (one window of eight
/// streams).
#[inline(always)]
fn count_block8(base: u64, offsets: &[u64; 8], t8: &[u16], draws: usize, out: &mut [u32]) {
    let (t8, out): (&[u16; 8], &mut [u32; 8]) = (
        t8.try_into().expect("eight thresholds per block"),
        out.try_into().expect("eight counts per block"),
    );
    let len = (draws * 8) as u32;
    if t8.iter().fold(0, |acc, &t| acc | t) & 0xFF == 0 {
        for (o, &t) in out.iter_mut().zip(t8) {
            *o = u32::from(t >> 8) * len;
        }
        return;
    }
    if draws == 2 {
        // The default 16-cycle window: two draws per window, no inner
        // loop.
        for j in 0..8 {
            let c = lane_addend(t8[j]);
            let k = base.wrapping_add(offsets[j]);
            let ge = lanes_ge(mix64(k), c) + lanes_ge(mix64(k.wrapping_add(GOLDEN_GAMMA)), c);
            out[j] = 16 - fold_fields(ge);
        }
    } else {
        let c: [u64; 8] = std::array::from_fn(|j| lane_addend(t8[j]));
        let mut ge = [0u64; 8];
        for d in 0..draws {
            let kd = base.wrapping_add((d as u64).wrapping_mul(GOLDEN_GAMMA));
            for j in 0..8 {
                ge[j] += lanes_ge(mix64(kd.wrapping_add(offsets[j])), c[j]);
            }
        }
        for j in 0..8 {
            out[j] = len - fold_fields(ge[j]);
        }
    }
}

/// The 64-bit Murmur3-style finalizer — a second, structurally different
/// bijective mix used for *key derivation* so stream keys and draw
/// outputs come from distinct functions (domain separation between the
/// tree structure and the random bits it yields).
#[inline]
fn mix64_rekey(mut z: u64) -> u64 {
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    z ^ (z >> 33)
}

/// A keyed counter stream: an immutable 64-bit key addressing 2⁶⁴
/// independent uniform draws (one per counter value), plus 2⁶⁴ derivable
/// child streams (one per index). Copy-cheap and stateless — sharing one
/// across threads needs no synchronization, and re-drawing any counter
/// reproduces the same word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterStream {
    key: u64,
}

impl CounterStream {
    /// Roots a stream tree at a campaign seed. The seed is avalanched
    /// through the re-key mix so that numerically adjacent seeds (the
    /// `campaign_seed ^ trial` convention of the robustness sweeps) yield
    /// unrelated keys.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        Self {
            key: mix64_rekey(seed.wrapping_add(GOLDEN_GAMMA)),
        }
    }

    /// The stream's key — exposed for diagnostics and tests; two streams
    /// are the same stream iff their keys are equal.
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Splits off the `index`-th child stream: a statistically
    /// independent key that is a pure function of `(self.key, index)`.
    /// Deriving the same index twice gives the same child, so coordinates
    /// (sample, stage, pixel, cell) can be re-resolved from anywhere.
    #[inline]
    #[must_use]
    pub fn derive(&self, index: u64) -> Self {
        Self {
            key: mix64_rekey(self.key.wrapping_add(index.wrapping_mul(GOLDEN_GAMMA))),
        }
    }

    /// Draw `ctr` of the stream: the SplitMix64 finalizer over the keyed
    /// Weyl sequence. Uniform over `u64`, independent across counters,
    /// and (unlike a serial generator) evaluable in any order.
    #[inline]
    #[must_use]
    pub fn draw(&self, ctr: u64) -> u64 {
        mix64(self.key.wrapping_add(ctr.wrapping_mul(GOLDEN_GAMMA)))
    }

    /// One Bernoulli decision at global bit position `g`: byte lane
    /// `g mod 8` of draw `⌊g/8⌋`, compared against `t8` (see
    /// [`lane_threshold`]).
    #[inline]
    fn lane_decision(&self, g: u64, t8: u16) -> bool {
        let z = self.draw(g >> 3);
        ((z >> (8 * (g & 7))) & 0xFF) < u64::from(t8)
    }

    /// One packed word of up to 64 Bernoulli bits: bit `t` is decided by
    /// byte lane `(base + t) mod 8` of draw `⌊(base + t) / 8⌋` against
    /// the 8-bit-rounded threshold — eight decisions per mix (see the
    /// module docs). Thresholds that round to a saturated lane threshold
    /// fill constant without draws. Bits at and above `bits` are zero.
    ///
    /// # Panics
    /// Panics if `bits > 64`.
    #[inline]
    #[must_use]
    pub fn bernoulli_word(&self, threshold: u64, base: u64, bits: usize) -> u64 {
        self.lane_word(lane_threshold(threshold), base, bits)
    }

    /// [`bernoulli_word`](Self::bernoulli_word) at lane threshold `t8`.
    /// The inner loop has **no loop-carried dependency** — each draw's
    /// mix is independent — so the multiplies pipeline (and vectorize
    /// where the target has 64-bit vector multiply).
    #[inline]
    fn lane_word(&self, t8: u16, base: u64, bits: usize) -> u64 {
        assert!(bits <= 64, "a word holds at most 64 lanes, got {bits}");
        // A saturated lane threshold decides every lane the same way:
        // fill the constant without drawing.
        if t8 & 0xFF == 0 {
            return if t8 == 0 { 0 } else { low_mask(bits) };
        }
        let mut word = 0u64;
        let mut t = 0usize;
        // Align on a draw boundary, then take whole draws (eight lanes
        // each), then the ragged tail.
        while t < bits && base.wrapping_add(t as u64) & 7 != 0 {
            word |= (self.lane_decision(base.wrapping_add(t as u64), t8) as u64) << t;
            t += 1;
        }
        while t + 8 <= bits {
            let z = self.draw(base.wrapping_add(t as u64) >> 3);
            word |= byte_lt_mask(z, t8) << t;
            t += 8;
        }
        while t < bits {
            word |= (self.lane_decision(base.wrapping_add(t as u64), t8) as u64) << t;
            t += 1;
        }
        word
    }

    /// Counts the '1's of the consecutive windows `0..t8.len()` of this
    /// stream without materializing them: window `i` holds `len`
    /// decisions at tape position `i · window_stride(len)` against lane
    /// threshold `t8[i] ∈ 0..=256`, and its count lands in `out[i]` —
    /// the popcount of
    /// [`sample_bernoulli_words`](Self::sample_bernoulli_words) at that
    /// position for any threshold whose [`lane_threshold`] is `t8[i]`.
    ///
    /// Every window is drawn, saturated or not: the SWAR carry count is
    /// exact at both ends (`t8 = 0` counts 0, `t8 = 256` counts `len`),
    /// so a caller hands over a whole matrix of cells with no screening
    /// and the kernel runs without a per-cell branch. Whole-draw lengths
    /// (`len % 8 == 0`) run in blocks of eight windows — straight-line
    /// elementwise arithmetic over independent draws, which the compiler
    /// turns into vector mixes (the counter discipline's order freedom at
    /// work) — and a block whose eight windows are all saturated skips
    /// its draws. Ragged lengths and the last `n mod 8` windows are
    /// counted one window at a time.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `t8`.
    pub fn window_counts(&self, t8: &[u16], len: usize, out: &mut [u32]) {
        let n = t8.len();
        assert!(out.len() >= n, "count slot per window required");
        let draws = len / 8;
        let mut done = 0;
        if whole_draw_blocks(len) {
            let lane_keys: [u64; 8] =
                std::array::from_fn(|j| ((j * draws) as u64).wrapping_mul(GOLDEN_GAMMA));
            for (b, (tc, oc)) in t8.chunks_exact(8).zip(out.chunks_exact_mut(8)).enumerate() {
                let key = self
                    .key
                    .wrapping_add(((b * 8 * draws) as u64).wrapping_mul(GOLDEN_GAMMA));
                count_block8(key, &lane_keys, tc, draws, oc);
            }
            done = n - n % 8;
        }
        let stride = Self::window_stride(len);
        for i in done..n {
            out[i] = self.count_window((i as u64).wrapping_mul(stride) >> 3, t8[i], len);
        }
    }

    /// Counts window `window` of every stream in `streams` against its own
    /// lane threshold: `out[i]` receives the '1' count of the `len`
    /// decisions at tape position `window · window_stride(len)` of
    /// `streams[i]` against `t8[i]` — exactly what
    /// [`window_counts`](Self::window_counts) on `streams[i]` reports for
    /// its window `window`.
    ///
    /// This is the cross-stream form the stochastic engine's conv stages
    /// count with: one crossbar cell over a block of output pixels, each
    /// pixel its own child stream. Whole-draw lengths run the same
    /// eight-window block routine as `window_counts`, eight streams per
    /// block (a block of eight saturated windows skips its draws); ragged
    /// lengths and the last `n mod 8` streams are counted one window at a
    /// time.
    ///
    /// # Panics
    /// Panics if `t8` or `out` is shorter than `streams`.
    pub fn window_counts_across(
        streams: &[CounterStream],
        window: usize,
        t8: &[u16],
        len: usize,
        out: &mut [u32],
    ) {
        let n = streams.len();
        assert!(
            t8.len() >= n && out.len() >= n,
            "a threshold and a count slot per stream required"
        );
        let d0 = (window as u64).wrapping_mul(Self::window_stride(len)) >> 3;
        let mut done = 0;
        if whole_draw_blocks(len) {
            let offset = d0.wrapping_mul(GOLDEN_GAMMA);
            let blocks = streams.chunks_exact(8).zip(t8.chunks_exact(8));
            for ((sc, tc), oc) in blocks.zip(out.chunks_exact_mut(8)) {
                let keys: [u64; 8] = std::array::from_fn(|j| sc[j].key);
                count_block8(offset, &keys, tc, len / 8, oc);
            }
            done = n - n % 8;
        }
        for i in done..n {
            out[i] = streams[i].count_window(d0, t8[i], len);
        }
    }

    /// The '1' count of one window of `len` decisions starting at draw
    /// `d0` against lane threshold `t`, one draw at a time: whole draws
    /// fold their SWAR field sums every [`FOLD_DRAWS`] draws, and a ragged
    /// tail reads the low lanes of one more draw.
    #[inline]
    fn count_window(&self, d0: u64, t: u16, len: usize) -> u32 {
        let (draws, tail) = (len / 8, len % 8);
        let c = lane_addend(t);
        let mut count = 0u32;
        let mut d = 0usize;
        while d < draws {
            let stop = draws.min(d + FOLD_DRAWS);
            let mut ge = 0u64;
            for dd in d..stop {
                ge += lanes_ge(self.draw(d0 + dd as u64), c);
            }
            count += ((stop - d) * 8) as u32 - fold_fields(ge);
            d = stop;
        }
        if tail > 0 {
            let z = self.draw(d0 + draws as u64);
            count += (byte_lt_mask(z, t) & low_mask(tail)).count_ones();
        }
        count
    }

    /// Samples `len` i.i.d. Bernoulli bits into a packed word slice
    /// ([`crate::BitPlane`] bit order, tail bits cleared): bit `t` of the
    /// window is decided by tape position `base + t` of this stream.
    /// Saturated thresholds fill constant without drawing. Pure in
    /// `(key, base + t)`, so words can be filled independently and in any
    /// order — the one-window form the scalar stochastic engine draws
    /// each cell with.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `⌈len/64⌉` words.
    pub fn sample_bernoulli_words(&self, threshold: u64, base: u64, len: usize, out: &mut [u64]) {
        self.fill_lane_words(lane_threshold(threshold), base, len, out);
    }

    /// [`sample_bernoulli_words`](Self::sample_bernoulli_words) at lane
    /// threshold `t8`.
    fn fill_lane_words(&self, t8: u16, base: u64, len: usize, out: &mut [u64]) {
        let words = len.div_ceil(64);
        assert!(words <= out.len(), "mask slice too short for {len} bits");
        for (w, slot) in out[..words].iter_mut().enumerate() {
            let bits = (len - w * 64).min(64);
            *slot = self.lane_word(t8, base.wrapping_add((w * 64) as u64), bits);
        }
    }

    /// The draw-aligned tape stride between consecutive windows of `len`
    /// bits: window `i` of a batch starts at tape position
    /// `i · window_stride(len)`. Rounding up to a whole draw (8 lanes)
    /// keeps every window's inner loop alignment-free.
    #[inline]
    #[must_use]
    pub fn window_stride(len: usize) -> u64 {
        len.next_multiple_of(8) as u64
    }

    /// Materializes the windows [`window_counts`](Self::window_counts)
    /// counts: window `i` (lane threshold `t8[i]`, `len` bits) occupies
    /// tape positions `i · window_stride(len) ..` of this stream and
    /// lands at words `out[i·⌈len/64⌉ ..][..⌈len/64⌉]` with
    /// [`sample_bernoulli_words`](Self::sample_bernoulli_words)
    /// semantics. The flat addressing costs no per-window key derivation:
    /// one batch of `n` live windows is `n · ⌈len/8⌉` mixes, period.
    /// Every `(window, bit)` is addressed by `(key, i · stride + t)`, so
    /// the iteration order is a free choice and the result is identical
    /// under any schedule.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `t8.len() · ⌈len/64⌉` words.
    pub fn sample_bernoulli_windows(&self, t8: &[u16], len: usize, out: &mut [u64]) {
        let words = len.div_ceil(64);
        assert!(
            out.len() >= t8.len() * words,
            "word slots per window required"
        );
        let stride = Self::window_stride(len);
        for (i, &t) in t8.iter().enumerate() {
            let slot = &mut out[i * words..][..words];
            self.fill_lane_words(t, (i as u64).wrapping_mul(stride), len, slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitplane::{bernoulli_threshold, BERNOULLI_ALWAYS, BERNOULLI_NEVER};

    #[test]
    fn draws_are_pure_and_order_free() {
        let s = CounterStream::from_seed(42);
        let forward: Vec<u64> = (0..64).map(|t| s.draw(t)).collect();
        let backward: Vec<u64> = (0..64).rev().map(|t| s.draw(t)).collect();
        assert_eq!(
            forward,
            backward.into_iter().rev().collect::<Vec<_>>(),
            "a draw must not depend on evaluation order"
        );
        // Re-drawing reproduces.
        assert_eq!(s.draw(7), s.draw(7));
    }

    #[test]
    fn seeds_and_children_decorrelate() {
        let a = CounterStream::from_seed(0);
        let b = CounterStream::from_seed(1);
        assert_ne!(a.key(), b.key());
        assert_ne!(a.draw(0), b.draw(0));
        let c0 = a.derive(0);
        let c1 = a.derive(1);
        assert_ne!(c0.key(), c1.key());
        assert_ne!(c0.key(), a.key());
        // Derivation is a pure function of (key, index).
        assert_eq!(a.derive(5).key(), a.derive(5).key());
    }

    #[test]
    fn uniformity_smoke() {
        // Mean of 4096 draws ≈ 2⁶³; per-bit frequencies ≈ 1/2. Loose
        // 4-sigma-ish bounds — this is a sanity check, not a test suite
        // for the (well-studied) SplitMix64 finalizer.
        let s = CounterStream::from_seed(123);
        let n = 4096u64;
        let mut ones = [0u32; 64];
        for t in 0..n {
            let z = s.draw(t);
            for (b, count) in ones.iter_mut().enumerate() {
                *count += ((z >> b) & 1) as u32;
            }
        }
        for (b, &count) in ones.iter().enumerate() {
            assert!(
                (1800..=2300).contains(&count),
                "bit {b} frequency {count}/{n}"
            );
        }
    }

    #[test]
    fn bernoulli_word_matches_per_bit_reference() {
        let s = CounterStream::from_seed(9).derive(3);
        for &p in &[0.01, 0.3, 0.5, 0.9, 0.999] {
            let thr = bernoulli_threshold(p);
            let t8 = u64::from(lane_threshold(thr));
            for &(base, bits) in &[(0u64, 64usize), (64, 64), (128, 17), (5, 1), (13, 29)] {
                let word = s.bernoulli_word(thr, base, bits);
                for t in 0..64 {
                    let expect = if t < bits {
                        // Bit g: byte lane g mod 8 of draw ⌊g/8⌋.
                        let g = base + t as u64;
                        let z = s.draw(g >> 3);
                        ((z >> (8 * (g & 7))) & 0xFF) < t8
                    } else {
                        false // tail bits cleared
                    };
                    assert_eq!((word >> t) & 1 == 1, expect, "p={p} base={base} bit {t}");
                }
            }
        }
    }

    #[test]
    fn lane_thresholds_saturate_at_both_ends() {
        for (p, t8) in [
            (0.0, 0),
            (1e-4, 0),
            (0.5, 128),
            (1.0 - 1e-4, 256),
            (1.0, 256),
        ] {
            assert_eq!(lane_threshold(bernoulli_threshold(p)), t8, "p={p}");
        }
        assert_eq!(lane_threshold(BERNOULLI_NEVER), 0);
        assert_eq!(lane_threshold(BERNOULLI_ALWAYS), 256);
    }

    /// The count kernel against the popcount of the materialized window,
    /// over every length shape (ragged, one draw, the straight-line
    /// 16-cycle block, the draw-loop blocks), batch sizes around the
    /// 8-window block, saturated and deep-tail thresholds, and whole
    /// blocks of saturated windows (the draw-skipping branch).
    #[test]
    fn window_counts_equal_fill_popcounts() {
        let s = CounterStream::from_seed(55).derive(2);
        let saturated = [0.0, 1.0, 1e-4, 1.0 - 1e-4];
        let mixed = [0.0, 0.03, 1.0, 0.5, 1e-4, 0.71, 1.0 - 1e-4, 0.97, 0.2];
        let check = |len: usize, n: usize| {
            let thr: Vec<u64> = (0..n)
                .map(|i| {
                    let p = if i < 8 || (32..40).contains(&i) {
                        saturated[(i + len) % saturated.len()]
                    } else {
                        mixed[(i * 5 + len) % mixed.len()]
                    };
                    bernoulli_threshold(p)
                })
                .collect();
            let t8: Vec<u16> = thr.iter().map(|&t| lane_threshold(t)).collect();
            let mut counts = vec![u32::MAX; n];
            s.window_counts(&t8, len, &mut counts);
            let stride = CounterStream::window_stride(len);
            for (i, (&t, &count)) in thr.iter().zip(&counts).enumerate() {
                let mut words = vec![0u64; len.div_ceil(64)];
                s.sample_bernoulli_words(t, i as u64 * stride, len, &mut words);
                let fill: u32 = words.iter().map(|w| w.count_ones()).sum();
                assert_eq!(count, fill, "len {len}, n {n}, window {i}");
            }
        };
        for len in 1..=72 {
            for n in [1, 5, 8, 9, 16, 23, 64] {
                check(len, n);
            }
        }
        // Windows at and past one SWAR fold; at 16 · FOLD_DRAWS an unfolded
        // never-firing window would overflow the 16-bit field sum.
        for len in [
            8 * FOLD_DRAWS,
            8 * FOLD_DRAWS + 8,
            8 * FOLD_DRAWS + 13,
            16 * FOLD_DRAWS,
        ] {
            check(len, 16);
        }
    }

    /// The cross-stream count kernel against per-stream `window_counts`:
    /// stream counts around the 8-stream block (a ragged last block
    /// included), every length shape up to 72 plus lengths at and past
    /// one SWAR fold, several window indices, saturated and deep-tail
    /// thresholds, and whole blocks of saturated streams (the
    /// draw-skipping branch).
    #[test]
    fn window_counts_across_equal_per_stream_counts() {
        let root = CounterStream::from_seed(71).derive(4);
        let saturated = [0.0, 1.0, 1e-4, 1.0 - 1e-4];
        let mixed = [0.0, 0.03, 1.0, 0.5, 1e-4, 0.71, 1.0 - 1e-4, 0.97, 0.2];
        let check = |len: usize, n: usize| {
            let streams: Vec<CounterStream> = (0..n as u64).map(|i| root.derive(i)).collect();
            for window in [0, 3, 13] {
                let t8: Vec<u16> = (0..n)
                    .map(|i| {
                        let p = if i < 8 || (32..40).contains(&i) {
                            saturated[(i + len + window) % saturated.len()]
                        } else {
                            mixed[(i * 5 + len + window) % mixed.len()]
                        };
                        lane_threshold(bernoulli_threshold(p))
                    })
                    .collect();
                let mut counts = vec![u32::MAX; n];
                CounterStream::window_counts_across(&streams, window, &t8, len, &mut counts);
                for (i, (s, &t)) in streams.iter().zip(&t8).enumerate() {
                    let mut solo = vec![u32::MAX; window + 1];
                    s.window_counts(&vec![t; window + 1], len, &mut solo);
                    assert_eq!(counts[i], solo[window], "len {len}, n {n}, window {window}");
                }
            }
        };
        for len in (1..=72).chain([8 * FOLD_DRAWS, 8 * FOLD_DRAWS + 8, 16 * FOLD_DRAWS]) {
            for n in [1, 2, 7, 8, 9, 64, 65] {
                check(len, n);
            }
        }
    }

    #[test]
    fn sentinels_fill_constant_with_cleared_tails() {
        let s = CounterStream::from_seed(4);
        let mut out = [u64::MAX; 3];
        s.sample_bernoulli_words(BERNOULLI_NEVER, 0, 130, &mut out);
        assert_eq!(out, [0, 0, 0]);
        let mut out = [0u64; 3];
        s.sample_bernoulli_words(BERNOULLI_ALWAYS, 0, 130, &mut out);
        assert_eq!(out, [u64::MAX, u64::MAX, 0b11]);
    }

    #[test]
    fn word_fill_rate_tracks_probability() {
        let s = CounterStream::from_seed(77);
        for &p in &[0.1, 0.5, 0.9] {
            let thr = bernoulli_threshold(p);
            let mut ones = 0u32;
            let n_words = 256usize;
            for w in 0..n_words {
                ones += s.derive(w as u64).bernoulli_word(thr, 0, 64).count_ones();
            }
            let rate = f64::from(ones) / (n_words as f64 * 64.0);
            assert!(
                (rate - p).abs() < 0.02,
                "p={p}: measured {rate} over {} bits",
                n_words * 64
            );
        }
    }

    #[test]
    fn planes_batch_equals_per_window_fills() {
        let s = CounterStream::from_seed(31);
        let thresholds: Vec<u64> = [0.0, 0.2, 1.0, 0.7, 0.5]
            .iter()
            .map(|&p| bernoulli_threshold(p))
            .collect();
        let t8: Vec<u16> = thresholds.iter().map(|&t| lane_threshold(t)).collect();
        let len = 130usize; // 3 words per window
        let words = len.div_ceil(64);
        let mut batch = vec![0u64; 5 * words];
        s.sample_bernoulli_windows(&t8, len, &mut batch);
        let stride = CounterStream::window_stride(len);
        for (i, &thr) in thresholds.iter().enumerate() {
            let mut solo = vec![0u64; words];
            s.sample_bernoulli_words(thr, i as u64 * stride, len, &mut solo);
            assert_eq!(&batch[i * words..][..words], &solo[..], "window {i}");
        }
    }
}
