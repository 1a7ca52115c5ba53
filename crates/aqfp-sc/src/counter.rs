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
//! draw `⌊g/8⌋` against the threshold rounded to 8 bits (see
//! [`bernoulli_threshold`](crate::bitplane::bernoulli_threshold) for the
//! 53-bit threshold it is rounded from). One mix is amortized over eight
//! decisions at a probability quantization of 2⁻⁸ (bias ≤ 2⁻⁹ — the
//! resolution of the byte-wide LFSR comparators real SC front-ends
//! deploy, and well below the gray-zone model's own tolerances; the
//! `word_fill_rate_tracks_probability` test checks the byte law against
//! the `f64` law).
//!
//! Within one stream, a *batch* of observation windows (the cells of a
//! packed matrix evaluation) lives on that flat decision tape: window `i`
//! of length `L` starts at bit `i · ⌈L/8⌉·8` (draw-aligned), so a window
//! costs exactly `⌈L/8⌉` mixes and no per-window key derivation. The
//! stream *tree* ([`CounterStream::derive`]) addresses coarser
//! coordinates — sample, stage, pixel — where the fan-out is irregular.

use crate::bitplane::{BERNOULLI_ALWAYS, BERNOULLI_NEVER};

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

/// Rounds a 53-bit serial draw threshold (`⌈p·2⁵³⌉`, see
/// [`crate::bitplane::bernoulli_threshold`]) to the byte-lane domain: a
/// lane fires iff its 8 uniform bits fall below `round(p·2⁸)`, so the
/// realized probability is within 2⁻⁹ of `p`. Only called with live
/// (non-sentinel) thresholds, whose results span `0..=2⁸` — `2⁸` itself
/// must remain representable (`p = 1 - ε` rounds up to an always-fires
/// lane).
#[inline]
fn threshold8(thr: u64) -> u32 {
    (((thr >> 44) + 1) >> 1) as u32
}

/// True when `threshold` rounds to a byte-lane threshold of zero: under
/// the counter law **no** decision can fire, so a window fill is certainly
/// all-'0' — the draw-free equivalent of [`BERNOULLI_NEVER`], which this
/// predicate also accepts. Lets table builders mark deep-gray-zone-tail
/// cells (`0 < p < 2⁻⁹`) as counter-saturated and skip their draws
/// entirely; the skipped result is bit-identical, not approximate.
#[inline]
#[must_use]
pub fn counter_never(threshold: u64) -> bool {
    threshold >> 44 == 0
}

/// True when `threshold` rounds to a byte-lane threshold of 2⁸: every
/// decision fires, so a window fill is certainly all-'1' — the draw-free
/// equivalent of [`BERNOULLI_ALWAYS`], which this predicate also accepts
/// (`p > 1 − 2⁻⁹` rounds up to an always-fires lane).
#[inline]
#[must_use]
pub fn counter_always(threshold: u64) -> bool {
    threshold == BERNOULLI_ALWAYS || threshold8(threshold) >= 1 << 8
}

/// An 8-bit mask with bit `j` set iff byte lane `j` of draw `z` falls
/// below `t8` (which must be in `1..=255`): branch-free SWAR compare.
/// The even and odd byte lanes are widened into 16-bit fields, `256 -
/// t8` is added so bit 8 of each field becomes that lane's `byte ≥ t8`
/// carry (field sums peak at 510, so carries never cross fields), and
/// the inverted carries are gathered back into one byte.
#[inline]
fn byte_lt_mask(z: u64, t8: u32) -> u64 {
    const LO: u64 = 0x00FF_00FF_00FF_00FF;
    const ONES: u64 = 0x0001_0001_0001_0001;
    let c = (0x100 - u64::from(t8)) * ONES;
    let even = !((z & LO).wrapping_add(c) >> 8) & ONES; // lanes 0,2,4,6
    let odd = !(((z >> 8) & LO).wrapping_add(c) >> 8) & ONES; // lanes 1,3,5,7
    ((even | (even >> 14) | (even >> 28) | (even >> 42)) & 0x55)
        | (((odd << 1) | (odd >> 13) | (odd >> 27) | (odd >> 41)) & 0xAA)
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
    /// [`threshold8`]).
    #[inline]
    fn lane_decision(&self, g: u64, t8: u32) -> bool {
        let z = self.draw(g >> 3);
        (((z >> (8 * (g & 7))) & 0xFF) as u32) < t8
    }

    /// One packed word of up to 64 Bernoulli bits: bit `t` is decided by
    /// byte lane `(base + t) mod 8` of draw `⌊(base + t) / 8⌋` against
    /// the 8-bit-rounded threshold — eight decisions per mix (see the
    /// module docs). Sentinel thresholds fill constant without draws.
    /// Bits at and above `bits` are zero.
    ///
    /// The inner loop has **no loop-carried dependency** — each draw's
    /// mix is independent — so the multiplies pipeline (and vectorize
    /// where the target has 64-bit vector multiply).
    ///
    /// # Panics
    /// Panics if `bits > 64`.
    #[inline]
    #[must_use]
    pub fn bernoulli_word(&self, threshold: u64, base: u64, bits: usize) -> u64 {
        assert!(bits <= 64, "a word holds at most 64 lanes, got {bits}");
        match threshold {
            BERNOULLI_NEVER => 0,
            BERNOULLI_ALWAYS => {
                if bits == 64 {
                    u64::MAX
                } else {
                    (1u64 << bits) - 1
                }
            }
            thr => {
                let t8 = threshold8(thr);
                // Quantized saturation: a threshold whose 8-bit rounding
                // hits 0 (or 2⁸) decides every lane the same way — fill
                // the constant without drawing (see [`counter_never`]).
                if t8 == 0 {
                    return 0;
                }
                if t8 > 0xFF {
                    return if bits == 64 {
                        u64::MAX
                    } else {
                        (1u64 << bits) - 1
                    };
                }
                let mut word = 0u64;
                let mut t = 0usize;
                // Align on a draw boundary, then take whole draws (eight
                // lanes each), then the ragged tail.
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
        }
    }

    /// The number of '1' bits a `len`-bit window fill at tape position
    /// `base` would produce —
    /// `self.sample_bernoulli_words(threshold, base, len, ..)`
    /// popcounted, without materializing the words: each draw's eight
    /// lane compares are reduced by SWAR carry-harvesting (widen lanes to
    /// 16-bit fields, add `256 - t8`, sum the `≥` carries at bit 8, fold
    /// with one multiply) — no per-lane extraction, no popcount. This is
    /// what the exact-APC accumulation actually consumes, so the packed
    /// stochastic engine can skip the stream buffer
    /// entirely: saturated cells contribute their constant for free and
    /// live cells are counted straight out of the generator.
    #[inline]
    #[must_use]
    pub fn bernoulli_count(&self, threshold: u64, base: u64, len: usize) -> u32 {
        match threshold {
            BERNOULLI_NEVER => 0,
            BERNOULLI_ALWAYS => len as u32,
            thr => {
                let t8 = threshold8(thr);
                // Same quantized-saturation constants as `bernoulli_word`.
                if t8 == 0 {
                    return 0;
                }
                if t8 > 0xFF {
                    return len as u32;
                }
                let mut total = 0u32;
                let mut t = 0usize;
                while t < len && base.wrapping_add(t as u64) & 7 != 0 {
                    total += self.lane_decision(base.wrapping_add(t as u64), t8) as u32;
                    t += 1;
                }
                const LO: u64 = 0x00FF_00FF_00FF_00FF;
                const ONES: u64 = 0x0001_0001_0001_0001;
                let c = (0x100 - u64::from(t8)) * ONES;
                while t + 8 <= len {
                    // Accumulate `byte ≥ t8` carries per 16-bit field, two
                    // lanes per field per draw: a fold every ≤ 2¹² draws
                    // keeps the single-multiply horizontal sum below 2¹⁶.
                    let stop = t + ((len - t) & !7).min(8 << 12);
                    let span = (stop - t) as u32;
                    let mut ge = 0u64;
                    while t < stop {
                        let z = self.draw(base.wrapping_add(t as u64) >> 3);
                        ge += ((z & LO).wrapping_add(c) >> 8) & ONES;
                        ge += (((z >> 8) & LO).wrapping_add(c) >> 8) & ONES;
                        t += 8;
                    }
                    total += span - (ge.wrapping_mul(ONES) >> 48) as u32;
                }
                while t < len {
                    total += self.lane_decision(base.wrapping_add(t as u64), t8) as u32;
                    t += 1;
                }
                total
            }
        }
    }

    /// Writes the '1' counts of a dense batch of **live** windows:
    /// window `windows[i]` (threshold `thresholds[i]`, `len` bits) sits
    /// at tape position `windows[i] · window_stride(len)` — the same
    /// addressing as
    /// [`sample_bernoulli_windows`](Self::sample_bernoulli_windows) — and
    /// its would-be fill popcount lands in `out[i]`.
    ///
    /// This is the batch form of
    /// [`bernoulli_count`](Self::bernoulli_count) for callers that have
    /// already screened out saturated cells (the packed engine's
    /// counter-saturation cutoffs): every threshold here **must** round
    /// to a live byte-lane threshold (`1..=255`, debug-asserted), which
    /// lets the loop skip all sentinel/saturation dispatch and run the
    /// draw kernel back to back. The whole batch is pure elementwise
    /// arithmetic — thresholds, keys, counters, SWAR folds — so the
    /// dominant 16-bit-window shape runs as fixed 8-window blocks that
    /// the compiler turns into vector mixes (this is where the counter
    /// discipline's order freedom pays: eight windows' draws are eight
    /// independent expressions, something a serial chain can never
    /// offer).
    ///
    /// # Panics
    /// Panics if `windows` or `out` is shorter than `thresholds`.
    pub fn bernoulli_windows_counts(
        &self,
        thresholds: &[u64],
        windows: &[usize],
        len: usize,
        out: &mut [u32],
    ) {
        let n = thresholds.len();
        assert!(windows.len() >= n, "window index per threshold required");
        assert!(out.len() >= n, "count slot per threshold required");
        const LO: u64 = 0x00FF_00FF_00FF_00FF;
        const ONES: u64 = 0x0001_0001_0001_0001;
        let stride = Self::window_stride(len);
        let full = len / 8;
        let tail = len % 8;
        let tail_mask = (1u64 << tail) - 1;
        let mut done = 0usize;
        if full == 2 && tail == 0 {
            // The dominant shape (the default 16-cycle observation
            // window): two draws and one SWAR reduction per window, no
            // inner loops, processed in fixed-width blocks of eight so
            // the whole block is straight-line elementwise arithmetic
            // over arrays — the autovectorizer's favorite diet.
            let blocks = n / 8;
            for b in 0..blocks {
                let tc = &thresholds[b * 8..][..8];
                let wc = &windows[b * 8..][..8];
                let oc = &mut out[b * 8..][..8];
                for j in 0..8 {
                    let t8 = threshold8(tc[j]);
                    debug_assert!(
                        (1..=255).contains(&t8),
                        "saturated threshold in a live-window batch"
                    );
                    let c = (0x100 - u64::from(t8)) * ONES;
                    let d0 = (wc[j] as u64).wrapping_mul(2);
                    let z0 = self.draw(d0);
                    let z1 = self.draw(d0 + 1);
                    let ge = (((z0 & LO).wrapping_add(c) >> 8) & ONES)
                        + ((((z0 >> 8) & LO).wrapping_add(c) >> 8) & ONES)
                        + (((z1 & LO).wrapping_add(c) >> 8) & ONES)
                        + ((((z1 >> 8) & LO).wrapping_add(c) >> 8) & ONES);
                    oc[j] = 16 - (ge.wrapping_mul(ONES) >> 48) as u32;
                }
            }
            done = blocks * 8;
        }
        for i in done..n {
            let t8 = threshold8(thresholds[i]);
            debug_assert!(
                (1..=255).contains(&t8),
                "saturated threshold in a live-window batch"
            );
            let c = (0x100 - u64::from(t8)) * ONES;
            let d0 = (windows[i] as u64).wrapping_mul(stride) >> 3;
            let mut d = 0usize;
            let mut count = 0u64;
            while d < full {
                // Fold every ≤ 2¹² draws so the per-field carry sums stay
                // below 2¹⁶ (2 lanes per field per draw).
                let stop = full.min(d + (1 << 12));
                let span = ((stop - d) * 8) as u64;
                let mut ge = 0u64;
                while d < stop {
                    let z = self.draw(d0 + d as u64);
                    ge += ((z & LO).wrapping_add(c) >> 8) & ONES;
                    ge += (((z >> 8) & LO).wrapping_add(c) >> 8) & ONES;
                    d += 1;
                }
                count += span - (ge.wrapping_mul(ONES) >> 48);
            }
            if tail > 0 {
                let z = self.draw(d0 + full as u64);
                count += u64::from((byte_lt_mask(z, t8) & tail_mask).count_ones());
            }
            out[i] = count as u32;
        }
    }

    /// Samples `len` i.i.d. Bernoulli bits into a packed word slice
    /// ([`crate::BitPlane`] bit order, tail bits cleared): bit `t` of the
    /// window is decided by tape position `base + t` of this stream.
    /// Sentinel thresholds fill constant without drawing. Pure in
    /// `(key, base + t)`, so words can be filled independently and in any
    /// order — the one-window form the scalar stochastic engine draws
    /// each cell with.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `⌈len/64⌉` words.
    pub fn sample_bernoulli_words(&self, threshold: u64, base: u64, len: usize, out: &mut [u64]) {
        let words = len.div_ceil(64);
        assert!(words <= out.len(), "mask slice too short for {len} bits");
        for (w, slot) in out[..words].iter_mut().enumerate() {
            let bits = (len - w * 64).min(64);
            *slot = self.bernoulli_word(threshold, base.wrapping_add((w * 64) as u64), bits);
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

    /// Samples a batch of Bernoulli bit windows — window `i` (threshold
    /// `thresholds[i]`, `len` bits) occupies tape positions
    /// `i · window_stride(len) ..` of this stream and lands at words
    /// `out[offsets[i] .. offsets[i] + ⌈len/64⌉]` with
    /// [`sample_bernoulli_words`](Self::sample_bernoulli_words)
    /// semantics. The flat addressing costs no per-window key
    /// derivation: one batch of `n` live windows is `n · ⌈len/8⌉` mixes,
    /// period. Every `(window, bit)` is addressed by
    /// `(key, i · stride + t)`, so the iteration order is a free choice
    /// and the result is identical under any schedule.
    ///
    /// # Panics
    /// Panics if `offsets` is shorter than `thresholds` or any window
    /// would write past `out`.
    pub fn sample_bernoulli_windows(
        &self,
        thresholds: &[u64],
        offsets: &[usize],
        len: usize,
        out: &mut [u64],
    ) {
        let words = len.div_ceil(64);
        assert!(
            offsets.len() >= thresholds.len(),
            "offset per window required"
        );
        let rem = len % 64;
        let stride = Self::window_stride(len);
        for (i, (&thr, &off)) in thresholds.iter().zip(offsets).enumerate() {
            let slot = &mut out[off..off + words];
            // Sentinel windows fill constant without paying any draws.
            match thr {
                BERNOULLI_NEVER => slot.fill(0),
                BERNOULLI_ALWAYS => {
                    slot.fill(u64::MAX);
                    if rem > 0 {
                        slot[words - 1] = (1u64 << rem) - 1;
                    }
                }
                thr => {
                    self.sample_bernoulli_words(thr, (i as u64).wrapping_mul(stride), len, slot);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitplane::bernoulli_threshold;

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
            let t8 = super::threshold8(thr);
            for &(base, bits) in &[(0u64, 64usize), (64, 64), (128, 17), (5, 1), (13, 29)] {
                let word = s.bernoulli_word(thr, base, bits);
                for t in 0..64 {
                    let expect = if t < bits {
                        // Bit g: byte lane g mod 8 of draw ⌊g/8⌋.
                        let g = base + t as u64;
                        let z = s.draw(g >> 3);
                        (((z >> (8 * (g & 7))) & 0xFF) as u32) < t8
                    } else {
                        false // tail bits cleared
                    };
                    assert_eq!((word >> t) & 1 == 1, expect, "p={p} base={base} bit {t}");
                }
            }
        }
    }

    #[test]
    fn counts_equal_fill_popcounts() {
        let s = CounterStream::from_seed(55);
        for &p in &[0.0, 0.05, 0.5, 0.93, 1.0] {
            let thr = bernoulli_threshold(p);
            for &base in &[0u64, 5, 16, 120] {
                for &len in &[1usize, 16, 64, 130] {
                    let mut words = vec![0u64; len.div_ceil(64)];
                    s.sample_bernoulli_words(thr, base, len, &mut words);
                    let fill: u32 = words.iter().map(|w| w.count_ones()).sum();
                    assert_eq!(
                        s.bernoulli_count(thr, base, len),
                        fill,
                        "p={p} base={base} len={len}: count must equal the fill's popcount"
                    );
                }
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
        let len = 130usize; // 3 words per window
        let words = len.div_ceil(64);
        // Scattered, permuted offsets: batch order ≠ storage order.
        let offsets = [2 * words, 0, 4 * words, words, 3 * words];
        let mut batch = vec![0u64; 5 * words];
        s.sample_bernoulli_windows(&thresholds, &offsets, len, &mut batch);
        let stride = CounterStream::window_stride(len);
        for (i, (&thr, &off)) in thresholds.iter().zip(&offsets).enumerate() {
            let mut solo = vec![0u64; words];
            s.sample_bernoulli_words(thr, i as u64 * stride, len, &mut solo);
            assert_eq!(&batch[off..off + words], &solo[..], "window {i}");
        }
    }
}
