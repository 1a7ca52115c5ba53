//! Bit-exact software XNOR/popcount BNN reference.
//!
//! Conventional BNN inference replaces the signed dot product of ±1 vectors
//! with XNOR + popcount: for `n`-long vectors,
//! `dot(a, w) = 2·popcount(XNOR(a, w)) − n`. [`PopcountLinear`] evaluates
//! a binary linear layer with that datapath exactly, one [`BitPlane`] per
//! weight row. The deployed models use it as their noiseless digital
//! classifier head, and the figure benches time it as Table 3's head.

use aqfp_sc::BitPlane;

/// A binary linear layer computed entirely with XNOR/popcount.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopcountLinear {
    rows: Vec<BitPlane>,
    fan_in: usize,
}

impl PopcountLinear {
    /// Builds from a row-major `[out, fan_in]` sign matrix.
    ///
    /// # Panics
    /// Panics if `weights.len()` is not a multiple of `fan_in` or `fan_in`
    /// is zero.
    pub fn new(weights: &[f32], fan_in: usize) -> Self {
        assert!(fan_in > 0, "fan-in must be positive");
        assert_eq!(weights.len() % fan_in, 0, "weights not a whole matrix");
        let rows = weights.chunks(fan_in).map(BitPlane::from_signs).collect();
        Self { rows, fan_in }
    }

    /// Builds from already packed weight rows (each row one output unit's
    /// ±1 weights over the fan-in) — the reassembly path of the deploy
    /// snapshot codec, which persists the rows as raw bitplane words.
    ///
    /// # Panics
    /// Panics if `fan_in` is zero or any row's length differs from it.
    pub fn from_rows(rows: Vec<BitPlane>, fan_in: usize) -> Self {
        assert!(fan_in > 0, "fan-in must be positive");
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), fan_in, "row {i} length mismatch");
        }
        Self { rows, fan_in }
    }

    /// Number of output units.
    pub fn out_features(&self) -> usize {
        self.rows.len()
    }

    /// The fan-in.
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// The packed weight rows (used by the packed deploy engine to score
    /// classifier logits straight from an activation plane).
    pub fn rows(&self) -> &[BitPlane] {
        &self.rows
    }

    /// Computes all outputs for one already packed ±1 activation plane.
    ///
    /// # Panics
    /// Panics on input length mismatch.
    pub fn forward_plane(&self, input: &BitPlane) -> Vec<i32> {
        assert_eq!(input.len(), self.fan_in, "input length mismatch");
        self.rows.iter().map(|r| r.xnor_dot(input) as i32).collect()
    }

    /// Computes all outputs for one ±1 input vector.
    ///
    /// # Panics
    /// Panics on input length mismatch.
    pub fn forward(&self, input: &[f32]) -> Vec<i32> {
        self.forward_plane(&BitPlane::from_signs(input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn float_dot(a: &[f32], b: &[f32]) -> i32 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| {
                let sx = if x >= 0.0 { 1 } else { -1 };
                let sy = if y >= 0.0 { 1 } else { -1 };
                sx * sy
            })
            .sum()
    }

    #[test]
    fn packed_dot_matches_float_dot() {
        // One-row layers over deterministic pseudo-random ±1 vectors of
        // awkward lengths.
        for len in [1usize, 7, 63, 64, 65, 130, 200] {
            let a: Vec<f32> = (0..len)
                .map(|i| if (i * 7 + 3) % 5 < 2 { 1.0 } else { -1.0 })
                .collect();
            let b: Vec<f32> = (0..len)
                .map(|i| if (i * 11 + 1) % 3 == 0 { 1.0 } else { -1.0 })
                .collect();
            let layer = PopcountLinear::new(&a, len);
            assert_eq!(layer.forward(&b), vec![float_dot(&a, &b)], "len {len}");
        }
    }

    #[test]
    fn self_dot_is_length() {
        let v: Vec<f32> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert_eq!(PopcountLinear::new(&v, 100).forward(&v), vec![100]);
    }

    #[test]
    fn opposite_dot_is_negative_length() {
        let layer = PopcountLinear::new(&[1.0; 70], 70);
        assert_eq!(layer.forward(&[-1.0; 70]), vec![-70]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        PopcountLinear::new(&[1.0; 8], 8).forward(&[1.0; 9]);
    }

    #[test]
    fn popcount_linear_layer() {
        // 2×3 weights: [+,+,−] and [−,−,−].
        let w = [1.0, 1.0, -1.0, -1.0, -1.0, -1.0];
        let layer = PopcountLinear::new(&w, 3);
        assert_eq!(layer.out_features(), 2);
        let out = layer.forward(&[1.0, 1.0, 1.0]);
        assert_eq!(out, vec![1, -3]);
    }
}
