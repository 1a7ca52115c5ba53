//! A dense row-major `f32` tensor and the training GEMMs.
//!
//! Shapes are dynamic (`Vec<usize>`); the layer code mostly uses 2-D
//! (`[batch, features]`) and 4-D (`[batch, channels, height, width]`)
//! tensors.
//!
//! The three GEMMs ([`Tensor::matmul`], [`Tensor::matmul_nt`],
//! [`Tensor::matmul_tn`]) are register-blocked, and they keep one
//! summation order so every trained bit is independent of the blocking:
//! each output starts at `+0.0` and adds its products in ascending inner
//! index, one multiply and one add per term (never `mul_add`), with no
//! reassociation and no threads. Blocking only chooses which outputs are
//! in flight together; the transposed variants read their operand
//! through offset tables instead of materializing a transpose.

use serde::{Deserialize, Serialize};

/// A dense row-major tensor of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// An all-zeros tensor of the given shape.
    ///
    /// # Panics
    /// Panics on an empty shape or a zero dimension.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel = Self::checked_numel(shape);
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; numel],
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel = Self::checked_numel(shape);
        Self {
            shape: shape.to_vec(),
            data: vec![value; numel],
        }
    }

    /// Builds a tensor from raw data.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let numel = Self::checked_numel(shape);
        assert_eq!(
            data.len(),
            numel,
            "data length {} does not match shape {shape:?}",
            data.len()
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    fn checked_numel(shape: &[usize]) -> usize {
        assert!(!shape.is_empty(), "tensor shape must have at least one dim");
        assert!(
            shape.iter().all(|&d| d > 0),
            "tensor dimensions must be positive, got {shape:?}"
        );
        shape.iter().product()
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable raw data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Panics
    /// Panics if element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let numel = Self::checked_numel(shape);
        assert_eq!(numel, self.numel(), "reshape {:?} -> {shape:?}", self.shape);
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// Element at a 2-D index.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Mutable element at a 2-D index.
    #[inline]
    pub fn at2_mut(&mut self, i: usize, j: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 2);
        let cols = self.shape[1];
        &mut self.data[i * cols + j]
    }

    /// Element at a 4-D index `(n, c, h, w)`.
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (_, cc, hh, ww) = (self.shape[0], self.shape[1], self.shape[2], self.shape[3]);
        self.data[((n * cc + c) * hh + h) * ww + w]
    }

    /// Mutable element at a 4-D index.
    #[inline]
    pub fn at4_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (cc, hh, ww) = (self.shape[1], self.shape[2], self.shape[3]);
        &mut self.data[((n * cc + c) * hh + h) * ww + w]
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise binary op.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in zip");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// `self − other`.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Scales by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place `self += other * s` (the optimizer's workhorse).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, s: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in axpy");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.numel() as f32
    }

    /// Mean of absolute values — the XNOR-Net scaling factor over a slice.
    pub fn abs_mean(&self) -> f32 {
        self.data.iter().map(|x| x.abs()).sum::<f32>() / self.numel() as f32
    }

    /// Sets all elements to zero (gradient reset).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// 2-D matrix multiply: `self [m×k] · other [k×n] → [m×n]`.
    ///
    /// # Panics
    /// Panics unless both tensors are 2-D with compatible inner dims.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.dims2("matmul lhs");
        let (k2, n) = other.dims2("matmul rhs");
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        let lhs = PackedLhs::new(&self.data, m, k);
        product(&lhs, &other.data, &strided(k, n), &strided(n, 1))
    }

    /// `self [m×k] · otherᵀ` for `other [n×k]` → `[m×n]`, without
    /// materializing the transpose.
    ///
    /// # Panics
    /// Panics unless both tensors are 2-D with equal column counts.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.dims2("matmul_nt lhs");
        let (n, k2) = other.dims2("matmul_nt rhs");
        assert_eq!(k, k2, "matmul_nt inner dims {k} vs {k2}");
        let lhs = PackedLhs::new(&self.data, m, k);
        product(&lhs, &other.data, &strided(k, 1), &strided(n, k))
    }

    /// `selfᵀ · other` for `self [k×m]`, `other [k×n]` → `[m×n]`, without
    /// materializing the transpose.
    ///
    /// # Panics
    /// Panics unless both tensors are 2-D with equal row counts.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (k, m) = self.dims2("matmul_tn lhs");
        let (k2, n) = other.dims2("matmul_tn rhs");
        assert_eq!(k, k2, "matmul_tn inner dims {k} vs {k2}");
        let lhs = PackedLhs::transposed(&self.data, k, m);
        product(&lhs, &other.data, &strided(k, n), &strided(n, 1))
    }

    fn dims2(&self, what: &str) -> (usize, usize) {
        assert_eq!(self.shape.len(), 2, "{what} must be 2-D");
        (self.shape[0], self.shape[1])
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    /// Panics unless 2-D.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose2 needs a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            shape: vec![n, m],
            data: out,
        }
    }

    /// Index of the maximum element in each row of a 2-D tensor.
    ///
    /// # Panics
    /// Panics unless 2-D.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.len(), 2, "argmax_rows needs a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        (0..m)
            .map(|i| {
                let row = &self.data[i * n..(i + 1) * n];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(j, _)| j)
                    .expect("rows are non-empty")
            })
            .collect()
    }

    /// Maximum absolute element (useful in tests).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }
}

/// Rows of the GEMM register block.
const MR: usize = 4;
/// Columns of the GEMM register block.
const NR: usize = 16;
/// Inner-index depth of one packed block of the right operand.
const KC: usize = 256;

/// The left operand of a GEMM, packed into `MR`-row panels stored
/// inner-index-major: panel `ib` holds `a(ib·MR + r, p)` at
/// `(ib·k + p)·MR + r`. Rows past `m` repeat row `m − 1`; the kernel
/// computes their outputs and drops them. A convolution packs its weights
/// once and reuses them for every sample of the batch.
pub(crate) struct PackedLhs {
    data: Vec<f32>,
    m: usize,
    k: usize,
}

impl PackedLhs {
    /// Packs a row-major `a [m×k]`.
    pub(crate) fn new(a: &[f32], m: usize, k: usize) -> Self {
        assert_eq!(a.len(), m * k, "lhs is not [{m}×{k}]");
        Self::pack(m, k, |i, p| a[i * k + p])
    }

    /// Packs `aᵀ` for a row-major `a [k×m]`.
    pub(crate) fn transposed(a: &[f32], k: usize, m: usize) -> Self {
        assert_eq!(a.len(), k * m, "lhs is not [{k}×{m}]");
        Self::pack(m, k, |i, p| a[p * m + i])
    }

    fn pack(m: usize, k: usize, at: impl Fn(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(m.div_ceil(MR) * k * MR);
        for ib in 0..m.div_ceil(MR) {
            for p in 0..k {
                data.extend((0..MR).map(|r| at((ib * MR + r).min(m - 1), p)));
            }
        }
        Self { data, m, k }
    }
}

/// The right operand of a GEMM, `b(p, j) = data[rows[p] + cols[j]]`. The
/// two offset tables describe a row-major matrix ([`strided`] rows and
/// columns), its transpose, or the receptive fields of a padded
/// convolution input, without materializing any of them.
pub(crate) struct Rhs<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) rows: &'a [usize],
    pub(crate) cols: &'a [usize],
}

/// The offsets `0, step, 2·step, …` of `len` rows or columns.
pub(crate) fn strided(len: usize, step: usize) -> Vec<usize> {
    (0..len).map(|i| i * step).collect()
}

/// `a · b` into a fresh `[m×n]` tensor, for `b(p, j) = data[rows[p] +
/// cols[j]]`. A zero dimension (only a deserialized tensor can have one)
/// gives an empty or all-zero product.
fn product(a: &PackedLhs, data: &[f32], rows: &[usize], cols: &[usize]) -> Tensor {
    let mut out = Tensor {
        shape: vec![a.m, cols.len()],
        data: vec![0.0; a.m * cols.len()],
    };
    gemm(a, &Rhs { data, rows, cols }, &mut out.data);
    out
}

/// `c [m×n] += a · b`. Every output continues from its current value in
/// `c` and adds `a(i, p)·b(p, j)` for `p = 0, 1, …, k−1` in that order, so
/// a zeroed `c` gets exactly the textbook i-k-j sum and a `c` carried
/// across calls gets one sum over the concatenated inner ranges.
pub(crate) fn gemm(a: &PackedLhs, b: &Rhs<'_>, c: &mut [f32]) {
    let (m, k, n) = (a.m, a.k, b.cols.len());
    assert_eq!(b.rows.len(), k, "inner dims {k} vs {}", b.rows.len());
    assert_eq!(c.len(), m * n, "output is not [{m}×{n}]");
    let mut panel = vec![0.0f32; KC.min(k) * NR];
    for j0 in (0..n).step_by(NR) {
        let cols = &b.cols[j0..(j0 + NR).min(n)];
        let nc = cols.len();
        for k0 in (0..k).step_by(KC) {
            // Gather the block into a zero-padded panel, reused by every
            // row panel of `a`.
            let rows = &b.rows[k0..(k0 + KC).min(k)];
            for (&row, dst) in rows.iter().zip(panel.chunks_exact_mut(NR)) {
                for (d, &col) in dst.iter_mut().zip(cols) {
                    *d = b.data[row + col];
                }
                dst[nc..].fill(0.0);
            }
            for (ib, lhs) in a.data.chunks_exact(k * MR).enumerate() {
                let ap = &lhs[k0 * MR..(k0 + rows.len()) * MR];
                let (i0, mr) = (ib * MR, MR.min(m - ib * MR));
                let mut acc = [[0.0f32; NR]; MR];
                // A full block moves fixed-size rows: on the training convs
                // that ran about 15% faster than the general copy below.
                if mr == MR && nc == NR {
                    for (r, row) in acc.iter_mut().enumerate() {
                        *row = c[(i0 + r) * n + j0..][..NR]
                            .try_into()
                            .expect("a full block spans NR columns");
                    }
                    micro_kernel(ap, &panel, &mut acc);
                    for (r, row) in acc.iter().enumerate() {
                        c[(i0 + r) * n + j0..][..NR].copy_from_slice(row);
                    }
                } else {
                    for (r, row) in acc.iter_mut().enumerate().take(mr) {
                        row[..nc].copy_from_slice(&c[(i0 + r) * n + j0..][..nc]);
                    }
                    micro_kernel(ap, &panel, &mut acc);
                    for (r, row) in acc.iter().enumerate().take(mr) {
                        c[(i0 + r) * n + j0..][..nc].copy_from_slice(&row[..nc]);
                    }
                }
            }
        }
    }
}

/// One `MR × NR` register block: `acc[r][j] += ap[p·MR + r] ·
/// panel[p·NR + j]` for `p` ascending, one multiply and one add per term.
/// The four rows are named locals, not a loop over `acc`: so written, they
/// stay in registers at `opt-level = 2` too (the test profile), where a
/// loop over the rows ran the training GEMMs about twice as slowly.
#[inline(always)]
fn micro_kernel(ap: &[f32], panel: &[f32], acc: &mut [[f32; NR]; MR]) {
    let [mut r0, mut r1, mut r2, mut r3] = *acc;
    for (av, brow) in ap.chunks_exact(MR).zip(panel.chunks_exact(NR)) {
        let brow: &[f32; NR] = brow.try_into().expect("a panel row spans NR columns");
        for (o, &bv) in r0.iter_mut().zip(brow) {
            *o += av[0] * bv;
        }
        for (o, &bv) in r1.iter_mut().zip(brow) {
            *o += av[1] * bv;
        }
        for (o, &bv) in r2.iter_mut().zip(brow) {
            *o += av[2] * bv;
        }
        for (o, &bv) in r3.iter_mut().zip(brow) {
            *o += av[3] * bv;
        }
    }
    *acc = [r0, r1, r2, r3];
}

/// Reference kernels the training layers were checked against bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::Tensor;

    /// The plain i-k-j product the blocked kernels replaced: each output
    /// starts at `+0.0` and adds `a(i, p)·b(p, j)` in ascending `p`,
    /// skipping zero left operands (which, for finite operands, changes
    /// nothing: the sum starts at `+0.0` and never becomes `−0.0`).
    pub(crate) fn matmul_ikj(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let (k2, n) = (b.shape()[0], b.shape()[1]);
        assert_eq!(k, k2);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let lhs_row = &a.data()[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (kk, &av) in lhs_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let rhs_row = &b.data()[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(rhs_row) {
                    *o += av * bv;
                }
            }
        }
        Tensor::from_vec(&[m, n], out)
    }

    /// Deterministic values spread over six decades and both signs, with
    /// every `zero_every`-th entry an exact zero (alternating `±0.0`), so
    /// any change of summation order shows in the bits.
    pub(crate) fn values(len: usize, seed: u64, zero_every: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if zero_every > 0 && i % zero_every == zero_every - 1 {
                    return if i % 2 == 0 { 0.0 } else { -0.0 };
                }
                let mantissa = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                mantissa * 10f32.powi((state % 7) as i32 - 3)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{matmul_ikj, values};
    use super::*;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn blocked_gemms_match_the_ikj_loop_bit_for_bit() {
        // Every dimension at 1, one block minus one, one block and one
        // block plus one (MR rows, NR columns, KC inner), zeros in both
        // operands.
        let ms = [1, MR - 1, MR, MR + 1, 3 * MR + 2];
        let ns = [1, NR - 1, NR, NR + 1, 2 * NR + 5];
        let ks = [1, 7, KC - 1, KC, KC + 1];
        let mut seed = 1;
        for &m in &ms {
            for &n in &ns {
                for &k in &ks {
                    seed += 1;
                    let a = Tensor::from_vec(&[m, k], values(m * k, seed, 5));
                    let b = Tensor::from_vec(&[k, n], values(k * n, seed + 1000, 7));
                    let want = bits(&matmul_ikj(&a, &b));
                    assert_eq!(bits(&a.matmul(&b)), want, "matmul {m}×{k}×{n}");
                    assert_eq!(
                        bits(&a.matmul_nt(&b.transpose2())),
                        want,
                        "matmul_nt {m}×{k}×{n}"
                    );
                    assert_eq!(
                        bits(&a.transpose2().matmul_tn(&b)),
                        want,
                        "matmul_tn {m}×{k}×{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn transposed_products_check_their_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        assert_eq!(a.matmul_nt(&Tensor::zeros(&[5, 3])).shape(), &[2, 5]);
        assert_eq!(a.matmul_tn(&Tensor::zeros(&[2, 4])).shape(), &[3, 4]);
    }

    #[test]
    fn zero_dimensions_give_zero_products() {
        // The constructors reject zero dimensions, but a deserialized
        // tensor can carry one; its products are empty or all zero.
        let empty = |m: usize, n: usize| Tensor {
            shape: vec![m, n],
            data: vec![0.0; m * n],
        };
        let ones = |m: usize, n: usize| Tensor {
            shape: vec![m, n],
            data: vec![1.0; m * n],
        };
        assert_eq!(empty(2, 0).matmul(&empty(0, 3)), empty(2, 3));
        assert_eq!(empty(2, 0).matmul_nt(&empty(3, 0)), empty(2, 3));
        assert_eq!(empty(0, 2).matmul_tn(&empty(0, 3)), empty(2, 3));
        assert_eq!(empty(0, 3).matmul(&ones(3, 2)), empty(0, 2));
        assert_eq!(ones(2, 3).matmul(&empty(3, 0)), empty(2, 0));
        assert_eq!(ones(2, 3).matmul_nt(&empty(0, 3)), empty(2, 0));
        assert_eq!(empty(3, 0).matmul_tn(&ones(3, 2)), empty(0, 2));
    }

    #[test]
    #[should_panic(expected = "matmul_nt inner dims")]
    fn matmul_nt_dim_mismatch_panics() {
        Tensor::zeros(&[2, 3]).matmul_nt(&Tensor::zeros(&[2, 4]));
    }

    #[test]
    #[should_panic(expected = "matmul_tn inner dims")]
    fn matmul_tn_dim_mismatch_panics() {
        Tensor::zeros(&[2, 3]).matmul_tn(&Tensor::zeros(&[3, 3]));
    }

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.at2(0, 2), 3.0);
        assert_eq!(t.at2(1, 0), 4.0);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    fn four_d_indexing() {
        let mut t = Tensor::zeros(&[2, 3, 4, 5]);
        *t.at4_mut(1, 2, 3, 4) = 9.0;
        assert_eq!(t.at4(1, 2, 3, 4), 9.0);
        assert_eq!(t.data()[t.numel() - 1], 9.0);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![3., -1., 2., 5.]);
        let eye = Tensor::from_vec(&[2, 2], vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&eye), a);
        assert_eq!(eye.matmul(&a), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let t = a.transpose2();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at2(2, 1), 6.0);
        assert_eq!(t.transpose2(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(&[3], vec![1., -2., 3.]);
        let b = Tensor::from_vec(&[3], vec![0.5, 0.5, 0.5]);
        assert_eq!(a.add(&b).data(), &[1.5, -1.5, 3.5]);
        assert_eq!(a.sub(&b).data(), &[0.5, -2.5, 2.5]);
        assert_eq!(a.mul(&b).data(), &[0.5, -1.0, 1.5]);
        assert_eq!(a.scale(2.0).data(), &[2., -4., 6.]);
        assert!((a.abs_mean() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(&[3]);
        let g = Tensor::from_vec(&[3], vec![1., 2., 3.]);
        a.axpy(-0.5, &g);
        assert_eq!(a.data(), &[-0.5, -1.0, -1.5]);
    }

    #[test]
    fn argmax_rows_picks_maxima() {
        let t = Tensor::from_vec(&[2, 3], vec![0.1, 0.9, 0.3, 2.0, -1.0, 0.0]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = a.reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), a.data());
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_mismatch_panics() {
        Tensor::from_vec(&[2, 2], vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_panics() {
        Tensor::zeros(&[2, 0]);
    }
}
