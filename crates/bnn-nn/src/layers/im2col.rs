//! im2col / col2im: convolution as matrix multiplication.

use crate::tensor::Tensor;
use std::ops::Range;

/// Output spatial size of a convolution dimension.
pub(crate) fn conv_out(size: usize, k: usize, stride: usize, pad: usize) -> usize {
    (size + 2 * pad - k) / stride + 1
}

/// Unfolds `input` of shape `[N, C, H, W]` into a matrix of shape
/// `[C·k·k, N·Hout·Wout]`, where column `n·Hout·Wout + oh·Wout + ow` holds
/// the receptive field of output pixel `(oh, ow)` of sample `n`.
/// Out-of-bounds (padding) positions contribute zeros.
///
/// # Panics
/// Panics unless `input` is 4-D and the geometry is valid.
pub fn im2col(input: &Tensor, k: usize, stride: usize, pad: usize) -> Tensor {
    im2col_filled(input, k, stride, pad, 0.0)
}

/// [`im2col`] with an explicit padding fill value.
///
/// BNN deployments pad with −1 (logic '0' carries the value −1 on AQFP
/// hardware, and there is no analog zero), so training with `fill = −1.0`
/// keeps software and crossbar outputs bit-exact at the borders.
pub fn im2col_filled(input: &Tensor, k: usize, stride: usize, pad: usize, fill: f32) -> Tensor {
    let shape = input.shape();
    assert_eq!(shape.len(), 4, "im2col expects [N, C, H, W]");
    let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
    assert!(k > 0 && stride > 0, "kernel and stride must be positive");
    assert!(
        h + 2 * pad >= k && w + 2 * pad >= k,
        "kernel exceeds padded input"
    );
    let oh = conv_out(h, k, stride, pad);
    let ow = conv_out(w, k, stride, pad);

    let rows = c * k * k;
    let cols = n * oh * ow;
    let mut out = vec![fill; rows * cols];
    let data = input.data();

    for ni in 0..n {
        for ci in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ci * k + ky) * k + kx;
                    for oy in 0..oh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let col = (ni * oh + oy) * ow + ox;
                            let src = ((ni * c + ci) * h + iy as usize) * w + ix as usize;
                            out[row * cols + col] = data[src];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(&[rows, cols], out)
}

/// Folds a `[C·k·k, N·Hout·Wout]` matrix back into `[N, C, H, W]`,
/// *accumulating* overlapping contributions — the adjoint of [`im2col`],
/// used for the convolution input gradient.
#[allow(clippy::too_many_arguments)] // geometry is irreducibly 5 scalars
pub fn col2im(
    cols_mat: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    let oh = conv_out(h, k, stride, pad);
    let ow = conv_out(w, k, stride, pad);
    let rows = c * k * k;
    let cols = n * oh * ow;
    assert_eq!(
        cols_mat.shape(),
        &[rows, cols],
        "col matrix shape mismatch for geometry"
    );
    let mut out = vec![0.0f32; n * c * h * w];
    let data = cols_mat.data();

    for ni in 0..n {
        for ci in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ci * k + ky) * k + kx;
                    for oy in 0..oh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let col = (ni * oh + oy) * ow + ox;
                            let dst = ((ni * c + ci) * h + iy as usize) * w + ix as usize;
                            out[dst] += data[row * cols + col];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(&[n, c, h, w], out)
}

/// The unfold geometry of one `[C, H, W]` sample under a `k×k` kernel:
/// its receptive-field matrix is `[C·k·k, Hout·Wout]`, row `(c·k + ky)·k +
/// kx`, column `oy·Wout + ox`. `Conv2d` trains through it one padded
/// sample at a time; [`im2col_filled`] and [`col2im`] are the same unfold
/// and fold over a whole batch, written as per-element loops, and the unit
/// tests hold the two to the same bits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unfold {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
}

impl Unfold {
    /// # Panics
    /// Panics unless the kernel and stride are positive and the kernel
    /// fits the padded input.
    pub(crate) fn new(c: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) -> Self {
        assert!(k > 0 && stride > 0, "kernel and stride must be positive");
        assert!(
            h + 2 * pad >= k && w + 2 * pad >= k,
            "kernel exceeds padded input"
        );
        Self {
            c,
            h,
            w,
            k,
            stride,
            pad,
            oh: conv_out(h, k, stride, pad),
            ow: conv_out(w, k, stride, pad),
        }
    }

    /// Rows of the receptive-field matrix, `C·k·k`.
    pub(crate) fn rows(&self) -> usize {
        self.c * self.k * self.k
    }

    /// Columns of the receptive-field matrix, `Hout·Wout`.
    pub(crate) fn cols(&self) -> usize {
        self.oh * self.ow
    }

    /// The output size `(Hout, Wout)`.
    pub(crate) fn out_size(&self) -> (usize, usize) {
        (self.oh, self.ow)
    }

    /// Elements of one input sample, `C·H·W`.
    pub(crate) fn sample_len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// The output positions `o < out` whose input coordinate
    /// `o·stride + kpos − pad` lies in `0..len`.
    fn span(&self, out: usize, kpos: usize, len: usize) -> Range<usize> {
        let lo = self.pad.saturating_sub(kpos).div_ceil(self.stride);
        let hi = (len + self.pad)
            .saturating_sub(kpos)
            .div_ceil(self.stride)
            .min(out);
        lo.min(hi)..hi
    }

    /// Elements of one sample padded by `pad` on every side,
    /// `C·(H + 2·pad)·(W + 2·pad)`.
    pub(crate) fn padded_len(&self) -> usize {
        self.c * (self.h + 2 * self.pad) * (self.w + 2 * self.pad)
    }

    /// Copies `sample` into the interior of `dst` (`[C, H + 2·pad, W +
    /// 2·pad]`) and sets the border to `fill`.
    pub(crate) fn pad(&self, sample: &[f32], fill: f32, dst: &mut [f32]) {
        let (h, w, pad) = (self.h, self.w, self.pad);
        let pw = w + 2 * pad;
        dst.fill(fill);
        for (plane, padded) in sample
            .chunks_exact(h * w)
            .zip(dst.chunks_exact_mut((h + 2 * pad) * pw))
        {
            for (row, padded_row) in plane
                .chunks_exact(w)
                .zip(padded.chunks_exact_mut(pw).skip(pad))
            {
                padded_row[pad..pad + w].copy_from_slice(row);
            }
        }
    }

    /// Offset in the padded sample of each receptive-field row `(c, ky,
    /// kx)`, relative to an output position's offset.
    pub(crate) fn fields(&self) -> Vec<usize> {
        let (ph, pw) = (self.h + 2 * self.pad, self.w + 2 * self.pad);
        let (c, k) = (self.c, self.k);
        (0..c * k * k)
            .map(|r| ((r / (k * k)) * ph + (r / k) % k) * pw + r % k)
            .collect()
    }

    /// Offset in the padded sample of each output position `(oy, ox)`'s
    /// receptive-field origin.
    pub(crate) fn positions(&self) -> Vec<usize> {
        let (pw, s) = (self.w + 2 * self.pad, self.stride);
        (0..self.oh * self.ow)
            .map(|q| (q / self.ow) * s * pw + (q % self.ow) * s)
            .collect()
    }

    /// Accumulates the receptive-field matrix `src` (row `r` at
    /// `src[r·ld..][..cols]`) into the sample gradient `dst`. Each input
    /// pixel receives its contributions in kernel-tap `(ky, kx)` order;
    /// taps that fall on the padding are dropped.
    pub(crate) fn fold(&self, src: &[f32], ld: usize, dst: &mut [f32]) {
        let (h, w, k, s, pad) = (self.h, self.w, self.k, self.stride, self.pad);
        for (ci, plane) in dst.chunks_exact_mut(h * w).enumerate() {
            for ky in 0..k {
                let ys = self.span(self.oh, ky, h);
                for kx in 0..k {
                    let xs = self.span(self.ow, kx, w);
                    if xs.is_empty() {
                        continue;
                    }
                    let row = (ci * k + ky) * k + kx;
                    let first = xs.start * s + kx - pad;
                    for oy in ys.clone() {
                        let line = &src[row * ld + oy * self.ow..][..self.ow];
                        let drow = &mut plane[(oy * s + ky - pad) * w..][..w];
                        if s == 1 {
                            let drow = &mut drow[first..first + xs.len()];
                            for (d, &v) in drow.iter_mut().zip(&line[xs.clone()]) {
                                *d += v;
                            }
                        } else {
                            let drow = drow[first..].iter_mut().step_by(s);
                            for (d, &v) in drow.zip(&line[xs.clone()]) {
                                *d += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::oracle::values;

    fn bits(t: &[f32]) -> Vec<u32> {
        t.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn unfold_matches_the_per_element_loops() {
        // The padded-sample gather and the span fold that `Conv2d` runs,
        // against `im2col_filled` and `col2im` bit for bit.
        let mut seed = 0;
        for k in [1, 2, 3, 5] {
            for stride in [1, 2, 3] {
                for pad in [0, 1, 2] {
                    for (h, w) in [(5, 4), (6, 7), (9, 9)] {
                        if h + 2 * pad < k || w + 2 * pad < k {
                            continue;
                        }
                        for fill in [0.0, -1.0] {
                            seed += 1;
                            let n = 2;
                            let x = Tensor::from_vec(&[n, 3, h, w], values(n * 3 * h * w, seed, 0));
                            let g = Unfold::new(3, h, w, k, stride, pad);
                            let (fields, positions) = (g.fields(), g.positions());
                            let ld = n * g.cols();
                            let mut gathered = vec![0.0f32; g.rows() * ld];
                            let mut padded = vec![0.0f32; g.padded_len()];
                            for (ni, sample) in x.data().chunks_exact(g.sample_len()).enumerate() {
                                g.pad(sample, fill, &mut padded);
                                for (r, &field) in fields.iter().enumerate() {
                                    for (q, &pos) in positions.iter().enumerate() {
                                        gathered[r * ld + ni * g.cols() + q] = padded[field + pos];
                                    }
                                }
                            }
                            let want = im2col_filled(&x, k, stride, pad, fill);
                            let case = format!("k{k} s{stride} p{pad} {h}×{w} fill {fill}");
                            assert_eq!(bits(&gathered), bits(want.data()), "gather {case}");

                            let y = values(g.rows() * ld, seed, 0);
                            let mut folded = vec![0.0f32; n * g.sample_len()];
                            for (ni, dst) in folded.chunks_exact_mut(g.sample_len()).enumerate() {
                                g.fold(&y[ni * g.cols()..], ld, dst);
                            }
                            let y = Tensor::from_vec(&[g.rows(), ld], y);
                            let want = col2im(&y, n, 3, h, w, k, stride, pad);
                            assert_eq!(bits(&folded), bits(want.data()), "fold {case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn identity_kernel_no_pad() {
        // 1×1 kernel, stride 1: im2col is a flat copy.
        let input = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let cols = im2col(&input, 1, 1, 0);
        assert_eq!(cols.shape(), &[1, 4]);
        assert_eq!(cols.data(), input.data());
    }

    #[test]
    fn known_3x3_patch() {
        // 3×3 input, 2×2 kernel, stride 1, no pad → 4 patches.
        let input = Tensor::from_vec(&[1, 1, 3, 3], vec![1., 2., 3., 4., 5., 6., 7., 8., 9.]);
        let cols = im2col(&input, 2, 1, 0);
        assert_eq!(cols.shape(), &[4, 4]);
        // First column = top-left patch (1,2,4,5) down the rows.
        let col0: Vec<f32> = (0..4).map(|r| cols.at2(r, 0)).collect();
        assert_eq!(col0, vec![1., 2., 4., 5.]);
        // Last column = bottom-right patch (5,6,8,9).
        let col3: Vec<f32> = (0..4).map(|r| cols.at2(r, 3)).collect();
        assert_eq!(col3, vec![5., 6., 8., 9.]);
    }

    #[test]
    fn padding_adds_zero_border() {
        let input = Tensor::from_vec(&[1, 1, 1, 1], vec![7.0]);
        // 3×3 kernel, pad 1: single output pixel whose centre is the input.
        let cols = im2col(&input, 3, 1, 1);
        assert_eq!(cols.shape(), &[9, 1]);
        let vals: Vec<f32> = (0..9).map(|r| cols.at2(r, 0)).collect();
        assert_eq!(vals, vec![0., 0., 0., 0., 7., 0., 0., 0., 0.]);
    }

    #[test]
    fn batch_dimension_ordering() {
        let input = Tensor::from_vec(&[2, 1, 1, 1], vec![3.0, 5.0]);
        let cols = im2col(&input, 1, 1, 0);
        assert_eq!(cols.shape(), &[1, 2]);
        assert_eq!(cols.data(), &[3.0, 5.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y — the
        // defining property of the transpose operator the backward pass
        // relies on.
        let (n, c, h, w, k, s, p) = (2usize, 2, 4, 4, 3, 1, 1);
        let x = Tensor::from_vec(
            &[n, c, h, w],
            (0..n * c * h * w)
                .map(|i| ((i * 37 % 11) as f32) - 5.0)
                .collect(),
        );
        let cols = im2col(&x, k, s, p);
        let y = Tensor::from_vec(
            cols.shape(),
            (0..cols.numel())
                .map(|i| ((i * 53 % 13) as f32) - 6.0)
                .collect(),
        );
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, n, c, h, w, k, s, p);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn stride_two_downsamples() {
        let input = Tensor::from_vec(&[1, 1, 4, 4], (1..=16).map(|i| i as f32).collect());
        let cols = im2col(&input, 2, 2, 0);
        // 2×2 output positions; the patch at output (0,0) is 1,2,5,6.
        assert_eq!(cols.shape(), &[4, 4]);
        let col0: Vec<f32> = (0..4).map(|r| cols.at2(r, 0)).collect();
        assert_eq!(col0, vec![1., 2., 5., 6.]);
    }

    #[test]
    #[should_panic(expected = "kernel exceeds")]
    fn oversized_kernel_panics() {
        let input = Tensor::zeros(&[1, 1, 2, 2]);
        im2col(&input, 5, 1, 0);
    }
}
