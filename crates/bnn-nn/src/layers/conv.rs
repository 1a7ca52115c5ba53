//! 2-D convolution, optionally with XNOR-Net binarized weights.

use super::im2col::Unfold;
use super::{Layer, Mode, ParamRef};
use crate::binarize::binarize_weights;
use crate::tensor::{gemm, strided, PackedLhs, Rhs, Tensor};
use crate::NnRng;
use rand::Rng;

/// A 2-D convolution layer (no bias — every convolution in the paper's
/// networks is followed by batch normalization, which absorbs any bias).
///
/// With `binary_weights`, the forward pass uses `α_o · sign(W_o)` per output
/// channel (`α_o` the L1 mean of that filter, XNOR-Net) and the backward
/// pass applies the straight-through estimator of paper Eq. 9
/// (`∂L/∂wr ≈ ∂L/∂wb`).
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    pad_value: f32,
    binary_weights: bool,
    /// Real-valued latent weights, shape `[out, in·k·k]`.
    weight: Tensor,
    weight_grad: Tensor,
    cache: Option<Cache>,
}

/// What backward needs: the input (whose receptive fields backward reads
/// again, one padded sample at a time, instead of keeping the 9× larger
/// unfolded matrix) and the effective weights the forward multiplied by.
struct Cache {
    input: Tensor,
    weff: Tensor,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-uniform initialized weights.
    ///
    /// # Panics
    /// Panics on zero dimensions.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        binary_weights: bool,
        rng: &mut NnRng,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
            "convolution dimensions must be positive"
        );
        let fan_in = in_channels * kernel * kernel;
        let bound = (6.0 / fan_in as f32).sqrt();
        let data = (0..out_channels * fan_in)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            pad_value: 0.0,
            binary_weights,
            weight: Tensor::from_vec(&[out_channels, fan_in], data),
            weight_grad: Tensor::zeros(&[out_channels, fan_in]),
            cache: None,
        }
    }

    /// Sets the padding fill value (BNN deployments use −1; see
    /// [`im2col_filled`](super::im2col_filled)). Returns `self` for
    /// builder-style use.
    #[must_use]
    pub fn with_pad_value(mut self, fill: f32) -> Self {
        self.pad_value = fill;
        self
    }

    /// The padding fill value.
    pub fn pad_value(&self) -> f32 {
        self.pad_value
    }

    /// The latent real-valued weights, shape `[out, in·k·k]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable latent weights (ReCU clamps these between steps).
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// Whether the forward pass binarizes the weights.
    pub fn is_binary(&self) -> bool {
        self.binary_weights
    }

    /// `(in_channels, out_channels, kernel, stride, pad)`.
    pub fn geometry(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.stride,
            self.pad,
        )
    }

    /// The effective forward weights (`α·sign(W)` if binary, `W` otherwise)
    /// and the per-channel α vector. This is exactly what gets mapped onto
    /// crossbars at deployment.
    pub fn effective_weight(&self) -> (Tensor, Vec<f32>) {
        if !self.binary_weights {
            return (self.weight.clone(), vec![1.0; self.out_channels]);
        }
        let fan_in = self.in_channels * self.kernel * self.kernel;
        let mut data = Vec::with_capacity(self.weight.numel());
        let mut alphas = Vec::with_capacity(self.out_channels);
        for o in 0..self.out_channels {
            let row = &self.weight.data()[o * fan_in..(o + 1) * fan_in];
            let (signs, alpha) = binarize_weights(row);
            alphas.push(alpha);
            data.extend(signs.into_iter().map(|s| s * alpha));
        }
        (Tensor::from_vec(&[self.out_channels, fan_in], data), alphas)
    }
}

impl Conv2d {
    fn unfold_for(&self, input: &Tensor) -> (usize, Unfold) {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "Conv2d expects [N, C, H, W]");
        assert_eq!(shape[1], self.in_channels, "channel mismatch");
        let g = Unfold::new(
            self.in_channels,
            shape[2],
            shape[3],
            self.kernel,
            self.stride,
            self.pad,
        );
        (shape[0], g)
    }
}

impl Layer for Conv2d {
    /// Per sample: pad the input once, then one GEMM with the packed
    /// effective weights reads the receptive fields straight out of the
    /// padded sample and writes that sample's `[O, oh·ow]` block of the
    /// `[N, O, oh, ow]` output in place.
    fn forward(&mut self, input: &Tensor, mode: Mode, _rng: &mut NnRng) -> Tensor {
        let (n, g) = self.unfold_for(input);
        let (oh, ow) = g.out_size();
        let (weff, _) = self.effective_weight();
        let lhs = PackedLhs::new(weff.data(), self.out_channels, g.rows());
        let (fields, positions) = (g.fields(), g.positions());
        let mut padded = vec![0.0f32; g.padded_len()];
        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        let outputs = out
            .data_mut()
            .chunks_exact_mut(self.out_channels * g.cols());
        for (sample, out_n) in input.data().chunks_exact(g.sample_len()).zip(outputs) {
            g.pad(sample, self.pad_value, &mut padded);
            let rhs = Rhs {
                data: &padded,
                rows: &fields,
                cols: &positions,
            };
            gemm(&lhs, &rhs, out_n);
        }
        if mode == Mode::Train {
            self.cache = Some(Cache {
                input: input.clone(),
                weff,
            });
        }
        out
    }

    /// Per sample, reading `grad_out` in place: the weight gradient
    /// accumulates `g_n · fieldsᵀ` over the batch (the same ascending sum
    /// over `n·oh·ow + p` as one batch-wide product), and the input
    /// gradient folds `Weffᵀ · g_n` back into the sample.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("Conv2d::backward without forward");
        let (n, g) = self.unfold_for(&cache.input);
        let (o, hw) = (self.out_channels, g.cols());
        assert_eq!(grad_out.shape().len(), 4);
        assert_eq!(grad_out.numel(), n * o * hw, "grad shape mismatch");

        // Parameter gradient ∂L/∂Weff, straight-through to the latent
        // weights (Eq. 9). Input gradient through the *effective* weights:
        // the hardware multiplies by α·sign(W), so the data path uses it too.
        let weff_t = PackedLhs::transposed(cache.weff.data(), o, g.rows());
        let (fields, positions) = (g.fields(), g.positions());
        let (grad_rows, grad_cols) = (strided(o, hw), strided(hw, 1));
        let mut padded = vec![0.0f32; g.padded_len()];
        let mut dweff = vec![0.0f32; o * g.rows()];
        let mut dcols = vec![0.0f32; g.rows() * hw];
        let mut din = Tensor::zeros(cache.input.shape());
        let per_sample = cache
            .input
            .data()
            .chunks_exact(g.sample_len())
            .zip(grad_out.data().chunks_exact(o * hw))
            .zip(din.data_mut().chunks_exact_mut(g.sample_len()));
        for ((sample, g_n), din_n) in per_sample {
            g.pad(sample, self.pad_value, &mut padded);
            let fields_t = Rhs {
                data: &padded,
                rows: &positions,
                cols: &fields,
            };
            gemm(&PackedLhs::new(g_n, o, hw), &fields_t, &mut dweff);
            let g_rhs = Rhs {
                data: g_n,
                rows: &grad_rows,
                cols: &grad_cols,
            };
            dcols.fill(0.0);
            gemm(&weff_t, &g_rhs, &mut dcols);
            g.fold(&dcols, hw, din_n);
        }
        self.weight_grad
            .axpy(1.0, &Tensor::from_vec(&[o, g.rows()], dweff));
        din
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        f(ParamRef {
            name: "weight",
            value: &mut self.weight,
            grad: &mut self.weight_grad,
            decay: true,
        });
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        if self.binary_weights {
            "BinConv2d"
        } else {
            "Conv2d"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::im2col::conv_out;
    use super::*;
    use crate::SeedableRng;

    fn rng() -> NnRng {
        NnRng::seed_from_u64(42)
    }

    #[test]
    fn identity_1x1_convolution() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, false, &mut r);
        conv.weight_mut().data_mut()[0] = 2.0;
        let input = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let out = conv.forward(&input, Mode::Eval, &mut r);
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.data(), &[2., 4., 6., 8.]);
    }

    #[test]
    fn known_3x3_sum_kernel() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, false, &mut r);
        for w in conv.weight_mut().data_mut() {
            *w = 1.0;
        }
        let input = Tensor::from_vec(&[1, 1, 3, 3], vec![1.; 9]);
        let out = conv.forward(&input, Mode::Eval, &mut r);
        // Centre pixel sees all 9 ones; corners see 4.
        assert_eq!(out.at4(0, 0, 1, 1), 9.0);
        assert_eq!(out.at4(0, 0, 0, 0), 4.0);
    }

    #[test]
    fn output_geometry() {
        let mut r = rng();
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, false, &mut r);
        let input = Tensor::zeros(&[2, 3, 16, 16]);
        let out = conv.forward(&input, Mode::Eval, &mut r);
        assert_eq!(out.shape(), &[2, 8, 8, 8]);
    }

    #[test]
    fn binary_weights_are_alpha_times_sign() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, true, &mut r);
        conv.weight_mut()
            .data_mut()
            .copy_from_slice(&[0.5, -1.5, 1.0, -1.0]);
        let (weff, alphas) = conv.effective_weight();
        assert!((alphas[0] - 1.0).abs() < 1e-6);
        assert_eq!(weff.data(), &[1.0, -1.0, 1.0, -1.0]);
    }

    /// Central-difference gradient check for the full-precision path.
    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut r = rng();
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, false, &mut r);
        let input = Tensor::from_vec(
            &[1, 2, 4, 4],
            (0..32).map(|i| ((i * 7 % 13) as f32 - 6.0) / 6.0).collect(),
        );
        // Loss = sum(out²)/2 so dL/dout = out.
        let out = conv.forward(&input, Mode::Train, &mut r);
        let _ = conv.backward(&out);
        let analytic = conv.weight_grad.clone();

        let loss = |conv: &mut Conv2d, r: &mut NnRng, input: &Tensor| -> f32 {
            let o = conv.forward(input, Mode::Eval, r);
            0.5 * o.data().iter().map(|x| x * x).sum::<f32>()
        };
        let h = 1e-3f32;
        for idx in [0usize, 5, 17, 33] {
            let orig = conv.weight.data()[idx];
            conv.weight.data_mut()[idx] = orig + h;
            let lp = loss(&mut conv, &mut r, &input);
            conv.weight.data_mut()[idx] = orig - h;
            let lm = loss(&mut conv, &mut r, &input);
            conv.weight.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * h);
            let an = analytic.data()[idx];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "idx {idx}: fd {fd} vs analytic {an}"
            );
        }
    }

    /// The input gradient must also match finite differences.
    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, false, &mut r);
        let mut input = Tensor::from_vec(
            &[1, 1, 4, 4],
            (0..16).map(|i| ((i * 5 % 11) as f32 - 5.0) / 5.0).collect(),
        );
        let out = conv.forward(&input, Mode::Train, &mut r);
        let din = conv.backward(&out);

        let loss = |conv: &mut Conv2d, r: &mut NnRng, input: &Tensor| -> f32 {
            let o = conv.forward(input, Mode::Eval, r);
            0.5 * o.data().iter().map(|x| x * x).sum::<f32>()
        };
        let h = 1e-3f32;
        for idx in [0usize, 7, 15] {
            let orig = input.data()[idx];
            input.data_mut()[idx] = orig + h;
            let lp = loss(&mut conv, &mut r, &input);
            input.data_mut()[idx] = orig - h;
            let lm = loss(&mut conv, &mut r, &input);
            input.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * h);
            let an = din.data()[idx];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "idx {idx}: fd {fd} vs analytic {an}"
            );
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Forward output, input gradient and weight gradient of `conv` on
    /// `input` with upstream gradient `grad`, as bit patterns.
    fn run(conv: &mut Conv2d, input: &Tensor, grad: &Tensor) -> [Vec<u32>; 3] {
        let mut r = rng();
        let out = conv.forward(input, Mode::Train, &mut r);
        let din = conv.backward(grad);
        let dw = std::mem::replace(&mut conv.weight_grad, Tensor::zeros(conv.weight.shape()));
        [bits(out.data()), bits(din.data()), bits(dw.data())]
    }

    /// The batch-wide formulation the per-sample kernels replaced: one
    /// unfolded matrix, `[O, N·hw]` ↔ `[N, O, hw]` copies, materialized
    /// transposes and i-k-j products.
    fn reference(conv: &Conv2d, input: &Tensor, grad: &Tensor) -> [Vec<u32>; 3] {
        use crate::layers::{col2im, im2col_filled};
        use crate::tensor::oracle::matmul_ikj;
        let [n, c, h, w] = input.shape().try_into().expect("4-D input");
        let (_, o, k, stride, pad) = conv.geometry();
        let [_, _, oh, ow] = grad.shape().try_into().expect("4-D grad");
        let hw = oh * ow;
        let cols = im2col_filled(input, k, stride, pad, conv.pad_value());
        let (weff, _) = conv.effective_weight();
        let out2d = matmul_ikj(&weff, &cols);
        let mut out = vec![0.0f32; n * o * hw];
        let mut g2d = vec![0.0f32; o * n * hw];
        for ni in 0..n {
            for oi in 0..o {
                for p in 0..hw {
                    out[(ni * o + oi) * hw + p] = out2d.at2(oi, ni * hw + p);
                    g2d[oi * n * hw + ni * hw + p] = grad.data()[(ni * o + oi) * hw + p];
                }
            }
        }
        let g2d = Tensor::from_vec(&[o, n * hw], g2d);
        let mut dw = Tensor::zeros(weff.shape());
        dw.axpy(1.0, &matmul_ikj(&g2d, &cols.transpose2()));
        let dcols = matmul_ikj(&weff.transpose2(), &g2d);
        let din = col2im(&dcols, n, c, h, w, k, stride, pad);
        [bits(&out), bits(din.data()), bits(dw.data())]
    }

    #[test]
    fn per_sample_kernels_match_the_batch_wide_formulation() {
        use crate::tensor::oracle::values;
        // (in, out, k, stride, pad, fill, h, w, binary): the VGG's 3×3 / −1
        // fill cells, strided and unpadded cases, a 1×1 shortcut, and
        // output rows that are narrower and wider than a register block.
        let cases = [
            (3, 8, 3, 1, 1, -1.0, 16, 16, true),
            (8, 16, 3, 1, 1, -1.0, 8, 8, true),
            (4, 6, 3, 2, 1, -1.0, 9, 7, true),
            (2, 5, 3, 1, 0, 0.0, 6, 20, false),
            (5, 3, 1, 2, 0, 0.0, 7, 7, true),
            (3, 4, 5, 3, 2, 0.5, 11, 13, false),
        ];
        for (seed, &(ci, co, k, stride, pad, fill, h, w, binary)) in cases.iter().enumerate() {
            let seed = seed as u64;
            let mut r = NnRng::seed_from_u64(seed);
            let mut conv = Conv2d::new(ci, co, k, stride, pad, binary, &mut r).with_pad_value(fill);
            let n = 3;
            let input = Tensor::from_vec(&[n, ci, h, w], values(n * ci * h * w, seed, 6));
            let oh = conv_out(h, k, stride, pad);
            let ow = conv_out(w, k, stride, pad);
            let grad = Tensor::from_vec(&[n, co, oh, ow], values(n * co * oh * ow, seed + 99, 4));
            let want = reference(&conv, &input, &grad);
            let got = run(&mut conv, &input, &grad);
            for (what, (g, w)) in ["output", "input grad", "weight grad"]
                .iter()
                .zip(got.iter().zip(&want))
            {
                assert_eq!(g, w, "{what} of case {seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "without forward")]
    fn backward_without_forward_panics() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, false, &mut r);
        conv.backward(&Tensor::zeros(&[1, 1, 1, 1]));
    }
}
