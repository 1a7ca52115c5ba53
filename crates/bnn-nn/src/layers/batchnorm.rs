//! Batch normalization for 2-D (`[N, F]`) and 4-D (`[N, C, H, W]`) inputs.
//!
//! Training uses batch statistics and updates running estimates with a
//! moving average; inference is the linear transform
//! `y = γ(x − µ)/√(σ² + ε) + β` (paper Eq. 11) — which is what BN matching
//! (Eq. 16) folds into the AQFP neuron threshold at deployment.

use super::{Layer, Mode, ParamRef};
use crate::tensor::Tensor;
use crate::NnRng;

/// Batch-normalization layer.
pub struct BatchNorm {
    channels: usize,
    /// `γ` (scale).
    gamma: Tensor,
    gamma_grad: Tensor,
    /// `β` (shift).
    beta: Tensor,
    beta_grad: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    cache: Option<Cache>,
}

struct Cache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    shape: Vec<usize>,
}

impl BatchNorm {
    /// Creates a BN layer over `channels` features (`γ = 1`, `β = 0`,
    /// momentum 0.1, `ε = 1e-5`).
    ///
    /// # Panics
    /// Panics if `channels == 0`.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channels must be positive");
        Self {
            channels,
            gamma: Tensor::full(&[channels], 1.0),
            gamma_grad: Tensor::zeros(&[channels]),
            beta: Tensor::zeros(&[channels]),
            beta_grad: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::full(&[channels], 1.0),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// The inference-time affine parameters `(γ, β, µ, σ², ε)` that BN
    /// matching folds into the crossbar threshold (Eq. 16).
    pub fn folded_params(&self) -> BnParams<'_> {
        BnParams {
            gamma: self.gamma.data(),
            beta: self.beta.data(),
            mean: self.running_mean.data(),
            var: self.running_var.data(),
            eps: self.eps,
        }
    }

    /// Number of normalized channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The `[N, C, per]` block structure of a 2-D (`per = 1`) or 4-D
    /// (`per = H·W`) input: returns `(N, per)`. Walking the blocks in
    /// memory order visits each channel's elements in the same order as a
    /// flat scan, so the per-channel sums need no index arithmetic.
    fn plan(shape: &[usize], channels: usize) -> (usize, usize) {
        match shape.len() {
            2 => {
                assert_eq!(shape[1], channels, "BN feature mismatch");
                (shape[0], 1)
            }
            4 => {
                assert_eq!(shape[1], channels, "BN channel mismatch");
                (shape[0], shape[2] * shape[3])
            }
            _ => panic!("BatchNorm expects 2-D or 4-D input, got {shape:?}"),
        }
    }
}

/// Borrowed view of the folded BN parameters.
#[derive(Debug, Clone, Copy)]
pub struct BnParams<'a> {
    /// Scale γ per channel.
    pub gamma: &'a [f32],
    /// Shift β per channel.
    pub beta: &'a [f32],
    /// Running mean µ per channel.
    pub mean: &'a [f32],
    /// Running variance σ² per channel.
    pub var: &'a [f32],
    /// Numerical-stability constant ε.
    pub eps: f32,
}

impl Layer for BatchNorm {
    fn forward(&mut self, input: &Tensor, mode: Mode, _rng: &mut NnRng) -> Tensor {
        let shape = input.shape().to_vec();
        let (n, per) = Self::plan(&shape, self.channels);
        let count = (n * per) as f32;

        let (mean, var) = if mode == Mode::Train {
            let mut mean = vec![0.0f32; self.channels];
            let mut var = vec![0.0f32; self.channels];
            let blocks = input.data().chunks_exact(per);
            for (block, c) in blocks.clone().zip((0..self.channels).cycle()) {
                mean[c] = block.iter().fold(mean[c], |acc, &x| acc + x);
            }
            for m in mean.iter_mut() {
                *m /= count;
            }
            for (block, c) in blocks.zip((0..self.channels).cycle()) {
                let m = mean[c];
                var[c] = block.iter().fold(var[c], |acc, &x| acc + (x - m) * (x - m));
            }
            for v in var.iter_mut() {
                *v /= count;
            }
            // Moving average of the running stats.
            for c in 0..self.channels {
                let rm = &mut self.running_mean.data_mut()[c];
                *rm = (1.0 - self.momentum) * *rm + self.momentum * mean[c];
                let rv = &mut self.running_var.data_mut()[c];
                *rv = (1.0 - self.momentum) * *rv + self.momentum * var[c];
            }
            (mean, var)
        } else {
            (
                self.running_mean.data().to_vec(),
                self.running_var.data().to_vec(),
            )
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut xhat = vec![0.0f32; input.numel()];
        let mut out = vec![0.0f32; input.numel()];
        let (gamma, beta) = (self.gamma.data(), self.beta.data());
        let blocks = input
            .data()
            .chunks_exact(per)
            .zip(xhat.chunks_exact_mut(per))
            .zip(out.chunks_exact_mut(per));
        for (((x, xh), y), c) in blocks.zip((0..self.channels).cycle()) {
            let (m, s, g, b) = (mean[c], inv_std[c], gamma[c], beta[c]);
            for ((&x, xh), y) in x.iter().zip(xh).zip(y) {
                *xh = (x - m) * s;
                *y = g * *xh + b;
            }
        }

        if mode == Mode::Train {
            self.cache = Some(Cache {
                xhat: Tensor::from_vec(&shape, xhat),
                inv_std,
                shape: shape.clone(),
            });
        }
        Tensor::from_vec(&shape, out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("BatchNorm::backward without forward");
        let shape = cache.shape;
        assert_eq!(grad_out.shape(), &shape[..], "grad shape mismatch");
        let (n, per) = Self::plan(&shape, self.channels);
        let count = (n * per) as f32;

        // Per-channel sums of g and g·x̂.
        let mut sum_g = vec![0.0f32; self.channels];
        let mut sum_gx = vec![0.0f32; self.channels];
        let blocks = grad_out
            .data()
            .chunks_exact(per)
            .zip(cache.xhat.data().chunks_exact(per));
        for ((g, xh), c) in blocks.zip((0..self.channels).cycle()) {
            let (mut sg, mut sgx) = (sum_g[c], sum_gx[c]);
            for (&g, &xh) in g.iter().zip(xh) {
                sg += g;
                sgx += g * xh;
            }
            (sum_g[c], sum_gx[c]) = (sg, sgx);
        }
        for c in 0..self.channels {
            self.beta_grad.data_mut()[c] += sum_g[c];
            self.gamma_grad.data_mut()[c] += sum_gx[c];
        }

        // dx = (γ/σ) (g − mean(g) − x̂ · mean(g·x̂))
        let mut dx = vec![0.0f32; grad_out.numel()];
        let blocks = grad_out
            .data()
            .chunks_exact(per)
            .zip(cache.xhat.data().chunks_exact(per))
            .zip(dx.chunks_exact_mut(per));
        for (((g, xh), dx), c) in blocks.zip((0..self.channels).cycle()) {
            let coef = self.gamma.data()[c] * cache.inv_std[c];
            let (mean_g, sgx) = (sum_g[c] / count, sum_gx[c]);
            for ((&g, &xh), dx) in g.iter().zip(xh).zip(dx) {
                *dx = coef * (g - mean_g - xh * sgx / count);
            }
        }
        Tensor::from_vec(&shape, dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        f(ParamRef {
            name: "gamma",
            value: &mut self.gamma,
            grad: &mut self.gamma_grad,
            decay: false,
        });
        f(ParamRef {
            name: "beta",
            value: &mut self.beta,
            grad: &mut self.beta_grad,
            decay: false,
        });
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "BatchNorm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedableRng;

    fn rng() -> NnRng {
        NnRng::seed_from_u64(1)
    }

    #[test]
    fn normalizes_batch_statistics() {
        let mut bn = BatchNorm::new(2);
        let mut r = rng();
        // Channel 0: {1, 3}; channel 1: {10, 30}.
        let x = Tensor::from_vec(&[2, 2], vec![1., 10., 3., 30.]);
        let y = bn.forward(&x, Mode::Train, &mut r);
        // Each channel normalized to mean 0, var 1: values ±1.
        assert!((y.at2(0, 0) + 1.0).abs() < 1e-3);
        assert!((y.at2(1, 0) - 1.0).abs() < 1e-3);
        assert!((y.at2(0, 1) + 1.0).abs() < 1e-3);
        assert!((y.at2(1, 1) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn four_d_normalizes_per_channel() {
        let mut bn = BatchNorm::new(2);
        let mut r = rng();
        let x = Tensor::from_vec(&[1, 2, 2, 2], vec![1., 2., 3., 4., 10., 20., 30., 40.]);
        let y = bn.forward(&x, Mode::Train, &mut r);
        // Mean over each channel's 4 pixels is 0 after normalization.
        let c0: f32 = (0..2)
            .flat_map(|h| (0..2).map(move |w| (h, w)))
            .map(|(h, w)| y.at4(0, 0, h, w))
            .sum();
        assert!(c0.abs() < 1e-4);
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm::new(1);
        let mut r = rng();
        // Train a few steps on data with mean 5, std ~2.
        for _ in 0..200 {
            let x = Tensor::from_vec(&[4, 1], vec![3., 5., 5., 7.]);
            let _ = bn.forward(&x, Mode::Train, &mut r);
        }
        // Running mean converges toward 5.
        assert!((bn.running_mean.data()[0] - 5.0).abs() < 0.1);
        // In eval, feeding the mean value returns ~β = 0.
        let y = bn.forward(&Tensor::from_vec(&[1, 1], vec![5.0]), Mode::Eval, &mut r);
        assert!(y.data()[0].abs() < 0.1);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut bn = BatchNorm::new(2);
        let mut r = rng();
        bn.gamma.data_mut().copy_from_slice(&[1.5, 0.7]);
        bn.beta.data_mut().copy_from_slice(&[0.2, -0.3]);
        let mut x = Tensor::from_vec(&[3, 2], vec![1., 2., -1., 4., 0.5, -2.]);

        let y = bn.forward(&x, Mode::Train, &mut r);
        let din = bn.backward(&y);
        let gamma_grad = bn.gamma_grad.clone();

        // Finite differences must freeze the running stats; clone the layer
        // and run Train-mode forwards on a copy each time. Since momentum
        // only affects running stats (not the output), reuse is safe here.
        let loss = |bn: &mut BatchNorm, r: &mut NnRng, x: &Tensor| -> f32 {
            let o = bn.forward(x, Mode::Train, r);
            0.5 * o.data().iter().map(|v| v * v).sum::<f32>()
        };
        let h = 1e-3f32;
        for idx in 0..6 {
            let orig = x.data()[idx];
            x.data_mut()[idx] = orig + h;
            let lp = loss(&mut bn, &mut r, &x);
            x.data_mut()[idx] = orig - h;
            let lm = loss(&mut bn, &mut r, &x);
            x.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - din.data()[idx]).abs() < 2e-2 * (1.0 + fd.abs()),
                "input idx {idx}: {fd} vs {}",
                din.data()[idx]
            );
        }
        for c in 0..2 {
            let orig = bn.gamma.data()[c];
            bn.gamma.data_mut()[c] = orig + h;
            let lp = loss(&mut bn, &mut r, &x);
            bn.gamma.data_mut()[c] = orig - h;
            let lm = loss(&mut bn, &mut r, &x);
            bn.gamma.data_mut()[c] = orig;
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - gamma_grad.data()[c]).abs() < 2e-2 * (1.0 + fd.abs()),
                "gamma {c}: {fd} vs {}",
                gamma_grad.data()[c]
            );
        }
    }

    #[test]
    #[should_panic(expected = "2-D or 4-D")]
    fn rejects_3d_input() {
        let mut bn = BatchNorm::new(2);
        let mut r = rng();
        bn.forward(&Tensor::zeros(&[1, 2, 3]), Mode::Train, &mut r);
    }
}
