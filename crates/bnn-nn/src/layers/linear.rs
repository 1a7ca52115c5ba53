//! Fully-connected layer, optionally with XNOR-Net binarized weights.

use super::{Layer, Mode, ParamRef};
use crate::binarize::binarize_weights;
use crate::tensor::Tensor;
use crate::NnRng;
use rand::Rng;

/// A fully-connected layer `y = x Wᵀ + b`.
///
/// With `binary_weights` the forward uses `α_o·sign(W_o)` per output unit
/// and the backward applies the straight-through estimator (paper Eq. 9).
pub struct Linear {
    in_features: usize,
    out_features: usize,
    binary_weights: bool,
    /// Shape `[out, in]`.
    weight: Tensor,
    weight_grad: Tensor,
    bias: Tensor,
    bias_grad: Tensor,
    cache: Option<Cache>,
}

struct Cache {
    input: Tensor,
    /// The effective weights the forward multiplied by.
    weff: Tensor,
}

impl Linear {
    /// Creates a layer with Kaiming-uniform weights and zero bias.
    ///
    /// # Panics
    /// Panics on zero dimensions.
    pub fn new(
        in_features: usize,
        out_features: usize,
        binary_weights: bool,
        rng: &mut NnRng,
    ) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "dimensions must be positive"
        );
        let bound = (6.0 / in_features as f32).sqrt();
        let data = (0..out_features * in_features)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Self {
            in_features,
            out_features,
            binary_weights,
            weight: Tensor::from_vec(&[out_features, in_features], data),
            weight_grad: Tensor::zeros(&[out_features, in_features]),
            bias: Tensor::zeros(&[out_features]),
            bias_grad: Tensor::zeros(&[out_features]),
            cache: None,
        }
    }

    /// The latent weights, shape `[out, in]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable latent weights.
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Whether weights are binarized in the forward pass.
    pub fn is_binary(&self) -> bool {
        self.binary_weights
    }

    /// `(in_features, out_features)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.in_features, self.out_features)
    }

    /// Effective forward weights and per-output α (see
    /// [`Conv2d::effective_weight`](super::Conv2d::effective_weight)).
    pub fn effective_weight(&self) -> (Tensor, Vec<f32>) {
        if !self.binary_weights {
            return (self.weight.clone(), vec![1.0; self.out_features]);
        }
        let mut data = Vec::with_capacity(self.weight.numel());
        let mut alphas = Vec::with_capacity(self.out_features);
        for o in 0..self.out_features {
            let row = &self.weight.data()[o * self.in_features..(o + 1) * self.in_features];
            let (signs, alpha) = binarize_weights(row);
            alphas.push(alpha);
            data.extend(signs.into_iter().map(|s| s * alpha));
        }
        (
            Tensor::from_vec(&[self.out_features, self.in_features], data),
            alphas,
        )
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, mode: Mode, _rng: &mut NnRng) -> Tensor {
        assert_eq!(input.shape().len(), 2, "Linear expects [N, features]");
        assert_eq!(input.shape()[1], self.in_features, "feature mismatch");
        let (weff, _) = self.effective_weight();
        let mut out = input.matmul_nt(&weff);
        let n = input.shape()[0];
        for i in 0..n {
            for o in 0..self.out_features {
                *out.at2_mut(i, o) += self.bias.data()[o];
            }
        }
        if mode == Mode::Train {
            self.cache = Some(Cache {
                input: input.clone(),
                weff,
            });
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("Linear::backward without forward");
        // dW_eff = grad_outᵀ · input; STE passes it to the latent weights.
        let dweff = grad_out.matmul_tn(&cache.input);
        self.weight_grad.axpy(1.0, &dweff);
        // Bias gradient: column sums.
        let n = grad_out.shape()[0];
        for i in 0..n {
            for o in 0..self.out_features {
                self.bias_grad.data_mut()[o] += grad_out.at2(i, o);
            }
        }
        // Input gradient through the effective weights.
        grad_out.matmul(&cache.weff)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(ParamRef<'_>)) {
        f(ParamRef {
            name: "weight",
            value: &mut self.weight,
            grad: &mut self.weight_grad,
            decay: true,
        });
        f(ParamRef {
            name: "bias",
            value: &mut self.bias,
            grad: &mut self.bias_grad,
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
        if self.binary_weights {
            "BinLinear"
        } else {
            "Linear"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedableRng;

    fn rng() -> NnRng {
        NnRng::seed_from_u64(7)
    }

    #[test]
    fn forward_known_values() {
        let mut r = rng();
        let mut lin = Linear::new(2, 2, false, &mut r);
        lin.weight_mut()
            .data_mut()
            .copy_from_slice(&[1., 2., 3., 4.]);
        let input = Tensor::from_vec(&[1, 2], vec![1., 1.]);
        let out = lin.forward(&input, Mode::Eval, &mut r);
        assert_eq!(out.data(), &[3., 7.]);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut r = rng();
        let mut lin = Linear::new(3, 2, false, &mut r);
        let input = Tensor::from_vec(&[2, 3], vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]);
        let out = lin.forward(&input, Mode::Train, &mut r);
        let din = lin.backward(&out);

        let loss = |lin: &mut Linear, r: &mut NnRng, x: &Tensor| -> f32 {
            let o = lin.forward(x, Mode::Eval, r);
            0.5 * o.data().iter().map(|v| v * v).sum::<f32>()
        };
        let h = 1e-3f32;
        // Weight grads.
        for idx in 0..6 {
            let orig = lin.weight.data()[idx];
            lin.weight.data_mut()[idx] = orig + h;
            let lp = loss(&mut lin, &mut r, &input);
            lin.weight.data_mut()[idx] = orig - h;
            let lm = loss(&mut lin, &mut r, &input);
            lin.weight.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - lin.weight_grad.data()[idx]).abs() < 1e-2 * (1.0 + fd.abs()),
                "weight idx {idx}"
            );
        }
        // Input grads.
        let mut input = input;
        for idx in 0..6 {
            let orig = input.data()[idx];
            input.data_mut()[idx] = orig + h;
            let lp = loss(&mut lin, &mut r, &input);
            input.data_mut()[idx] = orig - h;
            let lm = loss(&mut lin, &mut r, &input);
            input.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - din.data()[idx]).abs() < 1e-2 * (1.0 + fd.abs()),
                "input idx {idx}"
            );
        }
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let mut r = rng();
        let mut lin = Linear::new(2, 2, false, &mut r);
        let input = Tensor::from_vec(&[3, 2], vec![1., 0., 0., 1., 1., 1.]);
        let _ = lin.forward(&input, Mode::Train, &mut r);
        let g = Tensor::from_vec(&[3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let _ = lin.backward(&g);
        assert_eq!(lin.bias_grad.data(), &[9., 12.]);
    }

    #[test]
    fn binary_linear_uses_sign_alpha() {
        let mut r = rng();
        let mut lin = Linear::new(2, 1, true, &mut r);
        lin.weight_mut().data_mut().copy_from_slice(&[0.5, -1.5]);
        let input = Tensor::from_vec(&[1, 2], vec![1., 1.]);
        let out = lin.forward(&input, Mode::Eval, &mut r);
        // α = 1.0; signs (+1, −1): 1·1 + 1·(−1) = 0.
        assert!((out.data()[0]).abs() < 1e-6);
    }
}
