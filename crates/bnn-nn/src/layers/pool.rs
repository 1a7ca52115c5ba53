//! Max pooling.

use super::{Layer, Mode, ParamRef};
use crate::tensor::Tensor;
use crate::NnRng;

/// 2-D max pooling with a square window and equal stride.
pub struct MaxPool2d {
    k: usize,
    cache: Option<Cache>,
}

struct Cache {
    input_shape: [usize; 4],
    /// Flat input index of the winning element for each output element.
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a `k × k` max pool with stride `k` (the paper's networks use
    /// 2×2/2 exclusively).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "pool window must be positive");
        Self { k, cache: None }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, mode: Mode, _rng: &mut NnRng) -> Tensor {
        let s = input.shape();
        assert_eq!(s.len(), 4, "MaxPool2d expects [N, C, H, W]");
        let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert!(
            h % self.k == 0 && w % self.k == 0,
            "input {h}×{w} not divisible by pool window {}",
            self.k
        );
        let (oh, ow) = (h / self.k, w / self.k);
        let mut out = vec![0.0f32; n * c * oh * ow];
        let mut argmax = vec![0usize; n * c * oh * ow];
        let data = input.data();
        for ni in 0..n {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        // Seeded with the window's first element, so an
                        // all −∞ window routes its gradient to itself. The
                        // first maximum wins; a window holding a NaN takes
                        // its first NaN instead, wherever it sits (a rare
                        // second pass keeps the common path a plain `>`).
                        let first = ((ni * c + ci) * h + oy * self.k) * w + ox * self.k;
                        let mut best = data[first];
                        let mut best_idx = first;
                        let mut has_nan = false;
                        for ky in 0..self.k {
                            for kx in 0..self.k {
                                let idx = first + ky * w + kx;
                                let v = data[idx];
                                if v > best {
                                    best = v;
                                    best_idx = idx;
                                }
                                has_nan |= v.is_nan();
                            }
                        }
                        if has_nan {
                            best_idx = (0..self.k)
                                .flat_map(|ky| (0..self.k).map(move |kx| first + ky * w + kx))
                                .find(|&idx| data[idx].is_nan())
                                .expect("the window holds a NaN");
                            best = data[best_idx];
                        }
                        let oidx = ((ni * c + ci) * oh + oy) * ow + ox;
                        out[oidx] = best;
                        argmax[oidx] = best_idx;
                    }
                }
            }
        }
        if mode == Mode::Train {
            self.cache = Some(Cache {
                input_shape: [n, c, h, w],
                argmax,
            });
        }
        Tensor::from_vec(&[n, c, oh, ow], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("MaxPool2d::backward without forward");
        let [n, c, h, w] = cache.input_shape;
        let mut din = vec![0.0f32; n * c * h * w];
        for (o, &src) in cache.argmax.iter().enumerate() {
            din[src] += grad_out.data()[o];
        }
        Tensor::from_vec(&[n, c, h, w], din)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(ParamRef<'_>)) {}

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedableRng;

    fn rng() -> NnRng {
        NnRng::seed_from_u64(2)
    }

    #[test]
    fn pools_maxima() {
        let mut pool = MaxPool2d::new(2);
        let mut r = rng();
        let x = Tensor::from_vec(
            &[1, 1, 4, 4],
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        );
        let y = pool.forward(&x, Mode::Eval, &mut r);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4., 8., 12., 16.]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let mut r = rng();
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 9., 3., 4.]);
        let _ = pool.forward(&x, Mode::Train, &mut r);
        let g = Tensor::from_vec(&[1, 1, 1, 1], vec![5.0]);
        let din = pool.backward(&g);
        assert_eq!(din.data(), &[0., 5., 0., 0.]);
    }

    #[test]
    fn handles_negative_values() {
        let mut pool = MaxPool2d::new(2);
        let mut r = rng();
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![-5., -1., -3., -4.]);
        let y = pool.forward(&x, Mode::Eval, &mut r);
        assert_eq!(y.data(), &[-1.0]);
    }

    #[test]
    fn all_infinite_or_nan_windows_stay_in_their_sample() {
        // The second sample is all −∞: its gradient of 20 must land on its
        // own first pixel, not on sample 0's.
        let mut pool = MaxPool2d::new(2);
        let mut r = rng();
        let mut data = vec![1., 4., 2., 3.];
        data.extend([f32::NEG_INFINITY; 4]);
        let x = Tensor::from_vec(&[2, 1, 2, 2], data);
        let y = pool.forward(&x, Mode::Train, &mut r);
        assert_eq!(y.data(), &[4.0, f32::NEG_INFINITY]);
        let din = pool.backward(&Tensor::from_vec(&[2, 1, 1, 1], vec![10.0, 20.0]));
        assert_eq!(din.data(), &[0., 10., 0., 0., 20., 0., 0., 0.]);

        // A NaN wins its window wherever it sits, and the first NaN takes
        // the gradient: all NaN, NaN first, NaN after a larger number.
        let nan = f32::NAN;
        for (window, at) in [
            ([nan; 4], 0),
            ([nan, 5., 3., 1.], 0),
            ([5., nan, 3., 1.], 1),
            ([5., 3., 1., nan], 3),
            ([5., nan, 3., nan], 1),
        ] {
            let x = Tensor::from_vec(&[1, 1, 2, 2], window.to_vec());
            let y = pool.forward(&x, Mode::Train, &mut r);
            assert!(y.data()[0].is_nan(), "{window:?}");
            let din = pool.backward(&Tensor::from_vec(&[1, 1, 1, 1], vec![3.0]));
            let mut want = [0.0; 4];
            want[at] = 3.0;
            assert_eq!(din.data(), &want, "{window:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_indivisible_input() {
        let mut pool = MaxPool2d::new(2);
        let mut r = rng();
        pool.forward(&Tensor::zeros(&[1, 1, 3, 3]), Mode::Eval, &mut r);
    }
}
