//! Binarization: deterministic sign/STE and the randomized AQFP-aware law.
//!
//! Paper Eqs. 6, 7, 9, 10. The deterministic binarizer is the classical
//! `sign` with a straight-through estimator clipped to `|x| ≤ 1` (the
//! HardTanh STE). The randomized binarizer samples `±1` with the erf
//! probability of the value-domain gray-zone law; its backward pass
//! differentiates the *expected* output `E(ab) = erf(√π(ar − Vth)/ΔVin)`.

use aqfp_device::GrayZone;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// An activation binarizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Binarizer {
    /// `sign(x)` forward; clipped straight-through estimator backward.
    Deterministic,
    /// AQFP randomized binarization: forward samples Eq. 7, backward uses
    /// Eq. 10. The law lives in the value domain (`ΔVin(Cs)`, `Vth`).
    Randomized(GrayZone),
}

impl Binarizer {
    /// The randomized binarizer for a crossbar of `cs` rows with gray-zone
    /// `grayzone_ua` (µA) under attenuation `I1(cs) = a·cs^−b` — the glue
    /// between hardware configuration and training (Eqs. 3–4).
    pub fn from_hardware(grayzone_ua: f64, i1_ua: f64, vth: f64) -> Self {
        Binarizer::Randomized(GrayZone::new(vth, grayzone_ua / i1_ua))
    }

    /// Deterministic forward value (also the inference-time mean path):
    /// `sign(x)` for [`Binarizer::Deterministic`], the expected value's sign
    /// for [`Binarizer::Randomized`] (both map `x = Vth` to `+1`).
    pub fn forward_deterministic(&self, x: f32) -> f32 {
        match self {
            Binarizer::Deterministic => {
                if x >= 0.0 {
                    1.0
                } else {
                    -1.0
                }
            }
            Binarizer::Randomized(law) => {
                if (x as f64) >= law.threshold {
                    1.0
                } else {
                    -1.0
                }
            }
        }
    }

    /// Stochastic forward sample (training and hardware-faithful eval).
    pub fn forward_sample<R: Rng + ?Sized>(&self, x: f32, rng: &mut R) -> f32 {
        match self {
            Binarizer::Deterministic => self.forward_deterministic(x),
            Binarizer::Randomized(law) => {
                if law.sample(x as f64, rng) {
                    1.0
                } else {
                    -1.0
                }
            }
        }
    }

    /// Probability of binarizing to `+1`.
    pub fn probability_one(&self, x: f32) -> f64 {
        match self {
            Binarizer::Deterministic => {
                if x >= 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Binarizer::Randomized(law) => law.probability_one(x as f64),
        }
    }

    /// Gradient of the surrogate output with respect to the input.
    ///
    /// Deterministic: the HardTanh-clipped STE, `1` for `|x| ≤ 1` else `0`.
    ///
    /// Randomized: the envelope of (a) the *shape* of `dE(ab)/dx` from
    /// Eq. 10 — a Gaussian bump centred on the threshold, normalized to
    /// unit peak — and (b) the clipped STE. Two normalizations against the
    /// raw Eq. 10 derivative are deliberate:
    ///
    /// * the raw erf derivative peaks at `2/ΔVin` (≈ 10 at narrow
    ///   gray-zones), which compounds across a VGG-depth network and
    ///   destabilizes training, so the bump is scaled to unit peak (the
    ///   STE itself is a unit-scale surrogate);
    /// * a *pure* bump starves every activation outside the responsive
    ///   band of gradient, and the starved weights drift under momentum
    ///   and weight decay — the noise-aware-training literature (PCM,
    ///   ReRAM) pairs a stochastic forward with full STE support for this
    ///   reason. Taking the maximum keeps gradients alive across the STE
    ///   range while preserving the erf law's extra reach when the
    ///   gray-zone is wider than the clip.
    pub fn backward(&self, x: f32) -> f32 {
        match self {
            Binarizer::Deterministic => {
                if x.abs() <= 1.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Binarizer::Randomized(law) => {
                // The bump never exceeds 1, so inside the clip the
                // envelope is the STE's 1.
                if x.abs() <= 1.0 {
                    1.0
                } else {
                    erf_bump(law, x)
                }
            }
        }
    }
}

/// The unit-peak bump `e^(−u²)` outside the STE clip; `max` keeps a NaN
/// input at the clipped STE's 0. Out of line so that a caller's loop does
/// not evaluate `exp` for every element to vectorize the select.
#[inline(never)]
fn erf_bump(law: &GrayZone, x: f32) -> f32 {
    let u = erf_arg(law, x as f64);
    ((-u * u).exp() as f32).max(0.0)
}

/// The normalized erf argument `u = √π·(x − Vth)/ΔVin` of a gray-zone law.
pub(crate) fn erf_arg(law: &GrayZone, x: f64) -> f64 {
    debug_assert!(law.width > 0.0, "randomized law needs a positive width");
    aqfp_device::grayzone::SQRT_PI * (x - law.threshold) / law.width
}

/// Binarizes a weight slice with the XNOR-Net scaling factor:
/// returns `(signs, α)` where `α = mean(|w|)` and `signs[i] = ±1`.
///
/// The caller applies `α` once per output channel (the paper folds the
/// weight and activation scaling factors into a single per-channel α).
pub fn binarize_weights(weights: &[f32]) -> (Vec<f32>, f32) {
    let alpha = if weights.is_empty() {
        0.0
    } else {
        weights.iter().map(|w| w.abs()).sum::<f32>() / weights.len() as f32
    };
    let signs = weights
        .iter()
        .map(|&w| if w >= 0.0 { 1.0 } else { -1.0 })
        .collect();
    (signs, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn deterministic_sign_convention() {
        let b = Binarizer::Deterministic;
        assert_eq!(b.forward_deterministic(0.0), 1.0); // Eq. 6: x ≥ 0 → +1
        assert_eq!(b.forward_deterministic(0.5), 1.0);
        assert_eq!(b.forward_deterministic(-0.5), -1.0);
    }

    #[test]
    fn deterministic_ste_clips() {
        let b = Binarizer::Deterministic;
        assert_eq!(b.backward(0.5), 1.0);
        assert_eq!(b.backward(-0.99), 1.0);
        assert_eq!(b.backward(1.5), 0.0);
        assert_eq!(b.backward(-2.0), 0.0);
    }

    #[test]
    fn randomized_sampling_matches_probability() {
        let law = GrayZone::new(0.0, 0.5);
        let b = Binarizer::Randomized(law);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = 0.1f32;
        let n = 20_000;
        let plus = (0..n)
            .filter(|_| b.forward_sample(x, &mut rng) > 0.0)
            .count() as f64
            / n as f64;
        assert!((plus - b.probability_one(x)).abs() < 0.015);
    }

    #[test]
    fn randomized_gradient_is_ste_bump_envelope() {
        let law = GrayZone::new(0.2, 0.7);
        let b = Binarizer::Randomized(law);
        // Inside the STE clip the envelope is exactly 1.
        for x in [-0.9f32, 0.0, 0.2, 0.9] {
            assert_eq!(b.backward(x), 1.0, "at {x}");
        }
        // Outside the clip the normalized erf bump takes over, decaying
        // smoothly to zero where the device saturates.
        let just_outside = b.backward(1.2);
        assert!(just_outside > 0.0 && just_outside < 1.0);
        assert!(b.backward(1.2) > b.backward(1.6));
        assert!(b.backward(5.0).abs() < 1e-6);
        // A wide gray-zone extends gradient support beyond the clip.
        let wide = Binarizer::Randomized(GrayZone::new(0.0, 4.0));
        assert!(wide.backward(1.5) > 0.5);
    }

    #[test]
    fn from_hardware_divides_by_unit_current() {
        // ΔIin = 2.4 µA on a column whose unit current is 12 µA → ΔVin 0.2.
        let b = Binarizer::from_hardware(2.4, 12.0, 0.0);
        match b {
            Binarizer::Randomized(law) => {
                assert!((law.width - 0.2).abs() < 1e-12);
            }
            _ => panic!("expected randomized"),
        }
    }

    #[test]
    fn weight_binarization_alpha_is_l1_mean() {
        let (signs, alpha) = binarize_weights(&[0.5, -1.5, 1.0]);
        assert_eq!(signs, vec![1.0, -1.0, 1.0]);
        assert!((alpha - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_weights_are_harmless() {
        let (signs, alpha) = binarize_weights(&[]);
        assert!(signs.is_empty());
        assert_eq!(alpha, 0.0);
    }
}
