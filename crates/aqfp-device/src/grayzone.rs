//! The gray-zone switching law (paper Eq. 1) and its value-domain form
//! (paper Eq. 3).
//!
//! An AQFP buffer outputs logic '1' with probability
//!
//! ```text
//! P(Iin) = 0.5 + 0.5 · erf( √π · (Iin − Ith) / ΔIin )          (Eq. 1)
//! ```
//!
//! where `Iin` is the input current, `Ith` an adjustable threshold and
//! `ΔIin` the gray-zone width set by thermal/quantum fluctuations. Dividing
//! currents by the attenuated unit amplitude `I1(Cs)` turns the same law into
//! the *value-domain* probability used during training (Eq. 3 with
//! `ΔVin(Cs) = ΔIin / I1(Cs)`, Eq. 4).

use crate::erf::{erf, erf_derivative};
use serde::{Deserialize, Serialize};

/// The square root of π, as used in Eq. 1.
pub const SQRT_PI: f64 = 1.772_453_850_905_516;

/// `|u|` below which `P = 0.5 + 0.5·erf(u)` lies strictly inside `(0, 1)`
/// in f64: `erfc(5.5) ≈ 7.4·10⁻¹⁵` is far above the `2⁻⁵⁴` at which the
/// sum rounds to 0 or 1 (it first does near `|u| = 5.83`). Every input in
/// this band draws.
const DRAW_BAND: f64 = 5.5;

/// Grid points per unit of `u` in [`band_table`].
const BAND_GRID: f64 = 128.0;

/// Slack on each side of a [`band_table`] bracket. Both the table entries
/// and `probability_one` come from [`erf`], which is within `10⁻¹³` of the
/// true erf; the true `P` is increasing, so `P(u)` at any `u` between two
/// grid points lies between their entries up to twice that error, far
/// inside this slack.
const BAND_SLACK: f64 = 1e-12;

/// `P(u) = 0.5 + 0.5·erf(u)` on the grid `u = −DRAW_BAND + i / BAND_GRID`,
/// `i = 0 ..= 2·DRAW_BAND·BAND_GRID`, computed once.
fn band_table() -> &'static [f64] {
    static TABLE: std::sync::OnceLock<Vec<f64>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let points = (2.0 * DRAW_BAND * BAND_GRID) as usize + 1;
        (0..points)
            .map(|i| 0.5 + 0.5 * erf(i as f64 / BAND_GRID - DRAW_BAND))
            .collect()
    })
}

/// An erf-shaped stochastic threshold law.
///
/// `GrayZone` is unit-agnostic: use µA for the current-domain law (Eq. 1) or
/// dimensionless activations for the value-domain law (Eq. 3). The two only
/// differ by the scale of `threshold` and `width`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GrayZone {
    /// Decision threshold (`Ith` or `Vth`).
    pub threshold: f64,
    /// Gray-zone width (`ΔIin` or `ΔVin`). Must be positive and finite.
    pub width: f64,
}

impl GrayZone {
    /// Creates a gray-zone law.
    ///
    /// # Panics
    /// Panics if `width` is not strictly positive and finite; a zero-width
    /// gray-zone is expressed by [`GrayZone::deterministic`] instead.
    pub fn new(threshold: f64, width: f64) -> Self {
        assert!(
            width.is_finite() && width > 0.0,
            "gray-zone width must be positive and finite, got {width}"
        );
        Self { threshold, width }
    }

    /// The paper's default law at 4.2 K: `Ith = 0`, `ΔIin = 2.4 µA`.
    pub fn paper_default() -> Self {
        Self::new(0.0, crate::consts::DEFAULT_GRAYZONE_UA)
    }

    /// A deterministic sign comparator (the `ΔIin → 0` limit). `probability_one`
    /// becomes a step function at `threshold`.
    pub fn deterministic(threshold: f64) -> Self {
        Self {
            threshold,
            width: 0.0,
        }
    }

    /// Probability that the buffer outputs logic '1' for input `x` (Eq. 1).
    ///
    /// For the deterministic limit the law degenerates to a step function
    /// with `P(threshold) = 0.5` (the measure-zero tie keeps the erf limit).
    pub fn probability_one(&self, x: f64) -> f64 {
        if self.width == 0.0 {
            return match x.partial_cmp(&self.threshold) {
                Some(std::cmp::Ordering::Greater) => 1.0,
                Some(std::cmp::Ordering::Less) => 0.0,
                _ => 0.5,
            };
        }
        0.5 + 0.5 * erf(self.arg(x))
    }

    /// The normalized erf argument `u = √π·(x − threshold)/width`.
    fn arg(&self, x: f64) -> f64 {
        SQRT_PI * (x - self.threshold) / self.width
    }

    /// Expected signed output value `E[±1] = 2·P(x) − 1 = erf(√π(x−th)/Δ)`.
    ///
    /// This is the surrogate the randomized-aware back-propagation
    /// differentiates (paper Eq. 10).
    pub fn expected_value(&self, x: f64) -> f64 {
        if self.width == 0.0 {
            return 2.0 * self.probability_one(x) - 1.0;
        }
        erf(self.arg(x))
    }

    /// Derivative of [`GrayZone::expected_value`] with respect to `x`:
    /// `d/dx erf(√π(x−th)/Δ) = (2/√π)·e^(−u²)·(√π/Δ) = (2/Δ)·e^(−u²)`.
    ///
    /// Returns `0.0` in the deterministic limit (the impulse is unusable for
    /// gradients; the caller falls back to a plain STE there).
    pub fn expected_value_grad(&self, x: f64) -> f64 {
        if self.width == 0.0 {
            return 0.0;
        }
        erf_derivative(self.arg(x)) * SQRT_PI / self.width
    }

    /// Half-width of the band where the output is noticeably random, defined
    /// as `|P − 1/2| < 0.49` ⇔ `|erf| < 0.98` ⇔ `|x − th| < 1.645·Δ/√π`.
    ///
    /// With the paper's `Δ = 2.4 µA` this evaluates to ≈ 2.2 µA, matching the
    /// "boundary of randomized switching is around ±2 µA" of Fig. 4.
    pub fn random_band_halfwidth(&self) -> f64 {
        // erf(1.645) ≈ 0.98.
        1.645 * self.width / SQRT_PI
    }

    /// Rescales a current-domain law into the value domain (Eq. 3/4):
    /// the unit value `+1` is carried by a current of `unit_current`, so both
    /// threshold and width divide by it.
    ///
    /// # Panics
    /// Panics if `unit_current` is not strictly positive.
    pub fn to_value_domain(&self, unit_current: f64) -> GrayZone {
        assert!(
            unit_current > 0.0,
            "unit current must be positive, got {unit_current}"
        );
        GrayZone {
            threshold: self.threshold / unit_current,
            width: self.width / unit_current,
        }
    }

    /// Samples one output bit: `true` for logic '1'.
    ///
    /// The result is `r < P(x)` for one uniform draw `r`, and no draw is
    /// made where `P` is exactly 0 or 1 (from `|u| = 6` on, [`erf`] returns
    /// `±1` without evaluating anything). Inside the draw band (`|u| <
    /// 5.5`) the draw is first compared against the two precomputed values
    /// of `P` that bracket `u`; the exact `P` is evaluated only when `r`
    /// falls between them, so the outcome and the draws are those of the
    /// exact law.
    pub fn sample<R: rand::Rng + ?Sized>(&self, x: f64, rng: &mut R) -> bool {
        if self.width > 0.0 {
            let u = self.arg(x);
            if u.abs() < DRAW_BAND {
                let r = rng.gen::<f64>();
                let table = band_table();
                let i = (((u + DRAW_BAND) * BAND_GRID) as usize).min(table.len() - 2);
                if r < table[i] - BAND_SLACK {
                    return true;
                }
                if r >= table[i + 1] + BAND_SLACK {
                    return false;
                }
                return r < self.probability_one(x);
            }
        }
        let p = self.probability_one(x);
        // Avoid an RNG draw for the (common) saturated cases so deterministic
        // regions of the crossbar stay bit-exact across bit-stream lengths.
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            rng.gen::<f64>() < p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn midpoint_probability_is_half() {
        let gz = GrayZone::paper_default();
        assert!((gz.probability_one(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn saturates_outside_grayzone() {
        let gz = GrayZone::paper_default();
        // Fig. 4: beyond about ±2 µA the output is effectively deterministic.
        assert!(gz.probability_one(4.0) > 0.999);
        assert!(gz.probability_one(-4.0) < 0.001);
        // Full-swing ±70 µA inputs are exactly saturated in f64.
        assert_eq!(gz.probability_one(70.0), 1.0);
        assert_eq!(gz.probability_one(-70.0), 0.0);
    }

    #[test]
    fn random_band_matches_fig4() {
        let gz = GrayZone::paper_default();
        let hw = gz.random_band_halfwidth();
        assert!(
            (hw - crate::consts::FIG4_RANDOM_BAND_UA).abs() < 0.35,
            "random band half-width {hw} should be ≈ 2 µA"
        );
    }

    #[test]
    fn threshold_shifts_curve() {
        let gz = GrayZone::new(1.0, 2.4);
        assert!((gz.probability_one(1.0) - 0.5).abs() < 1e-12);
        assert!(gz.probability_one(0.0) < 0.5);
    }

    #[test]
    fn expected_value_consistent_with_probability() {
        let gz = GrayZone::paper_default();
        for x in [-3.0, -1.0, 0.0, 0.7, 2.5] {
            let e = gz.expected_value(x);
            let p = gz.probability_one(x);
            assert!((e - (2.0 * p - 1.0)).abs() < 1e-12, "mismatch at {x}");
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let gz = GrayZone::new(0.3, 1.7);
        for x in [-1.0, 0.0, 0.3, 1.2] {
            let h = 1e-6;
            let fd = (gz.expected_value(x + h) - gz.expected_value(x - h)) / (2.0 * h);
            let g = gz.expected_value_grad(x);
            assert!((g - fd).abs() < 1e-5, "grad mismatch at {x}: {g} vs {fd}");
        }
    }

    #[test]
    fn deterministic_limit_is_step() {
        let gz = GrayZone::deterministic(0.0);
        assert_eq!(gz.probability_one(1e-12), 1.0);
        assert_eq!(gz.probability_one(-1e-12), 0.0);
        assert_eq!(gz.probability_one(0.0), 0.5);
        assert_eq!(gz.expected_value_grad(0.0), 0.0);
    }

    #[test]
    fn value_domain_rescaling() {
        let gz = GrayZone::new(7.0, 2.4);
        let v = gz.to_value_domain(70.0);
        assert!((v.threshold - 0.1).abs() < 1e-12);
        assert!((v.width - 2.4 / 70.0).abs() < 1e-12);
        // Probabilities agree at corresponding points.
        assert!((gz.probability_one(14.0) - v.probability_one(0.2)).abs() < 1e-12);
    }

    #[test]
    fn sampling_frequency_approaches_probability() {
        let gz = GrayZone::paper_default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let x = 0.8;
        let n = 40_000;
        let ones = (0..n).filter(|_| gz.sample(x, &mut rng)).count();
        let freq = ones as f64 / n as f64;
        let p = gz.probability_one(x);
        assert!(
            (freq - p).abs() < 0.01,
            "sampled frequency {freq} vs analytic {p}"
        );
    }

    /// `sample` as it was before the draw band: evaluate `P`, draw only
    /// where it is strictly inside `(0, 1)`.
    fn reference_sample(gz: &GrayZone, x: f64, rng: &mut rand::rngs::StdRng) -> bool {
        let p = gz.probability_one(x);
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            rand::Rng::gen::<f64>(rng) < p
        }
    }

    #[test]
    fn draw_band_matches_the_exact_law() {
        // Inputs on both sides of |u| = 5.5 (the band edge) and |u| = 6
        // (the erf cutoff), plus a sweep across the band: the same outputs
        // and the same generator state afterwards.
        let gz = GrayZone::new(0.1, 0.37);
        let at_u = |u: f64| gz.threshold + u * gz.width / SQRT_PI;
        let mut us = Vec::new();
        for edge in [DRAW_BAND, crate::erf::SATURATED] {
            for d in [-1e-9, 0.0, 1e-9, -0.01, 0.01] {
                us.extend([edge + d, -(edge + d)]);
            }
        }
        us.extend((-448..=448).map(|i| f64::from(i) / 64.0));
        for seed in 0..64 {
            let mut fast = rand::rngs::StdRng::seed_from_u64(seed);
            let mut reference = fast.clone();
            for &u in &us {
                let x = at_u(u);
                assert_eq!(
                    gz.sample(x, &mut fast),
                    reference_sample(&gz, x, &mut reference),
                    "u = {u}, seed {seed}"
                );
            }
            assert_eq!(
                rand::RngCore::next_u64(&mut fast),
                rand::RngCore::next_u64(&mut reference)
            );
        }
        // Inside the band P is strictly between 0 and 1, so every input
        // there draws.
        assert!(gz.probability_one(at_u(DRAW_BAND)) < 1.0);
        assert!(gz.probability_one(at_u(-DRAW_BAND)) > 0.0);
    }

    /// Replays fixed 64-bit words.
    struct Replay(Vec<u64>);

    impl rand::RngCore for Replay {
        fn next_u64(&mut self) -> u64 {
            self.0.remove(0)
        }
    }

    #[test]
    fn band_table_brackets_the_exact_probability() {
        // A sweep at 2⁻¹² off the grid: every P lies inside its bracket.
        let table = band_table();
        let mut u = -DRAW_BAND;
        while u < DRAW_BAND {
            let p = 0.5 + 0.5 * erf(u);
            let i = (((u + DRAW_BAND) * BAND_GRID) as usize).min(table.len() - 2);
            assert!(
                table[i] - BAND_SLACK <= p && p <= table[i + 1] + BAND_SLACK,
                "u = {u}"
            );
            u += 1.0 / 4096.0 + 1e-9;
        }
        assert_eq!(table.len(), 1409);
    }

    #[test]
    fn draws_inside_a_bracket_use_the_exact_probability() {
        // Draws one 2⁻⁵³ step either side of P fall inside the bracket of
        // table entries around it, so they are decided by the exact law:
        // below P is '1', at or above P is '0'.
        let gz = GrayZone::new(0.0, 1.0);
        for x in [-0.9, -0.2, 0.0, 0.3, 1.1, 2.4] {
            let p = gz.probability_one(x);
            let word = |r: f64| ((r * (1u64 << 53) as f64) as u64) << 11;
            let below = p - 2f64.powi(-53);
            let above = p + 2f64.powi(-53);
            assert!(gz.sample(x, &mut Replay(vec![word(below)])), "x = {x}");
            assert!(!gz.sample(x, &mut Replay(vec![word(above)])), "x = {x}");
        }
    }

    #[test]
    #[should_panic(expected = "gray-zone width must be positive")]
    fn rejects_nonpositive_width() {
        GrayZone::new(0.0, -1.0);
    }
}
