//! Error function used by the gray-zone switching law.
//!
//! `std` does not expose `erf`, and the allowed dependency set contains no
//! math crate, so we implement it here. For `|x| < 3` we sum the Maclaurin
//! series of `erf`; for `3 ≤ |x| < 6` we evaluate the classical continued
//! fraction of `erfc` by backward recurrence. Both regimes are accurate to
//! better than `1e-13` absolute error — far below the Monte-Carlo noise of
//! any experiment in this repository and below the device calibration
//! uncertainty the paper works with. `erf(0)` is exactly `0`.
//!
//! From `|x| = 6` on, `erf` returns `±1` without evaluating anything. That
//! is the value the continued fraction already rounds to there:
//! `erfc(6) < e⁻³⁶/(6√π) ≈ 2.2·10⁻¹⁷ < 2⁻⁵⁴`, half an ulp below 1, so
//! `1 − erfc(x)` rounds to exactly 1 (the evaluated form does so from
//! `x ≈ 5.92`).

/// `2 / √π`, the series prefactor and the derivative constant.
const TWO_OVER_SQRT_PI: f64 = std::f64::consts::FRAC_2_SQRT_PI;

/// `1 / √π`.
const INV_SQRT_PI: f64 = 0.564_189_583_547_756_3;

/// Error function `erf(x) = 2/√π ∫₀ˣ e^(−t²) dt`.
///
/// Accurate to better than `1e-13` absolute error for all finite inputs.
/// `erf(±∞) = ±1`, `erf(NaN) = NaN`, `erf(0) = 0` exactly.
///
/// # Example
/// ```
/// let e = aqfp_device::erf::erf(1.0);
/// assert!((e - 0.8427007929497149).abs() < 1e-12);
/// ```
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let ax = x.abs();
    if ax < 3.0 {
        sign * erf_series(ax)
    } else if ax < SATURATED {
        sign * (1.0 - erfc_cf(ax))
    } else {
        sign
    }
}

/// `|x|` from which [`erf`] is exactly `±1` in f64 (see the module docs).
pub(crate) const SATURATED: f64 = 6.0;

/// Complementary error function `erfc(x) = 1 − erf(x)`.
///
/// For large positive `x` this avoids the catastrophic cancellation of
/// computing `1 − erf(x)` directly: `erfc(27)` is still a normal f64.
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x >= 3.0 {
        erfc_cf(x)
    } else if x <= -3.0 {
        2.0 - erfc_cf(-x)
    } else {
        1.0 - erf(x)
    }
}

/// Derivative of the error function: `erf'(x) = 2/√π · e^(−x²)`.
///
/// Used by the randomized-aware back-propagation (paper Eq. 10), where the
/// gradient of the expected activation is the derivative of the erf-shaped
/// probability law.
pub fn erf_derivative(x: f64) -> f64 {
    TWO_OVER_SQRT_PI * (-x * x).exp()
}

/// Maclaurin series, valid (and fast) for `0 ≤ x < 3`.
fn erf_series(x: f64) -> f64 {
    // erf(x) = 2/√π · Σ_{n≥0} (−1)ⁿ x^{2n+1} / (n!·(2n+1))
    let x2 = x * x;
    let mut term = x; // (−1)ⁿ x^{2n+1} / n!
    let mut sum = x;
    let mut n = 1.0_f64;
    loop {
        term *= -x2 / n;
        let contrib = term / (2.0 * n + 1.0);
        sum += contrib;
        if contrib.abs() < 1e-17 * sum.abs().max(1e-300) {
            break;
        }
        n += 1.0;
        debug_assert!(n < 200.0, "erf series failed to converge at x = {x}");
    }
    (TWO_OVER_SQRT_PI * sum).clamp(-1.0, 1.0)
}

/// Continued fraction for `erfc(x)`, `x ≥ 3`:
/// `erfc(x) = e^(−x²)/√π · 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + …))))`.
fn erfc_cf(x: f64) -> f64 {
    debug_assert!(x >= 3.0);
    let e = (-x * x).exp();
    if e == 0.0 {
        return 0.0; // x ≳ 27: underflow, erfc is subnormal-zero anyway.
    }
    // Backward recurrence; 40 levels is far past convergence for x ≥ 3.
    let mut tail = 0.0_f64;
    for n in (1..=40).rev() {
        tail = (n as f64 / 2.0) / (x + tail);
    }
    INV_SQRT_PI * e / (x + tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values computed with mpmath at 50 digits.
    const REFERENCE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.112_462_916_018_284_89),
        (0.5, 0.520_499_877_813_046_5),
        (1.0, 0.842_700_792_949_714_9),
        (1.5, 0.966_105_146_475_310_7),
        (2.0, 0.995_322_265_018_952_7),
        (2.9, 0.999_958_902_121_900_5),
        (3.0, 0.999_977_909_503_001_4),
        (3.5, 0.999_999_256_901_627_7),
        (4.0, 0.999_999_984_582_742_1),
        (5.0, 0.999_999_999_998_462_5),
    ];

    #[test]
    fn matches_reference_values() {
        for &(x, want) in REFERENCE {
            assert!(
                (erf(x) - want).abs() < 1e-13,
                "erf({x}) = {:e} want {want:e}",
                erf(x)
            );
            assert!((erf(-x) + want).abs() < 1e-13, "odd symmetry at {x}");
        }
    }

    #[test]
    fn zero_is_exact() {
        assert_eq!(erf(0.0), 0.0);
    }

    #[test]
    fn saturates_at_infinity() {
        assert_eq!(erf(f64::INFINITY), 1.0);
        assert_eq!(erf(f64::NEG_INFINITY), -1.0);
        assert_eq!(erf(100.0), 1.0);
    }

    #[test]
    fn nan_propagates() {
        assert!(erf(f64::NAN).is_nan());
        assert!(erfc(f64::NAN).is_nan());
    }

    #[test]
    fn erfc_complements() {
        for &(x, _) in REFERENCE {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12, "at {x}");
            assert!((erf(-x) + erfc(-x) - 1.0).abs() < 1e-12, "at {}", -x);
        }
    }

    #[test]
    fn erfc_tail_avoids_cancellation() {
        // erfc(6) ≈ 2.1519736712498913e-17 — representable, not zero.
        let v = erfc(6.0);
        assert!(v > 0.0 && v < 1e-16, "erfc(6) = {v:e}");
        assert!((v - 2.151_973_671_249_891e-17).abs() < 1e-22);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        for &x in &[-2.0, -0.5, 0.0, 0.3, 1.0, 2.5] {
            // h balances truncation (h²) against the ~1e-13 evaluation
            // noise amplified by 1/h.
            let h = 1e-5;
            let fd = (erf(x + h) - erf(x - h)) / (2.0 * h);
            assert!(
                (erf_derivative(x) - fd).abs() < 1e-7,
                "derivative mismatch at {x}: {} vs {fd}",
                erf_derivative(x)
            );
        }
    }

    #[test]
    fn monotonically_increasing() {
        let mut prev = erf(-6.0);
        let mut x = -6.0;
        while x < 6.0 {
            x += 0.01;
            let cur = erf(x);
            assert!(cur >= prev, "erf not monotone at {x}");
            prev = cur;
        }
    }

    /// The evaluation `erf` did for every `|x| ≥ 3` before the `±1`
    /// cutoff.
    fn continued_fraction_erf(x: f64) -> f64 {
        let sign = if x < 0.0 { -1.0 } else { 1.0 };
        sign * (1.0 - erfc_cf(x.abs()))
    }

    #[test]
    fn saturation_cutoff_returns_the_evaluated_value() {
        // A dense sweep of ±[5.5, 30]: the cutoff returns exactly what the
        // continued fraction rounds to, and that is already ±1 from 5.92.
        let mut x = 5.5f64;
        while x <= 30.0 {
            for v in [x, -x] {
                assert_eq!(
                    erf(v).to_bits(),
                    continued_fraction_erf(v).to_bits(),
                    "erf({v})"
                );
            }
            x += 1.0 / 4096.0;
        }
        assert_eq!(continued_fraction_erf(5.93), 1.0);
        assert!(continued_fraction_erf(5.9) < 1.0);
        assert_eq!(erf(SATURATED), 1.0);
        assert_eq!(erf(-SATURATED), -1.0);
    }

    #[test]
    fn continuous_across_regime_boundary() {
        // Series below 3, continued fraction above; check the seam.
        let below = erf(3.0 - 1e-9);
        let above = erf(3.0 + 1e-9);
        assert!((below - above).abs() < 1e-12);
    }
}
