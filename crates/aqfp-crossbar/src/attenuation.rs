//! Crossbar current attenuation (paper Eq. 2 and Fig. 5).
//!
//! Merging `Cs` cell outputs through superconductive inductance divides the
//! per-cell current: the amplitude that represents the value "1" decays as a
//! power law of the crossbar size,
//!
//! ```text
//! I1(Cs) = A · Cs^−B                                        (Eq. 2)
//! ```
//!
//! The paper measures the curve on fabricated merging circuits and fits the
//! constants; we adopt `A = 70 µA` (the drive amplitude, so a size-1 "array"
//! is lossless) and `B = 1.6` (see "Modelling substitutions" in
//! `ARCHITECTURE.md`). This module also provides
//! the same log-log least-squares fit the paper performs, so simulated
//! "measurements" can be turned back into a model — used by the Fig. 5
//! regeneration bench.

use serde::{Deserialize, Serialize};

/// Power-law current attenuation model `I1(Cs) = A · Cs^−B`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttenuationModel {
    /// Amplitude at size 1, in µA.
    pub a_ua: f64,
    /// Decay exponent (positive).
    pub b: f64,
}

impl AttenuationModel {
    /// The calibrated model used throughout the reproduction.
    pub fn paper_fit() -> Self {
        Self {
            a_ua: aqfp_device::consts::ATTENUATION_A_UA,
            b: aqfp_device::consts::ATTENUATION_B,
        }
    }

    /// Creates a model.
    ///
    /// # Panics
    /// Panics unless `a_ua > 0` and `b > 0`.
    pub fn new(a_ua: f64, b: f64) -> Self {
        assert!(
            a_ua > 0.0 && a_ua.is_finite(),
            "A must be positive, got {a_ua}"
        );
        assert!(b > 0.0 && b.is_finite(), "B must be positive, got {b}");
        Self { a_ua, b }
    }

    /// Output current amplitude representing the value 1 for a column that
    /// merges `cs` cells, in µA.
    ///
    /// # Panics
    /// Panics if `cs == 0`.
    pub fn i1_ua(&self, cs: usize) -> f64 {
        assert!(cs > 0, "crossbar size must be at least 1");
        self.a_ua * (cs as f64).powf(-self.b)
    }

    /// The value-domain gray-zone width `ΔVin(Cs) = ΔIin / I1(Cs)`
    /// (paper Eq. 4).
    pub fn value_grayzone(&self, grayzone_ua: f64, cs: usize) -> f64 {
        grayzone_ua / self.i1_ua(cs)
    }

    /// The same decay law with the drive amplitude scaled by `scale` —
    /// every `I1(Cs)` picks up the factor uniformly. This is how a
    /// device-parameter variation's attenuation drift
    /// (`aqfp_device::VariationModel::drive_scale`) lands on the model:
    /// the die's merged currents run at `scale × I1` while the programmed
    /// thresholds stay where calibration put them.
    ///
    /// # Panics
    /// Panics unless `scale` is positive and finite.
    #[must_use]
    pub fn with_drive_scale(&self, scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "drive scale must be positive and finite, got {scale}"
        );
        Self {
            a_ua: self.a_ua * scale,
            b: self.b,
        }
    }

    /// Fits a power law to `(size, current)` samples by least squares in
    /// log-log space — the "mathematical fitting curve" step of Fig. 5.
    ///
    /// Returns `None` if fewer than two distinct sizes are given or any
    /// sample is non-positive.
    pub fn fit(samples: &[(usize, f64)]) -> Option<Self> {
        if samples.len() < 2 {
            return None;
        }
        let mut xs = Vec::with_capacity(samples.len());
        let mut ys = Vec::with_capacity(samples.len());
        for &(cs, i) in samples {
            if cs == 0 || i <= 0.0 || !i.is_finite() {
                return None;
            }
            xs.push((cs as f64).ln());
            ys.push(i.ln());
        }
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        if sxx == 0.0 {
            return None; // all sizes equal: slope undefined
        }
        let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let slope = sxy / sxx; // = −B
        let intercept = my - slope * mx; // = ln A
        let b = -slope;
        if b <= 0.0 {
            return None; // not a decaying curve
        }
        Some(Self {
            a_ua: intercept.exp(),
            b,
        })
    }

    /// Generates the Fig. 5b curve: `(size, I1)` for each requested size.
    pub fn curve(&self, sizes: &[usize]) -> Vec<(usize, f64)> {
        sizes.iter().map(|&cs| (cs, self.i1_ua(cs))).collect()
    }
}

impl Default for AttenuationModel {
    fn default() -> Self {
        Self::paper_fit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_one_is_lossless() {
        let m = AttenuationModel::paper_fit();
        assert!((m.i1_ua(1) - 70.0).abs() < 1e-12);
    }

    #[test]
    fn monotonically_decreasing() {
        let m = AttenuationModel::paper_fit();
        let mut prev = f64::INFINITY;
        for cs in [1usize, 4, 8, 16, 18, 36, 72, 144, 1024] {
            let i = m.i1_ua(cs);
            assert!(i < prev, "I1 must decrease, at {cs}");
            assert!(i > 0.0);
            prev = i;
        }
    }

    #[test]
    fn larger_crossbars_widen_value_grayzone() {
        let m = AttenuationModel::paper_fit();
        let g = aqfp_device::consts::DEFAULT_GRAYZONE_UA;
        assert!(m.value_grayzone(g, 144) > m.value_grayzone(g, 4));
    }

    #[test]
    fn fit_recovers_exact_power_law() {
        let truth = AttenuationModel::new(70.0, 0.6);
        let samples: Vec<(usize, f64)> = [4usize, 8, 16, 36, 72, 144]
            .iter()
            .map(|&cs| (cs, truth.i1_ua(cs)))
            .collect();
        let fit = AttenuationModel::fit(&samples).unwrap();
        assert!((fit.a_ua - 70.0).abs() < 1e-9, "A = {}", fit.a_ua);
        assert!((fit.b - 0.6).abs() < 1e-12, "B = {}", fit.b);
    }

    #[test]
    fn fit_tolerates_measurement_noise() {
        let truth = AttenuationModel::new(70.0, 0.6);
        // ±2 % deterministic "noise".
        let samples: Vec<(usize, f64)> = [4usize, 8, 16, 36, 72, 144]
            .iter()
            .enumerate()
            .map(|(i, &cs)| {
                let wiggle = if i % 2 == 0 { 1.02 } else { 0.98 };
                (cs, truth.i1_ua(cs) * wiggle)
            })
            .collect();
        let fit = AttenuationModel::fit(&samples).unwrap();
        assert!((fit.b - 0.6).abs() < 0.05, "B = {}", fit.b);
        assert!((fit.a_ua - 70.0).abs() < 5.0, "A = {}", fit.a_ua);
    }

    #[test]
    fn fit_rejects_degenerate_input() {
        assert!(AttenuationModel::fit(&[]).is_none());
        assert!(AttenuationModel::fit(&[(4, 10.0)]).is_none());
        assert!(AttenuationModel::fit(&[(4, 10.0), (4, 11.0)]).is_none());
        assert!(AttenuationModel::fit(&[(4, 10.0), (8, -1.0)]).is_none());
        // Increasing curve: not attenuation.
        assert!(AttenuationModel::fit(&[(4, 1.0), (8, 2.0)]).is_none());
    }

    #[test]
    fn curve_covers_requested_sizes() {
        let m = AttenuationModel::paper_fit();
        let sizes = [4usize, 8, 16];
        let c = m.curve(&sizes);
        assert_eq!(c.len(), 3);
        assert_eq!(c[0].0, 4);
        assert!((c[2].1 - m.i1_ua(16)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_size_panics() {
        AttenuationModel::paper_fit().i1_ua(0);
    }
}
