//! The weight rectified clamp method (paper Eq. 17, following ReCU).
//!
//! Real-valued latent weights of a BNN collect outliers in the tails of a
//! zero-mean Laplace-like distribution; outliers almost never change sign
//! under gradient descent, deadening part of the network. ReCU clamps the
//! weights to their `[Q(1−τ), Q(τ)]` quantile range each step, pulling
//! outliers back toward the distribution peak. τ anneals from 0.85 to 0.99
//! over training (Section 6.1).

/// The τ annealing schedule: linear from `start` (0.85) to `end` (0.99)
/// over `total_steps`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TauSchedule {
    /// Initial τ.
    pub start: f64,
    /// Final τ.
    pub end: f64,
    /// Steps over which τ anneals.
    pub total_steps: usize,
}

impl TauSchedule {
    /// The paper's schedule: 0.85 → 0.99.
    pub fn paper_default(total_steps: usize) -> Self {
        Self {
            start: 0.85,
            end: 0.99,
            total_steps,
        }
    }

    /// τ at `step` (clamped to the end value afterwards).
    pub fn tau_at(&self, step: usize) -> f64 {
        if self.total_steps == 0 {
            return self.end;
        }
        let t = (step as f64 / self.total_steps as f64).min(1.0);
        self.start + (self.end - self.start) * t
    }
}

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics, matching `numpy.quantile`'s default).
///
/// # Panics
/// Panics if `values` is empty or `q ∉ [0, 1]`.
pub fn quantile(values: &[f32], q: f64) -> f32 {
    quantile_of_sorted(&sorted(values), q)
}

/// A sorted copy. Values equal under `total_cmp` have identical bits, so
/// an unstable sort yields the same sequence as a stable one.
fn sorted(values: &[f32]) -> Vec<f32> {
    assert!(!values.is_empty(), "quantile of empty slice");
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| a.total_cmp(b));
    sorted
}

/// [`quantile`] over values already in ascending `total_cmp` order.
fn quantile_of_sorted(sorted: &[f32], q: f64) -> f32 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = (pos - lo as f64) as f32;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Applies the rectified clamp in place:
/// `w ← max(min(w, Q(τ)), Q(1 − τ))` (paper Eq. 17).
///
/// Returns the `(lower, upper)` clamp bounds used.
///
/// # Panics
/// Panics if `weights` is empty or `τ ∉ [0.5, 1]` (below 0.5 the bounds
/// cross).
pub fn rectified_clamp(weights: &mut [f32], tau: f64) -> (f32, f32) {
    assert!(
        (0.5..=1.0).contains(&tau),
        "τ must be in [0.5, 1], got {tau}"
    );
    let sorted = sorted(weights);
    let upper = quantile_of_sorted(&sorted, tau);
    let lower = quantile_of_sorted(&sorted, 1.0 - tau);
    for w in weights.iter_mut() {
        *w = w.clamp(lower, upper);
    }
    (lower, upper)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_endpoints_and_median() {
        let v = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        // Interpolated.
        assert!((quantile(&v, 0.25) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn quantile_unsorted_input() {
        let v = [5.0f32, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
    }

    #[test]
    fn clamp_pulls_in_outliers_only() {
        let mut w = vec![-10.0f32, -0.5, -0.1, 0.0, 0.1, 0.4, 12.0];
        let (lo, hi) = rectified_clamp(&mut w, 0.8);
        assert!(w.iter().all(|&x| x >= lo && x <= hi));
        // Interior weights untouched.
        assert_eq!(w[3], 0.0);
        assert_eq!(w[2], -0.1);
        // Outliers clamped to the bounds.
        assert_eq!(w[0], lo);
        assert_eq!(w[6], hi);
    }

    #[test]
    fn tau_one_is_identity() {
        let mut w = vec![-10.0f32, 0.0, 12.0];
        let orig = w.clone();
        rectified_clamp(&mut w, 1.0);
        assert_eq!(w, orig);
    }

    #[test]
    fn clamp_tightens_as_tau_decreases() {
        let base: Vec<f32> = (-50..=50).map(|i| i as f32 / 10.0).collect();
        let mut w9 = base.clone();
        let (lo9, hi9) = rectified_clamp(&mut w9, 0.9);
        let mut w7 = base.clone();
        let (lo7, hi7) = rectified_clamp(&mut w7, 0.7);
        assert!(hi7 < hi9 && lo7 > lo9);
    }

    #[test]
    fn schedule_anneals_linearly() {
        let s = TauSchedule::paper_default(100);
        assert!((s.tau_at(0) - 0.85).abs() < 1e-12);
        assert!((s.tau_at(50) - 0.92).abs() < 1e-12);
        assert!((s.tau_at(100) - 0.99).abs() < 1e-12);
        assert!((s.tau_at(500) - 0.99).abs() < 1e-12); // clamped after end
    }

    #[test]
    #[should_panic(expected = "τ must be in")]
    fn rejects_low_tau() {
        rectified_clamp(&mut [1.0, 2.0], 0.3);
    }
}
