//! The crossbar synapse array with analog accumulation and stochastic
//! neuron read-out (paper Fig. 3).
//!
//! Computation of one column:
//!
//! 1. every LiM cell XNORs its stored weight with the row activation and
//!    injects ±I_in;
//! 2. the column currents merge magnetically; the per-unit amplitude after
//!    merging `rows` cells is `I1(rows)` (attenuation, Eq. 2), so a column
//!    whose XNOR products sum to `s` carries `s · I1(rows)` µA;
//! 3. an AQFP buffer (the *neuron circuit*) with a per-column programmable
//!    threshold `Ith` digitizes the current — deterministically when the
//!    current is far from `Ith`, stochastically inside the gray-zone.

use crate::attenuation::AttenuationModel;
use crate::lim::LimCell;
use aqfp_device::{AqfpBuffer, Bit, BufferConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Configuration shared by all columns of a crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrossbarConfig {
    /// Gray-zone width `ΔIin` of the neuron buffers, in µA.
    pub grayzone_ua: f64,
    /// Current-attenuation model of the merging network.
    pub attenuation: AttenuationModel,
}

impl Default for CrossbarConfig {
    fn default() -> Self {
        Self {
            grayzone_ua: aqfp_device::consts::DEFAULT_GRAYZONE_UA,
            attenuation: AttenuationModel::paper_fit(),
        }
    }
}

impl CrossbarConfig {
    /// The operating conditions under a device-parameter variation: the
    /// gray-zone width picks up the variation's effective width (scale ×
    /// thermal ratio) and the attenuation model its drive scale.
    ///
    /// This is the **single definition** of how a
    /// [`VariationModel`](aqfp_device::VariationModel) lands on crossbar
    /// operating conditions — the scalar drift path
    /// (`TiledMatrix::apply_variation`), the recalibration path
    /// (`HardwareConfig::with_variation`) and the packed stochastic
    /// engine's flip tables all go through it, which is what keeps the
    /// scalar and packed engines evaluating the identical effective law
    /// (and therefore flip-for-flip identical) under any variation.
    #[must_use]
    pub fn with_variation(&self, vm: &aqfp_device::VariationModel) -> Self {
        Self {
            grayzone_ua: vm.effective_grayzone_ua(self.grayzone_ua),
            attenuation: self.attenuation.with_drive_scale(vm.drive_scale()),
        }
    }
}

/// Errors raised by crossbar construction and use.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CrossbarError {
    /// The weight matrix was empty in either dimension.
    EmptyWeights,
    /// The weight matrix rows have inconsistent lengths.
    RaggedWeights {
        /// Length of the first row.
        expected: usize,
        /// Index of the offending row.
        row: usize,
        /// Its length.
        got: usize,
    },
    /// An activation vector did not match the row count.
    WrongInputLen {
        /// Crossbar row count.
        expected: usize,
        /// Provided activation count.
        got: usize,
    },
    /// A threshold vector did not match the column count.
    WrongThresholdLen {
        /// Crossbar column count.
        expected: usize,
        /// Provided threshold count.
        got: usize,
    },
    /// A fault-model probability was outside `[0, 1]`.
    FaultRateOutOfRange {
        /// Which rate was rejected (`"stuck-cell"` or `"dead-column"`).
        name: &'static str,
        /// The offending value.
        rate: f64,
    },
}

impl fmt::Display for CrossbarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrossbarError::EmptyWeights => {
                write!(
                    f,
                    "crossbar weight matrix must be non-empty in both dimensions"
                )
            }
            CrossbarError::RaggedWeights { expected, row, got } => write!(
                f,
                "weight matrix is ragged: row {row} has {got} entries, expected {expected}"
            ),
            CrossbarError::WrongInputLen { expected, got } => {
                write!(
                    f,
                    "activation vector length {got} does not match {expected} rows"
                )
            }
            CrossbarError::WrongThresholdLen { expected, got } => {
                write!(
                    f,
                    "threshold vector length {got} does not match {expected} columns"
                )
            }
            CrossbarError::FaultRateOutOfRange { name, rate } => {
                write!(f, "{name} fault rate {rate} is outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for CrossbarError {}

/// An AQFP crossbar synapse array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Crossbar {
    config: CrossbarConfig,
    rows: usize,
    cols: usize,
    /// Row-major LiM cells.
    cells: Vec<LimCell>,
    /// Per-column neuron threshold `Ith`, in µA.
    thresholds_ua: Vec<f64>,
}

impl Crossbar {
    /// Builds a crossbar pre-storing `weights` (`weights[row][col]`).
    /// Neuron thresholds start at 0 µA.
    ///
    /// # Errors
    /// [`CrossbarError::EmptyWeights`] or [`CrossbarError::RaggedWeights`].
    pub fn new(config: CrossbarConfig, weights: Vec<Vec<Bit>>) -> crate::Result<Self> {
        if weights.is_empty() || weights[0].is_empty() {
            return Err(CrossbarError::EmptyWeights);
        }
        let cols = weights[0].len();
        for (i, row) in weights.iter().enumerate() {
            if row.len() != cols {
                return Err(CrossbarError::RaggedWeights {
                    expected: cols,
                    row: i,
                    got: row.len(),
                });
            }
        }
        let rows = weights.len();
        let cells = weights
            .into_iter()
            .flat_map(|row| row.into_iter().map(LimCell::new))
            .collect();
        Ok(Self {
            config,
            rows,
            cols,
            cells,
            thresholds_ua: vec![0.0; cols],
        })
    }

    /// Number of rows (= fan-in merged per column = the `Cs` of Eq. 2).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (output neurons).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The shared configuration.
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// Replaces the operating conditions (gray-zone width, attenuation)
    /// without touching the stored weights or the programmed thresholds —
    /// the seam device-parameter *variation* flows through: a drifted die
    /// keeps its calibration-time programming but senses and merges
    /// currents under the new conditions. A zero gray-zone width turns every
    /// neuron into a noiseless comparator (see [`Crossbar::neuron`]).
    pub fn set_config(&mut self, config: CrossbarConfig) {
        self.config = config;
    }

    /// The attenuated unit current `I1(rows)` of this crossbar, in µA.
    pub fn unit_current_ua(&self) -> f64 {
        self.config.attenuation.i1_ua(self.rows)
    }

    /// Per-column neuron thresholds, in µA.
    pub fn thresholds_ua(&self) -> &[f64] {
        &self.thresholds_ua
    }

    /// Programs the per-column neuron thresholds (BN matching, Eq. 16).
    ///
    /// # Errors
    /// [`CrossbarError::WrongThresholdLen`] on length mismatch.
    pub fn set_thresholds_ua(&mut self, thresholds: Vec<f64>) -> crate::Result<()> {
        if thresholds.len() != self.cols {
            return Err(CrossbarError::WrongThresholdLen {
                expected: self.cols,
                got: thresholds.len(),
            });
        }
        self.thresholds_ua = thresholds;
        Ok(())
    }

    /// The stored weight at `(row, col)`.
    pub fn weight(&self, row: usize, col: usize) -> Bit {
        self.cells[row * self.cols + col].weight()
    }

    /// The neuron buffer of `col`: a noiseless comparator
    /// ([`AqfpBuffer::ideal`]) at gray-zone width 0, the `ΔIin → 0` limit a
    /// zero-scale variation drifts a die into.
    pub fn neuron(&self, col: usize) -> AqfpBuffer {
        let threshold_ua = self.thresholds_ua[col];
        if self.config.grayzone_ua > 0.0 {
            AqfpBuffer::new(BufferConfig {
                threshold_ua,
                grayzone_ua: self.config.grayzone_ua,
            })
        } else {
            AqfpBuffer::ideal(threshold_ua)
        }
    }

    /// The integer XNOR-product sum of `col` (the latent pre-activation in
    /// the value domain, range `[−rows, +rows]`).
    ///
    /// # Errors
    /// [`CrossbarError::WrongInputLen`] on activation length mismatch.
    pub fn raw_sum(&self, col: usize, input: &[Bit]) -> crate::Result<i32> {
        if input.len() != self.rows {
            return Err(CrossbarError::WrongInputLen {
                expected: self.rows,
                got: input.len(),
            });
        }
        let mut sum = 0i32;
        for (r, &a) in input.iter().enumerate() {
            sum += self.cells[r * self.cols + col].multiply(a).to_value() as i32;
        }
        Ok(sum)
    }

    /// The physical merged current of `col`, in µA: `raw_sum · I1(rows)`.
    pub fn column_current_ua(&self, col: usize, input: &[Bit]) -> crate::Result<f64> {
        Ok(self.raw_sum(col, input)? as f64 * self.unit_current_ua())
    }

    /// Analytic probability that the neuron of `col` reads '1' (Eq. 1).
    pub fn column_probability(&self, col: usize, input: &[Bit]) -> crate::Result<f64> {
        let i = self.column_current_ua(col, input)?;
        Ok(self.neuron(col).probability_one(i))
    }

    /// One stochastic read-out of all columns (one clock cycle).
    pub fn compute<R: rand::Rng + ?Sized>(
        &self,
        input: &[Bit],
        rng: &mut R,
    ) -> crate::Result<Vec<Bit>> {
        (0..self.cols)
            .map(|c| {
                let i = self.column_current_ua(c, input)?;
                Ok(self.neuron(c).sense(i, rng))
            })
            .collect()
    }

    /// Ideal (noiseless) read-out: the sign of the column current relative
    /// to the threshold. The software-model reference for tests.
    pub fn compute_ideal(&self, input: &[Bit]) -> crate::Result<Vec<Bit>> {
        (0..self.cols)
            .map(|c| {
                let i = self.column_current_ua(c, input)?;
                Ok(Bit::from_sign(i - self.thresholds_ua[c]))
            })
            .collect()
    }

    /// Holds `input` for `window` clock cycles and returns the per-column
    /// output bit-streams (paper Fig. 6a) — stochastic numbers ready for the
    /// SC accumulation module.
    pub fn observe<R: rand::Rng + ?Sized>(
        &self,
        input: &[Bit],
        window: usize,
        rng: &mut R,
    ) -> crate::Result<Vec<Vec<Bit>>> {
        (0..self.cols)
            .map(|c| {
                let i = self.column_current_ua(c, input)?;
                Ok(self.neuron(c).observe(i, window, rng))
            })
            .collect()
    }

    /// Reprograms all weights (same shape requirements as [`Crossbar::new`]).
    ///
    /// # Errors
    /// Shape errors as in [`Crossbar::new`]; additionally the new matrix
    /// must match the existing dimensions.
    pub fn program(&mut self, weights: &[Vec<Bit>]) -> crate::Result<()> {
        if weights.len() != self.rows {
            return Err(CrossbarError::WrongInputLen {
                expected: self.rows,
                got: weights.len(),
            });
        }
        for (i, row) in weights.iter().enumerate() {
            if row.len() != self.cols {
                return Err(CrossbarError::RaggedWeights {
                    expected: self.cols,
                    row: i,
                    got: row.len(),
                });
            }
        }
        for (r, row) in weights.iter().enumerate() {
            for (c, &w) in row.iter().enumerate() {
                self.cells[r * self.cols + c].program(w);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqfp_device::{DeviceRng, SeedableRng};

    fn bits(pattern: &[i8]) -> Vec<Bit> {
        pattern.iter().map(|&v| Bit::from_sign(v as f64)).collect()
    }

    fn identity4() -> Vec<Vec<Bit>> {
        (0..4)
            .map(|r| (0..4).map(|c| Bit::from_bool(r == c)).collect())
            .collect()
    }

    #[test]
    fn raw_sum_is_dot_product() {
        let w = vec![bits(&[1, -1]), bits(&[1, 1]), bits(&[-1, 1])];
        let xbar = Crossbar::new(CrossbarConfig::default(), w).unwrap();
        let input = bits(&[1, 1, -1]);
        // col0: 1·1 + 1·1 + (−1)(−1) = 3; col1: −1 + 1 − 1 = −1.
        assert_eq!(xbar.raw_sum(0, &input).unwrap(), 3);
        assert_eq!(xbar.raw_sum(1, &input).unwrap(), -1);
    }

    #[test]
    fn column_current_scales_by_attenuation() {
        let w = vec![bits(&[1]); 16];
        let xbar = Crossbar::new(CrossbarConfig::default(), w).unwrap();
        let input = vec![Bit::One; 16];
        let i = xbar.column_current_ua(0, &input).unwrap();
        let unit = AttenuationModel::paper_fit().i1_ua(16);
        assert!((i - 16.0 * unit).abs() < 1e-9);
        assert!(i < 16.0 * 70.0, "attenuation must reduce the ideal sum");
    }

    #[test]
    fn deterministic_when_far_from_threshold() {
        let xbar = Crossbar::new(CrossbarConfig::default(), identity4()).unwrap();
        let mut rng = DeviceRng::seed_from_u64(0);
        // Identity weights, +1 inputs: every column sums to
        // 1·1 + 3·(−1) = −2 → current −2·I1(4) ≈ −61 µA, far below zero.
        let input = vec![Bit::One; 4];
        for _ in 0..50 {
            let out = xbar.compute(&input, &mut rng).unwrap();
            assert_eq!(out, vec![Bit::Zero; 4]);
        }
    }

    #[test]
    fn stochastic_at_zero_sum() {
        // 2 rows, weights (+1, −1) in one column: input (+1, +1) sums to 0.
        let w = vec![bits(&[1]), bits(&[-1])];
        let xbar = Crossbar::new(CrossbarConfig::default(), w).unwrap();
        let mut rng = DeviceRng::seed_from_u64(1);
        let input = vec![Bit::One; 2];
        let p = xbar.column_probability(0, &input).unwrap();
        assert!((p - 0.5).abs() < 1e-12);
        let ones = (0..2000)
            .filter(|_| xbar.compute(&input, &mut rng).unwrap()[0] == Bit::One)
            .count();
        assert!((800..1200).contains(&ones), "got {ones}/2000 ones");
    }

    #[test]
    fn bigger_crossbars_are_more_random_at_fixed_sum() {
        // Same latent sum (+1), growing rows: the attenuated unit current
        // shrinks toward the gray-zone, so P drifts from 1 toward 1/2 —
        // the "randomness in the value domain is intensified when the
        // crossbar size becomes larger" observation of Section 3.
        let cfg = CrossbarConfig::default();
        let mut prev_p = 1.0 + 1e-12;
        for rows in [5usize, 17, 65, 257] {
            // All-(+1) weights, (rows+1)/2 positive inputs → latent sum +1.
            let w = vec![bits(&[1]); rows];
            let xbar = Crossbar::new(cfg, w).unwrap();
            let mut input = vec![Bit::Zero; rows];
            for bit in input.iter_mut().take(rows.div_ceil(2)) {
                *bit = Bit::One;
            }
            assert_eq!(xbar.raw_sum(0, &input).unwrap(), 1, "rows {rows}");
            let p = xbar.column_probability(0, &input).unwrap();
            assert!(p > 0.5, "sum +1 keeps P above 1/2 (rows {rows})");
            assert!(p <= prev_p, "P should shrink with size (rows {rows})");
            prev_p = p;
        }
        assert!(
            prev_p < 0.999,
            "at 257 rows a ±1 sum must be visibly random, P = {prev_p}"
        );
    }

    #[test]
    fn threshold_shifts_decision() {
        let w = vec![bits(&[1]); 4];
        let mut xbar = Crossbar::new(CrossbarConfig::default(), w).unwrap();
        let input = vec![Bit::One; 4]; // sum +4 → strongly '1'
        assert_eq!(xbar.compute_ideal(&input).unwrap(), vec![Bit::One]);
        // Threshold above the column current flips the ideal decision.
        let i = xbar.column_current_ua(0, &input).unwrap();
        xbar.set_thresholds_ua(vec![i + 10.0]).unwrap();
        assert_eq!(xbar.compute_ideal(&input).unwrap(), vec![Bit::Zero]);
    }

    #[test]
    fn observe_length_and_bias() {
        let w = vec![bits(&[1]); 4];
        let xbar = Crossbar::new(CrossbarConfig::default(), w).unwrap();
        let mut rng = DeviceRng::seed_from_u64(3);
        let input = vec![Bit::One; 4];
        let streams = xbar.observe(&input, 32, &mut rng).unwrap();
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].len(), 32);
        // Sum +4 at 4 rows: current ≈ 122 µA, fully saturated ones.
        assert!(streams[0].iter().all(|&b| b == Bit::One));
    }

    #[test]
    fn shape_errors() {
        assert_eq!(
            Crossbar::new(CrossbarConfig::default(), vec![]).unwrap_err(),
            CrossbarError::EmptyWeights
        );
        let ragged = vec![bits(&[1, 1]), bits(&[1])];
        assert!(matches!(
            Crossbar::new(CrossbarConfig::default(), ragged).unwrap_err(),
            CrossbarError::RaggedWeights { row: 1, .. }
        ));
        let xbar = Crossbar::new(CrossbarConfig::default(), identity4()).unwrap();
        assert!(matches!(
            xbar.raw_sum(0, &[Bit::One]).unwrap_err(),
            CrossbarError::WrongInputLen {
                expected: 4,
                got: 1
            }
        ));
        let mut xbar = xbar;
        assert!(matches!(
            xbar.set_thresholds_ua(vec![0.0]).unwrap_err(),
            CrossbarError::WrongThresholdLen {
                expected: 4,
                got: 1
            }
        ));
    }

    #[test]
    fn reprogramming_changes_outputs() {
        let mut xbar = Crossbar::new(CrossbarConfig::default(), identity4()).unwrap();
        let input = vec![Bit::One; 4];
        let before = xbar.raw_sum(0, &input).unwrap();
        let all_ones = vec![vec![Bit::One; 4]; 4];
        xbar.program(&all_ones).unwrap();
        let after = xbar.raw_sum(0, &input).unwrap();
        assert_ne!(before, after);
        assert_eq!(after, 4);
    }
}
