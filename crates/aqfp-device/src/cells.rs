//! The minimalist AQFP standard-cell library.
//!
//! Section 2.2/6.1 of the paper: the AQFP cell library is built from buffers
//! following the minimalist design of Takeuchi et al. — an inverter is a
//! buffer with a negated output transformer coupling, AND/OR are 3-input
//! majority gates with a constant input, and splitters fan a signal out.
//! Every gate occupies one clock phase (one "stage").
//!
//! JJ counts per cell are documented assumptions ("Modelling substitutions"
//! in `ARCHITECTURE.md`) consistent
//! with the minimalist library: a buffer/inverter is a 2-junction SQUID;
//! a majority (and hence AND/OR) is three input buffers merged into one
//! output buffer minus shared bias, counted as 6 JJs; a 1-to-2 splitter is
//! two output buffers on a shared input loop, 4 JJs; the read-out interface
//! (DC-SQUID + driver) is 4 JJs.

use serde::{Deserialize, Serialize};

/// Kinds of gates available in the AQFP standard-cell library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateKind {
    /// 1-input buffer; also the path-balancing insertion element and the
    /// 1-bit memory primitive.
    Buffer,
    /// 1-input inverter (buffer with inverted coupling).
    Inverter,
    /// 2-input AND (majority with a constant −1 input).
    And,
    /// 2-input OR (majority with a constant +1 input).
    Or,
    /// 3-input majority gate — the native AQFP logic primitive.
    Majority,
    /// 1-to-2 splitter for fan-out.
    Splitter,
    /// Read-out interface converting QFP current to voltage levels.
    Readout,
}

impl GateKind {
    /// All gate kinds, for iteration in tests and reports.
    pub const ALL: [GateKind; 7] = [
        GateKind::Buffer,
        GateKind::Inverter,
        GateKind::And,
        GateKind::Or,
        GateKind::Majority,
        GateKind::Splitter,
        GateKind::Readout,
    ];

    /// Number of logical inputs the gate consumes.
    pub fn arity(self) -> usize {
        match self {
            GateKind::Buffer | GateKind::Inverter | GateKind::Splitter | GateKind::Readout => 1,
            GateKind::And | GateKind::Or => 2,
            GateKind::Majority => 3,
        }
    }

    /// Number of outputs the gate drives.
    pub fn fanout(self) -> usize {
        match self {
            GateKind::Splitter => 2,
            _ => 1,
        }
    }
}

/// Per-gate cost/latency data for one fabrication process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellCost {
    /// Josephson junctions in the cell.
    pub jj_count: u32,
    /// Clock stages occupied (always 1 in the minimalist library).
    pub stages: u32,
}

/// The AQFP standard-cell library with its cost model.
///
/// Energy is charged per JJ per clock cycle ([`crate::consts::ENERGY_PER_JJ_AJ`]),
/// matching the exact fit of the paper's Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellLibrary {
    /// Energy per JJ per clock cycle, in aJ.
    pub energy_per_jj_aj: f64,
    /// Stage-to-stage delay, in ps.
    pub stage_delay_ps: f64,
}

impl CellLibrary {
    /// The AIST 4-layer 10 kA/cm² HSTP process used by the paper.
    pub fn hstp() -> Self {
        Self {
            energy_per_jj_aj: crate::consts::ENERGY_PER_JJ_AJ,
            stage_delay_ps: crate::consts::STAGE_DELAY_PS,
        }
    }

    /// Cost entry for a gate kind.
    pub fn cost(&self, kind: GateKind) -> CellCost {
        let jj_count = match kind {
            GateKind::Buffer | GateKind::Inverter => 2,
            GateKind::Splitter => 4,
            GateKind::And | GateKind::Or | GateKind::Majority => 6,
            GateKind::Readout => 4,
        };
        CellCost {
            jj_count,
            stages: 1,
        }
    }

    /// Energy dissipated by one gate over one clock cycle, in aJ.
    pub fn gate_energy_aj(&self, kind: GateKind) -> f64 {
        self.cost(kind).jj_count as f64 * self.energy_per_jj_aj
    }

    /// Latency of a pipeline of `stages` logic stages, in ps.
    pub fn pipeline_latency_ps(&self, stages: u32) -> f64 {
        stages as f64 * self.stage_delay_ps
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        Self::hstp()
    }
}

/// Functional evaluation of a gate on boolean inputs.
///
/// Returns the gate's single logical output (a splitter copies its input;
/// the duplication is topological, handled by the netlist layer).
///
/// # Panics
/// Panics if `inputs.len() != kind.arity()`.
pub fn eval_gate(kind: GateKind, inputs: &[bool]) -> bool {
    assert_eq!(
        inputs.len(),
        kind.arity(),
        "gate {kind:?} expects {} inputs, got {}",
        kind.arity(),
        inputs.len()
    );
    match kind {
        GateKind::Buffer | GateKind::Splitter | GateKind::Readout => inputs[0],
        GateKind::Inverter => !inputs[0],
        GateKind::And => inputs[0] && inputs[1],
        GateKind::Or => inputs[0] || inputs[1],
        GateKind::Majority => {
            let ones = inputs.iter().filter(|&&b| b).count();
            ones >= 2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jj_counts_follow_minimalist_library() {
        let lib = CellLibrary::hstp();
        assert_eq!(lib.cost(GateKind::Buffer).jj_count, 2);
        assert_eq!(lib.cost(GateKind::Inverter).jj_count, 2);
        assert_eq!(lib.cost(GateKind::Majority).jj_count, 6);
        assert_eq!(lib.cost(GateKind::And).jj_count, 6);
        assert_eq!(lib.cost(GateKind::Splitter).jj_count, 4);
    }

    #[test]
    fn every_gate_is_single_stage() {
        let lib = CellLibrary::hstp();
        for kind in GateKind::ALL {
            assert_eq!(lib.cost(kind).stages, 1, "{kind:?}");
        }
    }

    #[test]
    fn gate_energy_scales_with_jj() {
        let lib = CellLibrary::hstp();
        assert!((lib.gate_energy_aj(GateKind::Buffer) - 0.01).abs() < 1e-12);
        assert!((lib.gate_energy_aj(GateKind::Majority) - 0.03).abs() < 1e-12);
    }

    #[test]
    fn pipeline_latency_matches_stage_delay() {
        let lib = CellLibrary::hstp();
        // Table 1's 4×4 crossbar: 4 stages → 60 ps? No: 15n ps with n=4 is
        // 60 ps, i.e. 1.2 stages of 50 ps... latency accounting for the
        // crossbar lives in aqfp-crossbar; here we just check linearity.
        assert_eq!(lib.pipeline_latency_ps(4), 200.0);
        assert_eq!(lib.pipeline_latency_ps(0), 0.0);
    }

    #[test]
    fn majority_truth_table() {
        let cases = [
            ([false, false, false], false),
            ([true, false, false], false),
            ([true, true, false], true),
            ([true, true, true], true),
        ];
        for (inp, want) in cases {
            assert_eq!(eval_gate(GateKind::Majority, &inp), want, "{inp:?}");
        }
    }

    #[test]
    fn and_or_from_majority_identities() {
        // AND(a,b) = MAJ(a,b,0); OR(a,b) = MAJ(a,b,1).
        for a in [false, true] {
            for b in [false, true] {
                assert_eq!(
                    eval_gate(GateKind::And, &[a, b]),
                    eval_gate(GateKind::Majority, &[a, b, false])
                );
                assert_eq!(
                    eval_gate(GateKind::Or, &[a, b]),
                    eval_gate(GateKind::Majority, &[a, b, true])
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn wrong_arity_panics() {
        eval_gate(GateKind::And, &[true]);
    }
}
