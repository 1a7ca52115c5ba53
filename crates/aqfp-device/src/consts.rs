//! Physical constants and the paper's calibrated device parameters.
//!
//! All currents in this workspace are expressed in **micro-amperes (µA)**,
//! energies in **atto-joules (aJ)** and times in **pico-seconds (ps)** unless
//! a name says otherwise. These are the natural units of the paper's tables
//! (Table 1 reports aJ and ps directly).

/// Boltzmann constant in joules per kelvin.
pub const BOLTZMANN_J_PER_K: f64 = 1.380_649e-23;

/// Magnetic flux quantum `Φ0 = h / 2e` in webers.
pub const FLUX_QUANTUM_WB: f64 = 2.067_833_848e-15;

/// Operating temperature of the paper's liquid-helium testbed, in kelvin.
pub const OPERATING_TEMPERATURE_K: f64 = 4.2;

/// Liquid-nitrogen temperature used by the Cryo-CMOS comparison, in kelvin.
pub const LN2_TEMPERATURE_K: f64 = 77.0;

/// Input current amplitude that encodes the value `+1` / logic '1', in µA.
///
/// Section 4.2: "we use +70µA and −70µA to present value of +1 and −1".
pub const INPUT_CURRENT_UA: f64 = 70.0;

/// Default gray-zone width `ΔIin` of an AQFP buffer at 4.2 K, in µA.
///
/// The Fig. 10 experiments fix `ΔIin = 2.4 µA`; Fig. 4 shows the randomized
/// band reaching roughly ±2 µA, consistent with this width.
pub const DEFAULT_GRAYZONE_UA: f64 = 2.4;

/// Half-width of the visibly randomized switching band in Fig. 4, in µA.
pub const FIG4_RANDOM_BAND_UA: f64 = 2.0;

/// Energy dissipated per Josephson junction per clock cycle, in aJ.
///
/// Back-fitted exactly from Table 1 (e.g. 4×4 crossbar: 384 JJ, 1.92 aJ →
/// 5 zJ/JJ). All seven published rows reproduce to the printed precision.
pub const ENERGY_PER_JJ_AJ: f64 = 0.005;

/// Device-level energy per operation demonstrated for AQFP in 2019, in aJ
/// (1.4 zJ). Used for documentation-level sanity checks only.
pub const AQFP_DEVICE_ENERGY_AJ: f64 = 0.0014;

/// Stage-to-stage propagation delay of the 4-phase 5 GHz excitation, in ps.
pub const STAGE_DELAY_PS: f64 = 50.0;

/// Default excitation clock frequency, in GHz.
pub const CLOCK_FREQUENCY_GHZ: f64 = 5.0;

/// Delay-line clocking scheme stage delay, in ps (Section 6.1: "delaying the
/// sinusoidal current by 5 ps between each adjacent logic stage").
pub const DELAY_LINE_STAGE_PS: f64 = 5.0;

/// Cooling overhead for 4.2 K superconducting electronics.
///
/// Section 6.6: "The cooling cost for typical superconducting digital
/// circuits is about 400× the chip power dissipation".
pub const COOLING_OVERHEAD_4K: f64 = 400.0;

/// Cooling overhead for 77 K cryo-CMOS (Section 6.5: "approximately 9.65
/// times the device consumption").
pub const COOLING_OVERHEAD_77K: f64 = 9.65;

/// Efficiency gain of 77 K Cryo-CMOS over room-temperature CMOS
/// (Section 6.5: "about 1.5 times the energy efficiency").
pub const CRYO_CMOS_GAIN: f64 = 1.5;

/// Current-attenuation fit constant `A` (µA): output amplitude extrapolated
/// to a size-1 crossbar, equal to the drive amplitude.
pub const ATTENUATION_A_UA: f64 = 70.0;

/// Current-attenuation fit exponent `B` in `I1(Cs) = A · Cs^−B`.
///
/// The paper reports the fit form (Eq. 2) but not the constants. `B = 1.6`
/// is calibrated against three of the paper's qualitative anchors:
/// (a) "excessive current attenuation results in completely randomized
/// output" at the large end of Table 1's sizes — with `B = 1.6`,
/// `I1(144) ≈ 0.024 µA ≪ ΔIin`, i.e. fully random, while `B < 1` would
/// leave 144-row columns still deterministic; (b) the SC accumulation
/// design only helps if typical partial sums land *inside* the gray-zone
/// (otherwise the stochastic number degenerates to the partial sum's sign
/// and Fig. 10's strong bit-stream-length dependence cannot arise) — at the
/// default 16-row crossbar, `ΔVin(16) ≈ 3` matches the `√16 = 4` standard
/// deviation of a random ±1 partial sum; (c) the Fig. 11 accuracy cliff at
/// large crossbar sizes. See "Modelling substitutions" in `ARCHITECTURE.md`.
pub const ATTENUATION_B: f64 = 1.6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_are_self_consistent() {
        // 5 GHz clock period is 200 ps = 4 stages of 50 ps.
        let period_ps = 1000.0 / CLOCK_FREQUENCY_GHZ;
        assert!((period_ps - 4.0 * STAGE_DELAY_PS).abs() < 1e-9);
    }

    #[test]
    fn table1_energy_fit_is_exact() {
        // 4×4 crossbar has 384 JJs and dissipates 1.92 aJ per cycle.
        assert!((384.0 * ENERGY_PER_JJ_AJ - 1.92).abs() < 1e-12);
        // 144×144 crossbar: 255744 JJs → 1278.72 aJ.
        assert!((255_744.0 * ENERGY_PER_JJ_AJ - 1278.72).abs() < 1e-9);
    }

    #[test]
    fn attenuation_constants_match_drive() {
        assert_eq!(ATTENUATION_A_UA, INPUT_CURRENT_UA);
        // Guard against accidental sign/magnitude edits during recalibration.
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(ATTENUATION_B > 0.0 && ATTENUATION_B < 2.0);
        }
    }
}
