//! Fault injection through the packed deploy engine: stuck-at faults must
//! never panic on boundary words (ragged fan-in, ragged tiles), and a
//! zero-fault injection must be a perfect no-op.

use aqfp_crossbar::faults::FaultModel;
use aqfp_device::{DeviceRng, SeedableRng};
use bnn_datasets::{digits::generate_digits, SynthConfig};
use superbnn::config::HardwareConfig;
use superbnn::deploy::deploy;
use superbnn::spec::NetSpec;

/// Deliberately awkward geometry: 7-row crossbars never divide the
/// 256-wide input, the 33-wide hidden layer is ragged against both the
/// tile size and the 64-bit word size, and 5 columns split channels
/// unevenly.
fn ragged_hw() -> HardwareConfig {
    HardwareConfig {
        crossbar_rows: 7,
        crossbar_cols: 5,
        ..Default::default()
    }
}

fn digits_model() -> superbnn::deploy::DeployedModel {
    let hw = ragged_hw();
    let spec = NetSpec::mlp(&[1, 16, 16], &[33], 10);
    let model = spec.build_software(&hw, 11);
    deploy(&spec, &model, &hw).expect("deploys")
}

#[test]
fn saturating_fault_rates_never_panic_on_boundary_words() {
    // 100% dead columns and heavy stuck cells: every tile is affected,
    // including the ragged last row tile and the partial final word. The
    // packed engine must still run and agree with the scalar reference.
    let mut deployed = digits_model();
    let mut rng = DeviceRng::seed_from_u64(3);
    let defects = deployed.inject_faults(&FaultModel::new(0.5, 1.0).unwrap(), &mut rng);
    assert!(defects > 0);
    let packed = deployed.to_packed();
    let data = generate_digits(&SynthConfig {
        samples_per_class: 1,
        ..Default::default()
    });
    let batch = packed.classify_batch(&data.images, None);
    for (i, got) in batch.iter().enumerate() {
        let want = deployed.classify_digital(&data.images, i);
        assert_eq!(*got, want, "sample {i}");
        assert!(got.1.iter().all(|s| s.is_finite()));
    }
}

#[test]
fn moderate_fault_rates_stay_bit_exact() {
    let mut deployed = digits_model();
    let mut rng = DeviceRng::seed_from_u64(9);
    deployed.inject_faults(&FaultModel::new(0.05, 0.02).unwrap(), &mut rng);
    let packed = deployed.to_packed();
    let data = generate_digits(&SynthConfig {
        samples_per_class: 2,
        ..Default::default()
    });
    for (i, got) in packed.classify_batch(&data.images, None).iter().enumerate() {
        assert_eq!(
            *got,
            deployed.classify_digital(&data.images, i),
            "sample {i}"
        );
    }
}

#[test]
fn packed_injection_on_ragged_geometry_matches_scalar() {
    // Inject directly into the lowered pipeline (the robustness engine's
    // per-trial path) on the same deliberately awkward geometry: stuck
    // cells land on boundary words of ragged tiles, dead columns on the
    // uneven last column group. Same seed on either engine ⇒ same defects,
    // bit-identical predictions.
    let data = generate_digits(&SynthConfig {
        samples_per_class: 2,
        ..Default::default()
    });
    for (stuck, dead) in [(0.3, 0.0), (0.0, 1.0), (0.15, 0.25)] {
        let fm = FaultModel::new(stuck, dead).unwrap();
        let mut scalar = digits_model();
        let mut packed = digits_model().to_packed();
        let a = scalar.inject_faults(&fm, &mut DeviceRng::seed_from_u64(17));
        let b = packed.inject_faults(&fm, &mut DeviceRng::seed_from_u64(17));
        assert_eq!(a, b, "defect counts at rates ({stuck}, {dead})");
        for (i, got) in packed.classify_batch(&data.images, None).iter().enumerate() {
            assert_eq!(
                *got,
                scalar.classify_digital(&data.images, i),
                "rates ({stuck}, {dead}), sample {i}"
            );
        }
    }
}

#[test]
fn zero_fault_injection_is_a_noop() {
    // Injecting from a pristine model must draw zero defects and leave
    // the packed engine's predictions (and hence accuracy) unchanged.
    let clean = digits_model();
    let mut faulted = digits_model();
    let mut rng = DeviceRng::seed_from_u64(4);
    let defects = faulted.inject_faults(&FaultModel::pristine(), &mut rng);
    assert_eq!(defects, 0);

    let data = generate_digits(&SynthConfig {
        samples_per_class: 3,
        ..Default::default()
    });
    let packed_clean = clean.to_packed();
    let packed_faulted = faulted.to_packed();
    assert_eq!(
        packed_clean.classify_batch(&data.images, None),
        packed_faulted.classify_batch(&data.images, None)
    );
    assert_eq!(
        packed_clean.accuracy(&data, None),
        packed_faulted.accuracy(&data, None)
    );
}
