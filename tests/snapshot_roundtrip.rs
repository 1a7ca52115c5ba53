//! Snapshot cold-start regression: a [`PackedModel`] written to the
//! versioned binary snapshot format and read back must be **bit-identical**
//! to the model that was saved — same labels, same exact logit bit
//! patterns — on the same committed golden fixture that pins the deploy
//! engines (`tests/golden_deploy.rs`), including after fault injection
//! (which exercises the derived-state rebuild: tile spans and SWAR
//! comparator tables are *not* persisted) and on the conv pipeline.
//! Corrupt files must fail with typed [`SnapshotError`]s, never panic.

use aqfp_crossbar::faults::FaultModel;
use aqfp_device::{DeviceRng, SeedableRng};
use bnn_datasets::{digits::generate_digits, SynthConfig};
use superbnn::config::HardwareConfig;
use superbnn::deploy::{
    deploy, DeployedModel, PackedModel, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use superbnn::spec::NetSpec;
use superbnn::trainer::{TrainConfig, Trainer};

const GOLDEN_SAMPLES: usize = 6;

/// The committed deploy fixture (`tests/golden_deploy.rs`): expected
/// top-1 labels of samples `0..6` of [`golden_pipeline`].
const GOLDEN_LABELS: [usize; GOLDEN_SAMPLES] = [4, 4, 4, 6, 6, 6];

/// Expected logits as `f32::to_bits` patterns (exact, no epsilon).
#[rustfmt::skip]
const GOLDEN_SCORE_BITS: [[u32; 10]; GOLDEN_SAMPLES] = [
    [0xbfa7f48e, 0xbf9864b8, 0x3f3adce3, 0x3ed7fa09, 0x3feac08d, 0x3fcb83d3, 0x3b6a0586, 0xbeae87e0, 0xbeb1ad6d, 0xbf2a2756],
    [0xbfa7f48e, 0xbf9864b8, 0x3f3adce3, 0x3ed7fa09, 0x3feac08d, 0x3fcb83d3, 0x3b6a0586, 0xbeae87e0, 0xbeb1ad6d, 0xbf2a2756],
    [0xbfd1f4ff, 0xbf4b5592, 0x3eb8d584, 0x3f5a2618, 0x3fbbce6c, 0x3f22d590, 0x3ed74acc, 0xbf2f0a23, 0xbf327400, 0xbf802d2c],
    [0xbfd1f4ff, 0xbf4b5592, 0x3eb8d584, 0x3f5a2618, 0x3fbbce6c, 0x3fa2d0cf, 0x4005a4ba, 0x3b0243c0, 0xbf327400, 0xbf802d2c],
    [0xc027fb29, 0xbf9864b8, 0x3f3adce3, 0x3ed7fa09, 0x3f8cdc4b, 0x3ea2df13, 0x3fd5ebc4, 0xbeae87e0, 0xbfdfa5ef, 0xbf2a2756],
    [0xbf7be83a, 0xbfcb1ea8, 0x3f8ca782, 0x3f5a2618, 0x3f3bd453, 0x3f22d590, 0x3fa08e14, 0xbf2f0a23, 0x3b4692f2, 0xbfd6602c],
];

/// The exact pipeline behind the committed fixture: synthetic digits,
/// the co-optimized 8×8 / L=32 operating point, a briefly trained MLP.
fn golden_pipeline() -> (DeployedModel, bnn_datasets::Dataset) {
    let data = generate_digits(&SynthConfig {
        samples_per_class: 12,
        ..Default::default()
    });
    let hw = HardwareConfig {
        crossbar_rows: 8,
        crossbar_cols: 8,
        grayzone_ua: 8.0,
        bitstream_len: 32,
        ..Default::default()
    };
    let spec = NetSpec::mlp(&[1, 16, 16], &[32], 10);
    let mut model = spec.build_software(&hw, 7);
    Trainer::new(TrainConfig {
        epochs: 3,
        lr: 0.02,
        noise_warmup_epochs: 2,
        ..Default::default()
    })
    .train(&mut model, &data);
    let deployed = deploy(&spec, &model, &hw).expect("deploys");
    (deployed, data)
}

/// The conv fixture pipeline: a seeded (untrained) VGG-small, 32×16
/// crossbars — conv, mixed OR/AND pool, flatten, classifier.
fn golden_conv_pipeline() -> (DeployedModel, bnn_datasets::Dataset) {
    let data = generate_digits(&SynthConfig {
        samples_per_class: 1,
        ..Default::default()
    });
    let hw = HardwareConfig {
        crossbar_rows: 32,
        crossbar_cols: 16,
        ..Default::default()
    };
    let spec = NetSpec::vgg_small([1, 16, 16], 4, 10);
    let model = spec.build_software(&hw, 11);
    let deployed = deploy(&spec, &model, &hw).expect("deploys");
    (deployed, data)
}

fn snapshot_bytes(model: &PackedModel) -> Vec<u8> {
    let mut bytes = Vec::new();
    model.write_snapshot(&mut bytes).expect("snapshot encodes");
    bytes
}

fn roundtrip(model: &PackedModel) -> PackedModel {
    let bytes = snapshot_bytes(model);
    PackedModel::read_snapshot(&mut bytes.as_slice()).expect("snapshot decodes")
}

/// Every sample of `data` must classify bit-identically on both models.
fn assert_bit_identical(a: &PackedModel, b: &PackedModel, data: &bnn_datasets::Dataset) {
    let batch_a = a.classify_batch(&data.images, None);
    let batch_b = b.classify_batch(&data.images, None);
    for i in 0..data.len() {
        let (la, sa) = &batch_a[i];
        let (lb, sb) = &batch_b[i];
        assert_eq!(la, lb, "label divergence at sample {i}");
        let bits_a: Vec<u32> = sa.iter().map(|s| s.to_bits()).collect();
        let bits_b: Vec<u32> = sb.iter().map(|s| s.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "logit bit divergence at sample {i}");
    }
}

/// Cold start from a file: the loaded model must reproduce the
/// *committed* golden fixture exactly — labels and logit bit patterns —
/// without ever having seen the training pipeline.
#[test]
fn cold_started_model_reproduces_the_committed_fixture() {
    let (deployed, data) = golden_pipeline();
    let packed = deployed.to_packed();

    let path = std::env::temp_dir().join(format!(
        "superbnn_snapshot_roundtrip_{}.sbnn",
        std::process::id()
    ));
    packed.save_snapshot(&path).expect("snapshot saves");
    let loaded = PackedModel::load_snapshot(&path).expect("snapshot loads");
    std::fs::remove_file(&path).ok();

    let batch = loaded.classify_batch(&data.images, Some(GOLDEN_LABELS.len()));
    for (i, &want_label) in GOLDEN_LABELS.iter().enumerate() {
        let (label, scores) = batch[i].clone();
        assert_eq!(label, want_label, "cold-started label, sample {i}");
        for c in 0..10 {
            assert_eq!(
                scores[c].to_bits(),
                GOLDEN_SCORE_BITS[i][c],
                "cold-started logit, sample {i} class {c} ({})",
                scores[c]
            );
        }
    }
    // And the full dataset, against the in-memory original.
    assert_bit_identical(&packed, &loaded, &data);
}

/// Snapshots store only primitive state; the SWAR comparator tables and
/// tile spans are rebuilt on load. A fault-injection campaign mutates
/// exactly the state that feeds that rebuild (weight planes, dead-column
/// overrides folded into SWAR biases), so a faulted model is the
/// sharpest test that the rebuild rule matches the mutated tables.
#[test]
fn faulted_model_roundtrip_rebuilds_derived_state_exactly() {
    let (deployed, data) = golden_pipeline();
    let mut packed = deployed.to_packed();
    let mut rng = DeviceRng::seed_from_u64(9);
    let defects = packed.inject_faults(
        &FaultModel::new(0.05, 0.02).expect("valid fault model"),
        &mut rng,
    );
    assert!(defects > 0, "fault campaign drew no defects");
    let loaded = roundtrip(&packed);
    assert_bit_identical(&packed, &loaded, &data);
}

/// The conv pipeline exercises every stage tag of the wire format:
/// conv matrices with their geometry, pool flag vectors, flatten,
/// linear, classifier.
#[test]
fn conv_pipeline_roundtrip_is_bit_identical() {
    let (deployed, data) = golden_conv_pipeline();
    let packed = deployed.to_packed();
    let loaded = roundtrip(&packed);
    assert_bit_identical(&packed, &loaded, &data);
}

/// The encoder is deterministic: same model, same bytes.
#[test]
fn snapshot_encoding_is_deterministic() {
    let (deployed, _) = golden_conv_pipeline();
    let packed = deployed.to_packed();
    assert_eq!(snapshot_bytes(&packed), snapshot_bytes(&packed));
}

/// Corrupt files must come back as typed errors, never panics.
#[test]
fn corrupt_snapshots_error_cleanly() {
    let (deployed, _) = golden_pipeline();
    let packed = deployed.to_packed();
    let bytes = snapshot_bytes(&packed);

    // Foreign magic.
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        PackedModel::read_snapshot(&mut bad_magic.as_slice()),
        Err(SnapshotError::BadMagic)
    ));

    // Future version.
    let mut bad_version = bytes.clone();
    bad_version[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        PackedModel::read_snapshot(&mut bad_version.as_slice()),
        Err(SnapshotError::UnsupportedVersion(99))
    ));

    // Truncated at every coarse prefix length: typed error, no panic.
    for frac in 1..8 {
        let cut = bytes.len() * frac / 8;
        let err =
            PackedModel::read_snapshot(&mut &bytes[..cut]).expect_err("truncated snapshot decoded");
        assert!(
            matches!(err, SnapshotError::Io(_) | SnapshotError::Corrupt(_)),
            "unexpected truncation error at {cut} bytes: {err}"
        );
    }

    // A zeroed input shape violates a structural invariant.
    let mut bad_shape = bytes.clone();
    bad_shape[12..20].copy_from_slice(&0u64.to_le_bytes());
    assert!(matches!(
        PackedModel::read_snapshot(&mut bad_shape.as_slice()),
        Err(SnapshotError::Corrupt(_))
    ));

    // Trailing bytes are rejected by the file loader.
    let path = std::env::temp_dir().join(format!(
        "superbnn_snapshot_trailing_{}.sbnn",
        std::process::id()
    ));
    let mut padded = bytes.clone();
    padded.push(0);
    std::fs::write(&path, &padded).expect("write padded snapshot");
    let err = PackedModel::load_snapshot(&path).expect_err("padded file loaded");
    std::fs::remove_file(&path).ok();
    assert!(matches!(err, SnapshotError::Corrupt(_)), "got: {err}");
}

/// A 52-byte header whose input shape `[2²⁸, 2²⁸, 2²⁸]` overflows the
/// element count decodes to a typed error, not an overflow panic.
#[test]
fn overflowing_input_shape_is_corrupt() {
    let mut bytes = SNAPSHOT_MAGIC.to_vec();
    bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    for _ in 0..3 {
        bytes.extend_from_slice(&(1u64 << 28).to_le_bytes());
    }
    bytes.resize(52, 0);
    assert!(matches!(
        PackedModel::read_snapshot(&mut bytes.as_slice()),
        Err(SnapshotError::Corrupt(_))
    ));
}

/// A VGG snapshot whose header is patched to input `[1024, 1, 1]` and a
/// first conv with 1024 input channels and a 2²⁸ kernel passes every
/// per-field cap, but its fan-in `in_c·k·k` overflows: it must decode to
/// a typed error, not an overflow panic (nor a wrapped product that
/// happens to mismatch).
#[test]
fn overflowing_conv_fan_in_is_corrupt() {
    let hw = HardwareConfig {
        crossbar_rows: 8,
        crossbar_cols: 8,
        ..Default::default()
    };
    let spec = NetSpec::vgg_small([3, 8, 8], 2, 10);
    let model = spec.build_software(&hw, 5);
    let packed = deploy(&spec, &model, &hw).expect("deploys").to_packed();
    let mut bytes = snapshot_bytes(&packed);
    // Header: magic (8) + version (4), the [C, H, W] input shape at 12,
    // the stage count at 36, then the first stage's tag at 40 and its
    // conv geometry (in_c, k, stride, pad) from 41.
    assert_eq!(bytes[40], 0, "first stage is a conv");
    for (at, value) in [(12, 1024u64), (20, 1), (28, 1), (41, 1024), (49, 1 << 28)] {
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    }
    assert!(matches!(
        PackedModel::read_snapshot(&mut bytes.as_slice()),
        Err(SnapshotError::Corrupt(_))
    ));
}
