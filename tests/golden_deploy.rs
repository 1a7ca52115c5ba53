//! Golden-vector regression for the deploy path.
//!
//! The fixture below was produced by the *scalar digital* engine on a
//! deterministic digits pipeline (see [`golden_pipeline`]) and is
//! committed so future refactors of either engine are pinned to today's
//! bit-exact behavior: both the scalar and the packed engine must keep
//! reproducing these labels and exact logit bit patterns.
//!
//! To regenerate after an *intentional* semantic change, run
//! `GOLDEN_REGEN=1 cargo test --test golden_deploy -- --nocapture` and
//! paste the printed arrays.

use bnn_datasets::{digits::generate_digits, SynthConfig};
use superbnn::config::HardwareConfig;
use superbnn::deploy::{deploy, DeployedModel};
use superbnn::spec::NetSpec;
use superbnn::trainer::{TrainConfig, Trainer};

const GOLDEN_SAMPLES: usize = 6;

/// Expected top-1 labels of samples `0..6`.
const GOLDEN_LABELS: [usize; GOLDEN_SAMPLES] = [4, 4, 4, 6, 6, 6];

/// Expected logits of samples `0..6`, stored as `f32::to_bits` patterns
/// so the comparison is exact (no epsilon).
#[rustfmt::skip]
const GOLDEN_SCORE_BITS: [[u32; 10]; GOLDEN_SAMPLES] = [
    [0xbfa7f48e, 0xbf9864b8, 0x3f3adce3, 0x3ed7fa09, 0x3feac08d, 0x3fcb83d3, 0x3b6a0586, 0xbeae87e0, 0xbeb1ad6d, 0xbf2a2756],
    [0xbfa7f48e, 0xbf9864b8, 0x3f3adce3, 0x3ed7fa09, 0x3feac08d, 0x3fcb83d3, 0x3b6a0586, 0xbeae87e0, 0xbeb1ad6d, 0xbf2a2756],
    [0xbfd1f4ff, 0xbf4b5592, 0x3eb8d584, 0x3f5a2618, 0x3fbbce6c, 0x3f22d590, 0x3ed74acc, 0xbf2f0a23, 0xbf327400, 0xbf802d2c],
    [0xbfd1f4ff, 0xbf4b5592, 0x3eb8d584, 0x3f5a2618, 0x3fbbce6c, 0x3fa2d0cf, 0x4005a4ba, 0x3b0243c0, 0xbf327400, 0xbf802d2c],
    [0xc027fb29, 0xbf9864b8, 0x3f3adce3, 0x3ed7fa09, 0x3f8cdc4b, 0x3ea2df13, 0x3fd5ebc4, 0xbeae87e0, 0xbfdfa5ef, 0xbf2a2756],
    [0xbf7be83a, 0xbfcb1ea8, 0x3f8ca782, 0x3f5a2618, 0x3f3bd453, 0x3f22d590, 0x3fa08e14, 0xbf2f0a23, 0x3b4692f2, 0xbfd6602c],
];

/// The deterministic pipeline behind the fixture: synthetic digits, the
/// co-optimized 8×8 / L=32 operating point, a briefly trained MLP.
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

const GOLDEN_CONV_SAMPLES: usize = 4;

/// Expected top-1 labels of samples `0..4` of the conv pipeline.
const GOLDEN_CONV_LABELS: [usize; GOLDEN_CONV_SAMPLES] = [9, 9, 7, 0];

/// Expected logits of the conv pipeline, as `f32::to_bits` patterns.
#[rustfmt::skip]
const GOLDEN_CONV_SCORE_BITS: [[u32; 10]; GOLDEN_CONV_SAMPLES] = [
    [0x3f4c92bc, 0xc02f672e, 0xbe88b7e3, 0xc05d0a34, 0xbf938d02, 0xbf503b9f, 0xbead82bb, 0x3fb2ad91, 0xbf29e6d7, 0x3fc13944],
    [0x3f0861d3, 0xc069dee8, 0x00000000, 0xc07324d2, 0xbf5d5383, 0x00000000, 0x00000000, 0x3f86022d, 0xbf7eda42, 0x3f9a9436],
    [0x3f0861d3, 0xc069dee8, 0x3f08b7e3, 0xc046ef95, 0xbe938d02, 0xbf0ad26a, 0x00000000, 0x3f86022d, 0xbfd4608d, 0x3f1a9436],
    [0x3f8861d3, 0xc069dee8, 0x3f08b7e3, 0xc07324d2, 0xbe938d02, 0xbf0ad26a, 0x3f2d82bb, 0x3f86022d, 0xbfd4608d, 0x3f1a9436],
];

/// The deterministic conv pipeline behind the conv fixture: a seeded
/// (untrained — the fixture pins the *mapping*, not accuracy) VGG-small
/// on digits-shaped inputs, 32×16 crossbars. Exercises the full packed
/// pipeline: conv, mixed OR/AND pool, flatten, classifier.
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

#[test]
fn conv_pipeline_reproduces_the_committed_fixture() {
    let (deployed, data) = golden_conv_pipeline();
    let packed = deployed.to_packed();

    if std::env::var("GOLDEN_REGEN").is_ok() {
        let mut labels = Vec::new();
        let mut rows = Vec::new();
        for i in 0..GOLDEN_CONV_SAMPLES {
            let (label, scores) = deployed.classify_digital(&data.images, i);
            labels.push(label.to_string());
            let bits: Vec<String> = scores
                .iter()
                .map(|s| format!("0x{:08x}", s.to_bits()))
                .collect();
            rows.push(format!("    [{}],", bits.join(", ")));
        }
        println!(
            "const GOLDEN_CONV_LABELS: [usize; GOLDEN_CONV_SAMPLES] = [{}];",
            labels.join(", ")
        );
        println!("const GOLDEN_CONV_SCORE_BITS: [[u32; 10]; GOLDEN_CONV_SAMPLES] = [");
        for r in rows {
            println!("{r}");
        }
        println!("];");
        return;
    }

    let batch = packed.classify_batch(&data.images, Some(GOLDEN_CONV_SAMPLES));
    for i in 0..GOLDEN_CONV_SAMPLES {
        let (scalar_label, scalar_scores) = deployed.classify_digital(&data.images, i);
        let (packed_label, packed_scores) = batch[i].clone();
        assert_eq!(
            scalar_label, GOLDEN_CONV_LABELS[i],
            "scalar conv label, sample {i}"
        );
        assert_eq!(
            packed_label, GOLDEN_CONV_LABELS[i],
            "packed conv label, sample {i}"
        );
        for c in 0..10 {
            assert_eq!(
                scalar_scores[c].to_bits(),
                GOLDEN_CONV_SCORE_BITS[i][c],
                "scalar conv logit, sample {i} class {c} ({})",
                scalar_scores[c]
            );
            assert_eq!(
                packed_scores[c].to_bits(),
                GOLDEN_CONV_SCORE_BITS[i][c],
                "packed conv logit, sample {i} class {c} ({})",
                packed_scores[c]
            );
        }
    }
}

#[test]
fn both_engines_reproduce_the_committed_fixture() {
    let (deployed, data) = golden_pipeline();
    let packed = deployed.to_packed();

    if std::env::var("GOLDEN_REGEN").is_ok() {
        let mut labels = Vec::new();
        let mut rows = Vec::new();
        for i in 0..GOLDEN_SAMPLES {
            let (label, scores) = deployed.classify_digital(&data.images, i);
            labels.push(label.to_string());
            let bits: Vec<String> = scores
                .iter()
                .map(|s| format!("0x{:08x}", s.to_bits()))
                .collect();
            rows.push(format!("    [{}],", bits.join(", ")));
        }
        println!(
            "const GOLDEN_LABELS: [usize; GOLDEN_SAMPLES] = [{}];",
            labels.join(", ")
        );
        println!("const GOLDEN_SCORE_BITS: [[u32; 10]; GOLDEN_SAMPLES] = [");
        for r in rows {
            println!("{r}");
        }
        println!("];");
        return;
    }

    let batch = packed.classify_batch(&data.images, Some(GOLDEN_SAMPLES));
    for i in 0..GOLDEN_SAMPLES {
        let (scalar_label, scalar_scores) = deployed.classify_digital(&data.images, i);
        let (packed_label, packed_scores) = batch[i].clone();
        assert_eq!(scalar_label, GOLDEN_LABELS[i], "scalar label, sample {i}");
        assert_eq!(packed_label, GOLDEN_LABELS[i], "packed label, sample {i}");
        for c in 0..10 {
            assert_eq!(
                scalar_scores[c].to_bits(),
                GOLDEN_SCORE_BITS[i][c],
                "scalar logit, sample {i} class {c} ({})",
                scalar_scores[c]
            );
            assert_eq!(
                packed_scores[c].to_bits(),
                GOLDEN_SCORE_BITS[i][c],
                "packed logit, sample {i} class {c} ({})",
                packed_scores[c]
            );
        }
    }
}
