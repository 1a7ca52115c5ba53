//! Golden hashes of trained state.
//!
//! Training is the one stage no other fixture pins: `golden_deploy` trains
//! only an MLP and its conv fixture is untrained. This test trains two VGG
//! configurations end to end and pins three FNV-1a hashes for each:
//!
//! - every trained parameter (`visit_params` order, `f32::to_bits`);
//! - every BatchNorm running mean and variance;
//! - the `SBNNSNAP` bytes of the lowered die.
//!
//! The training kernels promise bit-identical results (see "Training
//! kernels" in `ARCHITECTURE.md`), so a change to a GEMM, im2col, BatchNorm
//! or the binarizer that moves one float bit fails here.
//!
//! To regenerate after an *intentional* semantic change, run
//! `GOLDEN_REGEN=1 cargo test --test training_golden -- --nocapture` and
//! paste the printed constants.

use bnn_nn::layers::BatchNorm;
use superbnn::config::HardwareConfig;
use superbnn::deploy::deploy;
use superbnn::experiments::{train_model, ExperimentScale};
use superbnn::spec::NetSpec;

/// The three hashes pinned per configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TrainedHashes {
    params: u64,
    bn_running: u64,
    snapshot: u64,
}

/// The `diebench` die: objects VGG-Small at the robustness operating
/// point (32×32 crossbars, 0.4 µA, L 16), 8 deterministic and 4
/// randomized epochs.
const DIE_GOLDEN: TrainedHashes = TrainedHashes {
    params: 0xb9765edc451bf142,
    bn_running: 0x57ebbdd4db6d2487,
    snapshot: 0x8155fcc31e0eec24,
};

/// A small VGG at a wide training gray zone (8×8 crossbars, 8 µA, L 32:
/// width 0.199), 2 deterministic epochs and 1 randomized epoch, so most
/// sampled activations fall inside the band where `GrayZone::sample`
/// draws.
const WIDE_GOLDEN: TrainedHashes = TrainedHashes {
    params: 0xa57e47741eaca378,
    bn_running: 0x620d43bdffa6f741,
    snapshot: 0x90ae86196c63a280,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn fnv1a_f32s(hash: &mut u64, values: &[f32]) {
    for v in values {
        fnv1a(hash, &v.to_bits().to_le_bytes());
    }
}

/// Trains `spec` at `scale` under `hw` on objects data, lowers the die
/// and hashes its trained state.
fn train_and_hash(spec: &NetSpec, hw: &HardwareConfig, scale: &ExperimentScale) -> TrainedHashes {
    let (train, _) = scale.objects_data();
    let (mut model, _) = train_model(spec, hw, scale, &train);

    let mut params = FNV_OFFSET;
    model.visit_params(&mut |p| fnv1a_f32s(&mut params, p.value.data()));

    let mut bn_running = FNV_OFFSET;
    let mut bn_layers = 0;
    for layer in model.layers() {
        if let Some(bn) = layer.as_any().downcast_ref::<BatchNorm>() {
            let folded = bn.folded_params();
            fnv1a_f32s(&mut bn_running, folded.mean);
            fnv1a_f32s(&mut bn_running, folded.var);
            bn_layers += 1;
        }
    }
    assert!(bn_layers > 0, "the VGG has BatchNorm layers to pin");

    let packed = deploy(spec, &model, hw)
        .expect("the spec matches its trained model")
        .to_packed();
    let mut bytes = Vec::new();
    packed
        .write_snapshot(&mut bytes)
        .expect("writing to a Vec cannot fail");
    let mut snapshot = FNV_OFFSET;
    fnv1a(&mut snapshot, &bytes);

    TrainedHashes {
        params,
        bn_running,
        snapshot,
    }
}

fn check(name: &str, got: TrainedHashes, want: TrainedHashes) {
    if std::env::var("GOLDEN_REGEN").is_ok() {
        println!(
            "const {name}: TrainedHashes = TrainedHashes {{\n    params: 0x{:016x},\n    \
             bn_running: 0x{:016x},\n    snapshot: 0x{:016x},\n}};",
            got.params, got.bn_running, got.snapshot
        );
        return;
    }
    assert_eq!(got, want, "{name}: trained state moved");
}

#[test]
fn diebench_die_trains_to_the_committed_hashes() {
    let scale = ExperimentScale {
        samples_per_class: 60,
        epochs: 12,
        eval_samples: 48,
        width: 8,
        mlp_hidden: [64, 32],
        seed: 7,
    };
    let hw = HardwareConfig {
        crossbar_rows: 32,
        crossbar_cols: 32,
        grayzone_ua: 0.4,
        bitstream_len: 16,
        ..Default::default()
    };
    let spec = NetSpec::vgg_small([3, 16, 16], scale.width, 10);
    check("DIE_GOLDEN", train_and_hash(&spec, &hw, &scale), DIE_GOLDEN);
}

#[test]
fn wide_grayzone_vgg_trains_to_the_committed_hashes() {
    let scale = ExperimentScale {
        samples_per_class: 20,
        epochs: 3,
        eval_samples: 20,
        width: 4,
        mlp_hidden: [64, 32],
        seed: 5,
    };
    let hw = HardwareConfig {
        crossbar_rows: 8,
        crossbar_cols: 8,
        grayzone_ua: 8.0,
        bitstream_len: 32,
        ..Default::default()
    };
    let width = match hw.training_binarizer() {
        bnn_nn::Binarizer::Randomized(law) => law.width,
        bnn_nn::Binarizer::Deterministic => unreachable!("training is randomized"),
    };
    assert!(width > 0.19, "the wide configuration has width {width}");
    let spec = NetSpec::vgg_small([3, 16, 16], scale.width, 10);
    check(
        "WIDE_GOLDEN",
        train_and_hash(&spec, &hw, &scale),
        WIDE_GOLDEN,
    );
}
