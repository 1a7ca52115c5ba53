//! The packed layer pipeline on the CIFAR-class VGG: lower a deployed
//! VGG-small onto the bitplane substrate and verify bit-exactness against
//! the scalar digital reference. Per-stage timings of the packed
//! pipeline come from the `diebench` benchmark (`--trace 1`).
//!
//! Run with: `cargo run --release --example packed_vgg`

use bnn_datasets::{objects::generate_objects, SynthConfig};
use superbnn::config::HardwareConfig;
use superbnn::deploy::deploy;
use superbnn::spec::NetSpec;
use superbnn::trainer::{TrainConfig, Trainer};

fn main() {
    // CIFAR-shaped synthetic images: 3-channel SynthObjects textures.
    let hw = HardwareConfig {
        crossbar_rows: 32,
        crossbar_cols: 16,
        ..Default::default()
    };
    let data = generate_objects(&SynthConfig {
        samples_per_class: 8,
        ..Default::default()
    });
    let spec = NetSpec::vgg_small([3, 16, 16], 8, 10);
    let mut model = spec.build_software(&hw, 7);
    println!("training the objects VGG-small (8-16-32)...");
    Trainer::new(TrainConfig {
        epochs: 2,
        lr: 0.02,
        ..Default::default()
    })
    .train(&mut model, &data);

    let deployed = deploy(&spec, &model, &hw).expect("deploys");
    let packed = deployed.to_packed();
    let n = data.len();
    println!(
        "pipeline plan: {} stages ({})",
        packed.layers().len(),
        packed
            .layers()
            .iter()
            .map(superbnn::deploy::PackedLayer::name)
            .collect::<Vec<_>>()
            .join(" -> ")
    );

    // Bit-exactness: the packed pipeline must reproduce the scalar digital
    // engine on every sample.
    let batch = packed.classify_batch(&data.images, None);
    let mut agree = 0usize;
    for (i, got) in batch.iter().enumerate() {
        if *got == deployed.classify_digital(&data.images, i) {
            agree += 1;
        }
    }
    println!("bit-identical predictions: {agree}/{n}");
    assert_eq!(agree, n, "packed and scalar digital engines diverged");

    // The packed dataset entry point agrees with the scalar one too.
    let acc_scalar = deployed.accuracy_digital(&data, None);
    let acc_packed = packed.accuracy(&data, None);
    println!(
        "accuracy: scalar digital {:.1}%, packed pipeline {:.1}%",
        100.0 * acc_scalar,
        100.0 * acc_packed
    );
    assert_eq!(acc_scalar, acc_packed);
}
