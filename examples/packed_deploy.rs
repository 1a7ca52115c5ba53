//! The batched bit-packed deploy engine on the digits MLP: train briefly,
//! deploy, verify bit-exactness against the scalar digital reference, and
//! compare eval throughput.
//!
//! Run with: `cargo run --release --example packed_deploy`

use bnn_datasets::{digits::generate_digits, SynthConfig};
use std::time::Instant;
use superbnn::config::HardwareConfig;
use superbnn::deploy::deploy;
use superbnn::spec::NetSpec;
use superbnn::trainer::{TrainConfig, Trainer};

fn main() {
    // A lightly tiled operating point: with 32-row crossbars the 256-wide
    // input spans 8 row tiles, so the deterministic engine's per-tile
    // saturation costs little accuracy (heavier tiling shifts accuracy
    // recovery onto the stochastic SC datapath — see the paper's Fig. 10).
    let hw = HardwareConfig {
        crossbar_rows: 32,
        crossbar_cols: 16,
        ..Default::default()
    };
    let data = generate_digits(&SynthConfig {
        samples_per_class: 30,
        ..Default::default()
    });
    let (train, test) = data.split(0.25);
    let spec = NetSpec::mlp(&[1, 16, 16], &[128, 64], 10);
    let mut model = spec.build_software(&hw, 42);
    println!("training the digits MLP (256-128-64-10)...");
    Trainer::new(TrainConfig {
        epochs: 15,
        lr: 0.02,
        noise_warmup_epochs: 10,
        ..Default::default()
    })
    .train(&mut model, &train);

    let software = Trainer::new(TrainConfig::default()).evaluate(&mut model, &test);
    let deployed = deploy(&spec, &model, &hw).expect("deploys");
    let packed = deployed.to_packed();
    let n = test.len();

    // Bit-exactness: every packed prediction equals the scalar digital one.
    let batch = packed.classify_batch(&test.images, None);
    let mut agree = 0usize;
    for (i, got) in batch.iter().enumerate() {
        if *got == deployed.classify_digital(&test.images, i) {
            agree += 1;
        }
    }
    println!("bit-identical predictions: {agree}/{n}");
    assert_eq!(agree, n, "packed and scalar digital engines diverged");

    let start = Instant::now();
    let acc_scalar = deployed.accuracy_digital(&test, None);
    let t_scalar = start.elapsed();
    let start = Instant::now();
    let acc_packed = packed.accuracy(&test, None);
    let t_packed = start.elapsed();
    println!(
        "scalar digital engine: accuracy {:.1}% in {:.1} ms",
        100.0 * acc_scalar,
        t_scalar.as_secs_f64() * 1e3
    );
    println!(
        "packed engine        : accuracy {:.1}% in {:.1} ms  ({:.1}x faster)",
        100.0 * acc_packed,
        t_packed.as_secs_f64() * 1e3,
        t_scalar.as_secs_f64() / t_packed.as_secs_f64()
    );
    assert_eq!(acc_scalar, acc_packed);

    // Context: the software model and the full stochastic datapath. The
    // digital engines are the deterministic (gray-zone -> 0) limit, so a
    // gap against the stochastic engine is the accuracy the SC read-out
    // noise recovers from tile saturation.
    let start = Instant::now();
    let acc_sto = deployed.accuracy(&test, 1, None);
    let t_sto = start.elapsed();
    println!("software model       : accuracy {:.1}%", 100.0 * software);
    println!(
        "stochastic engine    : accuracy {:.1}% in {:.1} ms",
        100.0 * acc_sto,
        t_sto.as_secs_f64() * 1e3
    );
}
