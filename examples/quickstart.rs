//! Quickstart: train a small randomized-aware BNN, deploy it onto simulated
//! AQFP crossbars, and compare software vs hardware-faithful accuracy.
//!
//! Run with: `cargo run --release --example quickstart`

use bnn_datasets::{digits::generate_digits, SynthConfig};
use superbnn::config::HardwareConfig;
use superbnn::deploy::deploy;
use superbnn::energy;
use superbnn::spec::NetSpec;
use superbnn::trainer::{TrainConfig, Trainer};

fn main() {
    // 1. Data: the synthetic MNIST stand-in (see "Modelling substitutions"
    //    in ARCHITECTURE.md).
    let data = generate_digits(&SynthConfig {
        samples_per_class: 60,
        ..Default::default()
    });
    let (train, test) = data.split(0.25);
    println!(
        "SynthDigits: {} train / {} test samples",
        train.len(),
        test.len()
    );

    // 2. Hardware configuration: the co-optimized accuracy-first point
    //    (8×8 crossbars whose gray-zone covers typical partial sums; see
    //    the config_search example for how this point is found).
    let hw = HardwareConfig {
        crossbar_rows: 8,
        crossbar_cols: 8,
        grayzone_ua: 8.0,
        bitstream_len: 32,
        ..HardwareConfig::default()
    };
    println!(
        "Hardware: {}x{} crossbars, ΔIin = {} µA, L = {}, I1(Cs) = {:.2} µA",
        hw.crossbar_rows,
        hw.crossbar_cols,
        hw.grayzone_ua,
        hw.bitstream_len,
        hw.i1_ua()
    );

    // 3. Randomized-aware training (Eq. 7 forward, Eq. 10 backward).
    let spec = NetSpec::mlp(&[1, 16, 16], &[64, 32], 10);
    let mut model = spec.build_software(&hw, 42);
    let trainer = Trainer::new(TrainConfig {
        epochs: 20,
        lr: 0.02,
        noise_warmup_epochs: 13,
        ..Default::default()
    });
    let history = trainer.train(&mut model, &train);
    for h in history.iter().step_by(5) {
        println!(
            "  epoch {:>2}: loss {:.3}, train acc {:.1}%",
            h.epoch,
            h.loss,
            100.0 * h.train_accuracy
        );
    }
    let sw_acc = trainer.evaluate(&mut model, &test);

    // 4. Deployment: BN matching (Eq. 16), weight tiling, SC accumulation.
    let deployed = deploy(&spec, &model, &hw).expect("model was built from this spec");
    let stats = deployed.stats(&hw);
    println!(
        "Deployed onto {} crossbars ({} JJ in the synapse arrays)",
        stats.crossbars, stats.crossbar_jj
    );

    // 5. Hardware-faithful evaluation.
    let hw_acc = deployed.accuracy(&test, 1, Some(200));
    println!("Software accuracy:          {:.1}%", 100.0 * sw_acc);
    println!("Hardware-faithful accuracy: {:.1}%", 100.0 * hw_acc);

    // 6. Energy estimate (the Table 2/3 "Ours" methodology).
    let report = energy::estimate(&spec, &hw);
    println!(
        "Energy: {:.1} aJ/inference, {:.3e} mW, {:.2e} TOPS/W ({:.2e} with 4.2 K cooling), {:.1} images/ms",
        report.energy_per_inference_aj,
        report.power_mw,
        report.tops_per_watt,
        report.tops_per_watt_cooled,
        report.images_per_ms
    );
}
