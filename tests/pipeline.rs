//! End-to-end integration: train → BN-match → tile → deploy → infer, with
//! the claims that define a working reproduction.

use aqfp_device::VariationModel;
use aqfp_sc::{BitPlane, CounterStream};
use bnn_datasets::{digits::generate_digits, objects::generate_objects, Dataset, SynthConfig};
use superbnn::config::HardwareConfig;
use superbnn::deploy::{deploy, BitMap, DeployedModel};
use superbnn::energy;
use superbnn::spec::NetSpec;
use superbnn::trainer::{TrainConfig, Trainer};

fn train_cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        lr: 0.02,
        noise_warmup_epochs: epochs * 2 / 3,
        ..Default::default()
    }
}

/// The co-optimized accuracy-first operating point used across tests.
fn good_hw() -> HardwareConfig {
    HardwareConfig {
        crossbar_rows: 8,
        crossbar_cols: 8,
        grayzone_ua: 8.0,
        bitstream_len: 32,
        ..Default::default()
    }
}

/// Top-1 accuracies of `deployed` over the first `n` samples of `data`,
/// one per eval seed, on the packed stochastic engine. It draws the same
/// counter-stream windows as the scalar `DeployedModel::accuracy(data,
/// seed, Some(n))`, so each figure is the scalar one, at a fraction of
/// its cost.
fn stochastic_accuracies(
    deployed: &DeployedModel,
    data: &Dataset,
    n: usize,
    seeds: impl IntoIterator<Item = u64>,
) -> Vec<f64> {
    let packed = deployed.to_packed();
    let tables = packed.stochastic_tables(&VariationModel::nominal());
    let planes: Vec<BitPlane> = (0..n)
        .map(|i| BitMap::from_tensor_sample(&data.images, i).to_plane())
        .collect();
    seeds
        .into_iter()
        .map(|seed| {
            packed.accuracy_stochastic_planes_ctr(&tables, &planes, &data.labels[..n], seed)
        })
        .collect()
}

#[test]
fn vgg_learns_and_deploys_close_to_software() {
    let data = generate_objects(&SynthConfig {
        samples_per_class: 60,
        ..Default::default()
    });
    let (train, test) = data.split(0.25);
    let hw = good_hw();
    let spec = NetSpec::vgg_small([3, 16, 16], 8, 10);
    let mut model = spec.build_software(&hw, 42);
    let trainer = Trainer::new(train_cfg(20));
    trainer.train(&mut model, &train);
    let software = trainer.evaluate(&mut model, &test);
    assert!(software > 0.6, "software accuracy too low: {software}");

    let deployed = deploy(&spec, &model, &hw).expect("deploys");
    let hardware = stochastic_accuracies(&deployed, &test, 80, [1])[0];
    assert!(hardware > 0.5, "deployed accuracy too low: {hardware}");
    // At the co-optimized point the deployment gap is bounded. (This
    // integration test trains for a fraction of tablegen's budget.)
    assert!(
        hardware > software - 0.3,
        "deployment gap too large: {software} -> {hardware}"
    );
}

#[test]
fn mlp_learns_digits() {
    let data = generate_digits(&SynthConfig {
        samples_per_class: 40,
        ..Default::default()
    });
    let (train, test) = data.split(0.25);
    let hw = good_hw();
    let spec = NetSpec::mlp(&[1, 16, 16], &[128, 64], 10);
    let mut model = spec.build_software(&hw, 42);
    let trainer = Trainer::new(train_cfg(18));
    trainer.train(&mut model, &train);
    let software = trainer.evaluate(&mut model, &test);
    assert!(software > 0.5, "MLP software accuracy too low: {software}");
}

#[test]
fn longer_bitstreams_do_not_hurt() {
    // The Fig. 10 direction: accuracy at L = 32 must beat L = 1 clearly.
    let data = generate_objects(&SynthConfig {
        samples_per_class: 40,
        ..Default::default()
    });
    let (train, test) = data.split(0.25);
    let hw = good_hw();
    let spec = NetSpec::vgg_small([3, 16, 16], 8, 10);
    let mut model = spec.build_software(&hw, 42);
    Trainer::new(train_cfg(18)).train(&mut model, &train);

    // Average over eval seeds: at L = 1 a single stochastic read-out pass is
    // extremely noisy, and the claim under test is about the means.
    let acc_at = |len: usize| {
        let hw_l = HardwareConfig {
            bitstream_len: len,
            ..hw
        };
        let deployed = deploy(&spec, &model, &hw_l).expect("deploys");
        stochastic_accuracies(&deployed, &test, test.len(), 2..5)
            .into_iter()
            .sum::<f64>()
            / 3.0
    };
    let short = acc_at(1);
    let long = acc_at(32);
    assert!(
        long > short + 0.05,
        "L=32 ({long}) should clearly beat L=1 ({short})"
    );
}

#[test]
fn energy_dominates_every_published_baseline() {
    // The Table 2/3 headline: orders of magnitude over all baselines.
    let spec = NetSpec::vgg_small([3, 16, 16], 8, 10);
    let report = energy::estimate(&spec, &HardwareConfig::default());
    for b in baselines::published::cifar10_baselines() {
        assert!(
            report.tops_per_watt > 50.0 * b.tops_per_watt,
            "ours {} vs {} {}",
            report.tops_per_watt,
            b.name,
            b.tops_per_watt
        );
    }
    let mlp = NetSpec::mlp(&[1, 16, 16], &[128, 64], 10);
    let report = energy::estimate(&mlp, &HardwareConfig::default());
    for b in baselines::published::mnist_baselines() {
        assert!(
            report.tops_per_watt > 10.0 * b.tops_per_watt,
            "ours {} vs {} {}",
            report.tops_per_watt,
            b.name,
            b.tops_per_watt
        );
    }
}

#[test]
fn end_to_end_digits_run_is_deterministic() {
    // The workspace-wiring check: one full train → deploy → accuracy run on
    // synthetic digits, repeated from identical seeds, must agree bit-for-bit
    // across every layer (dataset synthesis, training RNG, device RNG).
    let run = || {
        let data = generate_digits(&SynthConfig {
            samples_per_class: 12,
            ..Default::default()
        });
        let (train, test) = data.split(0.25);
        let hw = good_hw();
        let spec = NetSpec::mlp(&[1, 16, 16], &[32], 10);
        let mut model = spec.build_software(&hw, 7);
        let trainer = Trainer::new(train_cfg(3));
        trainer.train(&mut model, &train);
        let software = trainer.evaluate(&mut model, &test);
        let deployed = deploy(&spec, &model, &hw).expect("deploys");
        let hardware = deployed.accuracy(&test, 11, None);
        (software, hardware)
    };
    let (sw_a, hw_a) = run();
    let (sw_b, hw_b) = run();
    assert_eq!(sw_a.to_bits(), sw_b.to_bits(), "software accuracy diverged");
    assert_eq!(hw_a.to_bits(), hw_b.to_bits(), "deployed accuracy diverged");
    assert!((0.0..=1.0).contains(&hw_a));
}

#[test]
fn deployment_is_deterministic_given_seed() {
    let data = generate_digits(&SynthConfig {
        samples_per_class: 3,
        ..Default::default()
    });
    let hw = good_hw();
    let spec = NetSpec::mlp(&[1, 16, 16], &[32], 10);
    let model = spec.build_software(&hw, 9);
    let deployed = deploy(&spec, &model, &hw).unwrap();
    let (a, sa) = deployed.classify(&data.images, 0, &CounterStream::from_seed(5));
    let (b, sb) = deployed.classify(&data.images, 0, &CounterStream::from_seed(5));
    assert_eq!(a, b);
    assert_eq!(sa, sb);
}
