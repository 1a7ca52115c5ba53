//! Software ↔ hardware equivalence in the deterministic regime.
//!
//! With a vanishing gray-zone, fan-in that fits one crossbar (no tiling
//! loss) and any bit-stream length, the deployed pipeline must reproduce
//! the software model's decisions bit-for-bit: the crossbar computes the
//! same XNOR-accumulate, BN matching reproduces the BN+HardTanh+sign
//! decision, OR/AND pooling equals max-pooling, and the popcount classifier
//! equals the binary linear head.

use aqfp_device::SeedableRng;
use aqfp_sc::CounterStream;
use bnn_datasets::{digits::generate_digits, objects::generate_objects, Dataset, SynthConfig};
use bnn_nn::layers::Mode;
use bnn_nn::{NnRng, Sequential};
use superbnn::config::HardwareConfig;
use superbnn::deploy::{deploy, BitMap, DeployedModel, TiledMatrix};
use superbnn::equiv::{DieChecker, Engine, ModelChecker};
use superbnn::spec::NetSpec;
use superbnn::trainer::{TrainConfig, Trainer};

/// Near-deterministic hardware with single-tile layers for the MLP below.
fn exact_hw() -> HardwareConfig {
    HardwareConfig {
        crossbar_rows: 256, // fits the whole 16×16 input fan-in
        crossbar_cols: 64,
        grayzone_ua: 1e-9,
        bitstream_len: 1,
        ..Default::default()
    }
}

fn software_predictions(model: &mut Sequential, images: &bnn_nn::Tensor, n: usize) -> Vec<usize> {
    let mut rng = NnRng::seed_from_u64(0);
    let mut out = Vec::new();
    for i in 0..n {
        let per: usize = images.shape()[1..].iter().product();
        let x = bnn_nn::Tensor::from_vec(
            &[1, images.shape()[1], images.shape()[2], images.shape()[3]],
            images.data()[i * per..(i + 1) * per].to_vec(),
        );
        let logits = model.forward(&x, Mode::Eval, &mut rng);
        out.push(logits.argmax_rows()[0]);
    }
    out
}

#[test]
fn deterministic_single_tile_mlp_matches_software_exactly() {
    let data = generate_digits(&SynthConfig {
        samples_per_class: 6,
        ..Default::default()
    });
    let hw = exact_hw();
    let spec = NetSpec::mlp(&[1, 16, 16], &[48], 10);
    let mut model = spec.build_software_with(bnn_nn::Binarizer::Deterministic, 21);
    // Brief training so BN stats and thresholds are non-trivial.
    Trainer::new(TrainConfig {
        epochs: 4,
        lr: 0.02,
        ..Default::default()
    })
    .train(&mut model, &data);

    let deployed = deploy(&spec, &model, &hw).expect("deploys");
    let sw = software_predictions(&mut model, &data.images, data.len());
    let root = CounterStream::from_seed(3);
    let mut disagreements = 0usize;
    for (i, &want) in sw.iter().enumerate() {
        let (got, _) = deployed.classify(&data.images, i, &root.derive(i as u64));
        if got != want {
            disagreements += 1;
        }
    }
    // Exact ties at thresholds are measure-zero but can occur with f32
    // arithmetic; allow at most one.
    assert!(
        disagreements <= 1,
        "{disagreements}/{} hardware decisions diverge from software",
        sw.len()
    );
}

#[test]
fn classifier_head_is_bit_exact() {
    // The popcount classifier must equal the software binary linear layer on
    // every ±1 input, independent of noise settings (it is digital).
    let hw = exact_hw();
    let spec = NetSpec::mlp(&[1, 2, 2], &[], 3); // classifier directly on input
    let mut model = spec.build_software_with(bnn_nn::Binarizer::Deterministic, 5);
    let deployed = deploy(&spec, &model, &hw).expect("deploys");

    let stream = CounterStream::from_seed(0);
    for pattern in 0..16u32 {
        let pixels: Vec<f32> = (0..4)
            .map(|i| if (pattern >> i) & 1 == 1 { 0.7 } else { -0.7 })
            .collect();
        let images = bnn_nn::Tensor::from_vec(&[1, 1, 2, 2], pixels);
        let mut nrng = NnRng::seed_from_u64(0);
        let logits = model.forward(&images, Mode::Eval, &mut nrng);
        let want = logits.argmax_rows()[0];
        let (got, scores) = deployed.classify(&images, 0, &stream);
        // Scores must match the logits exactly (same α/bias affine).
        for (s, l) in scores.iter().zip(logits.data()) {
            assert!((s - l).abs() < 1e-4, "score {s} vs logit {l}");
        }
        assert_eq!(got, want, "pattern {pattern:04b}");
    }
}

/// The four-engine equivalence lattice, **exhaustively**: on a
/// single-tile die with 12-bit fan-in, every one of the 4096 input
/// patterns is evaluated on all six engine pairs — scalar digital,
/// packed digital, wide-word SIMD, and the stochastic engine in its
/// digital limit must be the same function, full stop.
#[test]
fn four_engine_lattice_is_exhaustive_on_a_single_tile_die() {
    let hw = HardwareConfig {
        crossbar_rows: 16, // one row tile for the 12-bit fan-in
        crossbar_cols: 8,
        ..Default::default()
    };
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    let (fan_in, out) = (12usize, 7usize);
    let signs: Vec<f32> = (0..fan_in * out)
        .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
        .collect();
    let vth: Vec<f64> = (0..out).map(|_| rng.gen_range(-4.0..4.0)).collect();
    let flips: Vec<bool> = (0..out).map(|_| rng.gen()).collect();
    let checker = DieChecker::new(&TiledMatrix::new(&signs, fan_in, out, vth, flips, &hw));
    let proofs = checker
        .prove_exhaustive_lattice()
        .unwrap_or_else(|ce| panic!("equivalence broken: {ce}"));
    assert_eq!(proofs.len(), 6, "all six engine pairs proven");
    for proof in &proofs {
        assert_eq!(proof.cases, 1 << fan_in);
        assert_eq!(proof.mode, "exhaustive");
    }
}

/// Model-level equivalence over the first `n` samples of `data`: the
/// checker walks the pipeline cell by cell on every engine pair, and
/// every engine's walk equals the scalar digital engine's own end-to-end
/// classification.
fn assert_model_lattice(deployed: &DeployedModel, data: &Dataset, n: usize, what: &str) {
    let checker = ModelChecker::new(deployed);
    let planes: Vec<_> = (0..n)
        .map(|i| BitMap::from_tensor_sample(&data.images, i).to_plane())
        .collect();
    for pair in Engine::pairs() {
        let proof = checker
            .check_planes(pair, &planes)
            .unwrap_or_else(|ce| panic!("{what}: equivalence broken: {ce}"));
        assert_eq!(proof.cases, n);
    }
    for (i, plane) in planes.iter().enumerate() {
        let want = deployed.classify_digital(&data.images, i);
        for engine in Engine::ALL {
            assert_eq!(
                checker.classify(engine, plane),
                want,
                "{what}: {engine:?} sample {i}"
            );
        }
    }
}

#[test]
fn trained_model_agrees_across_all_engine_pairs() {
    let data = generate_digits(&SynthConfig {
        samples_per_class: 3,
        ..Default::default()
    });
    let hw = HardwareConfig {
        crossbar_rows: 32,
        crossbar_cols: 16,
        ..Default::default()
    };
    let spec = NetSpec::mlp(&[1, 16, 16], &[24], 10);
    let mut model = spec.build_software(&hw, 13);
    Trainer::new(TrainConfig {
        epochs: 1,
        ..Default::default()
    })
    .train(&mut model, &data);
    let deployed = deploy(&spec, &model, &hw).expect("deploys");
    assert_model_lattice(&deployed, &data, 8, "MLP");
}

/// The same lattice on a conv pipeline, so the checker's conv, pool and
/// stochastic-limit arms and the wide-word (`V256`) conv kernel are
/// reached too: crossbars of 32×16, 8×8 (SWAR lane tiles) and 12×12
/// (ragged tiles).
#[test]
fn trained_vgg_agrees_across_all_engine_pairs() {
    let data = generate_objects(&SynthConfig {
        samples_per_class: 2,
        ..Default::default()
    });
    let spec = NetSpec::vgg_small([3, 16, 16], 4, 10);
    for (rows, cols) in [(32, 16), (8, 8), (12, 12)] {
        let hw = HardwareConfig {
            crossbar_rows: rows,
            crossbar_cols: cols,
            ..Default::default()
        };
        let mut model = spec.build_software(&hw, 17);
        Trainer::new(TrainConfig {
            epochs: 1,
            ..Default::default()
        })
        .train(&mut model, &data);
        let deployed = deploy(&spec, &model, &hw).expect("deploys");
        assert_model_lattice(&deployed, &data, 6, &format!("VGG {rows}×{cols}"));
    }
}

#[test]
fn bn_matching_reproduces_folded_decisions_across_seeds() {
    // Train tiny models from several seeds; the deployed first-cell
    // thresholds must make the same decisions as the float BN pipeline on
    // the latent sums (checked through full-network agreement).
    for seed in [1u64, 2, 3] {
        let data = generate_digits(&SynthConfig {
            samples_per_class: 4,
            seed,
            ..Default::default()
        });
        let hw = exact_hw();
        let spec = NetSpec::mlp(&[1, 16, 16], &[32], 10);
        let mut model = spec.build_software_with(bnn_nn::Binarizer::Deterministic, seed);
        Trainer::new(TrainConfig {
            epochs: 3,
            lr: 0.05,
            ..Default::default()
        })
        .train(&mut model, &data);
        let deployed = deploy(&spec, &model, &hw).expect("deploys");
        let sw = software_predictions(&mut model, &data.images, data.len());
        let root = CounterStream::from_seed(9);
        let agree = sw
            .iter()
            .enumerate()
            .filter(|(i, &want)| {
                deployed
                    .classify(&data.images, *i, &root.derive(*i as u64))
                    .0
                    == want
            })
            .count();
        assert!(
            agree as f64 >= 0.95 * sw.len() as f64,
            "seed {seed}: only {agree}/{} agree",
            sw.len()
        );
    }
}
