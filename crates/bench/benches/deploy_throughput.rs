//! Deploy-engine throughput: the scalar digital reference vs the batched
//! bit-packed XNOR–popcount engine on the digits MLP pipeline.
//!
//! Run with `cargo bench --bench deploy_throughput`. Besides printing the
//! measurements it verifies the two engines are bit-identical on every
//! sample and writes the machine-readable baseline to `BENCH_deploy.json`
//! at the workspace root (override with the `DEPLOY_BENCH_OUT` env var).

use aqfp_sc::CounterStream;
use bnn_datasets::{digits::generate_digits, SynthConfig};
use std::time::{Duration, Instant};
use superbnn::config::HardwareConfig;
use superbnn::deploy::deploy;
use superbnn::spec::NetSpec;
use superbnn::trainer::{TrainConfig, Trainer};

/// Times `run` (which processes `samples` samples per call) until at least
/// ~0.6 s has elapsed and returns samples/second.
fn samples_per_second(samples: usize, mut run: impl FnMut()) -> f64 {
    // One warm-up call, then timed calls.
    run();
    let mut calls = 0usize;
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(600) || calls == 0 {
        run();
        calls += 1;
    }
    (calls * samples) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    // The pipeline tests' co-optimized operating point: 8×8 crossbars
    // (heavy tiling: 32 row tiles for the 256-wide input), L = 32.
    let hw = HardwareConfig {
        crossbar_rows: 8,
        crossbar_cols: 8,
        grayzone_ua: 8.0,
        bitstream_len: 32,
        ..Default::default()
    };
    let data = generate_digits(&SynthConfig {
        samples_per_class: 40,
        ..Default::default()
    });
    let spec = NetSpec::mlp(&[1, 16, 16], &[128, 64], 10);
    let mut model = spec.build_software(&hw, 42);
    // A couple of epochs so BN statistics (and hence the programmed
    // thresholds) are non-trivial.
    Trainer::new(TrainConfig {
        epochs: 2,
        lr: 0.02,
        ..Default::default()
    })
    .train(&mut model, &data);
    let deployed = deploy(&spec, &model, &hw).expect("deploys");
    let packed = deployed.to_packed();
    // The batched measurement fans across this many workers; the
    // single-thread measurements pin one.
    let batch_workers = packed.workers();

    let n = data.len();
    println!("deploy_throughput: digits MLP 256-128-64-10, {n} samples, 8x8 crossbars");

    // Differential check first: the packed engine must be bit-identical
    // to the scalar digital reference on every sample.
    let batch = packed.classify_batch(&data.images, None);
    for (i, got) in batch.iter().enumerate() {
        let want = deployed.classify_digital(&data.images, i);
        assert_eq!(*got, want, "packed/scalar divergence at sample {i}");
    }
    println!("bit-identical predictions: ok ({n} samples)");

    let scalar = samples_per_second(n, || {
        for i in 0..n {
            std::hint::black_box(deployed.classify_digital(&data.images, i));
        }
    });
    let packed_1t = {
        let one = deployed
            .to_packed()
            .with_workers(1)
            .expect("one worker is always valid");
        samples_per_second(n, || {
            std::hint::black_box(one.classify_batch(&data.images, None));
        })
    };
    let packed_mt = samples_per_second(n, || {
        std::hint::black_box(packed.classify_batch(&data.images, None));
    });
    // The stochastic engine for context (it simulates SC noise, so it is
    // far slower; time a slice and extrapolate).
    let stochastic = {
        let root = CounterStream::from_seed(7);
        let slice = n.min(20);
        let start = Instant::now();
        for i in 0..slice {
            std::hint::black_box(deployed.classify(&data.images, i, &root.derive(i as u64)));
        }
        slice as f64 / start.elapsed().as_secs_f64()
    };

    let speedup_1t = packed_1t / scalar;
    let speedup_mt = packed_mt / scalar;
    println!("stochastic engine     : {stochastic:>12.1} samples/s");
    println!("scalar digital engine : {scalar:>12.1} samples/s");
    println!("packed engine (1 thr) : {packed_1t:>12.1} samples/s  ({speedup_1t:.1}x)");
    println!(
        "packed engine ({batch_workers} thr) : {packed_mt:>12.1} samples/s  ({speedup_mt:.1}x)"
    );
    if speedup_mt < 10.0 {
        println!("WARNING: packed speedup below the 10x target");
    }

    let json = format!(
        "{{\n  {},\n  \"model\": \"mlp_digits_256-128-64-10\",\n  \
         \"crossbar\": \"8x8\",\n  \"bitstream_len\": 32,\n  \"samples\": {n},\n  \
         \"bit_identical\": true,\n  \
         \"stochastic_samples_per_s\": {stochastic:.1},\n  \
         \"scalar_digital_samples_per_s\": {scalar:.1},\n  \
         \"packed_1thread_samples_per_s\": {packed_1t:.1},\n  \
         \"packed_batch_samples_per_s\": {packed_mt:.1},\n  \
         \"speedup_packed_1thread\": {speedup_1t:.2},\n  \
         \"speedup_packed_batch\": {speedup_mt:.2}\n}}\n",
        superbnn_bench::baseline_header(
            "deploy_throughput",
            &[
                ("measured_workers_1thread", 1),
                ("measured_workers_batch", batch_workers),
            ]
        ),
    );
    superbnn_bench::write_baseline("DEPLOY_BENCH_OUT", "BENCH_deploy.json", &json);
}
