//! Stochastic-engine throughput: the scalar SC-datapath reference vs the
//! packed stochastic engine, at identical semantics (the same flips).
//!
//! Run with `cargo bench -p superbnn-bench --bench stochastic_throughput`.
//! Both engines simulate the *full* stochastic datapath — gray-zone
//! comparator flips, `L`-cycle observation windows, APC accumulation —
//! and draw every observation window from the same keyed counter-stream
//! coordinates, so the same seed produces the same labels and scores on
//! either engine (asserted on every sample before timing; also enforced
//! by the differential proptests in `tests/props.rs`). The packed engine
//! gets its speed from popcounted tile sums, precomputed
//! flip-probability tables and batched window counts instead of
//! per-element loops, erf evaluations and `Vec<Bit>` streams.
//!
//! Besides printing the measurements it writes the machine-readable
//! baseline to `BENCH_stochastic.json` at the workspace root (override
//! with the `STOCHASTIC_BENCH_OUT` env var).

use aqfp_device::VariationModel;
use aqfp_sc::{BitPlane, CounterStream};
use bnn_datasets::{digits, objects, SynthConfig};
use std::fmt::Write as _;
use std::time::Instant;
use superbnn::config::HardwareConfig;
use superbnn::deploy::{deploy, BitMap};
use superbnn::spec::NetSpec;
use superbnn::trainer::{TrainConfig, Trainer};

struct Workload {
    tag: &'static str,
    label: &'static str,
    spec: NetSpec,
    data: bnn_datasets::Dataset,
    /// Samples per timed pass (the scalar engine is slow; keep it fair
    /// but finite).
    timed_samples: usize,
}

/// Times `run` (which processes `samples` samples per call) until at
/// least ~0.5 s has elapsed and returns samples/second.
fn samples_per_second(samples: usize, mut run: impl FnMut(u64)) -> f64 {
    run(0); // warm-up
    let mut calls = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < 0.5 || calls == 0 {
        run(calls + 1);
        calls += 1;
    }
    (calls as usize * samples) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    // The deploy benches' co-optimized operating point: 8×8 crossbars
    // (heavy tiling), a wide 8 µA gray-zone so plenty of comparator
    // read-outs are genuinely stochastic, L = 32.
    let hw = HardwareConfig {
        crossbar_rows: 8,
        crossbar_cols: 8,
        grayzone_ua: 8.0,
        bitstream_len: 32,
        ..Default::default()
    };

    let digits_data = digits::generate_digits(&SynthConfig {
        samples_per_class: 12,
        ..Default::default()
    });
    let objects_data = objects::generate_objects(&SynthConfig {
        samples_per_class: 2,
        ..Default::default()
    });
    let workloads = [
        Workload {
            tag: "mlp_digits_256-128-64-10",
            label: "digits MLP 256-128-64-10",
            spec: NetSpec::mlp(&[1, 16, 16], &[128, 64], 10),
            data: digits_data,
            timed_samples: 40,
        },
        Workload {
            tag: "vgg_small_objects_w4",
            label: "objects VGG-Small (w=4)",
            spec: NetSpec::vgg_small([3, 16, 16], 4, 10),
            data: objects_data,
            timed_samples: 4,
        },
    ];

    let mut rows = String::new();
    for (wi, w) in workloads.iter().enumerate() {
        println!("\n=== {} ===", w.label);
        let mut model = w.spec.build_software(&hw, 42);
        Trainer::new(TrainConfig {
            epochs: 2,
            lr: 0.02,
            ..Default::default()
        })
        .train(&mut model, &w.data);
        let deployed = deploy(&w.spec, &model, &hw).expect("deploys");
        let packed = deployed.to_packed();
        let tables = packed.stochastic_tables(&VariationModel::nominal());

        // Identical semantics first: every sample, same stream, labels AND
        // scores. The packed engine takes planes, packed once up front.
        let n = w.data.len();
        let planes: Vec<BitPlane> = (0..n)
            .map(|i| BitMap::from_tensor_sample(&w.data.images, i).to_plane())
            .collect();
        let root = CounterStream::from_seed(7);
        for (i, plane) in planes.iter().enumerate() {
            let stream = root.derive(i as u64);
            let want = deployed.classify(&w.data.images, i, &stream);
            let got = packed.classify_stochastic_plane_ctr(&tables, plane, &stream);
            assert_eq!(
                got, want,
                "packed/scalar stochastic divergence at sample {i}"
            );
        }
        println!("scalar == packed flips: ok ({n} samples, identical labels and scores)");

        let timed = w.timed_samples.min(n);
        let scalar = samples_per_second(timed, |pass| {
            std::hint::black_box(deployed.accuracy(&w.data, pass, Some(timed)));
        });
        let packed_sps = samples_per_second(timed, |pass| {
            std::hint::black_box(packed.accuracy_stochastic_planes_ctr(
                &tables,
                &planes[..timed],
                &w.data.labels[..timed],
                pass,
            ));
        });
        let speedup = packed_sps / scalar;
        println!("scalar stochastic engine : {scalar:>10.1} samples/s");
        println!(
            "packed stochastic engine : {packed_sps:>10.1} samples/s  ({speedup:.1}x, 1 thread)"
        );
        if wi == 0 && speedup < 4.0 {
            println!("WARNING: packed stochastic speedup below the 4x target");
        }

        let sep = if wi + 1 < workloads.len() { "," } else { "" };
        let _ = write!(
            rows,
            "\n    {{\n      \"model\": \"{}\",\n      \"crossbar\": \"{}x{}\",\n      \
             \"bitstream_len\": {},\n      \"grayzone_ua\": {},\n      \
             \"verified_samples\": {n},\n      \"timed_samples\": {timed},\n      \
             \"scalar_stochastic_samples_per_s\": {scalar:.1},\n      \
             \"packed_stochastic_samples_per_s\": {packed_sps:.1},\n      \
             \"speedup_packed_1thread\": {speedup:.2}\n    }}{sep}",
            w.tag, hw.crossbar_rows, hw.crossbar_cols, hw.bitstream_len, hw.grayzone_ua,
        );
    }

    // Both engines are timed single-threaded, a like-for-like comparison.
    let json = format!(
        "{{\n  {},\n  \"scalar_equals_packed\": true,\n  \
         \"workloads\": [{rows}\n  ]\n}}\n",
        superbnn_bench::baseline_header("stochastic_throughput", &[("measured_workers", 1)]),
    );
    superbnn_bench::write_baseline("STOCHASTIC_BENCH_OUT", "BENCH_stochastic.json", &json);
}
