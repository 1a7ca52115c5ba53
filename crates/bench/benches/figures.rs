//! Criterion benches, one group per paper artifact, timing the kernel that
//! regenerates it. The accuracy-bearing numbers live in `tablegen`; these
//! benches track the *cost* of each reproduction kernel and of the hot
//! datapaths (crossbar evaluation, APC, conv forward, deployed inference).

use aqfp_crossbar::array::{Crossbar, CrossbarConfig};
use aqfp_crossbar::attenuation::AttenuationModel;
use aqfp_crossbar::cost::table1;
use aqfp_device::{AqfpBuffer, Bit, BufferConfig, CellLibrary, DeviceRng, SeedableRng};
use aqfp_netlist::clocking::clocking_study;
use aqfp_netlist::random::{random_dag, RandomDagConfig};
use aqfp_sc::analysis::{average_mismatch_error, sc_decision_noise};
use aqfp_sc::{AccumulationModule, Apc, Bitstream};
use baselines::cryo::fig12_series;
use baselines::software::PopcountLinear;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

/// Fig. 4 kernel: the gray-zone law and Monte-Carlo sampling.
fn bench_fig4_buffer(c: &mut Criterion) {
    let buffer = AqfpBuffer::new(BufferConfig::default());
    let mut g = c.benchmark_group("fig4_buffer");
    g.bench_function("probability_one", |b| {
        b.iter(|| black_box(buffer.probability_one(black_box(1.3))))
    });
    g.bench_function("observe_32", |b| {
        let mut rng = DeviceRng::seed_from_u64(0);
        b.iter(|| black_box(buffer.observe(black_box(1.3), 32, &mut rng)))
    });
    g.finish();
}

/// Fig. 5 kernel: attenuation curve + power-law refit.
fn bench_fig5_attenuation(c: &mut Criterion) {
    let model = AttenuationModel::paper_fit();
    let sizes: Vec<usize> = (1..=144).collect();
    c.benchmark_group("fig5_attenuation")
        .bench_function("curve_and_refit", |b| {
            b.iter(|| {
                let curve = model.curve(black_box(&sizes));
                black_box(AttenuationModel::fit(&curve))
            })
        });
}

/// Table 1 kernel: the closed-form cost model.
fn bench_table1_cost(c: &mut Criterion) {
    c.benchmark_group("table1_cost")
        .bench_function("all_rows", |b| b.iter(|| black_box(table1())));
}

/// Section 4.4 kernel: fan-out legalization + balancing at 3 phase counts.
fn bench_clocking_study(c: &mut Criterion) {
    let cfg = RandomDagConfig {
        inputs: 32,
        gates: 400,
        ..Default::default()
    };
    let base = random_dag(&cfg, &mut rand::rngs::StdRng::seed_from_u64(7));
    let lib = CellLibrary::hstp();
    c.benchmark_group("section44_clocking")
        .sample_size(20)
        .bench_function("study_400_gates", |b| {
            b.iter(|| black_box(clocking_study(black_box(&base), &[4, 8, 16], &lib)))
        });
}

/// Fig. 10/11 hot kernel: one crossbar column observation + SC accumulation.
fn bench_crossbar_sc_datapath(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_crossbar_sc");
    for &rows in &[8usize, 16, 72] {
        let weights = vec![vec![Bit::One; 16]; rows];
        let xbar = Crossbar::new(CrossbarConfig::default(), weights).unwrap();
        let input: Vec<Bit> = (0..rows).map(|i| Bit::from_bool(i % 3 != 0)).collect();
        g.bench_function(format!("observe_{rows}x16_L16"), |b| {
            let mut rng = DeviceRng::seed_from_u64(1);
            b.iter(|| black_box(xbar.observe(black_box(&input), 16, &mut rng)))
        });
    }
    let acc = AccumulationModule::new(8, 16);
    g.bench_function("accumulate_8x16", |b| {
        let mut rng = DeviceRng::seed_from_u64(2);
        b.iter_batched(
            || {
                (0..8)
                    .map(|_| Bitstream::generate_unipolar(0.6, 16, &mut rng))
                    .collect::<Vec<_>>()
            },
            |streams| black_box(acc.binarize(&streams)),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// APC: functional vs gate-level popcount.
fn bench_apc(c: &mut Criterion) {
    let apc = Apc::new(16);
    let word: Vec<Bit> = (0..16).map(|i| Bit::from_bool(i % 2 == 0)).collect();
    let mut g = c.benchmark_group("apc");
    g.bench_function("functional_16", |b| b.iter(|| black_box(apc.count(&word))));
    let nl = apc.netlist();
    let bools: Vec<bool> = word.iter().map(|b| b.as_bool()).collect();
    g.bench_function("gate_level_16", |b| b.iter(|| black_box(nl.eval(&bools))));
    g.finish();
}

/// Section 5.4 kernel: the co-optimization objective.
fn bench_fig11_objective(c: &mut Criterion) {
    let law = aqfp_device::GrayZone::new(0.0, 3.0);
    let mut g = c.benchmark_group("fig11_objective");
    g.bench_function("ame", |b| {
        b.iter(|| black_box(average_mismatch_error(&law, 16, 0.0, 1.0)))
    });
    g.bench_function("sc_noise", |b| {
        b.iter(|| black_box(sc_decision_noise(&law, 16, 0.0, 1.0, 16)))
    });
    g.finish();
}

/// Fig. 12 kernel: the frequency series.
fn bench_fig12_series(c: &mut Criterion) {
    c.benchmark_group("fig12_series")
        .bench_function("seven_points", |b| {
            b.iter(|| {
                black_box(fig12_series(
                    &[0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0],
                    1.9e5,
                    617.0,
                ))
            })
        });
}

/// Table 2/3 hot kernels: software conv forward and deployed inference.
fn bench_inference(c: &mut Criterion) {
    use superbnn::config::HardwareConfig;
    use superbnn::deploy::deploy;
    use superbnn::spec::NetSpec;

    let mut g = c.benchmark_group("table2_inference");
    g.sample_size(10);

    let hw = HardwareConfig::default();
    let spec = NetSpec::vgg_small([3, 16, 16], 4, 10);
    let mut model = spec.build_software(&hw, 3);
    let images = bnn_nn::Tensor::zeros(&[1, 3, 16, 16]);
    let mut rng = bnn_nn::NnRng::seed_from_u64(0);
    g.bench_function("software_forward_vgg_w4", |b| {
        b.iter(|| {
            black_box(model.forward(black_box(&images), bnn_nn::layers::Mode::Eval, &mut rng))
        })
    });

    let deployed = deploy(&spec, &model, &hw).unwrap();
    let stream = aqfp_sc::CounterStream::from_seed(1);
    g.bench_function("deployed_classify_vgg_w4", |b| {
        b.iter(|| black_box(deployed.classify(black_box(&images), 0, &stream)))
    });
    g.finish();

    // Table 3's digital head: XNOR/popcount linear.
    let weights: Vec<f32> = (0..10 * 256)
        .map(|i| if (i * 31) % 7 < 3 { 1.0 } else { -1.0 })
        .collect();
    let layer = PopcountLinear::new(&weights, 256);
    let input: Vec<f32> = (0..256)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    c.benchmark_group("table3_popcount")
        .bench_function("linear_256_to_10", |b| {
            b.iter(|| black_box(layer.forward(black_box(&input))))
        });
}

/// Pure-SC baseline kernels: packed-stream ops and one SC classification.
fn bench_sc_baseline(c: &mut Criterion) {
    use aqfp_sc::packed::PackedStream;
    use baselines::sc_dnn::{DenseWeights, FloatMlp, PreparedScMlp, ScAccumulator};
    use rand::rngs::StdRng;
    use rand::Rng;

    let mut g = c.benchmark_group("scaqfp_baseline");
    let mut rng = StdRng::seed_from_u64(3);
    let a = PackedStream::generate_bipolar(0.3, 2048, &mut rng);
    let b = PackedStream::generate_bipolar(-0.4, 2048, &mut rng);
    g.bench_function("packed_xnor_ones_2048", |bch| {
        bch.iter(|| black_box(a.xnor_ones(black_box(&b))))
    });

    // A small trained-shape MLP (random weights suffice for timing).
    let layer0: Vec<f32> = (0..64 * 32).map(|_| rng.gen_range(-0.3..0.3)).collect();
    let layer1: Vec<f32> = (0..32 * 10).map(|_| rng.gen_range(-0.3..0.3)).collect();
    let mlp = FloatMlp::new(vec![
        DenseWeights::new(layer0, vec![0.0; 32], 64, 32),
        DenseWeights::new(layer1, vec![0.0; 10], 32, 10),
    ]);
    let prepared = PreparedScMlp::new(&mlp, 256, 5);
    let input: Vec<f32> = (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect();
    g.sample_size(20);
    g.bench_function("classify_apc_64_32_10_L256", |bch| {
        let mut r = StdRng::seed_from_u64(9);
        bch.iter(|| black_box(prepared.classify(black_box(&input), ScAccumulator::Apc, &mut r)))
    });
    g.bench_function("classify_mux_64_32_10_L256", |bch| {
        let mut r = StdRng::seed_from_u64(9);
        bch.iter(|| black_box(prepared.classify(black_box(&input), ScAccumulator::MuxTree, &mut r)))
    });
    g.finish();
}

/// Synthesis-pass kernel: optimizing the AOI adder benchmark.
fn bench_synth(c: &mut Criterion) {
    use aqfp_netlist::builders::ripple_adder_aoi;
    use aqfp_netlist::synth::optimize;
    let (nl, _, _, _) = ripple_adder_aoi(16);
    let lib = CellLibrary::hstp();
    c.benchmark_group("section7_synth")
        .bench_function("optimize_aoi_adder_16b", |b| {
            b.iter(|| black_box(optimize(black_box(&nl), &lib)))
        });
}

criterion_group!(
    benches,
    bench_fig4_buffer,
    bench_fig5_attenuation,
    bench_table1_cost,
    bench_clocking_study,
    bench_crossbar_sc_datapath,
    bench_apc,
    bench_fig11_objective,
    bench_fig12_series,
    bench_inference,
    bench_sc_baseline,
    bench_synth,
);
criterion_main!(benches);
