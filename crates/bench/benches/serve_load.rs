//! Serving-layer benchmark: snapshot cold-start plus latency SLOs under
//! closed- and open-loop load on the persistent worker pool.
//!
//! The pipeline mirrors a real serving box: train/deploy/lower once
//! (stand-in for the build farm), write the versioned binary snapshot,
//! **cold-start** the server by loading it back (asserted bit-identical
//! to the in-memory model on every sample), then measure:
//!
//! 1. **Saturation throughput** — a closed loop with `2 × workers`
//!    clients, each keeping one request in flight; its throughput is the
//!    pool's capacity.
//! 2. **Tail latency at 50% load** — an open loop offering half the
//!    measured saturation rate on a fixed schedule, reporting
//!    p50/p99/p99.9 measured from each request's *scheduled* time
//!    (coordinated-omission safe).
//!
//! Run with `cargo bench --bench serve_load`. Writes `BENCH_serve.json`
//! at the workspace root (override with the `SERVE_BENCH_OUT` env var).

use std::time::{Duration, Instant};

use bnn_datasets::{digits::generate_digits, SynthConfig};
use superbnn::config::HardwareConfig;
use superbnn::deploy::{deploy, BitMap, PackedModel};
use superbnn::spec::NetSpec;
use superbnn::trainer::{TrainConfig, Trainer};
use superbnn_serve::{closed_loop, open_loop, ServeConfig, Server};

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    // The deploy benches' workload: digits MLP 256-128-64-10 at the
    // co-optimized 8×8 / L=32 operating point, briefly trained.
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
    Trainer::new(TrainConfig {
        epochs: 2,
        lr: 0.02,
        ..Default::default()
    })
    .train(&mut model, &data);
    let deployed = deploy(&spec, &model, &hw).expect("deploys");
    let packed = deployed.to_packed();
    let n = data.len();
    println!("serve_load: digits MLP 256-128-64-10, {n} distinct inputs, 8x8 crossbars");

    // --- Snapshot cold start --------------------------------------------
    let path =
        std::env::temp_dir().join(format!("superbnn_serve_bench_{}.sbnn", std::process::id()));
    let t0 = Instant::now();
    packed.save_snapshot(&path).expect("snapshot saves");
    let save = t0.elapsed();
    let snapshot_bytes = std::fs::metadata(&path).expect("snapshot stat").len();
    let t0 = Instant::now();
    let loaded = PackedModel::load_snapshot(&path).expect("snapshot loads");
    let load = t0.elapsed();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        loaded.classify_batch(&data.images, None),
        packed.classify_batch(&data.images, None),
        "cold-started model diverged"
    );
    println!(
        "snapshot cold start: {snapshot_bytes} bytes, save {:.2} ms, load {:.2} ms, bit-identical ({n} samples)",
        save.as_secs_f64() * 1e3,
        load.as_secs_f64() * 1e3,
    );

    // --- The pool under test --------------------------------------------
    let machine_cpus = superbnn_bench::machine_cpus();
    let config = ServeConfig {
        workers: machine_cpus,
        replicas: machine_cpus,
        max_batch: 32,
        max_delay: Duration::from_micros(200),
        queue_capacity: 4096,
    };
    let planes: Vec<_> = (0..n)
        .map(|i| BitMap::from_tensor_sample(&data.images, i).to_plane())
        .collect();
    let server = Server::start(loaded, config).expect("server starts");

    // --- 1. Closed loop: saturation throughput --------------------------
    let clients = 2 * config.workers;
    let per_client = (4_000usize).div_ceil(clients);
    let closed = closed_loop(&server, &planes, clients, per_client);
    assert_eq!(closed.rejected, 0, "closed loop saw rejections");
    println!(
        "closed loop ({clients} clients, {} requests): {:.0} req/s saturation, p50 {:.1} us, p99 {:.1} us, p99.9 {:.1} us",
        closed.offered,
        closed.throughput_rps,
        micros(closed.p50()),
        micros(closed.p99()),
        micros(closed.p999()),
    );

    // --- 2. Open loop at ~50% of saturation: SLO tail latency -----------
    let rate = closed.throughput_rps * 0.5;
    let total = ((rate * 1.5) as usize).clamp(1_000, 20_000);
    let open = open_loop(&server, &planes, rate, total, config.workers + 1);
    println!(
        "open loop ({rate:.0} req/s offered, {total} requests): completed {}, dropped {}, p50 {:.1} us, p99 {:.1} us, p99.9 {:.1} us, max {:.1} us",
        open.completed,
        open.rejected,
        micros(open.p50()),
        micros(open.p99()),
        micros(open.p999()),
        micros(open.latency.max()),
    );

    let metrics = server.shutdown();
    assert_eq!(metrics.rejected, open.rejected, "rejection accounting");
    println!(
        "pool: {} batches, mean batch {:.2}, max batch {}, {} completed",
        metrics.batches, metrics.mean_batch, metrics.max_batch, metrics.completed,
    );

    let json = format!(
        "{{\n  {header},\n  \
         \"model\": \"mlp_digits_256-128-64-10\",\n  \"crossbar\": \"8x8\",\n  \
         \"replicas\": {replicas},\n  \
         \"max_batch\": {max_batch},\n  \"max_delay_us\": {max_delay:.0},\n  \
         \"queue_capacity\": {queue_capacity},\n  \
         \"snapshot_bytes\": {snapshot_bytes},\n  \
         \"snapshot_save_ms\": {save_ms:.3},\n  \"snapshot_load_ms\": {load_ms:.3},\n  \
         \"cold_start_bit_identical\": true,\n  \
         \"closed_loop\": {{\n    \"clients\": {clients},\n    \"requests\": {c_off},\n    \
         \"saturation_rps\": {c_rps:.1},\n    \"dropped\": {c_rej},\n    \
         \"p50_us\": {c_p50:.1},\n    \"p99_us\": {c_p99:.1},\n    \"p999_us\": {c_p999:.1}\n  }},\n  \
         \"open_loop\": {{\n    \"offered_rps\": {o_rate:.1},\n    \"requests\": {o_off},\n    \
         \"completed\": {o_done},\n    \"dropped\": {o_rej},\n    \
         \"p50_us\": {o_p50:.1},\n    \"p99_us\": {o_p99:.1},\n    \"p999_us\": {o_p999:.1},\n    \
         \"max_us\": {o_max:.1}\n  }},\n  \
         \"pool\": {{\n    \"batches\": {batches},\n    \"mean_batch\": {mean_batch:.2},\n    \
         \"max_batch_seen\": {max_batch_seen},\n    \"completed\": {completed}\n  }}\n}}\n",
        header = superbnn_bench::baseline_header(
            "serve_load",
            &[("measured_workers", config.workers)]
        ),
        replicas = config.replicas,
        max_batch = config.max_batch,
        max_delay = micros(config.max_delay),
        queue_capacity = config.queue_capacity,
        save_ms = save.as_secs_f64() * 1e3,
        load_ms = load.as_secs_f64() * 1e3,
        c_off = closed.offered,
        c_rps = closed.throughput_rps,
        c_rej = closed.rejected,
        c_p50 = micros(closed.p50()),
        c_p99 = micros(closed.p99()),
        c_p999 = micros(closed.p999()),
        o_rate = rate,
        o_off = open.offered,
        o_done = open.completed,
        o_rej = open.rejected,
        o_p50 = micros(open.p50()),
        o_p99 = micros(open.p99()),
        o_p999 = micros(open.p999()),
        o_max = micros(open.latency.max()),
        batches = metrics.batches,
        mean_batch = metrics.mean_batch,
        max_batch_seen = metrics.max_batch,
        completed = metrics.completed,
    );
    superbnn_bench::write_baseline("SERVE_BENCH_OUT", "BENCH_serve.json", &json);
}
