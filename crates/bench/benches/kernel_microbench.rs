//! Hot-kernel microbenchmarks of the wide-word SIMD datapath: the three
//! inner loops every packed engine throughput number decomposes into,
//! timed in isolation at both word widths.
//!
//! 1. **SWAR lane counts** — [`lane_counts_w`] at `u64` vs [`V256`]: the
//!    per-word cost of the parallel bit-count reduction behind every tile
//!    vote and match count.
//! 2. **Masked popcount** — [`count_ones_range`] over random sub-ranges,
//!    the generic tile-boundary kernel.
//! 3. **Fused XNOR+vote GEMM tile kernel** —
//!    [`PackedTiledMatrix::forward_matrix_as`] instantiated at `u64`
//!    (one pixel per word step) vs `V256` (four), on a conv-shaped
//!    geometry; outputs are asserted bit-identical between widths before
//!    timing.
//! 4. **Random bits** — raw word generation on the serial xoshiro chain
//!    (`next_u64` after `next_u64`, one loop-carried dependency per
//!    draw) vs the keyed [`CounterStream`] (each word a pure function of
//!    its counter, no chain), plus the counter Bernoulli window fill the
//!    approximate-counter path samples with and the window count kernel
//!    the exact-counter path draws every cell with
//!    ([`CounterStream::window_counts`] at L = 16 and L = 32), on one
//!    mixed saturated/live threshold table; and the conv path's
//!    cross-stream count kernel ([`CounterStream::window_counts_across`], one
//!    cell's window over 64 pixel streams) on the same table as 16 cells
//!    × 64 streams, asserted equal to the per-stream kernel before
//!    timing.
//!
//! The end-to-end benches (`deploy_throughput`, `deploy_conv_throughput`,
//! `stochastic_throughput`) answer "how fast is the engine"; this one
//! answers "which kernel moved" when those numbers shift. Run with
//! `cargo bench --bench kernel_microbench`; writes `BENCH_kernels.json`
//! at the workspace root (override with `KERNEL_BENCH_OUT`).

use aqfp_device::{DeviceRng, SeedableRng};
use aqfp_sc::bitplane::{bernoulli_threshold, count_ones_range, lane_counts_w};
use aqfp_sc::counter::lane_threshold;
use aqfp_sc::{CounterStream, PackedMatrix, Word, V256};
use rand::RngCore;
use std::time::{Duration, Instant};
use superbnn::config::HardwareConfig;
use superbnn::deploy::{PackedTiledMatrix, TiledMatrix};

/// Times `run` (which performs `ops` kernel operations per call) until at
/// least ~0.4 s has elapsed and returns operations/second.
fn ops_per_second(ops: usize, mut run: impl FnMut()) -> f64 {
    run(); // warm-up
    let mut calls = 0usize;
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(400) || calls == 0 {
        run();
        calls += 1;
    }
    (calls * ops) as f64 / start.elapsed().as_secs_f64()
}

/// Deterministic pseudo-random word fill (keeps the bench self-seeded).
fn fill_words(words: &mut [u64], rng: &mut DeviceRng) {
    for w in words.iter_mut() {
        *w = rng.next_u64();
    }
}

/// SWAR reduction throughput at one `Word` width, in u64-lane words/s
/// (so `u64` and `V256` numbers are directly comparable).
fn bench_lane_counts<W: Word>(data: &[u64], lane: u32) -> f64 {
    let n = data.len() / W::LANES * W::LANES;
    ops_per_second(n, || {
        let mut acc = W::zero();
        for chunk in data[..n].chunks_exact(W::LANES) {
            let mut x = W::zero();
            for (l, &w) in chunk.iter().enumerate() {
                x.set_lane(l, w);
            }
            acc = acc.add64(lane_counts_w(x, lane));
        }
        std::hint::black_box(acc);
    })
}

fn main() {
    let mut rng = DeviceRng::seed_from_u64(2024);

    // --- 1. SWAR lane counts, u64 vs V256 -------------------------------
    let mut data = vec![0u64; 1 << 14];
    fill_words(&mut data, &mut rng);
    let lane = 8u32;
    let lc_u64 = bench_lane_counts::<u64>(&data, lane);
    let lc_v256 = bench_lane_counts::<V256>(&data, lane);

    // --- 2. Masked popcount over random sub-ranges ----------------------
    let plane_words = 1 << 10;
    let mut plane = vec![0u64; plane_words];
    fill_words(&mut plane, &mut rng);
    let ranges: Vec<(usize, usize)> = (0..1024)
        .map(|_| {
            let start = (rng.next_u64() as usize) % (plane_words * 64 - 1);
            let len = 1 + (rng.next_u64() as usize) % (plane_words * 64 - start - 1);
            (start, len)
        })
        .collect();
    let masked_popcount = ops_per_second(ranges.len(), || {
        let mut acc = 0usize;
        for &(start, len) in &ranges {
            acc += count_ones_range(&plane, start, len);
        }
        std::hint::black_box(acc);
    });

    // --- 3. Fused XNOR+vote GEMM tile kernel, u64 vs V256 ---------------
    // Conv-shaped workload: 288-bit receptive fields (32-channel 3x3),
    // 16 output channels on 32-row crossbars, 256 output pixels.
    let hw = HardwareConfig {
        crossbar_rows: 32,
        crossbar_cols: 16,
        ..Default::default()
    };
    let (fan_in, out, pixels) = (288usize, 16usize, 256usize);
    let signs: Vec<f32> = (0..fan_in * out)
        .map(|i| if (i * 7 + 3) % 5 < 2 { 1.0 } else { -1.0 })
        .collect();
    let vth: Vec<f64> = (0..out).map(|o| o as f64 * 0.21 - 1.3).collect();
    let tiled = TiledMatrix::new(&signs, fan_in, out, vth, vec![false; out], &hw);
    let matrix = PackedTiledMatrix::from_tiled(&tiled);
    let mut acts = PackedMatrix::zeros(pixels, fan_in);
    for p in 0..pixels {
        for i in 0..fan_in {
            if (p * 31 + i * 13) % 3 == 0 {
                acts.set(p, i, true);
            }
        }
    }
    // Width-differential check before timing: the tentpole hard
    // constraint, scalar word ≡ wide word bit-for-bit.
    assert_eq!(
        matrix.forward_matrix_as::<u64>(&acts).storage(),
        matrix.forward_matrix_as::<V256>(&acts).storage(),
        "u64/V256 GEMM kernels diverged"
    );
    // Channel-evaluations per second (pixels × output channels).
    let gemm_ops = pixels * out;
    let gemm_u64 = ops_per_second(gemm_ops, || {
        std::hint::black_box(matrix.forward_matrix_as::<u64>(&acts));
    });
    let gemm_v256 = ops_per_second(gemm_ops, || {
        std::hint::black_box(matrix.forward_matrix_as::<V256>(&acts));
    });

    // --- 4. Random bits: serial xoshiro chain vs counter stream --------
    // The xoshiro loop is one long dependency chain (draw t+1 needs the
    // state after draw t); the counter loop has no loop-carried state, so
    // independent draws pipeline/vectorize freely.
    let gen_words = 1 << 14;
    let mut gen_buf = vec![0u64; gen_words];
    let mut rng_e = DeviceRng::seed_from_u64(23);
    let xoshiro_words = ops_per_second(gen_words, || {
        for w in gen_buf.iter_mut() {
            *w = rng_e.next_u64();
        }
        std::hint::black_box(&gen_buf);
    });
    let stream = CounterStream::from_seed(23);
    let ctr_words = ops_per_second(gen_words, || {
        for (i, w) in gen_buf.iter_mut().enumerate() {
            *w = stream.draw(i as u64);
        }
        std::hint::black_box(&gen_buf);
    });
    // The counter Bernoulli window fill on a stochastic-engine-shaped
    // batch: 1024 cells, 32-cycle windows, mixed saturated/live
    // thresholds like a real gray-zone table.
    let window = 32usize;
    let cells = 1024usize;
    let t8: Vec<u16> = (0..cells)
        .map(|i| {
            let p = match i % 5 {
                0 => 0.0,
                1 => 1.0,
                _ => 0.05 + 0.9 * (i % 17) as f64 / 17.0,
            };
            lane_threshold(bernoulli_threshold(p))
        })
        .collect();
    let bern_bits = cells * window;
    let mut batched_ctr = vec![0u64; cells]; // one word per window
    let bern_ctr = ops_per_second(bern_bits, || {
        stream.sample_bernoulli_windows(&t8, window, &mut batched_ctr);
        std::hint::black_box(&batched_ctr);
    });
    // The exact-counter path's count kernel on the same table: every
    // window drawn and counted, none materialized.
    let mut counts = vec![0u32; cells];
    let mut count_bits = |len: usize| {
        ops_per_second(cells * len, || {
            stream.window_counts(&t8, len, &mut counts);
            std::hint::black_box(&counts);
        })
    };
    let count_l16 = count_bits(16);
    let count_l32 = count_bits(32);
    // The conv path's cross-stream count kernel on the same table laid
    // out cell-major over a pixel block: 16 cells × 64 pixel streams, each
    // cell's window counted across the streams. Checked against the
    // per-stream kernel before timing.
    let (pixels, block_cells) = (64usize, cells / 64);
    let pixel_streams: Vec<CounterStream> = (0..pixels as u64).map(|i| stream.derive(i)).collect();
    let across = |len: usize, counts: &mut [u32]| {
        let runs = t8.chunks_exact(pixels).zip(counts.chunks_exact_mut(pixels));
        for (cell, (t, c)) in runs.enumerate() {
            CounterStream::window_counts_across(&pixel_streams, cell, t, len, c);
        }
    };
    for len in [16, 32] {
        across(len, &mut counts);
        for (p, s) in pixel_streams.iter().enumerate() {
            let pixel_t8: Vec<u16> = t8.iter().skip(p).step_by(pixels).copied().collect();
            let mut solo = vec![0u32; block_cells];
            s.window_counts(&pixel_t8, len, &mut solo);
            let got: Vec<u32> = counts.iter().skip(p).step_by(pixels).copied().collect();
            assert_eq!(
                got, solo,
                "cross-stream counts diverged (L={len}, pixel {p})"
            );
        }
    }
    let mut across_bits = |len: usize| {
        ops_per_second(cells * len, || {
            across(len, &mut counts);
            std::hint::black_box(&counts);
        })
    };
    let across_l16 = across_bits(16);
    let across_l32 = across_bits(32);

    println!("kernel_microbench: wide-word SIMD datapath hot kernels");
    println!(
        "lane_counts (lane {lane})    : {:>8.1} Mwords/s (u64)  {:>8.1} Mwords/s (v256, {:.2}x)",
        lc_u64 / 1e6,
        lc_v256 / 1e6,
        lc_v256 / lc_u64
    );
    println!(
        "masked popcount         : {:>8.1} Mranges/s",
        masked_popcount / 1e6
    );
    println!(
        "xnor+vote GEMM tile     : {:>8.2} Mchan-evals/s (u64)  {:>8.2} Mchan-evals/s (v256, {:.2}x)",
        gemm_u64 / 1e6,
        gemm_v256 / 1e6,
        gemm_v256 / gemm_u64
    );
    println!(
        "word generation         : {:>8.1} Mwords/s (xoshiro chain)  {:>8.1} Mwords/s (counter, {:.2}x)",
        xoshiro_words / 1e6,
        ctr_words / 1e6,
        ctr_words / xoshiro_words
    );
    println!(
        "bernoulli counter (L={window}): {:>8.1} Mbits/s",
        bern_ctr / 1e6
    );
    println!(
        "window counts           : {:>8.1} Mbits/s (L=16)  {:>8.1} Mbits/s (L=32)",
        count_l16 / 1e6,
        count_l32 / 1e6
    );
    println!(
        "window counts across    : {:>8.1} Mbits/s (L=16)  {:>8.1} Mbits/s (L=32)",
        across_l16 / 1e6,
        across_l32 / 1e6
    );

    // Kernel timings are all single-threaded; the shared header records
    // the machine separately from the measurement parallelism.
    let json = format!(
        "{{\n  {},\n  \
         \"lane_counts_u64_words_per_s\": {lc_u64:.0},\n  \
         \"lane_counts_v256_words_per_s\": {lc_v256:.0},\n  \
         \"masked_popcount_ranges_per_s\": {masked_popcount:.0},\n  \
         \"gemm_tile_u64_chan_evals_per_s\": {gemm_u64:.0},\n  \
         \"gemm_tile_v256_chan_evals_per_s\": {gemm_v256:.0},\n  \
         \"gemm_widths_bit_identical\": true,\n  \
         \"xoshiro_chain_words_per_s\": {xoshiro_words:.0},\n  \
         \"counter_stream_words_per_s\": {ctr_words:.0},\n  \
         \"bernoulli_counter_bits_per_s\": {bern_ctr:.0},\n  \
         \"window_counts_l16_bits_per_s\": {count_l16:.0},\n  \
         \"window_counts_l32_bits_per_s\": {count_l32:.0},\n  \
         \"window_counts_across_l16_bits_per_s\": {across_l16:.0},\n  \
         \"window_counts_across_l32_bits_per_s\": {across_l32:.0}\n}}\n",
        superbnn_bench::baseline_header("kernel_microbench", &[("measured_workers", 1)]),
    );
    superbnn_bench::write_baseline("KERNEL_BENCH_OUT", "BENCH_kernels.json", &json);
}
