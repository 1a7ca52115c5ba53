//! Property-based tests on cross-crate invariants.

use aqfp_crossbar::array::{Crossbar, CrossbarConfig};
use aqfp_crossbar::faults::FaultModel;
use aqfp_crossbar::tile::TilingPlan;
use aqfp_device::{Bit, GrayZone};
use aqfp_netlist::balance::{balance, fanout_is_legal, is_balanced, legalize_fanout};
use aqfp_netlist::random::{random_dag, RandomDagConfig};
use aqfp_sc::number::parse_stream;
use aqfp_sc::{Apc, BitPlane, Bitstream, CounterStream};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use superbnn::bnmatch::{bn_match, matched_decision, reference_decision};
use superbnn::config::HardwareConfig;
use superbnn::deploy::{
    deploy, BitMap, DeployedCell, DeployedConv, PackedLayer, PackedTiledMatrix, TiledMatrix,
};
use superbnn::equiv::{DieChecker, Engine, ModelChecker};
use superbnn::spec::{CellSpec, NetSpec};

/// The packed input plane of every sample of an `[N, C, H, W]` batch.
fn planes_of(images: &bnn_nn::Tensor) -> Vec<BitPlane> {
    (0..images.shape()[0])
        .map(|i| BitMap::from_tensor_sample(images, i).to_plane())
        .collect()
}

/// A deterministic pseudo-random ±1 matrix.
fn sign_matrix(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Crossbar raw sums equal the signed dot product of ±1 vectors.
    #[test]
    fn crossbar_raw_sum_is_dot_product(
        weights in prop::collection::vec(prop::bool::ANY, 1..40),
        inputs in prop::collection::vec(prop::bool::ANY, 1..40),
    ) {
        let n = weights.len().min(inputs.len());
        let w: Vec<Vec<Bit>> = weights[..n].iter().map(|&b| vec![Bit::from_bool(b)]).collect();
        let a: Vec<Bit> = inputs[..n].iter().map(|&b| Bit::from_bool(b)).collect();
        let xbar = Crossbar::new(CrossbarConfig::default(), w).unwrap();
        let expected: i32 = (0..n)
            .map(|i| {
                let wi = if weights[i] { 1 } else { -1 };
                let ai = if inputs[i] { 1 } else { -1 };
                wi * ai
            })
            .sum();
        prop_assert_eq!(xbar.raw_sum(0, &a).unwrap(), expected);
    }

    /// The packed XNOR/popcount dot equals the crossbar raw sum.
    #[test]
    fn popcount_dot_equals_crossbar_sum(
        bits in prop::collection::vec((prop::bool::ANY, prop::bool::ANY), 1..200),
    ) {
        let w: Vec<f32> = bits.iter().map(|&(b, _)| if b { 1.0 } else { -1.0 }).collect();
        let a: Vec<f32> = bits.iter().map(|&(_, b)| if b { 1.0 } else { -1.0 }).collect();
        let packed = BitPlane::from_signs(&w).xnor_dot(&BitPlane::from_signs(&a)) as i32;
        let wcol: Vec<Vec<Bit>> = w.iter().map(|&v| vec![Bit::from_sign(v as f64)]).collect();
        let acol: Vec<Bit> = a.iter().map(|&v| Bit::from_sign(v as f64)).collect();
        let xbar = Crossbar::new(CrossbarConfig::default(), wcol).unwrap();
        prop_assert_eq!(packed, xbar.raw_sum(0, &acol).unwrap());
    }

    /// Tiling plans partition the matrix exactly for any geometry.
    #[test]
    fn tiling_always_covers_exactly(
        fan_in in 1usize..300,
        out in 1usize..80,
        max_rows in 1usize..40,
        max_cols in 1usize..40,
    ) {
        let plan = TilingPlan::new(fan_in, out, max_rows, max_cols);
        prop_assert!(plan.covers_exactly());
        prop_assert_eq!(plan.crossbar_count(), plan.row_tiles() * plan.col_tiles());
    }

    /// Stochastic-number round trip: the decoded value of a generated
    /// bipolar stream deviates by at most the binomial bound.
    #[test]
    fn bipolar_roundtrip_within_binomial_bound(
        x in -1.0f64..1.0,
        seed in 0u64..1000,
        len_pow in 6u32..12,
    ) {
        let len = 1usize << len_pow;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let s = Bitstream::generate_bipolar(x, len, &mut rng);
        let err = (s.bipolar_value() - x).abs();
        // 6σ bound: σ = 2·√(p(1−p)/len) ≤ 1/√len.
        prop_assert!(err < 6.0 / (len as f64).sqrt(), "err {err} at len {len}");
    }

    /// The functional APC equals the gate-level popcount netlist.
    #[test]
    fn apc_gate_level_equivalence(
        word in prop::collection::vec(prop::bool::ANY, 1..12),
    ) {
        let apc = Apc::new(word.len());
        let bits: Vec<Bit> = word.iter().map(|&b| Bit::from_bool(b)).collect();
        prop_assert_eq!(apc.count(&bits), apc.count_gate_level(&bits));
    }

    /// Balancing always yields a legal schedule and preserves function on
    /// random DAGs.
    #[test]
    fn balancing_random_dags_is_sound(seed in 0u64..50) {
        let cfg = RandomDagConfig {
            inputs: 6,
            gates: 40,
            ..Default::default()
        };
        let mut nl = random_dag(&cfg, &mut rand::rngs::StdRng::seed_from_u64(seed));
        let probe: Vec<bool> = (0..6).map(|i| (seed >> i) & 1 == 1).collect();
        let before = nl.eval(&probe).unwrap();
        legalize_fanout(&mut nl);
        prop_assert!(fanout_is_legal(&nl));
        let clock = aqfp_device::ClockScheme::four_phase_5ghz();
        let report = balance(&mut nl, &clock);
        prop_assert!(is_balanced(&nl, &report.stages, report.allowed_skew));
        prop_assert_eq!(nl.eval(&probe).unwrap(), before);
    }

    /// BN matching reproduces the floating-point decision for arbitrary
    /// parameters (away from the exact threshold).
    #[test]
    fn bn_matching_equivalence(
        gamma in -3.0f32..3.0,
        beta in -3.0f32..3.0,
        mean in -5.0f32..5.0,
        var in 0.01f32..9.0,
        alpha in 0.05f32..2.0,
        x in -30i32..30,
    ) {
        let eps = 1e-5f32;
        let m = bn_match(&[gamma], &[beta], &[mean], &[var], &[alpha], eps);
        let xv = x as f64;
        prop_assume!((xv - m.vth[0]).abs() > 1e-6);
        // Skip the degenerate-γ constant channels.
        prop_assume!(gamma.abs() > 1e-6);
        let want = reference_decision(xv, gamma, beta, mean, var, alpha, eps);
        let got = matched_decision(xv, m.vth[0], m.flip[0]);
        prop_assert_eq!(got, want);
    }

    /// The gray-zone law is a valid CDF-like curve: monotone, bounded, and
    /// symmetric about its threshold.
    #[test]
    fn grayzone_law_is_monotone_and_symmetric(
        th in -5.0f64..5.0,
        width in 0.01f64..10.0,
        a in -20.0f64..20.0,
        b in -20.0f64..20.0,
    ) {
        let law = GrayZone::new(th, width);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(law.probability_one(lo) <= law.probability_one(hi) + 1e-12);
        let p = law.probability_one(th + a.abs());
        let q = law.probability_one(th - a.abs());
        prop_assert!((p + q - 1.0).abs() < 1e-9, "symmetry: {p} + {q}");
    }

    /// Packed streams agree with unpacked streams on every operation.
    #[test]
    fn packed_stream_equals_unpacked(
        bits_a in prop::collection::vec(prop::bool::ANY, 1..200),
        bits_b in prop::collection::vec(prop::bool::ANY, 1..200),
    ) {
        use aqfp_sc::packed::PackedStream;
        let n = bits_a.len().min(bits_b.len());
        let ua = Bitstream::from_bits(bits_a[..n].iter().map(|&b| Bit::from_bool(b)).collect());
        let ub = Bitstream::from_bits(bits_b[..n].iter().map(|&b| Bit::from_bool(b)).collect());
        let pa = PackedStream::from_bitstream(&ua);
        let pb = PackedStream::from_bitstream(&ub);
        prop_assert_eq!(pa.ones(), ua.ones());
        prop_assert_eq!(pa.xnor(&pb).to_bitstream(), ua.xnor(&ub));
        prop_assert_eq!(pa.and(&pb).to_bitstream(), ua.and(&ub));
        prop_assert_eq!(pa.xnor_ones(&pb), ua.xnor(&ub).ones());
        prop_assert_eq!(pa.not().ones(), n - ua.ones());
        prop_assert_eq!(pa.to_bitstream(), ua);
    }

    /// The packed deploy engine is bit-exactly the scalar digital engine
    /// for arbitrary tile geometries (including non-power-of-two crossbar
    /// rows that bypass the SWAR fast path), thresholds and flips —
    /// checked through the bounded equivalence API so a failure reports a
    /// typed counterexample (input, lane, die) instead of a bare assert.
    #[test]
    fn packed_deploy_matrix_is_bit_exact_vs_scalar(
        fan_in in 1usize..200,
        out in 1usize..20,
        rows in 1usize..40,
        cols in 1usize..16,
        seed in 0u64..1000,
    ) {
        let hw = HardwareConfig {
            crossbar_rows: rows,
            crossbar_cols: cols,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let signs = sign_matrix(&mut rng, fan_in * out);
        let vth: Vec<f64> = (0..out).map(|_| rng.gen_range(-6.0..6.0)).collect();
        let flips: Vec<bool> = (0..out).map(|_| rng.gen()).collect();
        let checker = DieChecker::new(&TiledMatrix::new(&signs, fan_in, out, vth, flips, &hw));
        let pair = (Engine::ScalarDigital, Engine::PackedDigital);
        if let Err(ce) = checker.check_random(pair, 4, seed ^ 0xD1E) {
            prop_assert!(false, "equivalence broken: {}", ce);
        }
    }

    /// Fault injection (stuck cells + dead columns) flows through the
    /// packed path without panics on boundary words and stays bit-exact
    /// with the scalar digital engine.
    #[test]
    fn packed_engine_tracks_faults_bit_exactly(
        fan_in in 1usize..150,
        out in 1usize..12,
        rows in 1usize..24,
        stuck in 0usize..3,
        seed in 0u64..500,
    ) {
        let hw = HardwareConfig {
            crossbar_rows: rows,
            crossbar_cols: 8,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let signs = sign_matrix(&mut rng, fan_in * out);
        let vth: Vec<f64> = (0..out).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let flips: Vec<bool> = (0..out).map(|_| rng.gen()).collect();
        let mut m = TiledMatrix::new(&signs, fan_in, out, vth, flips, &hw);
        let model = FaultModel::new(0.2 * stuck as f64, 0.15 * stuck as f64).unwrap();
        m.inject_faults(&model, &mut rng);
        // Lowering a faulted matrix carries the fault state into every
        // engine the checker drives.
        let checker = DieChecker::new(&m);
        let pair = (Engine::ScalarDigital, Engine::PackedDigital);
        if let Err(ce) = checker.check_random(pair, 3, seed ^ 0xFA) {
            prop_assert!(false, "equivalence broken under faults: {}", ce);
        }
    }

    /// Random fault draws injected *after* lowering (word masks on the
    /// packed bitplanes, SWAR-bias dead folds) classify bit-identically to
    /// the scalar path (`apply_stuck_cells` on the tile crossbars +
    /// `classify_digital`) — the invariant the Monte Carlo robustness
    /// engine rests on. Also checks both engines draw the same defect
    /// count and that re-lowering the faulted deployment agrees with
    /// in-place packed injection.
    #[test]
    fn packed_fault_injection_matches_scalar_apply_and_classify(
        rows in 1usize..24,
        cols in 1usize..12,
        hidden in 4usize..24,
        stuck in 0u8..4,
        dead in 0u8..3,
        seed in 0u64..400,
    ) {
        use aqfp_device::{DeviceRng, SeedableRng};
        let hw = HardwareConfig {
            crossbar_rows: rows,
            crossbar_cols: cols,
            ..Default::default()
        };
        let spec = NetSpec::mlp(&[1, 6, 6], &[hidden], 4);
        let model = spec.build_software(&hw, seed);
        let fm = FaultModel::new(0.25 * stuck as f64, 0.5 * dead as f64).unwrap();
        // Scalar reference: faults applied to the deployed tile crossbars.
        let mut scalar = deploy(&spec, &model, &hw).unwrap();
        let scalar_defects =
            scalar.inject_faults(&fm, &mut DeviceRng::seed_from_u64(seed ^ 0xFA17));
        // Packed path: the same draw injected into the lowered pipeline.
        let mut packed = deploy(&spec, &model, &hw).unwrap().to_packed();
        let packed_defects =
            packed.inject_faults(&fm, &mut DeviceRng::seed_from_u64(seed ^ 0xFA17));
        prop_assert_eq!(scalar_defects, packed_defects);
        // Re-lowering the faulted scalar deployment is a third witness.
        let relowered = scalar.to_packed();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBEEF);
        let images = bnn_nn::Tensor::from_vec(
            &[3, 1, 6, 6],
            (0..3 * 36).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        // The equivalence checker walks the faulted scalar deployment and
        // its lowering cell by cell, localizing any divergence.
        let checker = ModelChecker::new(&scalar);
        let (got, relowered_got) =
            (packed.classify_batch(&images, None), relowered.classify_batch(&images, None));
        for i in 0..3 {
            let want = scalar.classify_digital(&images, i);
            prop_assert_eq!(&got[i], &want, "sample {}", i);
            prop_assert_eq!(&relowered_got[i], &want, "relowered sample {}", i);
            let plane = BitMap::from_tensor_sample(&images, i).to_plane();
            let pair = (Engine::ScalarDigital, Engine::PackedDigital);
            if let Err(ce) = checker.check_plane(pair, &plane) {
                prop_assert!(false, "equivalence broken on faulted model: {}", ce);
            }
        }
    }

    /// The undo journal restores a packed model bit-for-bit — weight
    /// planes, popcount spans, SWAR lane biases, dead-override tables —
    /// after patch → evaluate → revert, across ragged tile geometries and
    /// repeated trials on the same instance (the clone-free sweep loop).
    #[test]
    fn fault_journal_roundtrip_restores_the_model_bit_for_bit(
        rows in 1usize..24,
        cols in 1usize..12,
        hidden in 4usize..20,
        stuck in 0u8..4,
        dead in 0u8..3,
        seed in 0u64..400,
    ) {
        use aqfp_crossbar::faults::PatchJournal;
        use aqfp_device::{DeviceRng, SeedableRng};
        let hw = HardwareConfig {
            crossbar_rows: rows,
            crossbar_cols: cols,
            ..Default::default()
        };
        let spec = NetSpec::mlp(&[1, 6, 6], &[hidden], 4);
        let model = spec.build_software(&hw, seed);
        let fm = FaultModel::new(0.25 * stuck as f64, 0.5 * dead as f64).unwrap();
        let pristine = deploy(&spec, &model, &hw).unwrap().to_packed();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x10AD);
        let images = bnn_nn::Tensor::from_vec(
            &[1, 1, 6, 6],
            (0..36).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let mut patched = pristine.clone();
        let mut journal = PatchJournal::new();
        for trial in 0..3u64 {
            // The journaled injection lands exactly the plain-injection
            // state (same RNG, same defect count, same packed words)...
            let defects = patched.inject_faults_journaled(
                &fm, &mut DeviceRng::seed_from_u64(seed ^ trial), &mut journal,
            );
            let mut witness = pristine.clone();
            prop_assert_eq!(
                witness.inject_faults(&fm, &mut DeviceRng::seed_from_u64(seed ^ trial)),
                defects
            );
            prop_assert_eq!(&patched, &witness, "patched state, trial {}", trial);
            // ...survives an evaluation...
            let _ = patched.classify_batch(&images, None);
            // ...and reverts to the pristine model, ready for the next
            // trial without re-cloning.
            patched.revert_faults(&mut journal);
            prop_assert_eq!(&patched, &pristine, "reverted state, trial {}", trial);
            prop_assert!(journal.is_empty(), "journal drained, trial {}", trial);
        }
    }

    /// Counter-mode stochastic classification is a pure function of its
    /// `(seed, sample)` coordinates on random ragged geometries: walking
    /// the batch in reverse order reproduces identical labels and scores.
    #[test]
    fn counter_mode_classification_is_order_free(
        rows in 4usize..24,
        cols in 2usize..12,
        hidden in 4usize..20,
        seed in 0u64..400,
    ) {
        let hw = HardwareConfig {
            crossbar_rows: rows,
            crossbar_cols: cols,
            grayzone_ua: 6.0,
            bitstream_len: 16,
            ..Default::default()
        };
        let spec = NetSpec::mlp(&[1, 6, 6], &[hidden], 4);
        let model = spec.build_software(&hw, seed);
        let packed = deploy(&spec, &model, &hw).unwrap().to_packed();
        let tables = packed.stochastic_tables(&aqfp_device::VariationModel::nominal());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC7);
        let images = bnn_nn::Tensor::from_vec(
            &[3, 1, 6, 6],
            (0..3 * 36).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let root = CounterStream::from_seed(seed);
        let planes = planes_of(&images);
        let classify = |i: usize| {
            packed.classify_stochastic_plane_ctr(&tables, &planes[i], &root.derive(i as u64))
        };
        let forward: Vec<_> = (0..3).map(classify).collect();
        for i in (0..3).rev() {
            prop_assert_eq!(classify(i), forward[i].clone(), "sample {}", i);
        }
    }

    /// The word-level bitplane im2col gathers exactly the scalar
    /// receptive fields for arbitrary conv geometries (random kernel,
    /// stride, padding, ragged channel counts and non-square inputs).
    #[test]
    fn packed_im2col_matches_scalar_receptive_fields(
        c in 1usize..5,
        h in 1usize..9,
        w in 1usize..9,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..3,
        seed in 0u64..500,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let bits: Vec<Bit> = (0..c * h * w).map(|_| Bit::from_bool(rng.gen())).collect();
        let map = BitMap::from_bits(c, h, w, bits);
        let fields = aqfp_sc::bitplane::packed_im2col(
            &map.to_plane(), c, h, w, k, stride, pad, false,
        );
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (w + 2 * pad - k) / stride + 1;
        prop_assert_eq!((fields.rows(), fields.width()), (oh * ow, c * k * k));
        for oy in 0..oh {
            for ox in 0..ow {
                let expect = map.receptive_field(oy, ox, k, stride, pad);
                prop_assert_eq!(
                    fields.row_plane(oy * ow + ox).to_bits(),
                    expect,
                    "pixel ({}, {})", oy, ox
                );
            }
        }
    }

    /// A lowered packed conv (+ pool) stage sequence is bit-exactly the
    /// scalar digital conv cell for random geometries, thresholds, flips
    /// and tile shapes — the conv analogue of
    /// `packed_deploy_matrix_is_bit_exact_vs_scalar`.
    #[test]
    fn packed_conv_pipeline_is_bit_exact_vs_scalar(
        in_c in 1usize..4,
        out_c in 1usize..6,
        h in 2usize..8,
        w in 2usize..8,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        rows in 1usize..24,
        cols in 1usize..12,
        pool in prop::bool::ANY,
        seed in 0u64..1000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (w + 2 * pad - k) / stride + 1;
        // Pooling needs even pre-pool spatial dims.
        let pool = pool && oh % 2 == 0 && ow % 2 == 0;
        let hw = HardwareConfig {
            crossbar_rows: rows,
            crossbar_cols: cols,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let fan_in = in_c * k * k;
        let signs = sign_matrix(&mut rng, fan_in * out_c);
        let vth: Vec<f64> = (0..out_c).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let flips: Vec<bool> = (0..out_c).map(|_| rng.gen()).collect();
        let cell = DeployedConv::new(
            &signs, in_c, out_c, k, stride, pad, pool, vth, flips, &hw,
        );
        let stages = PackedLayer::lower(&DeployedCell::Conv(cell.clone()));
        prop_assert_eq!(stages.len(), 1 + pool as usize);
        for salt in 0..3u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (salt << 32));
            let bits: Vec<Bit> = (0..in_c * h * w).map(|_| Bit::from_bool(rng.gen())).collect();
            let map = BitMap::from_bits(in_c, h, w, bits);
            let scalar = cell.forward_digital(&map);
            let mut plane = map.to_plane();
            let mut shape = [in_c, h, w];
            for stage in &stages {
                let (next, next_shape) = stage.forward(plane, shape);
                plane = next;
                shape = next_shape;
            }
            prop_assert_eq!(shape, [scalar.c, scalar.h, scalar.w], "salt {}", salt);
            prop_assert_eq!(plane.to_bits(), scalar.bits(), "salt {}", salt);
        }
    }

    /// An end-to-end conv model (binarize → conv → flatten → classifier)
    /// with random geometry lowers through `PackedModel` and classifies
    /// bit-identically to `classify_digital` — logits and labels.
    #[test]
    fn packed_conv_model_matches_classify_digital(
        out_c in 1usize..5,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..200,
    ) {
        let (c, h, w) = (2usize, 6usize, 6usize);
        prop_assume!(h + 2 * pad >= k);
        let spec = NetSpec {
            input_shape: [c, h, w],
            cells: vec![
                CellSpec::BinarizeInput,
                CellSpec::Conv { in_c: c, out_c, k, stride, pad, pool: false },
                CellSpec::Flatten,
                CellSpec::Classifier {
                    in_f: {
                        let s = ((h + 2 * pad - k) / stride + 1)
                            * ((w + 2 * pad - k) / stride + 1);
                        out_c * s
                    },
                    classes: 4,
                },
            ],
        };
        let hw = HardwareConfig {
            crossbar_rows: 8,
            crossbar_cols: 8,
            ..Default::default()
        };
        let model = spec.build_software(&hw, seed);
        let deployed = deploy(&spec, &model, &hw).unwrap();
        let packed = deployed.to_packed();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let n = 2usize;
        let images = bnn_nn::Tensor::from_vec(
            &[n, c, h, w],
            (0..n * c * h * w).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        for (i, got) in packed.classify_batch(&images, None).iter().enumerate() {
            prop_assert_eq!(got, &deployed.classify_digital(&images, i), "sample {}", i);
        }
    }

    /// Fault injection through the lowered *conv* pipeline (faults land in
    /// the conv stage's packed im2col weights) stays bit-identical to the
    /// faulted scalar conv reference.
    #[test]
    fn packed_conv_fault_injection_matches_scalar(
        out_c in 1usize..5,
        k in 1usize..4,
        rows in 1usize..16,
        stuck in 0u8..3,
        seed in 0u64..200,
    ) {
        use aqfp_device::{DeviceRng, SeedableRng};
        let (c, h, w) = (2usize, 6usize, 6usize);
        let s = (h - k + 1) * (w - k + 1);
        let spec = NetSpec {
            input_shape: [c, h, w],
            cells: vec![
                CellSpec::BinarizeInput,
                CellSpec::Conv { in_c: c, out_c, k, stride: 1, pad: 0, pool: false },
                CellSpec::Flatten,
                CellSpec::Classifier { in_f: out_c * s, classes: 4 },
            ],
        };
        let hw = HardwareConfig {
            crossbar_rows: rows,
            crossbar_cols: 8,
            ..Default::default()
        };
        let model = spec.build_software(&hw, seed);
        let fm = FaultModel::new(0.3 * stuck as f64, 0.2 * stuck as f64).unwrap();
        let mut scalar = deploy(&spec, &model, &hw).unwrap();
        scalar.inject_faults(&fm, &mut DeviceRng::seed_from_u64(seed ^ 0xC0DE));
        let mut packed = deploy(&spec, &model, &hw).unwrap().to_packed();
        packed.inject_faults(&fm, &mut DeviceRng::seed_from_u64(seed ^ 0xC0DE));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD00D);
        let images = bnn_nn::Tensor::from_vec(
            &[2, c, h, w],
            (0..2 * c * h * w).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        for (i, got) in packed.classify_batch(&images, None).iter().enumerate() {
            prop_assert_eq!(got, &scalar.classify_digital(&images, i), "sample {}", i);
        }
    }

    /// The packed stochastic engine draws every observation window at the
    /// scalar SC datapath's coordinates: same stream ⇒ same per-element
    /// flip decisions ⇒ identical outputs — over ragged tile geometries,
    /// random thresholds, flips, windows, gray-zone widths and fault
    /// draws.
    #[test]
    fn packed_stochastic_matrix_matches_scalar_bit_for_bit(
        fan_in in 1usize..160,
        out in 1usize..14,
        rows in 1usize..40,
        cols in 1usize..16,
        window in 1usize..24,
        grayzone in 1u8..16,
        stuck in 0u8..3,
        seed in 0u64..1000,
    ) {
        let hw = HardwareConfig {
            crossbar_rows: rows,
            crossbar_cols: cols,
            bitstream_len: window,
            grayzone_ua: grayzone as f64,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let signs = sign_matrix(&mut rng, fan_in * out);
        let vth: Vec<f64> = (0..out).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let flips: Vec<bool> = (0..out).map(|_| rng.gen()).collect();
        let mut m = TiledMatrix::new(&signs, fan_in, out, vth, flips, &hw);
        if stuck > 0 {
            let fm = FaultModel::new(0.15 * stuck as f64, 0.1 * stuck as f64).unwrap();
            m.inject_faults(&fm, &mut rng);
        }
        let packed = PackedTiledMatrix::from_tiled(&m);
        let tables = packed.stochastic_tables(&aqfp_device::VariationModel::nominal());
        let root = CounterStream::from_seed(seed ^ 0xF1);
        for j in 0..3u64 {
            let input: Vec<Bit> = (0..fan_in).map(|_| Bit::from_bool(rng.gen())).collect();
            let stream = root.derive(j);
            let scalar = m.forward(&input, &stream);
            let plane = packed.forward_stochastic_ctr(
                &tables,
                &BitPlane::from_bits(&input),
                &stream,
            );
            prop_assert_eq!(plane.to_bits(), scalar);
        }
    }

    /// In the gray-zone → 0 limit (variation width scale 0) the scalar and
    /// packed stochastic engines are the digital engine, bit for bit:
    /// every window saturates, whatever the stream.
    #[test]
    fn packed_stochastic_zero_width_is_the_digital_engine(
        fan_in in 1usize..120,
        out in 1usize..10,
        rows in 1usize..24,
        seed in 0u64..600,
    ) {
        let hw = HardwareConfig {
            crossbar_rows: rows,
            crossbar_cols: 8,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let signs = sign_matrix(&mut rng, fan_in * out);
        let vth: Vec<f64> = (0..out).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let flips: Vec<bool> = (0..out).map(|_| rng.gen()).collect();
        let m = TiledMatrix::new(&signs, fan_in, out, vth, flips, &hw);
        let packed = PackedTiledMatrix::from_tiled(&m);
        let zero = aqfp_device::VariationModel::new(0.0, 0.0, 0.0).unwrap();
        let tables = packed.stochastic_tables(&zero);
        let mut scalar = m.clone();
        scalar.apply_variation(&zero);
        let root = CounterStream::from_seed(seed ^ 0x2E);
        for j in 0..3u64 {
            let input: Vec<Bit> = (0..fan_in).map(|_| Bit::from_bool(rng.gen())).collect();
            let stream = root.derive(j);
            let digital = m.forward_digital(&input);
            let plane = packed.forward_stochastic_ctr(
                &tables,
                &BitPlane::from_bits(&input),
                &stream,
            );
            prop_assert_eq!(plane.to_bits(), digital.clone());
            prop_assert_eq!(scalar.forward(&input, &stream), digital);
        }
    }

    /// Model level, dense pipeline: `PackedModel::classify_stochastic_plane_ctr`
    /// reproduces `DeployedModel::classify` — labels and scores — from the
    /// same sample streams, including under device-parameter variation
    /// applied to the scalar side.
    #[test]
    fn packed_stochastic_model_matches_scalar_classify(
        rows in 1usize..24,
        cols in 1usize..12,
        hidden in 4usize..24,
        window in 1usize..12,
        vary in prop::bool::ANY,
        seed in 0u64..400,
    ) {
        let hw = HardwareConfig {
            crossbar_rows: rows,
            crossbar_cols: cols,
            bitstream_len: window,
            grayzone_ua: 6.0,
            ..Default::default()
        };
        let spec = NetSpec::mlp(&[1, 6, 6], &[hidden], 4);
        let model = spec.build_software(&hw, seed);
        let mut deployed = deploy(&spec, &model, &hw).unwrap();
        let packed = deployed.to_packed();
        let vm = if vary {
            aqfp_device::VariationModel::new(1.7, -0.2, 8.0).unwrap()
        } else {
            aqfp_device::VariationModel::nominal()
        };
        deployed.apply_variation(&vm);
        let tables = packed.stochastic_tables(&vm);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC4FE);
        let n = 2usize;
        let images = bnn_nn::Tensor::from_vec(
            &[n, 1, 6, 6],
            (0..n * 36).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let root = CounterStream::from_seed(seed ^ 0xD0);
        for (i, plane) in planes_of(&images).iter().enumerate() {
            let stream = root.derive(i as u64);
            prop_assert_eq!(
                packed.classify_stochastic_plane_ctr(&tables, plane, &stream),
                deployed.classify(&images, i, &stream),
                "sample {}", i
            );
        }
    }

    /// Model level, conv pipeline (conv → pool → flatten → classifier):
    /// both engines key output pixels on the same stage streams, so
    /// heterogeneous pipelines stay flip-for-flip identical too — over
    /// ragged and whole-draw windows (L = 16, 24, 32), misaligned and
    /// word-crossing crossbar tiles (5, 12 and 40 rows beside 8), output
    /// maps past one 64-pixel block with a partial 8-pixel tail (9×9 at
    /// pad 1: 81 pixels), both counter kinds, and the same stuck cells and
    /// dead columns drawn into both engines from one seed.
    #[test]
    fn packed_stochastic_conv_model_matches_scalar_classify(
        out_c in 1usize..5,
        k in 1usize..4,
        pad in 0usize..2,
        pool in prop::bool::ANY,
        big in prop::bool::ANY,
        window_pick in 0usize..12,
        rows_pick in 0usize..4,
        faults in 0u8..3,
        approx in prop::bool::ANY,
        seed in 0u64..200,
    ) {
        use aqfp_device::{DeviceRng, SeedableRng};
        use aqfp_sc::accumulate::CounterKind;
        let (c, h, w) = if big { (2usize, 9usize, 9usize) } else { (2, 6, 6) };
        let window = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 24, 32][window_pick];
        prop_assume!(h + 2 * pad >= k);
        let s = (h + 2 * pad - k) + 1;
        let pool = pool && s % 2 == 0;
        let feat = if pool { s / 2 } else { s };
        let spec = NetSpec {
            input_shape: [c, h, w],
            cells: vec![
                CellSpec::BinarizeInput,
                CellSpec::Conv { in_c: c, out_c, k, stride: 1, pad, pool },
                CellSpec::Flatten,
                CellSpec::Classifier { in_f: out_c * feat * feat, classes: 4 },
            ],
        };
        let hw = HardwareConfig {
            crossbar_rows: [5, 8, 12, 40][rows_pick],
            crossbar_cols: 8,
            bitstream_len: window,
            grayzone_ua: 6.0,
            counter: if approx { CounterKind::Approximate } else { CounterKind::Exact },
            ..Default::default()
        };
        let model = spec.build_software(&hw, seed);
        let fm = FaultModel::new(0.15 * faults as f64, 0.1 * faults as f64).unwrap();
        let mut deployed = deploy(&spec, &model, &hw).unwrap();
        let defects = deployed.inject_faults(&fm, &mut DeviceRng::seed_from_u64(seed ^ 0xFA17));
        let mut packed = deploy(&spec, &model, &hw).unwrap().to_packed();
        prop_assert_eq!(
            packed.inject_faults(&fm, &mut DeviceRng::seed_from_u64(seed ^ 0xFA17)),
            defects
        );
        let tables = packed.stochastic_tables(&aqfp_device::VariationModel::nominal());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBEEF);
        let images = bnn_nn::Tensor::from_vec(
            &[2, c, h, w],
            (0..2 * c * h * w).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let root = CounterStream::from_seed(seed ^ 0xE0);
        for (i, plane) in planes_of(&images).iter().enumerate() {
            let stream = root.derive(i as u64);
            prop_assert_eq!(
                packed.classify_stochastic_plane_ctr(&tables, plane, &stream),
                deployed.classify(&images, i, &stream),
                "sample {}", i
            );
        }
    }

    /// `ones_prefix` is consistent with `ones` of a truncated stream.
    #[test]
    fn packed_prefix_counts_are_consistent(
        bits in prop::collection::vec(prop::bool::ANY, 1..300),
        cut in 0usize..300,
    ) {
        use aqfp_sc::packed::PackedStream;
        let ub = Bitstream::from_bits(bits.iter().map(|&b| Bit::from_bool(b)).collect());
        let p = PackedStream::from_bitstream(&ub);
        let cut = cut.min(bits.len());
        let expect = bits[..cut].iter().filter(|&&b| b).count();
        prop_assert_eq!(p.ones_prefix(cut), expect);
    }

    /// Synthesis optimization preserves function and never grows JJ cost.
    #[test]
    fn synth_preserves_function_on_random_dags(seed in 0u64..40) {
        use aqfp_device::CellLibrary;
        use aqfp_netlist::synth::optimize;
        let cfg = RandomDagConfig {
            inputs: 8,
            gates: 60,
            ..Default::default()
        };
        let nl = random_dag(&cfg, &mut rand::rngs::StdRng::seed_from_u64(seed));
        let (opt, report) = optimize(&nl, &CellLibrary::hstp());
        prop_assert!(report.jj_after <= report.jj_before);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xFEED);
        for _ in 0..16 {
            let inputs: Vec<bool> = (0..nl.input_count())
                .map(|_| rand::Rng::gen(&mut rng))
                .collect();
            prop_assert_eq!(nl.eval(&inputs).unwrap(), opt.eval(&inputs).unwrap());
        }
    }

    /// The wide-word datapath's width invariant: the fused XNOR+vote GEMM
    /// tile kernel is bit-identical between the scalar `u64` word and the
    /// 4-lane `V256` chunk on random ragged geometries — including
    /// faulted states (stuck cells and dead columns folded into the SWAR
    /// biases) and pixel counts that leave partial vector chunks — and
    /// both agree with the per-plane scalar vote kernel.
    #[test]
    fn packed_gemm_kernel_is_width_invariant(
        fan_in in 1usize..200,
        out in 1usize..14,
        rows in 1usize..40,
        n in 1usize..140,
        stuck in 0u8..3,
        seed in 0u64..800,
    ) {
        use aqfp_sc::{PackedMatrix, V256};
        let hw = HardwareConfig {
            crossbar_rows: rows,
            crossbar_cols: 8,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let signs = sign_matrix(&mut rng, fan_in * out);
        let vth: Vec<f64> = (0..out).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let flips: Vec<bool> = (0..out).map(|_| rng.gen()).collect();
        let mut m = TiledMatrix::new(&signs, fan_in, out, vth, flips, &hw);
        if stuck > 0 {
            let fm = FaultModel::new(0.15 * stuck as f64, 0.2 * stuck as f64).unwrap();
            m.inject_faults(&fm, &mut rng);
        }
        let checker = DieChecker::new(&m);
        let packed = checker.packed();
        let mut acts = PackedMatrix::zeros(n, fan_in);
        for p in 0..n {
            for i in 0..fan_in {
                if rng.gen() {
                    acts.set(p, i, true);
                }
            }
        }
        let narrow = packed.forward_matrix_as::<u64>(&acts);
        let wide = packed.forward_matrix_as::<V256>(&acts);
        prop_assert_eq!(narrow.storage(), wide.storage(), "u64 vs V256");
        // The per-plane scalar vote kernel must agree with the blocked
        // GEMM kernel — checked through the equivalence API so a lane
        // mismatch reports a typed counterexample.
        for p in (0..n).step_by((n / 3).max(1)) {
            let pair = (Engine::PackedDigital, Engine::PackedSimd);
            if let Err(ce) = checker.check(pair, &acts.row_plane(p)) {
                prop_assert!(false, "width invariant broken at pixel {}: {}", p, ce);
            }
        }
    }

    /// The event-driven delta engine screens bit-identically to the
    /// full-forward engine on random ragged MLP and conv geometries:
    /// the whole `ScreeningReport` — detection matrix, greedy cover,
    /// coverage ratios, sealed probes — must match field for field over
    /// every targeted fault class (or fail with the identical typed
    /// error on degenerate universes).
    #[test]
    fn delta_screening_matches_full_on_ragged_geometries(
        rows in 4usize..20,
        cols in 2usize..10,
        hidden in 4usize..16,
        conv in prop::bool::ANY,
        seed in 0u64..300,
    ) {
        use superbnn::screening::{generate_probes, synthesize_probes, ScreenEngine, ScreeningConfig};
        let hw = HardwareConfig {
            crossbar_rows: rows,
            crossbar_cols: cols,
            ..Default::default()
        };
        let spec = if conv {
            NetSpec::vgg_small([1, 8, 8], 4, 5)
        } else {
            NetSpec::mlp(&[1, 6, 6], &[hidden], 5)
        };
        let model = spec.build_software(&hw, seed);
        let packed = deploy(&spec, &model, &hw).unwrap().to_packed();
        let input_len: usize = packed.input_shape().iter().product();
        let candidates = synthesize_probes(input_len, 12, seed ^ 0xD17A);
        let cfg = ScreeningConfig::default()
            .with_fault_classes(48)
            .with_max_vectors(8)
            .with_seed(seed)
            .with_workers(2);
        let full = generate_probes(&packed, &candidates, &cfg.with_engine(ScreenEngine::Full));
        let delta = generate_probes(&packed, &candidates, &cfg.with_engine(ScreenEngine::Delta));
        prop_assert_eq!(full, delta);
    }

    /// Delta evaluation composes with the undo journal exactly like the
    /// full engine: patch → fault-cone classify → revert leaves the
    /// model bit-identical to pristine, the shared activation cache
    /// stays valid across trials, and every trial's delta labels/scores
    /// equal the patched model's full forward.
    #[test]
    fn delta_eval_commutes_with_the_fault_journal(
        rows in 4usize..20,
        cols in 2usize..10,
        hidden in 4usize..16,
        seed in 0u64..300,
    ) {
        use aqfp_crossbar::faults::PatchJournal;
        use aqfp_device::{DeviceRng, SeedableRng};
        use superbnn::deploy::{ActivationCache, DirtyChannels};
        use superbnn::screening::synthesize_probes;
        let hw = HardwareConfig {
            crossbar_rows: rows,
            crossbar_cols: cols,
            ..Default::default()
        };
        let spec = NetSpec::mlp(&[1, 6, 6], &[hidden], 5);
        let model = spec.build_software(&hw, seed);
        let pristine = deploy(&spec, &model, &hw).unwrap().to_packed();
        let planes = synthesize_probes(36, 6, seed ^ 0xCAFE);
        let cache = ActivationCache::new(&pristine, &planes);
        let fm = FaultModel::new(0.05, 0.02).unwrap();
        let mut m = pristine.clone();
        let mut journal = PatchJournal::new();
        for trial in 0..3u64 {
            let draws = m.draw_faults(&fm, &mut DeviceRng::seed_from_u64(seed ^ trial));
            m.apply_draws_journaled(&draws, &mut journal);
            let dirty = DirtyChannels::from_draws(&m, &draws);
            let got = m.delta_classify_planes(&cache, &dirty);
            let want = m.classify_planes(&planes);
            prop_assert_eq!(got, want, "trial {}", trial);
            m.revert_faults(&mut journal);
            prop_assert_eq!(&m, &pristine, "reverted state, trial {}", trial);
            prop_assert!(journal.is_empty(), "journal drained, trial {}", trial);
        }
        // The cache the trials shared is still the pristine model's
        // trace — rebuilding it from scratch lands the identical bits.
        prop_assert_eq!(&cache, &ActivationCache::new(&pristine, &planes));
    }

    /// The Stanh FSM output is a valid stream whose value has the input's
    /// sign for clearly non-zero inputs.
    #[test]
    fn stanh_tracks_input_sign(
        mag in 0.4f64..0.95,
        positive in prop::bool::ANY,
        states in 2u32..10,
    ) {
        use aqfp_sc::fsm::StanhFsm;
        use aqfp_sc::packed::PackedStream;
        let x = if positive { mag } else { -mag };
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let s = PackedStream::generate_bipolar(x, 16_384, &mut rng);
        let y = StanhFsm::new(states * 2).run(&s).bipolar_value();
        prop_assert!((y > 0.0) == positive, "x={x} y={y}");
    }
}

/// Deterministic boundary sweep of the wide-word GEMM kernel: pixel
/// counts that leave 1–3 trailing `u64` words (a partial `V256` chunk at
/// the end of a 64-pixel block) and row geometries with 1–3 words per
/// row, crossed — exactly the edges where a lane-indexing bug would
/// read or write garbage pixels.
#[test]
fn packed_gemm_width_boundary_trailing_words() {
    use aqfp_sc::{PackedMatrix, V256};
    let hw = HardwareConfig {
        crossbar_rows: 32,
        crossbar_cols: 8,
        ..Default::default()
    };
    // 27 = single narrow tile (lane rounded up), 72/144 = ragged last
    // tile, 64/128 = exact whole words.
    for &fan_in in &[27usize, 64, 72, 128, 144] {
        let out = 6usize;
        let signs: Vec<f32> = (0..fan_in * out)
            .map(|i| if (i * 7 + 3) % 5 < 2 { 1.0 } else { -1.0 })
            .collect();
        let vth: Vec<f64> = (0..out).map(|o| o as f64 * 0.4 - 1.1).collect();
        let m = TiledMatrix::new(&signs, fan_in, out, vth, vec![false; out], &hw);
        let packed = PackedTiledMatrix::from_tiled(&m);
        // 1..=5 covers every trailing-lane residue of a V256 chunk;
        // 63..=67 covers the same residues straddling a 64-pixel block.
        for n in (1usize..=5).chain(63..=67) {
            let mut acts = PackedMatrix::zeros(n, fan_in);
            for p in 0..n {
                for i in 0..fan_in {
                    if (p * 31 + i * 13 + fan_in) % 3 == 0 {
                        acts.set(p, i, true);
                    }
                }
            }
            let narrow = packed.forward_matrix_as::<u64>(&acts);
            let wide = packed.forward_matrix_as::<V256>(&acts);
            assert_eq!(
                narrow.storage(),
                wide.storage(),
                "u64/V256 divergence at fan_in {fan_in}, {n} pixels"
            );
            for p in 0..n {
                let plane = packed.forward_plane(&acts.row_plane(p));
                for ch in 0..out {
                    assert_eq!(
                        narrow.get(ch, p),
                        plane.get(ch),
                        "scalar divergence at fan_in {fan_in}, pixel {p}, ch {ch}"
                    );
                }
            }
        }
    }
}

/// Regression: an **empty** fault draw (`&[]`) through the journaled
/// path is a no-op — the model is untouched, the journal stays empty,
/// and the paired `revert_faults` is also a no-op. The pre-fix code
/// tripped the tile-count assert on the empty slice. Both the lowered
/// and the scalar engines get the same semantics.
#[test]
fn empty_fault_draw_is_a_journaled_no_op() {
    use aqfp_crossbar::faults::PatchJournal;
    let hw = HardwareConfig {
        crossbar_rows: 8,
        crossbar_cols: 8,
        ..Default::default()
    };
    let spec = NetSpec::mlp(&[1, 6, 6], &[8], 4);
    let model = spec.build_software(&hw, 3);
    let pristine = deploy(&spec, &model, &hw).unwrap().to_packed();
    // Stage 0 is the Flatten rewrite; stage 1 is the first Linear.
    let mut m = pristine.clone();
    let mut journal = PatchJournal::new();
    m.apply_layer_faults_journaled(1, &[], &mut journal);
    assert!(journal.is_empty(), "empty draw must record nothing");
    assert_eq!(m, pristine, "empty draw must not touch the model");
    m.revert_faults(&mut journal);
    assert_eq!(m, pristine, "reverting an empty draw is a no-op");
    // The scalar tiled matrix mirrors the empty-slice semantics.
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let signs = sign_matrix(&mut rng, 36 * 8);
    let vth: Vec<f64> = (0..8).map(|_| rng.gen_range(-3.0..3.0)).collect();
    let mut scalar = TiledMatrix::new(&signs, 36, 8, vth, vec![false; 8], &hw);
    let input: Vec<Bit> = (0..36).map(|_| Bit::from_bool(rng.gen())).collect();
    let before = scalar.forward_digital(&input);
    scalar.apply_faults(&[]);
    assert_eq!(scalar.forward_digital(&input), before);
}

/// A plain (non-proptest) regression: the paper's SN examples parse and
/// decode as printed.
#[test]
fn paper_sn_examples_decode() {
    assert!((parse_stream("0100110100").unipolar_value() - 0.4).abs() < 1e-12);
    assert!((parse_stream("1011011101").bipolar_value() - 0.4).abs() < 1e-12);
    assert!((parse_stream("0100100000").bipolar_value() + 0.6).abs() < 1e-12);
}

/// The approximate parallel counter's per-cycle error pattern depends on
/// the bit layout *across* tiles, so the packed stochastic engine
/// transposes its word-mask streams back into cycle words and mirrors
/// `Apc::count_approx` — flip-for-flip identical to the scalar engine like
/// the exact path.
#[test]
fn packed_stochastic_matches_scalar_with_approximate_counter() {
    use aqfp_sc::accumulate::CounterKind;
    let hw = HardwareConfig {
        crossbar_rows: 8,
        crossbar_cols: 8,
        grayzone_ua: 8.0,
        bitstream_len: 16,
        counter: CounterKind::Approximate,
        ..Default::default()
    };
    let spec = NetSpec::mlp(&[1, 8, 8], &[16], 4);
    let model = spec.build_software(&hw, 5);
    let deployed = deploy(&spec, &model, &hw).unwrap();
    let packed = deployed.to_packed();
    let tables = packed.stochastic_tables(&aqfp_device::VariationModel::nominal());
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let images = bnn_nn::Tensor::from_vec(
        &[3, 1, 8, 8],
        (0..3 * 64).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
    );
    let root = CounterStream::from_seed(11);
    for (i, plane) in planes_of(&images).iter().enumerate() {
        let stream = root.derive(i as u64);
        assert_eq!(
            packed.classify_stochastic_plane_ctr(&tables, plane, &stream),
            deployed.classify(&images, i, &stream),
            "sample {i}"
        );
    }
}

/// Scalar ≡ packed stochastic at the benchmark die's shape: a VGG-Small
/// conv pipeline on 32×32 crossbars with the Monte Carlo campaigns'
/// widened 4 µA gray zone, at the default 16-cycle window and at L = 32
/// (the exact counter's straight-line block and its draw loop), with the
/// same stuck cells and dead columns drawn into both engines.
#[test]
fn packed_stochastic_vgg_matches_scalar_at_benchmark_shape() {
    use aqfp_device::{DeviceRng, SeedableRng};
    let spec = NetSpec::vgg_small([3, 16, 16], 4, 10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EB);
    let images = bnn_nn::Tensor::from_vec(
        &[4, 3, 16, 16],
        (0..4 * 3 * 16 * 16)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
    );
    let fm = FaultModel::new(0.05, 0.005).unwrap();
    for window in [16, 32] {
        let hw = HardwareConfig {
            crossbar_rows: 32,
            crossbar_cols: 32,
            grayzone_ua: 4.0,
            bitstream_len: window,
            ..Default::default()
        };
        let model = spec.build_software(&hw, 9);
        let mut scalar = deploy(&spec, &model, &hw).unwrap();
        let defects = scalar.inject_faults(&fm, &mut DeviceRng::seed_from_u64(0xFA17));
        let mut packed = deploy(&spec, &model, &hw).unwrap().to_packed();
        assert_eq!(
            packed.inject_faults(&fm, &mut DeviceRng::seed_from_u64(0xFA17)),
            defects
        );
        let dead = packed
            .layers()
            .iter()
            .filter_map(PackedLayer::matrix)
            .map(|m| {
                (0..m.out())
                    .flat_map(|c| (0..m.row_tiles()).map(move |r| (c, r)))
                    .filter(|&(c, r)| m.dead_override(c, r).is_some())
                    .count()
            })
            .sum::<usize>();
        assert!(dead > 0, "the draw must pin some dead columns");
        let tables = packed.stochastic_tables(&aqfp_device::VariationModel::nominal());
        let root = CounterStream::from_seed(window as u64);
        for (i, plane) in planes_of(&images).iter().enumerate() {
            let stream = root.derive(i as u64);
            assert_eq!(
                packed.classify_stochastic_plane_ctr(&tables, plane, &stream),
                scalar.classify(&images, i, &stream),
                "L {window}, sample {i}"
            );
        }
    }
}
