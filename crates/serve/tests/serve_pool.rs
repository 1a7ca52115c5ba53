//! End-to-end tests of the persistent worker pool: request-order
//! preservation, bit-identity against the single-threaded reference
//! engine (including under injected faults), back-pressure, graceful
//! drain on shutdown, and load-generator accounting.

use std::time::Duration;

use aqfp_crossbar::faults::FaultModel;
use aqfp_device::{DeviceRng, SeedableRng};
use aqfp_sc::BitPlane;
use bnn_datasets::{digits::generate_digits, SynthConfig};
use superbnn::config::HardwareConfig;
use superbnn::deploy::{deploy, BitMap, PackedModel};
use superbnn::spec::NetSpec;
use superbnn_serve::{closed_loop, open_loop, ServeConfig, ServeError, Server};

/// A small deployed MLP plus every dataset sample packed as an input
/// plane (256 bits: `[1, 16, 16]`).
fn packed_fixture(seed: u64) -> (PackedModel, Vec<BitPlane>) {
    let hw = HardwareConfig {
        crossbar_rows: 16,
        crossbar_cols: 16,
        ..Default::default()
    };
    let spec = NetSpec::mlp(&[1, 16, 16], &[32], 10);
    let model = spec.build_software(&hw, seed);
    let packed = deploy(&spec, &model, &hw).expect("deploys").to_packed();
    let data = generate_digits(&SynthConfig {
        samples_per_class: 5,
        ..Default::default()
    });
    let planes = (0..data.len())
        .map(|i| BitMap::from_tensor_sample(&data.images, i).to_plane())
        .collect();
    (packed, planes)
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        replicas: 2,
        max_batch: 8,
        max_delay: Duration::from_micros(100),
        queue_capacity: 1024,
    }
}

/// Responses come back in request order and bit-identical — labels and
/// exact logit bit patterns — to the single-worker reference engine.
#[test]
fn pool_matches_single_worker_reference_in_order() {
    let (packed, planes) = packed_fixture(6);
    let reference = packed
        .clone()
        .with_workers(1)
        .expect("one worker is always valid");
    let want: Vec<(usize, Vec<f32>)> = planes
        .iter()
        .flat_map(|p| reference.classify_planes(std::slice::from_ref(p)))
        .collect();

    let server = Server::start(packed, serve_config()).expect("server starts");
    for pass in 0..3 {
        let pending: Vec<_> = planes
            .iter()
            .map(|p| server.submit(p.clone()).expect("submit accepted"))
            .collect();
        for (i, p) in pending.into_iter().enumerate() {
            let (label, scores) = p.wait().expect("request answered");
            assert_eq!(label, want[i].0, "label, pass {pass} sample {i}");
            let got: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
            let expect: Vec<u32> = want[i].1.iter().map(|s| s.to_bits()).collect();
            assert_eq!(got, expect, "logit bits, pass {pass} sample {i}");
        }
    }
    let m = server.shutdown();
    assert_eq!(m.submitted, 3 * planes.len() as u64);
    assert_eq!(m.completed, m.submitted);
    assert_eq!(m.rejected, 0);
    assert_eq!(m.latency.count(), m.completed);
    assert!(m.batches > 0 && m.max_batch <= 8);
}

/// Fault injection mutates the weight planes and the dead-column state
/// the SWAR tables fold; a faulted model must serve bit-identically to
/// its own single-threaded reference too.
#[test]
fn faulted_model_serves_bit_identical() {
    let (mut packed, planes) = packed_fixture(13);
    let mut rng = DeviceRng::seed_from_u64(9);
    let defects = packed.inject_faults(
        &FaultModel::new(0.05, 0.02).expect("valid fault model"),
        &mut rng,
    );
    assert!(defects > 0, "fault campaign drew no defects");
    let want: Vec<(usize, Vec<f32>)> = planes
        .iter()
        .flat_map(|p| packed.classify_planes(std::slice::from_ref(p)))
        .collect();

    let server = Server::start(packed, serve_config()).expect("server starts");
    let pending: Vec<_> = planes
        .iter()
        .map(|p| server.submit(p.clone()).expect("submit accepted"))
        .collect();
    for (i, p) in pending.into_iter().enumerate() {
        let (label, scores) = p.wait().expect("request answered");
        assert_eq!(label, want[i].0, "faulted label, sample {i}");
        let got: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
        let expect: Vec<u32> = want[i].1.iter().map(|s| s.to_bits()).collect();
        assert_eq!(got, expect, "faulted logit bits, sample {i}");
    }
}

/// Shutdown must drain every accepted request — even ones that would
/// otherwise sit out a (deliberately enormous) batching delay.
#[test]
fn shutdown_answers_every_accepted_request() {
    let (packed, planes) = packed_fixture(21);
    let server = Server::start(
        packed,
        ServeConfig {
            workers: 1,
            replicas: 1,
            max_batch: 64,
            // No batch will ever fill or expire on its own: completion
            // can only come from the shutdown drain.
            max_delay: Duration::from_secs(3600),
            queue_capacity: 1024,
        },
    )
    .expect("server starts");
    let pending: Vec<_> = (0..32)
        .map(|i| {
            server
                .submit(planes[i % planes.len()].clone())
                .expect("submit accepted")
        })
        .collect();
    let m = server.shutdown();
    assert_eq!(m.completed, 32, "shutdown dropped accepted requests");
    for p in pending {
        p.wait().expect("drained request answered");
    }
}

/// The queue bound rejects with `QueueFull` instead of growing without
/// limit, and the rejection is counted.
#[test]
fn queue_capacity_back_pressure() {
    let (packed, planes) = packed_fixture(33);
    let server = Server::start(
        packed,
        ServeConfig {
            workers: 1,
            replicas: 1,
            max_batch: 64,
            max_delay: Duration::from_secs(3600),
            queue_capacity: 4,
        },
    )
    .expect("server starts");
    let accepted: Vec<_> = (0..4)
        .map(|i| server.submit(planes[i].clone()).expect("within capacity"))
        .collect();
    assert!(matches!(
        server.submit(planes[4].clone()),
        Err(ServeError::QueueFull)
    ));
    let m = server.shutdown();
    assert_eq!(m.rejected, 1);
    assert_eq!(m.completed, 4);
    for p in accepted {
        p.wait().expect("accepted request answered");
    }
}

/// Config and input validation are typed errors, not panics.
#[test]
fn invalid_configs_and_inputs_are_errors() {
    let (packed, _) = packed_fixture(40);
    for bad in [
        ServeConfig {
            workers: 0,
            ..serve_config()
        },
        ServeConfig {
            replicas: 0,
            ..serve_config()
        },
        ServeConfig {
            workers: 1,
            replicas: 2,
            ..serve_config()
        },
        ServeConfig {
            max_batch: 0,
            ..serve_config()
        },
        ServeConfig {
            queue_capacity: 0,
            ..serve_config()
        },
    ] {
        assert!(
            matches!(
                Server::start(packed.clone(), bad),
                Err(ServeError::Config(_))
            ),
            "config accepted: {bad:?}"
        );
    }

    let server = Server::start(packed, serve_config()).expect("server starts");
    match server.submit(BitPlane::zeros(5)) {
        Err(ServeError::BadInput { expected, got }) => {
            assert_eq!((expected, got), (256, 5));
        }
        other => panic!("expected BadInput, got {other:?}"),
    }
}

/// The closed-loop generator accounts for every request and observes
/// sane latency ordering.
#[test]
fn closed_loop_accounts_for_every_request() {
    let (packed, planes) = packed_fixture(55);
    let server = Server::start(packed, serve_config()).expect("server starts");
    let report = closed_loop(&server, &planes, 3, 20);
    assert_eq!(report.offered, 60);
    assert_eq!(report.completed, 60);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.latency.count(), 60);
    assert!(report.throughput_rps > 0.0);
    assert!(report.p50() <= report.p99() && report.p99() <= report.p999());
    let m = server.shutdown();
    assert_eq!(m.completed, 60);
}

/// The open-loop generator never loses a request between dispatch,
/// rejection and completion.
#[test]
fn open_loop_accounts_for_every_request() {
    let (packed, planes) = packed_fixture(70);
    let server = Server::start(packed, serve_config()).expect("server starts");
    let report = open_loop(&server, &planes, 2_000.0, 80, 2);
    assert_eq!(report.offered, 80);
    assert_eq!(report.completed + report.rejected, 80);
    assert_eq!(report.latency.count(), report.completed);
    let m = server.shutdown();
    assert_eq!(m.completed, report.completed);
}
