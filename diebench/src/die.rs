//! The one die every workload shares, and its set-up.
//!
//! The die is the objects VGG-Small (3×16×16 input, first-stage width 8)
//! trained, deployed and lowered at the robustness-campaign operating
//! point of `superbnn::experiments::robustness_workload`: 32×32
//! crossbars, a 0.4 µA gray zone and L = 16. Set-up replays that
//! function's steps through the same public calls so each step can be
//! timed on its own. The die is fixed: its dataset and training seed do
//! not depend on the workload seed, so every workload seed exercises the
//! same die and only the generated inputs change.

use std::path::Path;

use aqfp_sc::BitPlane;
use bnn_datasets::Dataset;
use superbnn::config::HardwareConfig;
use superbnn::deploy::{deploy, BitMap, PackedModel};
use superbnn::experiments::{train_model, ExperimentScale};
use superbnn::robustness::interleaved_eval_set;
use superbnn::spec::NetSpec;

use crate::report::{median, Tally};
use crate::trace::{SpanId, Tracer};

/// The training scale of the robustness bench's VGG workload.
pub const SCALE: ExperimentScale = ExperimentScale {
    samples_per_class: 60,
    epochs: 12,
    eval_samples: 48,
    width: 8,
    mlp_hidden: [64, 32],
    seed: 7,
};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Ten classes: chance accuracy is 0.1. Throughput is reported only for a
/// die whose clean accuracy clears chance by this margin.
pub const CHANCE: f64 = 0.1;
pub const ACCURACY_MARGIN: f64 = 0.1;

pub fn hardware() -> HardwareConfig {
    HardwareConfig {
        crossbar_rows: 32,
        crossbar_cols: 32,
        grayzone_ua: 0.4,
        bitstream_len: 16,
        ..Default::default()
    }
}

pub struct Die {
    pub model: PackedModel,
    /// The class-interleaved test split (every prefix is class-balanced).
    pub eval: Dataset,
}

impl Die {
    /// The first `n` eval samples as packed input planes.
    pub fn planes(&self, n: usize) -> Vec<BitPlane> {
        (0..n.min(self.eval.len()))
            .map(|i| BitMap::from_tensor_sample(&self.eval.images, i).to_plane())
            .collect()
    }

    pub fn input_len(&self) -> usize {
        self.model.input_shape().iter().product()
    }

    /// Clean digital accuracy over the whole interleaved eval set.
    pub fn accuracy(&self) -> f64 {
        self.model.accuracy(&self.eval, None)
    }
}

/// Wall time of each set-up step, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub data_s: f64,
    pub train_s: f64,
    pub deploy_s: f64,
    pub lower_s: f64,
    pub snapshot_save_s: f64,
    pub snapshot_load_s: f64,
    pub total_s: f64,
}

pub struct Setup {
    pub die: Die,
    /// Median of the repetitions' total set-up times.
    pub setup_s: f64,
    /// Per-step medians across the repetitions.
    pub steps: SetupTimes,
    /// Total set-up time of each repetition, in order.
    pub totals: Vec<f64>,
}

/// Builds the die once: dataset synthesis, training, deployment, lowering
/// and (with `snapshot`) a save + cold load of the lowered die through
/// `SBNNSNAP`, in which case the returned die is the loaded one and the
/// flag says whether it equals the die that was saved (compared outside
/// the timed steps).
fn build(
    tracer: &mut Tracer,
    parent: SpanId,
    snapshot: Option<&Path>,
) -> (Die, SetupTimes, Option<bool>) {
    let hw = hardware();
    let spec = NetSpec::vgg_small([3, 16, 16], SCALE.width, 10);
    let span = tracer.open("setup", parent);
    let ((train, test), data) = tracer.time("setup.data", span, || SCALE.objects_data());
    let ((model, _), train_t) = tracer.time("trainer.train", span, || {
        train_model(&spec, &hw, &SCALE, &train)
    });
    let (deployed, deploy_t) = tracer.time("deploy.deploy", span, || {
        deploy(&spec, &model, &hw).expect("the VGG spec matches its trained model")
    });
    let (mut packed, lower_t) = tracer.time("deploy.lower", span, || deployed.to_packed());
    let eval = interleaved_eval_set(&test, None);
    let mut times = SetupTimes {
        data_s: data.as_secs_f64(),
        train_s: train_t.as_secs_f64(),
        deploy_s: deploy_t.as_secs_f64(),
        lower_s: lower_t.as_secs_f64(),
        ..Default::default()
    };
    let mut round_trip = None;
    if let Some(path) = snapshot {
        let (saved, save_t) = tracer.time("snapshot.save", span, || packed.save_snapshot(path));
        saved.expect("the work directory is writable");
        let (loaded, load_t) =
            tracer.time("snapshot.load", span, || PackedModel::load_snapshot(path));
        let loaded = loaded.expect("a snapshot written by this build loads");
        round_trip = Some(loaded == packed);
        packed = loaded;
        times.snapshot_save_s = save_t.as_secs_f64();
        times.snapshot_load_s = load_t.as_secs_f64();
    }
    tracer.close(span);
    times.total_s = times.data_s
        + times.train_s
        + times.deploy_s
        + times.lower_s
        + times.snapshot_save_s
        + times.snapshot_load_s;
    (
        Die {
            model: packed,
            eval,
        },
        times,
        round_trip,
    )
}

/// Sets the die up [`SETUP_REPS`] times and keeps the first. Gates:
/// every repetition yields the bit-identical die, and (with a snapshot)
/// the cold-loaded die equals the one that was saved. With `traced`, the
/// second repetition runs with spans and the others without, so the warm
/// third one is its untraced comparison.
pub fn setup(
    tracer: &mut Tracer,
    parent: SpanId,
    snapshot: Option<&Path>,
    traced: bool,
    tally: &mut Tally,
) -> Setup {
    let mut first: Option<Die> = None;
    let mut all: Vec<SetupTimes> = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        tracer.set_enabled(traced && rep == 1);
        let (die, times, round_trip) = build(tracer, parent, snapshot);
        all.push(times);
        if let Some(ok) = round_trip {
            tally.gate(ok, "the SBNNSNAP cold load equals the saved die");
        }
        match &first {
            None => first = Some(die),
            Some(f) => tally.gate(
                f.model == die.model,
                "set-up repetitions build the same die",
            ),
        }
    }
    tracer.set_enabled(false);
    let pick = |f: fn(&SetupTimes) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
    let steps = SetupTimes {
        data_s: pick(|t| t.data_s),
        train_s: pick(|t| t.train_s),
        deploy_s: pick(|t| t.deploy_s),
        lower_s: pick(|t| t.lower_s),
        snapshot_save_s: pick(|t| t.snapshot_save_s),
        snapshot_load_s: pick(|t| t.snapshot_load_s),
        total_s: pick(|t| t.total_s),
    };
    Setup {
        die: first.expect("at least one set-up repetition"),
        setup_s: steps.total_s,
        steps,
        totals: all.iter().map(|t| t.total_s).collect(),
    }
}
