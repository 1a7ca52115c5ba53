//! Die-level per-layer probes, run by every traced run: each pipeline
//! stage and the classifier head, the conv GEMM at both word widths, the
//! counter-mode stochastic kernels, and the snapshot codec. Every number
//! comes from timing one public call on the die's clean activation trace.

use std::path::Path;

use aqfp_device::VariationModel;
use aqfp_sc::bitplane::packed_im2col;
use aqfp_sc::{BitPlane, CounterStream, PackedMatrix, V256};
use superbnn::deploy::{PackedLayer, PackedModel, RngMode};

use crate::die::{Die, Setup};
use crate::report::{median, Metrics, Tally};
use crate::trace::{SpanId, Tracer};

/// Samples the stage probes run over (a prefix of the interleaved eval set).
const SAMPLES: usize = 48;
/// Interleaved timing rounds; each number is the median over rounds. A
/// round takes tens of milliseconds, shorter than the host's speed
/// swings, so the stage-sum check compares stages and the whole pipeline
/// within each round and takes the median of those ratios.
const ROUNDS: usize = 25;
const STOCHASTIC_ROUNDS: usize = 5;
/// How far the stage sum may stray from the measured `classify_planes`
/// time before the traced run fails.
const STAGE_SUM_TOLERANCE: f64 = 0.05;

/// The stage's metric prefix, `s<i>_<kind>`.
fn stage_name(i: usize, layer: &PackedLayer) -> String {
    format!("s{i}_{}", layer.name())
}

/// The clean trace: `inputs[i][s]` is sample `s`'s input plane to stage
/// `i`, `shapes[i]` its shape; the last entry feeds the classifier head.
struct CleanTrace {
    inputs: Vec<Vec<BitPlane>>,
    shapes: Vec<[usize; 3]>,
}

fn clean_trace(model: &PackedModel, planes: &[BitPlane]) -> CleanTrace {
    let mut inputs = vec![planes.to_vec()];
    let mut shapes = vec![model.input_shape()];
    for layer in model.layers() {
        let shape = *shapes.last().expect("the trace starts with the input");
        let next = inputs
            .last()
            .expect("the trace starts with the input")
            .iter()
            .map(|p| layer.forward(p.clone(), shape).0)
            .collect();
        inputs.push(next);
        shapes.push(layer.out_shape(shape));
    }
    CleanTrace { inputs, shapes }
}

/// The im2col field matrices of conv stage `i` over the trace.
fn fields(trace: &CleanTrace, i: usize, layer: &PackedLayer) -> Option<Vec<PackedMatrix>> {
    let PackedLayer::Conv(conv) = layer else {
        return None;
    };
    let [c, h, w] = trace.shapes[i];
    let (_, k, stride, pad) = conv.geometry();
    Some(
        trace.inputs[i]
            .iter()
            .map(|p| packed_im2col(p, c, h, w, k, stride, pad, false))
            .collect(),
    )
}

fn ns_per(t: std::time::Duration, n: usize) -> f64 {
    t.as_secs_f64() * 1e9 / n as f64
}

/// Set-up breakdown and the snapshot codec.
pub fn setup_layers(
    setup: &Setup,
    work: &Path,
    tracer: &mut Tracer,
    parent: SpanId,
    out: &mut Metrics,
) {
    out.push("trainer.train_s", setup.steps.train_s, "s");
    out.push("deploy.deploy_s", setup.steps.deploy_s, "s");
    out.push("deploy.lower_s", setup.steps.lower_s, "s");
    let model = &setup.die.model;
    let path = work.join("layers.sbnnsnap");
    let (mut save_ms, mut load_ms) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        let (r, t) = tracer.time("snapshot.save", parent, || model.save_snapshot(&path));
        r.expect("the work directory is writable");
        save_ms.push(t.as_secs_f64() * 1e3);
        let (r, t) = tracer.time("snapshot.load", parent, || {
            PackedModel::load_snapshot(&path)
        });
        r.expect("a snapshot written by this build loads");
        load_ms.push(t.as_secs_f64() * 1e3);
    }
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    out.push("snapshot.save_ms", median(&save_ms), "ms");
    out.push("snapshot.load_ms", median(&load_ms), "ms");
    out.push("snapshot.bytes", bytes as f64, "bytes");
}

/// Per-stage digital pipeline times, the head, `classify_planes` at batch
/// 1 and at the whole sample set, and the stage-sum check. Gate: the
/// stages plus head sum to within [`STAGE_SUM_TOLERANCE`] of the measured
/// batch-1 `classify_planes` time (median of the per-round ratios).
pub fn pipeline(
    die: &Die,
    tracer: &mut Tracer,
    parent: SpanId,
    out: &mut Metrics,
    tally: &mut Tally,
) {
    let model = &die.model;
    let planes = die.planes(SAMPLES);
    let n = planes.len();
    let trace = clean_trace(model, &planes);
    let layers = model.layers();
    let mut stage_ns: Vec<Vec<f64>> = vec![Vec::new(); layers.len()];
    let (mut head_ns, mut b1_ns, mut bmax_ns) = (Vec::new(), Vec::new(), Vec::new());
    let span = tracer.open("pipeline.rounds", parent);
    for _ in 0..ROUNDS {
        for (i, layer) in layers.iter().enumerate() {
            let shape = trace.shapes[i];
            let inputs = &trace.inputs[i];
            let (_, t) = tracer.time(&format!("pipeline.{}", stage_name(i, layer)), span, || {
                for p in inputs {
                    std::hint::black_box(layer.forward(p.clone(), shape));
                }
            });
            stage_ns[i].push(ns_per(t, n));
        }
        let last = &trace.inputs[layers.len()];
        let (_, t) = tracer.time("pipeline.head", span, || {
            for p in last {
                std::hint::black_box(model.classifier().scores_plane(p));
            }
        });
        head_ns.push(ns_per(t, n));
        let (_, t) = tracer.time("pipeline.classify_planes.b1", span, || {
            for p in &planes {
                std::hint::black_box(model.classify_planes(std::slice::from_ref(p)));
            }
        });
        b1_ns.push(ns_per(t, n));
        let (_, t) = tracer.time("pipeline.classify_planes.bmax", span, || {
            std::hint::black_box(model.classify_planes(&planes));
        });
        bmax_ns.push(ns_per(t, n));
    }
    tracer.close(span);
    let ratios: Vec<f64> = (0..b1_ns.len())
        .map(|r| (stage_ns.iter().map(|v| v[r]).sum::<f64>() + head_ns[r]) / b1_ns[r])
        .collect();
    let stages: Vec<f64> = stage_ns.iter().map(|v| median(v)).collect();
    let head = median(&head_ns);
    let sum = stages.iter().sum::<f64>() + head;
    for (i, layer) in layers.iter().enumerate() {
        let name = stage_name(i, layer);
        out.push(format!("pipeline.{name}.ns_per_sample"), stages[i], "ns");
        out.push(
            format!("pipeline.{name}.share"),
            stages[i] / sum,
            "fraction",
        );
    }
    out.push("pipeline.head.ns_per_sample", head, "ns");
    out.push("pipeline.head.share", head / sum, "fraction");
    let b1 = median(&b1_ns);
    let ratio = median(&ratios);
    out.push("pipeline.stage_sum_ratio", ratio, "ratio");
    out.push("pipeline.classify_planes.ns_per_sample_b1", b1, "ns");
    out.push(
        "pipeline.classify_planes.ns_per_sample_bmax",
        median(&bmax_ns),
        "ns",
    );
    tally.gate(
        (ratio - 1.0).abs() <= STAGE_SUM_TOLERANCE,
        &format!("pipeline stages sum to classify_planes time (ratio {ratio:.4})"),
    );
}

/// The conv GEMM at `u64` and `V256` width on each conv stage's real
/// im2col fields. Gate: both widths give identical outputs (checked
/// before timing). Returns, per conv stage, which width was faster.
pub fn bitplane(
    die: &Die,
    tracer: &mut Tracer,
    parent: SpanId,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Vec<(String, &'static str, f64)> {
    let model = &die.model;
    let planes = die.planes(SAMPLES);
    let trace = clean_trace(model, &planes);
    let mut winners = Vec::new();
    let mut v256_wins = 0usize;
    for (i, layer) in model.layers().iter().enumerate() {
        let (Some(fs), PackedLayer::Conv(conv)) = (fields(&trace, i, layer), layer) else {
            continue;
        };
        let m = conv.matrix();
        let same = fs
            .iter()
            .all(|f| m.forward_matrix_as::<u64>(f) == m.forward_matrix_as::<V256>(f));
        let name = stage_name(i, layer);
        tally.gate(same, &format!("u64 and V256 conv GEMMs agree on {name}"));
        let (mut narrow, mut wide) = (Vec::new(), Vec::new());
        for _ in 0..ROUNDS {
            let (_, t) = tracer.time(&format!("bitplane.{name}.u64"), parent, || {
                for f in &fs {
                    std::hint::black_box(m.forward_matrix_as::<u64>(f));
                }
            });
            narrow.push(ns_per(t, fs.len()));
            let (_, t) = tracer.time(&format!("bitplane.{name}.v256"), parent, || {
                for f in &fs {
                    std::hint::black_box(m.forward_matrix_as::<V256>(f));
                }
            });
            wide.push(ns_per(t, fs.len()));
        }
        let (u, v) = (median(&narrow), median(&wide));
        out.push(format!("bitplane.{name}.gemm_u64_ns"), u, "ns");
        out.push(format!("bitplane.{name}.gemm_v256_ns"), v, "ns");
        v256_wins += usize::from(v < u);
        winners.push((name, if v < u { "v256" } else { "u64" }, u / v));
    }
    out.push("bitplane.v256_win_stages", v256_wins as f64, "count");
    winners
}

/// Counter-mode stochastic kernels at the campaign's widened gray zone:
/// per weighted stage, `forward_stochastic_ctr` over every output pixel's
/// field (one child stream per pixel) and the `matches_into` match-count
/// phase alone; plus the table build and one campaign trial's evaluation.
pub fn stochastic(die: &Die, tracer: &mut Tracer, parent: SpanId, out: &mut Metrics) {
    let model = &die.model;
    let vm = VariationModel::grayzone_scale_only(crate::mc::GRAYZONE_SCALE)
        .expect("the widening is a valid scale");
    let planes = die.planes(SAMPLES);
    let labels = &die.eval.labels[..planes.len()];
    let n = planes.len();
    let trace = clean_trace(model, &planes);
    let root = CounterStream::from_seed(0x5743_5452);
    for (i, layer) in model.layers().iter().enumerate() {
        let Some(m) = layer.matrix() else {
            continue;
        };
        let name = stage_name(i, layer);
        let tables = m.stochastic_tables(&vm);
        // One activation row per evaluation: im2col fields per output
        // pixel for conv stages, the whole input plane for linear ones.
        let rows: Vec<Vec<BitPlane>> = match fields(&trace, i, layer) {
            Some(fs) => fs
                .iter()
                .map(|f| (0..f.rows()).map(|r| f.row_plane(r)).collect())
                .collect(),
            None => trace.inputs[i].iter().map(|p| vec![p.clone()]).collect(),
        };
        let mut counts = vec![0u32; m.out() * m.row_tiles()];
        let (mut full, mut matches) = (Vec::new(), Vec::new());
        for _ in 0..STOCHASTIC_ROUNDS {
            let (_, t) = tracer.time(&format!("stochastic.{name}.forward_ctr"), parent, || {
                for (s, sample) in rows.iter().enumerate() {
                    let stream = root.derive(s as u64);
                    for (px, row) in sample.iter().enumerate() {
                        std::hint::black_box(m.forward_stochastic_ctr(
                            &tables,
                            row,
                            &stream.derive(px as u64),
                        ));
                    }
                }
            });
            full.push(ns_per(t, n));
            let (_, t) = tracer.time(&format!("stochastic.{name}.matches"), parent, || {
                for sample in &rows {
                    for row in sample {
                        m.matches_into(row.words(), &mut counts);
                        std::hint::black_box(&counts);
                    }
                }
            });
            matches.push(ns_per(t, n));
        }
        out.push(
            format!("stochastic.{name}.ns_per_sample"),
            median(&full),
            "ns",
        );
        out.push(
            format!("stochastic.{name}.match_ns_per_sample"),
            median(&matches),
            "ns",
        );
    }
    let (mut tables_ms, mut eval_ms) = (Vec::new(), Vec::new());
    for rep in 0..STOCHASTIC_ROUNDS {
        let (tables, t) = tracer.time("stochastic.tables", parent, || {
            model.stochastic_tables_mode(&vm, RngMode::Counter)
        });
        tables_ms.push(t.as_secs_f64() * 1e3);
        let (_, t) = tracer.time("stochastic.accuracy_ctr", parent, || {
            model.accuracy_stochastic_planes_ctr(&tables, &planes, labels, rep as u64)
        });
        eval_ms.push(t.as_secs_f64() * 1e3);
    }
    out.push("stochastic.tables_ms", median(&tables_ms), "ms");
    out.push("stochastic.eval_ms_per_trial", median(&eval_ms), "ms");
}
