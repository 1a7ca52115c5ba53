//! One repeatable benchmark for the SupeRBNN die.
//!
//! ```text
//! diebench --workload <mc-vgg|atpg-vgg|serve-vgg> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload sets up the same die (see [`die`]), checks it, then
//! measures one user of it for `--seconds`: Monte Carlo robustness
//! campaigns ([`mc`]), fab-line ATPG screening ([`atpg`]) or open-loop
//! serving ([`serve`]). The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The traced
//! run also writes its spans to `.diebench/trace-<workload>-seed<n>.json`.
//! See `diebench/README.md` for every metric.

mod atpg;
mod die;
mod layers;
mod mc;
mod report;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Duration;

use report::{json_str, Metrics, Stamp, Tally};
use trace::{Tracer, ROOT};

const USAGE: &str =
    "usage: diebench --workload <mc-vgg|atpg-vgg|serve-vgg> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Mc,
    Atpg,
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Mc, Workload::Atpg, Workload::Serve];

    fn name(self) -> &'static str {
        match self {
            Workload::Mc => "mc-vgg",
            Workload::Atpg => "atpg-vgg",
            Workload::Serve => "serve-vgg",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    budget: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Worker threads of every pool the benchmark starts (campaign trials,
/// the ATPG detection matrix, the serve pool). One: on a 2-vCPU VM, two
/// busy threads each ran at half the single-thread speed with a 55%
/// interquartile spread, while one thread stayed within 5%, so a second
/// worker bought no throughput and made every figure unsteady.
pub fn workers() -> usize {
    1
}

/// SplitMix64 finalizer: derives well-spread sub-seeds from the workload
/// seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One measurement pass of a workload.
pub struct Measured {
    /// The workload's headline rate (`main_rate_per_s`).
    pub main_rate: f64,
    /// Its second rate (`side_rate_per_s`).
    pub side_rate: f64,
    /// p50 and p90 latency of the workload's single operation (`op_ms`,
    /// `op_tail_ms`): a replayed campaign trial, a replayed fault class, a
    /// request.
    pub op_ms: f64,
    pub op_tail_ms: f64,
    pub tally: Tally,
    /// Repetitions run (campaign pairs, probe generations, ladders).
    pub reps: usize,
}

/// The end-to-end metrics whose tracing overhead is reported, with
/// whether a higher value is better.
const TIMED_E2E: [(&str, bool); 5] = [
    ("setup_s", false),
    ("main_rate_per_s", true),
    ("side_rate_per_s", true),
    ("op_ms", false),
    ("op_tail_ms", false),
];

/// Which end-to-end metric and workload each per-layer group should move.
const LAYER_TAGS: [(&str, &str, &str); 14] = [
    ("trainer.", "setup_s", "all"),
    ("deploy.", "setup_s", "all"),
    ("snapshot.", "setup_s", "serve-vgg"),
    (
        "pipeline.",
        "main_rate_per_s, side_rate_per_s, op_ms (serve-vgg); side_rate_per_s (atpg-vgg)",
        "serve-vgg, atpg-vgg",
    ),
    ("bitplane.", "main_rate_per_s, side_rate_per_s", "serve-vgg"),
    ("stochastic.", "main_rate_per_s", "mc-vgg"),
    (
        "journal.trial.",
        "main_rate_per_s, side_rate_per_s, op_ms, op_tail_ms",
        "mc-vgg",
    ),
    (
        "journal.class.",
        "main_rate_per_s, op_ms, op_tail_ms",
        "atpg-vgg",
    ),
    (
        "robustness.defects_per_trial",
        "main_rate_per_s, side_rate_per_s, op_ms, op_tail_ms",
        "mc-vgg",
    ),
    ("robustness.", "side_rate_per_s, op_ms", "mc-vgg"),
    ("delta.", "main_rate_per_s, op_ms, op_tail_ms", "atpg-vgg"),
    ("screening.", "main_rate_per_s", "atpg-vgg"),
    ("serve.", "main_rate_per_s, op_ms, op_tail_ms", "serve-vgg"),
    ("trace.overhead.", "the named metric", "all"),
];

fn tag(name: &str) -> (&'static str, &'static str) {
    LAYER_TAGS
        .iter()
        .find(|(prefix, _, _)| name.starts_with(prefix))
        .map_or(("", ""), |&(_, e2e, w)| (e2e, w))
}

/// Per-layer metrics only one workload exercises; the others report them
/// as 0 (no such calls were made).
fn workload_layer_names(w: Workload) -> &'static [(&'static str, &'static str)] {
    match w {
        Workload::Mc => &[
            ("journal.trial.draw_us", "us"),
            ("journal.trial.apply_us", "us"),
            ("journal.trial.revert_us", "us"),
            ("journal.trial.patches", "count"),
            ("robustness.defects_per_trial", "count"),
            ("robustness.delta_trial_share", "fraction"),
            ("robustness.dirty_fraction_p50", "fraction"),
            ("robustness.dirty_fraction_p90", "fraction"),
            ("robustness.delta_eval_us", "us"),
            ("robustness.full_eval_us", "us"),
        ],
        Workload::Atpg => &[
            ("journal.class.draw_us", "us"),
            ("journal.class.apply_us", "us"),
            ("journal.class.revert_us", "us"),
            ("journal.class.patches", "count"),
            ("delta.cache_build_ms", "ms"),
            ("delta.eval_us_per_class", "us"),
            ("delta.dirty_channels_per_class", "count"),
            ("delta.changed_samples_per_class", "count"),
            ("delta.detect_ratio", "fraction"),
            ("screening.cover_ms", "ms"),
            ("screening.test_coverage", "fraction"),
        ],
        Workload::Serve => &[
            ("serve.client_p99_ms", "ms"),
            ("serve.server_p50_ms", "ms"),
            ("serve.server_p99_ms", "ms"),
            ("serve.compute_us_per_batch", "us"),
            ("serve.queue_wait_p50_ms", "ms"),
            ("serve.mean_batch", "count"),
            ("serve.batches", "count"),
            ("serve.submit_us", "us"),
            ("serve.rejected", "count"),
            ("serve.generator_lag_p99_ms", "ms"),
            ("serve.samples", "count"),
            ("serve.max_offered_rps", "1/s"),
            ("serve.staircase_passed", "count"),
        ],
    }
}

/// Inputs a workload prepares once, outside its timed loop.
enum Inputs {
    Mc,
    Atpg(Vec<aqfp_sc::BitPlane>),
    Serve(serve::Requests),
}

struct Run<'a> {
    args: &'a Args,
    die: &'a die::Die,
    inputs: &'a Inputs,
    work: &'a Path,
}

impl Run<'_> {
    /// One measurement pass of `budget` on the run's inputs.
    fn measure(&self, budget: Duration, tracer: &mut Tracer) -> (Measured, Option<serve::Ladder>) {
        let (seed, pass) = (self.args.seed, 0);
        let span = tracer.open(self.args.workload.name(), ROOT);
        let out = match self.inputs {
            Inputs::Mc => (
                mc::measure(self.die, seed, pass, budget, tracer, span),
                None,
            ),
            Inputs::Atpg(pool) => (
                atpg::measure(self.die, pool, seed, pass, budget, self.work, tracer, span),
                None,
            ),
            Inputs::Serve(req) => {
                let (m, ladder) = serve::run_all(&self.die.model, req, budget, tracer, span);
                (m, Some(ladder))
            }
        };
        tracer.close(span);
        out
    }
}

fn e2e_metrics(setup_s: f64, accuracy: f64, m: &Measured, tally: &Tally) -> Metrics {
    let mut out = Metrics::default();
    out.push("setup_s", setup_s, "s");
    out.push("main_rate_per_s", m.main_rate, "1/s");
    out.push("side_rate_per_s", m.side_rate, "1/s");
    out.push("op_ms", m.op_ms, "ms");
    out.push("op_tail_ms", m.op_tail_ms, "ms");
    out.push("accuracy", accuracy, "fraction");
    out.push("success_rate", tally.success_rate(), "fraction");
    out.push(
        "peak_rss_mb",
        report::peak_rss_mib().unwrap_or(f64::NAN),
        "MiB",
    );
    out
}

fn write_trace(
    path: &Path,
    args: &Args,
    stamp: &Stamp,
    tracer: &Tracer,
    layers: &Metrics,
    winners: &[(String, &str, f64)],
) {
    let rows: Vec<String> = layers
        .0
        .iter()
        .map(|m| {
            let (e2e, w) = tag(&m.name);
            format!(
                "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"moves\": {}, \"workload\": {}}}",
                json_str(&m.name),
                if m.value.is_finite() { m.value } else { 0.0 },
                json_str(m.unit),
                json_str(e2e),
                json_str(w)
            )
        })
        .collect();
    let widths: Vec<String> = winners
        .iter()
        .map(|(stage, w, ratio)| {
            format!(
                "{{\"stage\": {}, \"faster\": {}, \"u64_over_v256\": {ratio}}}",
                json_str(stage),
                json_str(w)
            )
        })
        .collect();
    let json = format!(
        "{{\n\"workload\": {},\n\"seed\": {},\n\"stamp\": {},\n\"gemm_width\": [{}],\n\"layers\": [\n  {}\n],\n\"spans\": {}\n}}\n",
        json_str(args.workload.name()),
        args.seed,
        stamp.json(),
        widths.join(", "),
        rows.join(",\n  "),
        tracer.spans_json(),
    );
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("diebench: could not write {}: {e}", path.display());
    }
}

fn run(args: &Args, stamp: &Stamp, out_dir: &Path, work: &Path) -> (bool, Tally, Metrics) {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(false);
    let snapshot = (args.workload == Workload::Serve).then(|| work.join("setup.sbnnsnap"));
    let setup = die::setup(
        &mut tracer,
        ROOT,
        snapshot.as_deref(),
        args.trace,
        &mut tally,
    );
    let die = &setup.die;
    let accuracy = die.accuracy();
    let floor = die::CHANCE + die::ACCURACY_MARGIN;
    let fit = accuracy >= floor;
    tally.gate(
        fit,
        &format!("clean accuracy {accuracy:.4} clears chance plus margin ({floor})"),
    );
    eprintln!(
        "diebench: {} seed {} set-up {:.3}s (reps {:?}), accuracy {accuracy:.4}",
        args.workload.name(),
        args.seed,
        setup.setup_s,
        setup.totals
    );
    if !fit {
        // Refuse to report throughput for a die that computes nothing.
        let mut out = Metrics::default();
        out.push("accuracy", accuracy, "fraction");
        return (false, tally, out);
    }
    let inputs = match args.workload {
        Workload::Mc => Inputs::Mc,
        Workload::Atpg => Inputs::Atpg(atpg::candidates(die, args.seed)),
        Workload::Serve => Inputs::Serve(serve::Requests::new(die, args.seed)),
    };
    let runner = Run {
        args,
        die,
        inputs: &inputs,
        work,
    };

    if !args.trace {
        let (m, _) = runner.measure(args.budget, &mut tracer);
        tally.add(m.tally);
        eprintln!("diebench: {} repetitions", m.reps);
        let metrics = e2e_metrics(setup.setup_s, accuracy, &m, &tally);
        return (tally.failed == 0, tally, metrics);
    }

    // Traced run: the first half of the budget untraced, the second half
    // with spans, both on the same inputs; the difference is the tracing
    // overhead. Set-up compares the traced second set-up with the
    // untraced third, both past the cold first one.
    let half = args.budget / 2;
    let (plain, _) = runner.measure(half, &mut tracer);
    tracer.set_enabled(true);
    let (traced, ladder) = runner.measure(half, &mut tracer);
    tally.add(plain.tally);
    tally.add(traced.tally);
    let (traced_setup, untraced_setup) = (setup.totals[1], setup.totals[2]);
    let a = e2e_metrics(untraced_setup, accuracy, &plain, &tally);
    let b = e2e_metrics(traced_setup, accuracy, &traced, &tally);
    let mut layers = Metrics::default();
    for (name, higher_better) in TIMED_E2E {
        let (x, y) = (
            a.get(name).unwrap_or(f64::NAN),
            b.get(name).unwrap_or(f64::NAN),
        );
        let worse = if higher_better {
            x / y - 1.0
        } else {
            y / x - 1.0
        };
        layers.push(format!("trace.overhead.{name}"), worse, "fraction");
    }
    let span = tracer.open("layers", ROOT);
    layers::setup_layers(&setup, work, &mut tracer, span, &mut layers);
    layers::pipeline(die, &mut tracer, span, &mut layers, &mut tally);
    let winners = layers::bitplane(die, &mut tracer, span, &mut layers, &mut tally);
    layers::stochastic(die, &mut tracer, span, &mut layers);
    match &inputs {
        Inputs::Mc => mc::layers(die, args.seed, &mut tracer, span, &mut layers),
        Inputs::Atpg(pool) => atpg::layers(die, pool, args.seed, &mut tracer, span, &mut layers),
        Inputs::Serve(req) => {
            let ladder = ladder.expect("the serve workload measures a ladder");
            serve::layers(&die.model, req, &ladder, &mut tracer, span, &mut layers)
        }
    }
    tracer.close(span);
    for w in Workload::ALL {
        for &(name, unit) in workload_layer_names(w) {
            if layers.get(name).is_none() {
                layers.push(name, 0.0, unit);
            }
        }
    }
    let trace_path = out_dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    write_trace(&trace_path, args, stamp, &tracer, &layers, &winners);
    eprintln!(
        "diebench: {} spans written to {}",
        tracer.span_count(),
        trace_path.display()
    );
    (tally.failed == 0, tally, layers)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("diebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let stamp = Stamp::collect();
    let out_dir = PathBuf::from(".diebench");
    let work = out_dir.join(format!(
        "work-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("diebench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let (correct, tally, metrics) = run(&args, &stamp, &out_dir, &work);
    let _ = std::fs::remove_dir_all(&work);
    println!("stamp {}", stamp.json());
    println!("{}", report::result_line(correct, tally, &metrics));
}
