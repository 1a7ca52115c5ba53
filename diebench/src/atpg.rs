//! `atpg-vgg`: fab-line screening of the die.
//!
//! Probe generation runs `screening::generate_probes` with the default
//! fault-cone delta engine over a seeded sample of the targeted fault
//! classes, against a candidate pool of eval planes plus
//! `synthesize_probes` planes. The first report's probes are then sealed
//! to an `SBNNPROB` file, the die and the probes are cold-loaded from
//! `SBNNSNAP` and `SBNNPROB`, and `ProbeSet::screen` replays the probes
//! against the loaded die, one die per call. The class sample and the
//! synthesized candidates come from the workload seed.

use std::path::Path;
use std::time::{Duration, Instant};

use aqfp_crossbar::faults::PatchJournal;
use aqfp_sc::BitPlane;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use superbnn::deploy::{ActivationCache, DirtyChannels, PackedModel};
use superbnn::screening::{
    fault_universe, generate_probes, synthesize_probes, ProbeSet, ScreenEngine, ScreeningConfig,
    ScreeningReport,
};

use crate::die::Die;
use crate::report::{best_time, mean, median, quantile, Metrics, Tally};
use crate::trace::{SpanId, Tracer};
use crate::Measured;

/// Fault classes targeted per `generate_probes` call.
pub const CLASSES: usize = 256;
/// Calls per round, each with its own class sample: 8 × 256 = 2048
/// classes per round, in calls short enough (about 150 ms) to fit between
/// host slowdowns. Class costs vary widely, so the rates and per-class
/// latencies depend on which classes a seed samples; at 1024 classes
/// that moved them by 10–14% between seeds.
pub const CHUNKS: usize = 8;
/// Probe budget: greedy cover of 256 classes wants more vectors than
/// this, so every sealed probe set has exactly this many and the replay
/// cost per die does not depend on the seed.
pub const MAX_VECTORS: usize = 8;
/// Candidate pool: this many eval planes plus as many synthesized ones.
pub const EVAL_CANDIDATES: usize = 32;
pub const SYNTH_CANDIDATES: usize = 32;
/// Classes the delta and full engines must agree on.
const GATE_CLASSES: usize = 32;
const MIN_REPS: usize = 3;
/// Interleaved repetitions of the traced class-loop replay.
const LAYER_REPS: usize = 5;
/// Die replays per round. Every replay repeats identical work, so the
/// fastest one is the figure least disturbed by the host; a spread of
/// replay times would measure only the host.
const REPLAYS_PER_ROUND: usize = 100;

fn class_seed(seed: u64, pass: usize) -> u64 {
    crate::mix(seed ^ 0x6174_7067 ^ ((pass as u64) << 32))
}

/// The candidate pool: fixed eval planes plus seeded synthetic planes.
pub fn candidates(die: &Die, seed: u64) -> Vec<BitPlane> {
    let mut pool = die.planes(EVAL_CANDIDATES);
    pool.extend(synthesize_probes(
        die.input_len(),
        SYNTH_CANDIDATES,
        crate::mix(seed ^ 0x7379_6e74),
    ));
    pool
}

fn config(seed: u64, pass: usize, workers: usize) -> ScreeningConfig {
    ScreeningConfig::default()
        .with_fault_classes(CLASSES)
        .with_max_vectors(MAX_VECTORS)
        .with_seed(class_seed(seed, pass))
        .with_workers(workers)
}

/// Seals the first chunk's probes and cold-loads die and probes from
/// their files, then runs rounds until `budget` is spent (at least
/// [`MIN_REPS`]): each round makes the [`CHUNKS`] `generate_probes` calls,
/// each with its own seeded class sample, [`REPLAYS_PER_ROUND`] die
/// replays, and one pass of the replayed per-class loop over the same
/// classes. Interleaving spreads every figure's samples over the whole
/// run. A chunk, replay or class repeats identical work, so its fastest
/// repetition is the figure least disturbed by the host; the generation
/// rate divides all chunks' classes by the sum of their fastest times,
/// the replay rate is the inverse of the fastest replay, and `op_ms` and
/// `op_tail_ms` are the mean and p90 over the classes of each class's
/// fastest time. Class costs are bimodal (most classes re-converge
/// within a stage, the rest carry diverged samples into full stage
/// forwards), so the p50 of a seeded sample jumps between the modes.
/// Gates: repeated generations build identical reports, the cold-loaded
/// die and probe set equal what was written, every replay of the golden
/// die screens clean, and delta and full engines build identical reports
/// on a seeded handful of classes.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    die: &Die,
    pool: &[BitPlane],
    seed: u64,
    pass: usize,
    budget: Duration,
    work: &Path,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Measured {
    let start = Instant::now();
    let workers = crate::workers();
    let mut tally = Tally::default();
    let configs: Vec<ScreeningConfig> = (0..CHUNKS)
        .map(|c| config(seed, pass * CHUNKS + c, workers))
        .collect();
    let first: Vec<Option<ScreeningReport>> = configs
        .iter()
        .map(|cfg| match generate_probes(&die.model, pool, cfg) {
            Ok(report) => Some(report),
            Err(e) => {
                tally.gate(false, &format!("generate_probes: {e}"));
                None
            }
        })
        .collect();
    let classes: usize = first.iter().flatten().map(|r| r.targeted).sum();

    // Gate: the delta engine and the full-forward oracle agree.
    let gate_cfg = configs[0].with_fault_classes(GATE_CLASSES);
    let delta = generate_probes(&die.model, pool, &gate_cfg);
    let full = generate_probes(&die.model, pool, &gate_cfg.with_engine(ScreenEngine::Full));
    tally.gate(
        matches!((&delta, &full), (Ok(d), Ok(f)) if d == f),
        "delta and full screening engines build identical reports",
    );

    // Seal, then cold-load die and probes from their files.
    let probes = first[0].as_ref().map_or_else(
        || ProbeSet::new(die.model.input_shape(), vec![], vec![]),
        |r| r.probes.clone(),
    );
    let (snap, prob) = (work.join("die.sbnnsnap"), work.join("probes.sbnnprob"));
    die.model
        .save_snapshot(&snap)
        .expect("the work directory is writable");
    probes.save(&prob).expect("the work directory is writable");
    let cold_die =
        PackedModel::load_snapshot(&snap).expect("a snapshot written by this build loads");
    let cold_probes = ProbeSet::load(&prob).expect("a probe set written by this build loads");
    tally.gate(
        cold_die == die.model,
        "the SBNNSNAP cold load equals the die",
    );
    tally.gate(
        cold_probes == probes,
        "the SBNNPROB cold load equals the sealed probes",
    );

    let mut classes_replay = ClassReplay::new(die, pool, seed, pass, CHUNKS);
    let mut class_best = vec![f64::INFINITY; classes_replay.sites.len()];
    let mut best = [f64::INFINITY; CHUNKS];
    let mut replay_best = f64::INFINITY;
    let mut rounds = 0;
    while rounds < MIN_REPS || start.elapsed() < budget {
        for (c, cfg) in configs.iter().enumerate() {
            let (report, t) = tracer.time("screening.generate_probes", parent, || {
                generate_probes(&die.model, pool, cfg)
            });
            best[c] = best[c].min(t.as_secs_f64());
            let same = matches!((&report, &first[c]), (Ok(r), Some(f)) if r == f);
            tally.ops(report.as_ref().map_or(0, |r| r.targeted as u64), 0);
            tally.gate(same, "repeated probe generations build identical reports");
        }
        for _ in 0..REPLAYS_PER_ROUND {
            let (outcome, t) =
                tracer.time("screening.screen", parent, || cold_probes.screen(&cold_die));
            replay_best = replay_best.min(t.as_secs_f64());
            tally.ops(1, u64::from(!outcome.clean()));
        }
        let times = classes_replay.run(tracer, parent);
        tally.ops(times.len() as u64, 0);
        for (b, t) in class_best.iter_mut().zip(&times) {
            *b = b.min(t.total_us());
        }
        rounds += 1;
    }
    let generate_s: f64 = best.iter().sum();
    Measured {
        main_rate: classes as f64 / generate_s,
        side_rate: 1.0 / replay_best,
        op_ms: mean(&class_best) / 1e3,
        op_tail_ms: quantile(&class_best, 0.9) / 1e3,
        tally,
        reps: rounds,
    }
}

/// `generate_probes`' class sample: a seeded partial Fisher–Yates over the
/// targeted universe, keeping the first `cap`.
fn sample_sites(die: &Die, cap: usize, seed: u64) -> Vec<superbnn::screening::FaultSite> {
    let mut sites = fault_universe(&die.model);
    if cap < sites.len() {
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..cap {
            let j = rng.gen_range(i..sites.len());
            sites.swap(i, j);
        }
        sites.truncate(cap);
    }
    sites
}

fn outputs_differ(a: &(usize, Vec<f32>), b: &(usize, Vec<f32>)) -> bool {
    a.0 != b.0
        || a.1
            .iter()
            .zip(&b.1)
            .any(|(x, y)| x.to_bits() != y.to_bits())
}

/// One replayed class: its call times in µs and what it changed.
struct Class {
    draw_us: f64,
    apply_us: f64,
    eval_us: f64,
    revert_us: f64,
    patches: usize,
    dirty_channels: usize,
    changed: usize,
    detections: usize,
}

impl Class {
    fn total_us(&self) -> f64 {
        self.draw_us + self.apply_us + self.eval_us + self.revert_us
    }
}

/// The delta engine's per-class detection loop, replayed on one thread
/// through the public calls `generate_probes` makes per class (draw
/// render, journaled patch, fault-cone re-vote, revert) over the class
/// samples of the pass's first `chunks` chunks. The clean cache is built
/// once, outside the timed calls.
struct ClassReplay {
    cache: ActivationCache,
    sites: Vec<superbnn::screening::FaultSite>,
    /// Tiles per stage, which `to_draws` renders a fault class against.
    tiles: Vec<usize>,
    clean: PackedModel,
    model: PackedModel,
    journal: PatchJournal,
}

impl ClassReplay {
    fn new(die: &Die, pool: &[BitPlane], seed: u64, pass: usize, chunks: usize) -> Self {
        Self::with_cache(
            die,
            ActivationCache::new(&die.model, pool),
            seed,
            pass,
            chunks,
        )
    }

    fn with_cache(
        die: &Die,
        cache: ActivationCache,
        seed: u64,
        pass: usize,
        chunks: usize,
    ) -> Self {
        Self {
            cache,
            sites: (0..chunks)
                .flat_map(|c| sample_sites(die, CLASSES, class_seed(seed, pass * CHUNKS + c)))
                .collect(),
            tiles: die
                .model
                .layers()
                .iter()
                .map(|l| l.matrix().map_or(0, |m| m.tile_dims().len()))
                .collect(),
            clean: die.model.clone(),
            model: die.model.clone(),
            journal: PatchJournal::new(),
        }
    }

    fn run(&mut self, tracer: &mut Tracer, parent: SpanId) -> Vec<Class> {
        let span = tracer.open("atpg.class_loop", parent);
        let m = &mut self.model;
        let golden = self.cache.golden();
        let mut out = Vec::with_capacity(self.sites.len());
        for site in &self.sites {
            let (draws, draw) = tracer.time("journal.draw", span, || {
                site.fault.to_draws(self.tiles[site.layer])
            });
            let (_, apply) = tracer.time("journal.apply", span, || {
                m.apply_layer_faults_journaled(site.layer, &draws, &mut self.journal)
            });
            let patches = self.journal.len();
            let dirty = DirtyChannels::from_layer_draws(&self.clean, site.layer, &draws);
            let (diffs, eval) = tracer.time("delta.delta_changed", span, || {
                m.delta_changed(&self.cache, &dirty)
            });
            let (_, revert) = tracer.time("journal.revert", span, || {
                m.revert_faults(&mut self.journal)
            });
            let us = |t: Duration| t.as_secs_f64() * 1e6;
            out.push(Class {
                draw_us: us(draw),
                apply_us: us(apply),
                eval_us: us(eval),
                revert_us: us(revert),
                patches,
                dirty_channels: dirty.total(),
                changed: diffs.len(),
                detections: diffs
                    .iter()
                    .filter(|(i, p)| outputs_differ(p, &golden[*i]))
                    .count(),
            });
        }
        tracer.close(span);
        out
    }
}

/// Per-layer numbers of the ATPG detection loop: the cache build, and the
/// replayed per-class calls over the untraced pass's first class sample.
/// [`LAYER_REPS`] interleaved repetitions each build the cache, replay
/// every class and make one one-worker `generate_probes` call over the
/// same classes; every timing is its fastest repetition's. The cover
/// residual is the fastest `generate_probes` call minus the fastest cache
/// build and the sum of each class's fastest call times, so it sits within
/// host noise of the greedy cover's own small cost.
pub fn layers(
    die: &Die,
    pool: &[BitPlane],
    seed: u64,
    tracer: &mut Tracer,
    parent: SpanId,
    out: &mut Metrics,
) {
    let span = tracer.open("atpg.layers", parent);
    let (mut build_ms, mut total_ms) = (Vec::new(), Vec::new());
    let mut classes: Vec<Class> = Vec::new();
    let mut report = None;
    for _ in 0..LAYER_REPS {
        let (cache, t) = tracer.time("delta.cache_build", span, || {
            ActivationCache::new(&die.model, pool)
        });
        build_ms.push(t.as_secs_f64() * 1e3);
        let rep = ClassReplay::with_cache(die, cache, seed, 0, 1).run(tracer, span);
        if classes.is_empty() {
            classes = rep;
        } else {
            for (best, c) in classes.iter_mut().zip(rep) {
                best.draw_us = best.draw_us.min(c.draw_us);
                best.apply_us = best.apply_us.min(c.apply_us);
                best.eval_us = best.eval_us.min(c.eval_us);
                best.revert_us = best.revert_us.min(c.revert_us);
            }
        }
        let (r, t) = tracer.time("screening.generate_probes.1worker", span, || {
            generate_probes(&die.model, pool, &config(seed, 0, 1))
        });
        total_ms.push(t.as_secs_f64() * 1e3);
        report = Some(r);
    }
    tracer.close(span);
    // The class loop's own measured call times, not its wall time, so the
    // bookkeeping around the calls stays out of the residual.
    let per_class_ms: f64 = classes.iter().map(Class::total_us).sum::<f64>() / 1e3;
    let cover_ms = best_time(&total_ms) - best_time(&build_ms) - per_class_ms;
    let report = report.expect("generate_probes ran");
    let col = |f: fn(&Class) -> f64| classes.iter().map(f).collect::<Vec<_>>();
    let rescored: usize = classes.iter().map(|c| c.changed).sum();
    let detections: usize = classes.iter().map(|c| c.detections).sum();
    out.push("journal.class.draw_us", median(&col(|c| c.draw_us)), "us");
    out.push("journal.class.apply_us", median(&col(|c| c.apply_us)), "us");
    out.push(
        "journal.class.revert_us",
        median(&col(|c| c.revert_us)),
        "us",
    );
    out.push(
        "journal.class.patches",
        mean(&col(|c| c.patches as f64)),
        "count",
    );
    out.push("delta.cache_build_ms", best_time(&build_ms), "ms");
    out.push("delta.eval_us_per_class", mean(&col(|c| c.eval_us)), "us");
    out.push(
        "delta.dirty_channels_per_class",
        mean(&col(|c| c.dirty_channels as f64)),
        "count",
    );
    out.push(
        "delta.changed_samples_per_class",
        mean(&col(|c| c.changed as f64)),
        "count",
    );
    out.push(
        "delta.detect_ratio",
        if rescored > 0 {
            detections as f64 / rescored as f64
        } else {
            0.0
        },
        "fraction",
    );
    out.push("screening.cover_ms", cover_ms, "ms");
    out.push(
        "screening.test_coverage",
        report.map_or(0.0, |r| r.test_coverage()),
        "fraction",
    );
}
