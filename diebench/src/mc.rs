//! `mc-vgg`: Monte Carlo robustness campaigns on the die.
//!
//! Each repetition calls `robustness::run_sweep` twice over the same
//! stuck-cell grid: a digital fault-only campaign (fault-cone delta
//! evaluation against a shared clean cache, full forward above the
//! cutoff) and a `RngMode::Counter` stochastic campaign at a 10× widened
//! gray zone. Each round also replays both campaigns' trial loops
//! through the public calls `run_sweep` makes, which times every trial
//! on its own. Fault draws come from a campaign seed derived from the
//! workload seed, so another seed draws other dies; within a run every
//! round repeats the same campaigns.

use std::time::{Duration, Instant};

use aqfp_crossbar::faults::PatchJournal;
use aqfp_device::{DeviceRng, SeedableRng, VariationModel};
use superbnn::deploy::{ActivationCache, DirtyChannels, RngMode, StochasticTables};
use superbnn::robustness::{run_sweep, RobustnessReport, SweepConfig};

use crate::die::Die;
use crate::report::{mean, median, quantile, Metrics, Tally};
use crate::trace::{SpanId, Tracer};
use crate::Measured;

/// The stuck-cell grid, heaviest first (dead-column rate = rate / 10).
pub const RATES: [f64; 5] = [0.10, 0.05, 0.02, 0.01, 0.0];
/// Fault draws per grid point and campaign.
pub const TRIALS: usize = 2;
/// Campaign pairs per round, each with its own campaign seed: 4 × 5 rates
/// × 2 trials = 40 trials of each kind per round, in calls short enough
/// (tens to a few hundred ms) to fit between host slowdowns.
pub const CHUNKS: usize = 4;
/// Eval samples scored per trial.
pub const EVAL: usize = 48;
/// Gray-zone widening of the stochastic campaign: wide enough that many
/// comparator reads draw real SC noise, narrow enough that accuracy stays
/// above chance.
pub const GRAYZONE_SCALE: f64 = 10.0;
/// Rounds measured even when the time budget is shorter.
const MIN_REPS: usize = 3;
/// Trials per grid point of the replayed trial loops: 40 digital trials,
/// and 10 counter-mode ones, which cost about four digital trials each.
const REPLAY_TRIALS: usize = 8;
const COUNTER_REPLAY_TRIALS: usize = 2;

fn campaign_seed(seed: u64, pass: usize) -> u64 {
    crate::mix(seed ^ 0x6D63_5F76_6767 ^ ((pass as u64) << 32))
}

fn digital(seed: u64, workers: usize) -> SweepConfig {
    SweepConfig::stuck_cell_grid(&RATES, TRIALS, seed)
        .expect("grid rates are probabilities")
        .with_eval_samples(Some(EVAL))
        .with_workers(workers)
        .expect("at least one worker")
}

fn counter(seed: u64, workers: usize) -> SweepConfig {
    digital(seed, workers)
        .with_grayzone_scales(&[GRAYZONE_SCALE])
        .expect("the widening is a valid scale")
        .with_rng_mode(RngMode::Counter)
}

/// One replayed trial: its call times in µs and its shape.
struct Trial {
    draw_us: f64,
    apply_us: f64,
    /// The evaluation `run_sweep` would make: counter-mode stochastic for
    /// counter trials; for digital ones, fault-cone delta under the
    /// cutoff and full forward above it.
    eval_us: f64,
    revert_us: f64,
    /// Full-forward evaluation time; timed on every trial only when asked.
    full_us: Option<f64>,
    delta: bool,
    defects: usize,
    patches: usize,
    dirty_fraction: f64,
}

impl Trial {
    fn total_us(&self) -> f64 {
        self.draw_us + self.apply_us + self.eval_us + self.revert_us
    }
}

/// The campaigns' trial loops, replayed through the public calls
/// `run_sweep` makes per trial (draw, journaled apply, evaluation, revert;
/// for digital trials the fault-cone cutoff decision picks delta or full
/// evaluation) over the grid of the pass's first campaign seed. The clean
/// cache and the counter-mode tables are built once, outside the timed
/// calls.
struct TrialReplay {
    cfg: SweepConfig,
    seed: u64,
    planes: Vec<aqfp_sc::BitPlane>,
    labels: Vec<usize>,
    cache: ActivationCache,
    tables: StochasticTables,
    total_channels: usize,
    model: superbnn::deploy::PackedModel,
    journal: PatchJournal,
}

impl TrialReplay {
    fn new(die: &Die, seed: u64, pass: usize) -> Self {
        let seed = campaign_seed(seed, pass * CHUNKS);
        let planes = die.planes(EVAL);
        let labels = die.eval.labels[..planes.len()].to_vec();
        let cache = ActivationCache::new(&die.model, &planes);
        let total_channels = die
            .model
            .layers()
            .iter()
            .filter_map(|l| l.matrix().map(|m| m.out()))
            .sum();
        Self {
            cfg: SweepConfig::stuck_cell_grid(&RATES, REPLAY_TRIALS, seed)
                .expect("grid rates are probabilities"),
            seed,
            planes,
            labels,
            cache,
            tables: die.model.stochastic_tables_mode(
                &VariationModel::grayzone_scale_only(GRAYZONE_SCALE)
                    .expect("the widening is a valid scale"),
                RngMode::Counter,
            ),
            total_channels,
            model: die.model.clone().with_workers(1).expect("one worker"),
            journal: PatchJournal::new(),
        }
    }

    /// Runs every digital trial (with `counter`, every counter-mode
    /// trial) once; with `time_full`, also times the full forward on
    /// trials the delta path evaluates.
    fn run(
        &mut self,
        counter: bool,
        tracer: &mut Tracer,
        parent: SpanId,
        time_full: bool,
    ) -> Vec<Trial> {
        let per_rate = if counter {
            COUNTER_REPLAY_TRIALS
        } else {
            REPLAY_TRIALS
        };
        let cutoff = self.total_channels / 4;
        let span = tracer.open("mc.trial_loop", parent);
        let m = &mut self.model;
        let (planes, labels, cache, tables) =
            (&self.planes, &self.labels, &self.cache, &self.tables);
        let mut out = Vec::with_capacity(RATES.len() * per_rate);
        for trial in 0..RATES.len() * per_rate {
            let seed = self.seed ^ trial as u64;
            let mut rng = DeviceRng::seed_from_u64(seed);
            let fm = &self.cfg.grid[trial / per_rate];
            let (draws, draw) = tracer.time("journal.draw", span, || m.draw_faults(fm, &mut rng));
            let (defects, apply) = tracer.time("journal.apply", span, || {
                m.apply_draws_journaled(&draws, &mut self.journal)
            });
            let patches = self.journal.len();
            let (mut delta, mut full, mut dirty_fraction) = (false, None, 0.0);
            let eval = if counter {
                let (_, t) = tracer.time("stochastic.accuracy_ctr", span, || {
                    m.accuracy_stochastic_planes_ctr(tables, planes, labels, seed)
                });
                t
            } else {
                let dirty = DirtyChannels::from_draws(m, &draws);
                dirty_fraction = dirty.total() as f64 / self.total_channels as f64;
                delta = dirty.total() <= cutoff;
                let full_forward = |m: &superbnn::deploy::PackedModel, tracer: &mut Tracer| {
                    tracer
                        .time("pipeline.accuracy_planes", span, || {
                            m.accuracy_planes(planes, labels)
                        })
                        .1
                };
                if delta {
                    let (_, t) = tracer.time("delta.accuracy", span, || {
                        m.delta_accuracy_planes(cache, &dirty, labels)
                    });
                    if time_full {
                        full = Some(full_forward(m, tracer));
                    }
                    t
                } else {
                    let t = full_forward(m, tracer);
                    full = Some(t);
                    t
                }
            };
            let (_, revert) = tracer.time("journal.revert", span, || {
                m.revert_faults(&mut self.journal)
            });
            let us = |t: Duration| t.as_secs_f64() * 1e6;
            out.push(Trial {
                draw_us: us(draw),
                apply_us: us(apply),
                eval_us: us(eval),
                revert_us: us(revert),
                full_us: full.map(us),
                delta,
                defects,
                patches,
                dirty_fraction,
            });
        }
        tracer.close(span);
        out
    }
}

/// Runs rounds until `budget` is spent (at least [`MIN_REPS`]): each
/// round makes the [`CHUNKS`] campaign pairs, each with its own campaign
/// seed, then replays both trial loops once. A chunk or a replayed trial
/// repeats identical work, so its fastest repetition is the figure least
/// disturbed by the host. The rates divide all chunks' trials by the sum
/// of their fastest times; `op_ms` is the p50 over the digital trials of
/// each trial's fastest time, and `op_tail_ms` the p90 over the
/// counter-mode trials, the workload's slow operation. Gate:
/// every repetition of a chunk reproduces its first reports bit for bit
/// (counter-mode trials included).
pub fn measure(
    die: &Die,
    seed: u64,
    pass: usize,
    budget: Duration,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Measured {
    let configs: Vec<(SweepConfig, SweepConfig)> = (0..CHUNKS)
        .map(|c| {
            let cs = campaign_seed(seed, pass * CHUNKS + c);
            (digital(cs, crate::workers()), counter(cs, crate::workers()))
        })
        .collect();
    let mut replay = TrialReplay::new(die, seed, pass);
    let mut tally = Tally::default();
    let mut best = [(f64::INFINITY, f64::INFINITY); CHUNKS];
    let mut digital_best = vec![f64::INFINITY; RATES.len() * REPLAY_TRIALS];
    let mut counter_best = vec![f64::INFINITY; RATES.len() * COUNTER_REPLAY_TRIALS];
    let mut first: Vec<Option<(RobustnessReport, RobustnessReport)>> = vec![None; CHUNKS];
    let (mut trials_digital, mut trials_counter) = (0usize, 0usize);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_REPS || start.elapsed() < budget {
        for (c, (dig_cfg, ctr_cfg)) in configs.iter().enumerate() {
            let span = tracer.open("mc.pair", parent);
            let (dig, dig_t) = tracer.time("robustness.run_sweep.digital", span, || {
                run_sweep(&die.model, &die.eval, dig_cfg)
            });
            let (ctr, ctr_t) = tracer.time("robustness.run_sweep.counter", span, || {
                run_sweep(&die.model, &die.eval, ctr_cfg)
            });
            tracer.close(span);
            tally.ops((dig.total_trials() + ctr.total_trials()) as u64, 0);
            best[c].0 = best[c].0.min(dig_t.as_secs_f64());
            best[c].1 = best[c].1.min(ctr_t.as_secs_f64());
            match &first[c] {
                None => {
                    trials_digital += dig.total_trials();
                    trials_counter += ctr.total_trials();
                    first[c] = Some((dig, ctr));
                }
                Some((d, k)) => tally.gate(
                    *d == dig && *k == ctr,
                    "repeated campaigns (counter-mode trials included) reproduce bit for bit",
                ),
            }
        }
        for (counter, best) in [(false, &mut digital_best), (true, &mut counter_best)] {
            let trials = replay.run(counter, tracer, parent, false);
            tally.ops(trials.len() as u64, 0);
            for (b, t) in best.iter_mut().zip(&trials) {
                *b = b.min(t.total_us());
            }
        }
        rounds += 1;
    }
    let digital_s: f64 = best.iter().map(|b| b.0).sum();
    let counter_s: f64 = best.iter().map(|b| b.1).sum();
    Measured {
        main_rate: trials_counter as f64 / counter_s,
        side_rate: trials_digital as f64 / digital_s,
        op_ms: quantile(&digital_best, 0.5) / 1e3,
        op_tail_ms: quantile(&counter_best, 0.9) / 1e3,
        tally,
        reps: rounds,
    }
}

/// Per-layer numbers of the replayed digital trial loop (journal draw,
/// apply and revert, the fault-cone cutoff, both evaluation paths) over
/// the untraced pass's trials.
pub fn layers(die: &Die, seed: u64, tracer: &mut Tracer, parent: SpanId, out: &mut Metrics) {
    let trials = TrialReplay::new(die, seed, 0).run(false, tracer, parent, true);
    let col = |f: fn(&Trial) -> f64| trials.iter().map(f).collect::<Vec<_>>();
    let delta_us: Vec<f64> = trials
        .iter()
        .filter(|t| t.delta)
        .map(|t| t.eval_us)
        .collect();
    let full_us: Vec<f64> = trials.iter().filter_map(|t| t.full_us).collect();
    let dirty_frac = col(|t| t.dirty_fraction);
    out.push("journal.trial.draw_us", median(&col(|t| t.draw_us)), "us");
    out.push("journal.trial.apply_us", median(&col(|t| t.apply_us)), "us");
    out.push(
        "journal.trial.revert_us",
        median(&col(|t| t.revert_us)),
        "us",
    );
    out.push(
        "journal.trial.patches",
        mean(&col(|t| t.patches as f64)),
        "count",
    );
    out.push(
        "robustness.defects_per_trial",
        mean(&col(|t| t.defects as f64)),
        "count",
    );
    out.push(
        "robustness.delta_trial_share",
        delta_us.len() as f64 / trials.len() as f64,
        "fraction",
    );
    out.push(
        "robustness.dirty_fraction_p50",
        quantile(&dirty_frac, 0.5),
        "fraction",
    );
    out.push(
        "robustness.dirty_fraction_p90",
        quantile(&dirty_frac, 0.9),
        "fraction",
    );
    out.push(
        "robustness.delta_eval_us",
        if delta_us.is_empty() {
            0.0
        } else {
            median(&delta_us)
        },
        "us",
    );
    out.push("robustness.full_eval_us", median(&full_us), "us");
}
