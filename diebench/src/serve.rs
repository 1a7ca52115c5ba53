//! `serve-vgg`: open-loop serving of the die.
//!
//! A `superbnn_serve::Server` is cold-started from the `SBNNSNAP`-loaded
//! die for every measured window. One dispatcher thread submits requests
//! on a fixed schedule (independent users: an open loop) and one collector
//! thread waits for the answers in submission order and checks each
//! against an in-process `classify_planes` reference. Latency runs from
//! a request's scheduled send time to its answer, so dispatcher lag and
//! backlog count against it. A request answered before its predecessor
//! is recorded when the collector reaches it, at most one batch late.
//!
//! The offered rates form a fixed geometric ladder that reaches far past
//! what one worker can serve. Latency is read at one fixed rung,
//! [`LATENCY_RPS`]. The highest rung that meets the p99 limit is found by
//! a staircase of short windows: a window that meets the limit steps up
//! the ladder, one that misses it steps down, and the step doubles while
//! the direction holds and halves when it turns. The run is a series of rounds, each running a few
//! batch kernel calls, one window at the latency rate and a run of
//! staircase windows, so every figure's samples spread over the whole
//! run.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use aqfp_sc::{random_probe_plane, BitPlane};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use superbnn::deploy::PackedModel;
use superbnn_serve::{LatencyHistogram, MetricsSnapshot, Pending, ServeConfig, Server};

use crate::die::Die;
use crate::report::{best_time, median, quantile, Metrics, Tally};
use crate::trace::{SpanId, Tracer};
use crate::Measured;

/// The rate at which `op_ms` (p50) and `op_tail_ms` (p90) are read,
/// requests per second: about a tenth of one worker's capacity.
pub const LATENCY_RPS: f64 = 1000.0;
/// p99 latency limit a window must meet (with zero refusals, no wrong or
/// lost answers and no growing backlog) to pass. It is about two full
/// 32-request batches of compute; a rate 3% over what the server
/// sustains builds a backlog worth it within one staircase window.
pub const P99_LIMIT_MS: f64 = 5.0;
/// The ladder: rung `k` offers `LADDER_BASE_RPS · 2^(k / RUNGS_PER_OCTAVE)`
/// requests per second, from 250 up to [`LADDER_MAX_RPS`].
const LADDER_BASE_RPS: f64 = 250.0;
const RUNGS_PER_OCTAVE: f64 = 24.0;
const LADDER_MAX_RPS: f64 = 100_000.0;
/// The staircase starts at this share of the batch kernel's answer rate,
/// below where the server has held its limit, with a step of
/// [`MAX_STEP`] rungs (about 26%), the most it ever takes.
const START_SHARE: f64 = 0.4;
const MAX_STEP: usize = 8;
/// How long before a request's send time the latency-rate dispatcher
/// stops sleeping and spins. Staircase windows only sleep: at ten
/// thousand requests per second a spinning dispatcher would keep a second
/// core busy, and its sleep overshoot (tens of µs) is far below the limit.
const SPIN: Duration = Duration::from_micros(200);
/// Rounds per run, and staircase windows per round. The host this was
/// tuned on switched between two speeds about 2× apart every few
/// seconds; windows of about 0.15 s (at 20 s per run) fit inside the
/// fast spells, and the doubling step reaches a new boundary within a
/// few windows of the host changing speed.
const ROUNDS: usize = 8;
const STAIRCASE_PER_ROUND: usize = 12;
/// Share of the time budget given to the latency-rate windows. At 20 s
/// per run a latency window holds 750 requests, so its p90 has 75
/// samples beyond it.
const LATENCY_SHARE: f64 = 0.3;
/// Full-batch `classify_planes` calls per round.
const BATCH_CALLS: usize = 10;
/// Request pool: eval planes plus seeded random planes.
const EVAL_REQUESTS: usize = 32;
const RANDOM_REQUESTS: usize = 32;

pub fn config() -> ServeConfig {
    ServeConfig {
        workers: crate::workers(),
        replicas: 1,
        max_batch: 32,
        max_delay: Duration::from_micros(200),
        // Deep enough that no staircase window overshooting capacity
        // fills it: a miss shows as latency, never as refusals.
        queue_capacity: 1 << 16,
    }
}

fn ladder_rate(rung: usize) -> f64 {
    LADDER_BASE_RPS * (rung as f64 / RUNGS_PER_OCTAVE).exp2()
}

/// The highest rung offering at most `rate`.
fn ladder_rung(rate: f64) -> usize {
    let rate = rate.clamp(LADDER_BASE_RPS, LADDER_MAX_RPS);
    (RUNGS_PER_OCTAVE * (rate / LADDER_BASE_RPS).log2() + 1e-9).floor() as usize
}

/// The request pool and its reference answers.
pub struct Requests {
    pub planes: Vec<BitPlane>,
    pub reference: Vec<(usize, Vec<f32>)>,
    seed: u64,
}

impl Requests {
    pub fn new(die: &Die, seed: u64) -> Self {
        let mut planes = die.planes(EVAL_REQUESTS);
        let mut rng = StdRng::seed_from_u64(crate::mix(seed ^ 0x7265_7173));
        for _ in 0..RANDOM_REQUESTS {
            let density = rng.gen_range(0.2..0.8);
            planes.push(random_probe_plane(die.input_len(), density, &mut rng));
        }
        let reference = die.model.classify_planes(&planes);
        Self {
            planes,
            reference,
            seed,
        }
    }

    /// The seeded request order of one window.
    fn order(&self, window: u64, n: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(crate::mix(self.seed ^ (window << 40)));
        (0..n)
            .map(|_| rng.gen_range(0..self.planes.len()))
            .collect()
    }

    fn correct(&self, idx: usize, answer: &(usize, Vec<f32>)) -> bool {
        let want = &self.reference[idx];
        answer.0 == want.0
            && answer.1.len() == want.1.len()
            && answer
                .1
                .iter()
                .zip(&want.1)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// What one window at one offered rate observed.
pub struct Rung {
    pub offered: u64,
    pub latencies_ms: Vec<f64>,
    pub rejected: u64,
    pub wrong: u64,
    pub lost: u64,
    pub goodput: f64,
    pub lag_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub server: MetricsSnapshot,
}

impl Rung {
    /// The window passes when it meets the p99 limit with no refused,
    /// lost or wrong answers and no growing backlog (its last quarter has
    /// its median within the limit).
    fn passes(&self) -> bool {
        let tail = &self.latencies_ms[self.latencies_ms.len() * 3 / 4..];
        self.rejected + self.lost + self.wrong == 0
            && !tail.is_empty()
            && median(tail) <= P99_LIMIT_MS
            && quantile(&self.latencies_ms, 0.99) <= P99_LIMIT_MS
    }
}

/// One window of `dur` at `rate`; the dispatcher spins for the last
/// `spin` before each send.
fn rung(
    model: &PackedModel,
    req: &Requests,
    window: u64,
    rate: f64,
    dur: Duration,
    spin: Duration,
) -> Rung {
    let server = Server::start(model.clone(), config()).expect("the serve config is valid");
    let n = ((rate * dur.as_secs_f64()).round() as usize).max(1);
    let order = req.order(window, n);
    let (tx, rx) = mpsc::channel::<(usize, Instant, Pending)>();
    let (mut lag_ms, mut submit_us) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut rejected = 0u64;
    let t0 = Instant::now() + Duration::from_millis(2);
    let (latencies_ms, wrong, lost, last) = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut lat = Vec::with_capacity(n);
            let (mut wrong, mut lost, mut last) = (0u64, 0u64, t0);
            for (idx, scheduled, pending) in rx {
                match pending.wait() {
                    Ok(answer) => {
                        last = Instant::now();
                        lat.push((last - scheduled).as_secs_f64() * 1e3);
                        wrong += u64::from(!req.correct(idx, &answer));
                    }
                    Err(_) => lost += 1,
                }
            }
            (lat, wrong, lost, last)
        });
        for (i, &idx) in order.iter().enumerate() {
            let scheduled = t0 + Duration::from_secs_f64(i as f64 / rate);
            let plane = req.planes[idx].clone();
            // Sleep until shortly before the send time, then spin: a
            // plain sleep overshot by milliseconds on a shared VM, and
            // that lag lands in every later request's latency.
            let now = Instant::now();
            if scheduled > now + spin {
                std::thread::sleep(scheduled - now - spin);
            }
            while Instant::now() < scheduled {
                std::hint::spin_loop();
            }
            let sent = Instant::now();
            lag_ms.push(sent.saturating_duration_since(scheduled).as_secs_f64() * 1e3);
            let submitted = server.submit(plane);
            submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
            match submitted {
                Ok(pending) => tx
                    .send((idx, scheduled, pending))
                    .expect("the collector is alive"),
                Err(_) => rejected += 1,
            }
        }
        drop(tx);
        collector
            .join()
            .expect("the collector thread does not panic")
    });
    let server = server.shutdown();
    let completed = latencies_ms.len() as f64;
    Rung {
        offered: n as u64,
        goodput: completed / last.saturating_duration_since(t0).as_secs_f64().max(1e-9),
        latencies_ms,
        rejected,
        wrong,
        lost,
        lag_ms,
        submit_us,
        server,
    }
}

/// Walks the ladder: a window that passes steps up, one that misses steps
/// down. The step doubles (up to [`MAX_STEP`]) while the direction holds
/// and halves (down to one rung) when it turns, so near the top it
/// alternates between the highest rung that passes and the one above,
/// giving the boundary a fresh try in every pair.
struct Staircase {
    rung: usize,
    step: usize,
    last: Option<bool>,
    /// The highest passing rung and the best goodput a window made there.
    best: Option<(usize, f64)>,
}

impl Staircase {
    fn new(start_rate: f64) -> Self {
        Self {
            rung: ladder_rung(start_rate),
            step: MAX_STEP,
            last: None,
            best: None,
        }
    }

    fn record(&mut self, passed: bool, goodput: f64) {
        match self.last {
            Some(last) if last == passed => self.step = (self.step * 2).min(MAX_STEP),
            Some(_) => self.step = (self.step / 2).max(1),
            None => {}
        }
        self.last = Some(passed);
        if passed {
            self.best = match self.best {
                Some((r, g)) if r > self.rung || (r == self.rung && g >= goodput) => Some((r, g)),
                _ => Some((self.rung, goodput)),
            };
            self.rung = (self.rung + self.step).min(ladder_rung(LADDER_MAX_RPS));
        } else {
            self.rung = self.rung.saturating_sub(self.step);
        }
    }
}

/// What the serve run measured: the latency-rate window of every round
/// and the staircase's highest passing rung.
pub struct Ladder {
    pub latency: Vec<Rung>,
    /// `(rung, goodput)` of the highest passing staircase window.
    pub best: Option<(usize, f64)>,
    pub passed: usize,
}

/// [`ROUNDS`] rounds, each making [`BATCH_CALLS`] full-batch
/// `classify_planes` calls, one window at [`LATENCY_RPS`] and
/// [`STAIRCASE_PER_ROUND`] staircase windows. The staircase starts at
/// [`START_SHARE`] of the first round's batch-kernel answer rate.
/// `main_rate` is the goodput of the highest rung any window passed (the
/// best of its windows there): a figure the server sets, since the ladder
/// reaches far past capacity. `side_rate` is the answers per second of the
/// worker's batch kernel, from its fastest full-batch call; the latencies
/// are the latency rate's p50 and p90 from its best round. Each latency
/// figure is its best round's, the one least disturbed by the host; the
/// p99 is reported per layer, because host stalls set it.
pub fn run_all(
    model: &PackedModel,
    req: &Requests,
    budget: Duration,
    tracer: &mut Tracer,
    parent: SpanId,
) -> (Measured, Ladder) {
    let mut tally = Tally::default();
    let latency_dur = budget.mul_f64(LATENCY_SHARE) / ROUNDS as u32;
    let window_dur = budget.mul_f64(1.0 - LATENCY_SHARE) / (ROUNDS * STAIRCASE_PER_ROUND) as u32;
    let batch = &req.planes[..config().max_batch.min(req.planes.len())];
    let mut batch_s = f64::INFINITY;
    let mut latency = Vec::with_capacity(ROUNDS);
    let mut stairs: Option<Staircase> = None;
    let mut passed = 0usize;
    let mut window = 0u64;
    let mut path = Vec::with_capacity(ROUNDS * STAIRCASE_PER_ROUND);
    for _ in 0..ROUNDS {
        for _ in 0..BATCH_CALLS {
            let (answers, t) = tracer.time("pipeline.classify_planes", parent, || {
                model.classify_planes(batch)
            });
            batch_s = batch_s.min(t.as_secs_f64());
            let wrong = answers
                .iter()
                .enumerate()
                .filter(|(i, a)| !req.correct(*i, a))
                .count();
            tally.ops(batch.len() as u64, wrong as u64);
        }
        let (r, _) = tracer.time("serve.open_loop.latency", parent, || {
            rung(model, req, window, LATENCY_RPS, latency_dur, SPIN)
        });
        window += 1;
        tally.ops(r.offered, r.rejected + r.wrong + r.lost);
        latency.push(r);
        let stairs = stairs
            .get_or_insert_with(|| Staircase::new(START_SHARE * batch.len() as f64 / batch_s));
        for _ in 0..STAIRCASE_PER_ROUND {
            let rate = ladder_rate(stairs.rung);
            let (r, _) = tracer.time("serve.open_loop.staircase", parent, || {
                rung(model, req, window, rate, window_dur, Duration::ZERO)
            });
            window += 1;
            tally.ops(r.offered, r.rejected + r.wrong + r.lost);
            let ok = r.passes();
            path.push(format!("{rate:.0}{}", if ok { "+" } else { "-" }));
            stairs.record(ok, r.goodput);
            passed += usize::from(ok);
        }
    }
    eprintln!("diebench: staircase (req/s, + passed) {}", path.join(" "));
    let best = stairs.and_then(|s| s.best);
    let main_rate = match best {
        Some((_, goodput)) => goodput,
        None => {
            tally.gate(false, "some staircase window meets the p99 limit");
            latency.iter().map(|r| r.goodput).fold(f64::NAN, f64::min)
        }
    };
    let ladder = Ladder {
        latency,
        best,
        passed,
    };
    let best_round =
        |f: fn(&Rung) -> f64| best_time(&ladder.latency.iter().map(f).collect::<Vec<_>>());
    let measured = Measured {
        main_rate,
        side_rate: batch.len() as f64 / batch_s,
        op_ms: best_round(|r| median(&r.latencies_ms)),
        op_tail_ms: best_round(|r| quantile(&r.latencies_ms, 0.9)),
        tally,
        reps: ROUNDS,
    };
    (measured, ladder)
}

/// Per-layer numbers of the latency rate over all rounds: the
/// client-side p99 (pooled over rounds), the server's own enqueue→answer
/// latency, batch shape, refusals, submit cost and dispatcher lag, plus
/// `classify_planes` at the observed mean batch; and the staircase's
/// passing windows and highest passing offered rate.
pub fn layers(
    model: &PackedModel,
    req: &Requests,
    ladder: &Ladder,
    tracer: &mut Tracer,
    parent: SpanId,
    out: &mut Metrics,
) {
    let mut latency = LatencyHistogram::new();
    let (mut batches, mut batched, mut rejected, mut samples) = (0u64, 0.0, 0u64, 0usize);
    let (mut lag_ms, mut submit_us) = (Vec::new(), Vec::new());
    for r in &ladder.latency {
        latency.merge(&r.server.latency);
        batches += r.server.batches;
        batched += r.server.mean_batch * r.server.batches as f64;
        rejected += r.rejected;
        samples += r.latencies_ms.len();
        lag_ms.extend_from_slice(&r.lag_ms);
        submit_us.extend_from_slice(&r.submit_us);
    }
    let mean_batch = batched / batches.max(1) as f64;
    let server_ms = |q: f64| latency.quantile(q).as_secs_f64() * 1e3;
    let batch = (mean_batch.round() as usize).clamp(1, req.planes.len());
    let planes = &req.planes[..batch];
    let mut compute_us = Vec::with_capacity(200);
    for _ in 0..200 {
        let (_, t) = tracer.time("pipeline.classify_planes", parent, || {
            std::hint::black_box(model.classify_planes(std::hint::black_box(planes)))
        });
        compute_us.push(t.as_secs_f64() * 1e6);
    }
    let compute = median(&compute_us);
    let client_ms: Vec<f64> = ladder
        .latency
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    out.push("serve.client_p99_ms", quantile(&client_ms, 0.99), "ms");
    out.push("serve.server_p50_ms", server_ms(0.5), "ms");
    out.push("serve.server_p99_ms", server_ms(0.99), "ms");
    out.push("serve.compute_us_per_batch", compute, "us");
    out.push(
        "serve.queue_wait_p50_ms",
        server_ms(0.5) - compute / 1e3,
        "ms",
    );
    out.push("serve.mean_batch", mean_batch, "count");
    out.push("serve.batches", batches as f64, "count");
    out.push("serve.submit_us", median(&submit_us), "us");
    out.push("serve.rejected", rejected as f64, "count");
    out.push("serve.generator_lag_p99_ms", quantile(&lag_ms, 0.99), "ms");
    out.push("serve.samples", samples as f64, "count");
    out.push(
        "serve.max_offered_rps",
        ladder.best.map_or(0.0, |(rung, _)| ladder_rate(rung)),
        "1/s",
    );
    out.push("serve.staircase_passed", ladder.passed as f64, "count");
}
