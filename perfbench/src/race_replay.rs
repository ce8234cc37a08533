//! `race_replay`: the live-race thundering herd, in process and open loop.
//!
//! A generator replays the seed's season lap by lap on a fixed lap
//! period, interleaving its seven races: lap `k` is race `k % 7` at
//! origin `60 + k % 136`. Rotating through every race averages the
//! per-lap work (it scales with the cars still running) over the season,
//! so one seed's crash-heavy race does not set the run's latency. At each
//! lap it submits a burst of 16 `ServeClient::submit` calls for the new
//! origin: 12 identical questions at the paper's Table V
//! operating point (horizon 2, 100 samples) and 4 identical questions at
//! horizon 5. A collector thread waits for the answers in submission
//! order. Latency runs from the lap's due time, so a stalled generator
//! shows up in the numbers; the first horizon-2 answer of each lap is
//! scored against the true rank.
//!
//! Each burst is one engine batch: one encoder miss (a new origin), two
//! covariate samplings, one folded 100-sample decode, and 14 of the 16
//! requests answered by coalescing.

use crate::fixture::Fixture;
use crate::layers::{Layers, ServeLayer, TrainLayer};
use crate::report::{json_num, ms, percentile, sorted, steal_by_window, windowed, Summary};
use crate::{bits, forecast_errors, mean, Pass};
use ranknet_core::features::RaceContext;
use ranknet_core::rank_model::ForecastSamples;
use rpf_serve::{serve, Pending, ServeConfig, ServeRequest, SubmitError};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const LAP_PERIOD: Duration = Duration::from_millis(60);
const STANDARD: usize = 12;
const LONG: usize = 4;
const HORIZON: usize = 2;
const LONG_HORIZON: usize = 5;
const SAMPLES: usize = 100;
const FIRST_ORIGIN: usize = 60;

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Origins one pass over the race visits: every lap from
/// [`FIRST_ORIGIN`] to the last that still has [`LONG_HORIZON`] laps ahead.
fn span(ctx: &RaceContext) -> usize {
    ctx.total_laps - LONG_HORIZON - FIRST_ORIGIN + 1
}

/// Warm-up for set-up: one forecast builds the lazily-created inference
/// runtimes of the rank and pit models. The encoder state it caches is
/// dropped when a pass starts.
pub fn warm(fx: &Fixture) {
    let out = fx
        .engine
        .try_forecast_keyed(0, fx.test_race(), FIRST_ORIGIN, HORIZON, SAMPLES);
    std::hint::black_box(out.ok());
}

/// One lap's burst, handed from the generator to the collector.
struct Burst {
    race: usize,
    origin: usize,
    due: Instant,
    /// `due` in seconds since the replay started.
    due_s: f64,
    submitted: Vec<(Instant, Result<Pending, SubmitError>)>,
}

#[derive(Default)]
struct Collected {
    failed: u64,
    /// `(due_s, latency ms)` of every answer.
    timed: Vec<(f64, f64)>,
    serve_ms: Vec<f64>,
    /// `(race, origin, first horizon-2 answer)` per lap, for scoring.
    scored: Vec<(usize, usize, ForecastSamples)>,
    problems: Vec<String>,
}

fn collect(bursts: mpsc::Receiver<Burst>) -> Collected {
    let mut out = Collected::default();
    for burst in bursts {
        let mut answers = Vec::with_capacity(STANDARD + LONG);
        for (submitted, pending) in burst.submitted {
            let answer = pending.ok().map(|p| {
                let result = p.wait();
                let now = Instant::now();
                out.timed.push((burst.due_s, ms(now - burst.due)));
                out.serve_ms.push(ms(now - submitted));
                result
            });
            match answer {
                Some(Ok(resp)) if resp.fallback.is_none() && !resp.forecast.degraded => {
                    answers.push(Some(resp.forecast.samples));
                }
                _ => {
                    out.failed += 1;
                    answers.push(None);
                }
            }
        }
        // Coalesced answers must be bit-equal to their representative.
        for group in [&answers[..STANDARD], &answers[STANDARD..]] {
            let mut present = group.iter().flatten();
            if let Some(first) = present.next() {
                let want = bits(first);
                if present.any(|a| bits(a) != want) {
                    out.problems.push(format!(
                        "race {} origin {}: coalesced answers differ from their representative",
                        burst.race, burst.origin
                    ));
                }
            }
        }
        if let Some(Some(first)) = answers.into_iter().next() {
            out.scored.push((burst.race, burst.origin, first));
        }
    }
    out
}

pub fn run(fx: &Fixture, seconds: f64, traced: bool) -> Pass {
    let races = fx.races.len();
    let span = fx
        .races
        .iter()
        .map(span)
        .min()
        .expect("the season has races");
    let laps = ((seconds / LAP_PERIOD.as_secs_f64()) as usize).max(1);
    // `(k % races, k % span)` repeats only after lcm(races, span) laps; a
    // replay that runs longer asks again under new race keys, so every lap
    // still misses the encoder cache once.
    let cycle = races / gcd(races, span) * span;
    let refs: Vec<&RaceContext> = (0..laps.div_ceil(cycle))
        .flat_map(|_| fx.races.iter())
        .collect();
    let lap = |k: usize| (k % races, FIRST_ORIGIN + k % span);
    let request = |k: usize, horizon: usize| {
        let (race, origin) = lap(k);
        ServeRequest::new(race + races * (k / cycle), origin, horizon, SAMPLES)
    };
    // Every pass starts cold, so each lap's new origin misses the cache.
    fx.engine.clear_cache();
    fx.engine.reset_timings();
    crate::set_tracing(&fx.engine, traced);

    let span_s = laps as f64 * LAP_PERIOD.as_secs_f64();
    let ((collected, late_ms, steal, wall), snap) =
        serve(&fx.engine, &refs, &ServeConfig::default(), |client| {
            let (tx, rx) = mpsc::channel();
            std::thread::scope(|s| {
                let collector = s.spawn(move || collect(rx));
                let start = Instant::now() + Duration::from_millis(5);
                let sampler = s.spawn(move || steal_by_window(start, span_s));
                let mut late_ms = Vec::with_capacity(laps);
                for k in 0..laps {
                    let due = start + LAP_PERIOD * k as u32;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    late_ms.push(ms(Instant::now().saturating_duration_since(due)));
                    let submitted = (0..STANDARD + LONG)
                        .map(|j| {
                            let horizon = if j < STANDARD { HORIZON } else { LONG_HORIZON };
                            (Instant::now(), client.submit(request(k, horizon)))
                        })
                        .collect();
                    let (race, origin) = lap(k);
                    let burst = Burst {
                        race,
                        origin,
                        due,
                        due_s: (LAP_PERIOD * k as u32).as_secs_f64(),
                        submitted,
                    };
                    tx.send(burst).expect("collector outlives the generator");
                }
                drop(tx);
                let collected = collector.join().expect("collector does not panic");
                let wall = start.elapsed();
                let steal = sampler.join().expect("the sampler does not panic");
                (collected, late_ms, steal, wall)
            })
        });
    crate::set_tracing(&fx.engine, false);
    let timings = fx.engine.timings();

    let attempted = (laps * (STANDARD + LONG)) as u64;
    let late_ms = sorted(late_ms);
    let late_max = late_ms.last().copied().unwrap_or(0.0);
    let mut problems = collected.problems;
    // A burst sent a whole lap late means the generator fell behind its
    // schedule: the run is flagged and not scored.
    if late_max > crate::report::ms(LAP_PERIOD) {
        problems.push(format!(
            "generator fell behind its schedule by {late_max:.1} ms"
        ));
    }
    let errors: Vec<f64> = collected
        .scored
        .iter()
        .flat_map(|(race, origin, samples)| {
            forecast_errors(&fx.races[*race], *origin, HORIZON, samples)
        })
        .collect();

    let layers = traced.then(|| {
        let serve_ms = sorted(collected.serve_ms.clone());
        Layers {
            gateway: None,
            serve: Some(ServeLayer {
                time_ms_p50: percentile(&serve_ms, 0.5),
                snapshot: snap.clone(),
                coalesced: timings.coalesced_requests,
            }),
            engine: Some(timings),
            train: TrainLayer::from_reports(&[&fx.fit]),
            late_ms_max: late_max,
        }
    });

    Pass {
        attempted,
        failed: collected.failed,
        problems,
        summary: Summary {
            // The schedule fixes the rate, which windows would quantize:
            // report answers over the pass's wall time instead.
            throughput_per_s: collected.timed.len() as f64 / wall.as_secs_f64(),
            ..windowed(&collected.timed, span_s, &steal)
        },
        latency_ms: sorted(collected.timed.iter().map(|&(_, ms)| ms).collect()),
        forecast_mae: mean(&errors),
        layers,
        record: vec![
            ("laps", laps.to_string()),
            (
                "generator_late_ms_p99",
                json_num(percentile(&late_ms, 0.99)),
            ),
            ("generator_late_ms_max", json_num(late_max)),
        ],
    }
}
