//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <live_wire|race_replay|train_epochs> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Sets up the seed's fixture (median of several set-ups), runs the
//! workload for `--seconds`, checks its outputs, and prints a record line
//! (seed, machine, counts) followed by the result line: one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs an untraced and a
//! traced half and reports the per-layer metrics of the traced half plus
//! the tracing overhead. Exits 1 when a correctness check fails. See
//! `perfbench/README.md` for what each workload and metric is for.

mod alloc;
mod fixture;
mod layers;
mod live_wire;
mod race_replay;
mod report;
mod train_epochs;

use fixture::Fixture;
use layers::Layers;
use ranknet_core::engine::ForecastEngine;
use ranknet_core::features::RaceContext;
use ranknet_core::metrics::quantile;
use ranknet_core::rank_model::ForecastSamples;
use ranknet_core::ranknet::ranks_by_sorting;
use report::{json_num, json_str, percentile, Machine, Metrics, Summary};
use std::process::ExitCode;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload <live_wire|race_replay|train_epochs> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Clone, Copy)]
enum Workload {
    LiveWire,
    RaceReplay,
    TrainEpochs,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "live_wire" => Some(Workload::LiveWire),
            "race_replay" => Some(Workload::RaceReplay),
            "train_epochs" => Some(Workload::TrainEpochs),
            _ => None,
        }
    }

    fn warm(self, fx: &Fixture) {
        match self {
            Workload::LiveWire => live_wire::warm(fx),
            Workload::RaceReplay => race_replay::warm(fx),
            Workload::TrainEpochs => {}
        }
    }

    fn run(self, fx: &Fixture, seed: u64, seconds: f64, traced: bool) -> Pass {
        match self {
            Workload::LiveWire => live_wire::run(fx, seed, seconds, traced),
            Workload::RaceReplay => race_replay::run(fx, seconds, traced),
            Workload::TrainEpochs => train_epochs::run(fx, seed, seconds, traced),
        }
    }
}

/// One measured pass of a workload.
pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks.
    pub problems: Vec<String>,
    /// Units of work per second (requests, or training samples for
    /// `train_epochs`) and the latency of one unit (a request, or one
    /// training call).
    pub summary: Summary,
    /// Every latency of the pass, ascending.
    pub latency_ms: Vec<f64>,
    pub forecast_mae: f64,
    /// Per-layer figures; present on a traced pass.
    pub layers: Option<Layers>,
    /// Extra fields for the record line.
    pub record: Record,
}

/// Record-line fields: name and an already JSON-encoded value.
pub type Record = Vec<(&'static str, String)>;

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: Workload::parse(&workload_name)
            .ok_or_else(|| format!("unknown workload {workload_name:?}"))?,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Turn engine phase spans and operator profiling on or off together;
/// turning them on starts the operator cells from zero.
pub fn set_tracing(engine: &ForecastEngine, on: bool) {
    engine.set_tracing(on);
    if on {
        rpf_obs::ops::reset();
    }
    rpf_obs::ops::set_enabled(on);
}

/// Absolute rank error of every car's median forecast at the last step
/// of `horizon`, against the race's true rank there.
pub fn forecast_errors(
    ctx: &RaceContext,
    origin: usize,
    horizon: usize,
    samples: &ForecastSamples,
) -> Vec<f64> {
    let step = horizon - 1;
    let ranked = ranks_by_sorting(samples, step);
    ctx.sequences
        .iter()
        .zip(&ranked)
        .filter(|(seq, r)| !r.is_empty() && seq.len() > origin + step)
        .map(|(seq, r)| (quantile(r, 0.5) - seq.rank[origin + step]).abs() as f64)
        .collect()
}

/// Raw bits of a forecast, for exact comparisons.
pub fn bits(samples: &[Vec<Vec<f32>>]) -> Vec<u32> {
    samples
        .iter()
        .flatten()
        .flatten()
        .map(|v| v.to_bits())
        .collect()
}

/// Arithmetic mean; NaN for an empty sample (flagged as not finite).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let machine = Machine::probe();
    let (workload, seed) = (args.workload, args.seed);
    let (fx, setup_s, setup_deterministic) =
        fixture::set_up_repeated(seed, &|fx| workload.warm(fx));

    let mut problems = Vec::new();
    if !setup_deterministic {
        problems.push("fixture training differs between set-ups with one seed".to_string());
    }
    let mut metrics = Metrics::default();
    alloc::reset_peak();
    let ticks_before = report::cpu_ticks();
    let passes = if args.trace {
        // Untraced and traced halves of the run: the traced half gives
        // the per-layer numbers, the difference of the medians the
        // tracing overhead.
        let half = args.seconds / 2.0;
        let plain = workload.run(&fx, seed, half, false);
        let traced = workload.run(&fx, seed, half, true);
        traced
            .layers
            .as_ref()
            .expect("a traced pass reports its layers")
            .push(&mut metrics);
        metrics.push(
            "trace.overhead_ms_p50",
            traced.summary.p50_ms - plain.summary.p50_ms,
            "ms",
        );
        metrics.push("model.forecast_mae", traced.forecast_mae, "rank");
        metrics.push("machine.calibration_ms", machine.calibration_ms, "ms");
        vec![plain, traced]
    } else {
        let pass = workload.run(&fx, seed, args.seconds, false);
        let succeeded = pass.attempted.saturating_sub(pass.failed);
        metrics.push("setup_s", setup_s, "s");
        metrics.push("throughput_per_s", pass.summary.throughput_per_s, "1/s");
        metrics.push("latency_p50_ms", pass.summary.p50_ms, "ms");
        metrics.push(
            "success_rate",
            succeeded as f64 / pass.attempted.max(1) as f64,
            "ratio",
        );
        metrics.push("peak_heap_mb", alloc::peak_mib(), "MiB");
        vec![pass]
    };
    let ticks_after = report::cpu_ticks();
    let steal_pct = 100.0 * report::steal_share(ticks_before, ticks_after);
    for (name, value, _) in &metrics.0 {
        if !value.is_finite() {
            problems.push(format!("metric {name} is not finite"));
        }
    }
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();

    // The record line: what was run, on what, and what came out besides
    // the metrics. Values are JSON already.
    let mut record: Record = vec![
        ("workload", json_str(&args.workload_name)),
        ("seed", seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("nproc", machine.nproc.to_string()),
        ("cpu", json_str(&machine.cpu)),
        ("commit", json_str(&machine.commit)),
        ("calibration_ms", json_num(machine.calibration_ms)),
        ("steal_pct", json_num(steal_pct)),
        ("setup_repeats", fixture::SETUP_REPEATS.to_string()),
        ("attempted", attempted.to_string()),
        ("succeeded", attempted.saturating_sub(failed).to_string()),
        ("failed", failed.to_string()),
        ("fixture_val_loss", json_num(fx.fit.best_val_loss as f64)),
        ("peak_rss_mb", json_num(report::peak_rss_mb())),
    ];
    let last = passes.len() - 1;
    for (i, pass) in passes.into_iter().enumerate() {
        if !pass.forecast_mae.is_finite() {
            problems.push("forecast_mae is not finite".into());
        }
        problems.extend(pass.problems);
        if i < last {
            continue; // the record describes the (traced) last pass
        }
        record.push(("samples", pass.latency_ms.len().to_string()));
        record.push(("latency_p90_ms", json_num(pass.summary.p90_ms)));
        for (name, q) in [("latency_p95_ms", 0.95), ("latency_p99_ms", 0.99)] {
            record.push((name, json_num(percentile(&pass.latency_ms, q))));
        }
        record.push(("forecast_mae", json_num(pass.forecast_mae)));
        record.extend(pass.record);
    }
    let problem_list: Vec<String> = problems.iter().map(|p| json_str(p)).collect();
    record.push(("problems", format!("[{}]", problem_list.join(", "))));
    let body: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"record\": {{{}}}}}", body.join(", "));

    let correct = problems.is_empty();
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!(
        "{}",
        report::result_line(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
