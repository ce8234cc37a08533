//! `train_epochs`: `RankModel::train` on the fixed training set built in
//! set-up, at the paper configuration (batch 64), one epoch per call,
//! every call starting from the same untrained model. It runs the
//! autodiff tape and the allocating matmul and scalar kernels, and
//! bypasses serving entirely.

use crate::fixture::{loss_bits, Fixture};
use crate::layers::{Layers, TrainLayer};
use crate::report::{
    cpu_ticks, json_num, json_str, median, ms, percentile, quietest_quarter, sorted, steal_share,
    Summary,
};
use crate::{forecast_errors, mean, Pass};
use ranknet_core::engine::ForecastEngine;
use ranknet_core::ranknet::RankNet;
use std::time::{Duration, Instant};

const EPOCHS_PER_CALL: usize = 1;
/// Forecast error of the trained model: horizon 2, 100 samples, every
/// fourth lap of the test race from lap 60.
const EVAL_ORIGINS: std::ops::Range<usize> = 60..196;
const EVAL_STEP: usize = 4;

pub fn run(fx: &Fixture, seed: u64, seconds: f64, traced: bool) -> Pass {
    crate::set_tracing(&fx.engine, traced);
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let mut reports = Vec::new();
    // `(steal share, (samples/s, ms))` of every call.
    let mut timed = Vec::new();
    let mut failed = 0u64;
    let mut problems = Vec::new();
    let mut trained = None;
    let mut calls = 0u64;
    while reports.is_empty() || Instant::now() < until {
        let mut model = fx.init_model.clone();
        model.cfg.max_epochs = EPOCHS_PER_CALL;
        calls += 1;
        let ticks = cpu_ticks();
        let t0 = Instant::now();
        let result = model.train_resumable(&fx.train_set, &fx.val_set, None, None);
        let took = t0.elapsed();
        match result {
            Ok(report) => {
                let samples = fx.train_set.len() * report.epochs_run;
                let rate = samples as f64 / took.as_secs_f64();
                timed.push((steal_share(ticks, cpu_ticks()), (rate, ms(took))));
                if !report.recoveries.is_empty() {
                    failed += 1;
                }
                reports.push(report);
            }
            Err(e) => {
                failed += 1;
                problems.push(format!("training failed: {e}"));
                break;
            }
        }
        trained = Some(model);
    }
    crate::set_tracing(&fx.engine, false);
    let call_ms = sorted(timed.iter().map(|(_, (_, ms))| *ms).collect());
    let (rates, quiet_ms): (Vec<f64>, Vec<f64>) = quietest_quarter(timed).into_iter().unzip();
    let quiet_ms = sorted(quiet_ms);

    // One seed, one loss: every call must train to bit-identical losses.
    if let Some(first) = reports.first() {
        let want = loss_bits(first);
        if reports.iter().any(|r| loss_bits(r) != want) {
            problems.push("training losses differ between calls with one seed".into());
        }
        if !first
            .epoch_losses
            .iter()
            .all(|&(t, v)| t.is_finite() && v.is_finite())
        {
            problems.push("training loss is not finite".into());
        }
    }

    let layers = traced.then(|| Layers {
        gateway: None,
        serve: None,
        engine: None,
        train: TrainLayer::from_reports(&reports.iter().collect::<Vec<_>>()),
        late_ms_max: 0.0,
    });

    // Score the trained model outside the measured loop.
    let errors: Vec<f64> = trained
        .map(|rank_model| {
            let net = RankNet {
                rank_model,
                ..(*fx.model).clone()
            };
            let engine = ForecastEngine::new(net, seed);
            let ctx = fx.test_race();
            EVAL_ORIGINS
                .step_by(EVAL_STEP)
                .filter_map(|o| {
                    engine
                        .try_forecast_keyed(0, ctx, o, 2, 100)
                        .ok()
                        .map(|f| (o, f))
                })
                .flat_map(|(o, f)| forecast_errors(ctx, o, 2, &f.samples))
                .collect()
        })
        .unwrap_or_default();

    let val_loss = reports.first().map_or(f32::NAN, |r| r.best_val_loss);
    Pass {
        attempted: calls,
        failed,
        problems,
        summary: Summary {
            throughput_per_s: median(&rates),
            p50_ms: percentile(&quiet_ms, 0.5),
            p90_ms: percentile(&quiet_ms, 0.9),
        },
        latency_ms: call_ms,
        forecast_mae: mean(&errors),
        layers,
        record: vec![
            ("train_calls", reports.len().to_string()),
            ("train_windows", fx.train_set.len().to_string()),
            ("train_val_loss", json_num(val_loss as f64)),
            (
                "train_val_loss_bits",
                json_str(&format!("{:#010x}", val_loss.to_bits())),
            ),
        ],
    }
}
