//! Per-layer metrics of a traced pass. Every workload prints the same
//! set; a layer the workload does not run reads 0.

use crate::report::{median, ns_to_ms, ratio, Metrics};
use ranknet_core::engine::PhaseTimings;
use rpf_nn::train::TrainReport;
use rpf_obs::ops;

/// The gateway as seen from its own counters plus the timing submitter.
pub struct GatewayLayer {
    pub requests: u64,
    pub non_200: u64,
    pub bytes: u64,
    /// Median of round trip minus time inside the serve backend.
    pub self_ms_p50: f64,
}

pub struct ServeLayer {
    /// Median time from submission to answer inside the serving region.
    pub time_ms_p50: f64,
    pub snapshot: rpf_serve::MetricsSnapshot,
    /// Requests the engine answered by cloning an identical neighbour.
    pub coalesced: u64,
}

/// Training-step figures taken from `TrainReport`s.
pub struct TrainLayer {
    pub epoch_s: f64,
    pub us_per_sample: f64,
    pub batches: u64,
    /// Best validation loss (Gaussian NLL, so usually negative).
    pub val_loss: f64,
}

impl TrainLayer {
    pub fn from_reports(reports: &[&TrainReport]) -> TrainLayer {
        let epoch_s: Vec<f64> = reports
            .iter()
            .map(|r| ratio(r.wall_s, r.epochs_run as f64))
            .collect();
        let us: Vec<f64> = reports.iter().map(|r| r.us_per_sample).collect();
        TrainLayer {
            epoch_s: median(&epoch_s),
            us_per_sample: median(&us),
            batches: reports.iter().map(|r| counter(r, "train_batches")).sum(),
            val_loss: reports.first().map_or(f64::NAN, |r| r.best_val_loss as f64),
        }
    }
}

fn counter(report: &TrainReport, name: &str) -> u64 {
    report
        .metrics
        .counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

pub struct Layers {
    pub gateway: Option<GatewayLayer>,
    pub serve: Option<ServeLayer>,
    pub engine: Option<PhaseTimings>,
    pub train: TrainLayer,
    /// Largest delay of an open-loop generator behind its schedule.
    pub late_ms_max: f64,
}

impl Layers {
    pub fn push(&self, m: &mut Metrics) {
        let gw = self.gateway.as_ref();
        m.push(
            "gateway.requests",
            gw.map_or(0, |g| g.requests) as f64,
            "count",
        );
        m.push(
            "gateway.non_200",
            gw.map_or(0, |g| g.non_200) as f64,
            "count",
        );
        m.push(
            "gateway.bytes_per_req",
            gw.map_or(0.0, |g| ratio(g.bytes as f64, g.requests as f64)),
            "bytes",
        );
        m.push(
            "gateway.self_ms_p50",
            gw.map_or(0.0, |g| g.self_ms_p50),
            "ms",
        );

        let sv = self.serve.as_ref();
        m.push("serve.time_ms_p50", sv.map_or(0.0, |s| s.time_ms_p50), "ms");
        m.push(
            "serve.batches",
            sv.map_or(0, |s| s.snapshot.batches) as f64,
            "count",
        );
        m.push(
            "serve.mean_batch_size",
            sv.map_or(0.0, |s| s.snapshot.mean_batch_size()),
            "requests",
        );
        m.push(
            "serve.queue_depth_max",
            sv.map_or(0, |s| s.snapshot.queue_depth_max) as f64,
            "requests",
        );
        m.push(
            "serve.coalesced_ratio",
            sv.map_or(0.0, |s| {
                ratio(s.coalesced as f64, s.snapshot.completed as f64)
            }),
            "ratio",
        );
        m.push("loadgen.late_ms_max", self.late_ms_max, "ms");

        let t = self.engine.unwrap_or_default();
        let misses = t.calls.saturating_sub(t.encoder_reuses);
        let per = |d: std::time::Duration, n: u64| ratio(ns_to_ms(d.as_nanos() as u64), n as f64);
        m.push("engine.calls", t.calls as f64, "count");
        m.push(
            "engine.covariates_ms_per_call",
            per(t.covariates, t.calls),
            "ms",
        );
        m.push("engine.encode_ms_per_miss", per(t.encode, misses), "ms");
        m.push(
            "engine.encoder_hit_ratio",
            ratio(t.encoder_reuses as f64, t.calls as f64),
            "ratio",
        );
        m.push("engine.decode_ms_per_call", per(t.decode, t.calls), "ms");
        m.push("engine.trajectories_per_s", t.trajectories_per_sec(), "1/s");

        // FLOPs are the kernels' own counts, computed from tensor sizes.
        for (class, s) in ops::all_stats() {
            let name = class.name();
            m.push(format!("tensor.{name}.ms"), ns_to_ms(s.nanos), "ms");
            m.push(format!("tensor.{name}.calls"), s.calls as f64, "count");
            m.push(format!("tensor.{name}.gflops"), s.gflops(), "GFLOP/s");
        }

        m.push("train.epoch_s", self.train.epoch_s, "s");
        m.push("train.us_per_sample", self.train.us_per_sample, "us");
        m.push("train.batches", self.train.batches as f64, "count");
        m.push("train.val_loss", self.train.val_loss, "nll");
    }
}
