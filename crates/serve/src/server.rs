//! The threaded shard: worker threads that take the batches the scheduler
//! core (`scheduler.rs`) forms, the engine call, fallback delivery, and
//! panic containment — what one shard runs. Every serving region, flat
//! [`serve`] included, is a set of these shards behind the router
//! (`router.rs`); `serve` is the one-shard case.
//!
//! # Determinism contract
//!
//! The engine derives every random draw from `(engine seed, race, origin)`
//! — request identity, never batch position or worker id. The scheduler
//! therefore has one hard invariant to preserve and it preserves it by
//! construction: a request's result is bit-identical to a direct
//! [`ForecastEngine::try_forecast_keyed`] call no matter which batch it
//! lands in, which worker runs it, or in what order requests arrived.
//! Batching, worker count and arrival jitter move *time*, never bits.
//! The same invariant extends to shard placement: shard 0 runs this
//! scheduler on the caller's engine and every other shard on a fork with
//! the same seed, so which shard a request hashes to is equally invisible
//! in the output bits.
//!
//! # Failure model
//!
//! * **Queue full** — admission rejects with [`SubmitError::QueueFull`];
//!   the queue never exceeds its configured depth.
//! * **Deadline expiry** — a request whose deadline has passed at the
//!   instant its batch forms (judged by the scheduler core, the same
//!   instant the replay uses) is answered with the CurRank persistence
//!   fallback, flagged [`FallbackReason::DeadlineExpired`]; it never
//!   blocks the caller further and never runs the model.
//! * **Worker panic mid-batch** — the engine call runs under
//!   `catch_unwind`; on a panic the batch is retried one request at a
//!   time, so the poisoned request degrades to a flagged CurRank fallback
//!   while its neighbours still get real forecasts. Nothing hangs, nothing
//!   is dropped.
//! * **Poisoned queue mutex** — every queue lock recovers a poisoned
//!   guard (`into_inner`); queue state is plain data, so recovery is safe.
//! * **Shard worker death** — a panic that escapes the containment above
//!   (only an injected kill can produce one — every real unwind path
//!   inside a batch is caught) reaches the shard's supervisor, which
//!   fallback-drains the backlog with [`FallbackReason::ShardFailure`] and
//!   respawns the worker (`supervisor.rs`); other shards are untouched.
//! * **Shutdown** — when the body closure returns, admission closes
//!   ([`SubmitError::ShuttingDown`]) and workers drain every queued
//!   request before exiting: accepted always implies answered.

use crate::config::{ServeConfig, ShardTopology};
use crate::lifecycle::LifecycleController;
use crate::mailbox::{Queued, Slot};
use crate::metrics::{MetricsSnapshot, ResponseKind};
use crate::router::{region, ServeClient};
use crate::scheduler::{Batch, Step};
use crate::shard::Shard;
use ranknet_core::engine::{
    currank_forecast, EngineError, EngineForecast, ForecastEngine, ForecastRequest,
};
use ranknet_core::features::RaceContext;
use rpf_obs::Clock;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// A forecast query addressed to the serving layer. `race` indexes the
/// context slice handed to [`serve`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ServeRequest {
    pub race: usize,
    pub origin: usize,
    pub horizon: usize,
    pub n_samples: usize,
    /// Time budget measured from submission. A request still queued once
    /// this much time has passed degrades to the CurRank fallback instead
    /// of blocking the caller on the model. `Some(ZERO)` always degrades —
    /// useful for forcing the fallback path in tests. `None` never expires.
    pub deadline: Option<Duration>,
}

impl ServeRequest {
    pub fn new(race: usize, origin: usize, horizon: usize, n_samples: usize) -> ServeRequest {
        ServeRequest {
            race,
            origin,
            horizon,
            n_samples,
            deadline: None,
        }
    }

    pub fn with_deadline(mut self, deadline: Duration) -> ServeRequest {
        self.deadline = Some(deadline);
        self
    }
}

/// Why a response carries the CurRank fallback instead of a model forecast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// The request sat in the queue past its deadline.
    DeadlineExpired,
    /// The worker panicked while forecasting this request.
    WorkerPanic,
    /// The request was queued on a shard whose worker died; the
    /// supervisor answered the backlog while restarting the shard.
    ShardFailure,
}

/// A served forecast.
#[derive(Clone, Debug)]
pub struct ServeResponse {
    /// Admission id — unique within its shard, assigned in submission
    /// order.
    pub id: u64,
    pub forecast: EngineForecast,
    /// `Some` when the model never ran and the CurRank fallback answered.
    pub fallback: Option<FallbackReason>,
    /// How many requests shard this response's engine batch.
    pub batch_size: usize,
}

/// A request the scheduler could not answer at all.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// Engine validation rejected the request (also returned when a
    /// fallback was needed but the request was too malformed to build one).
    Invalid(EngineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Invalid(e) => write!(f, "invalid request: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

pub type ServeResult = Result<ServeResponse, ServeError>;

/// Why a submission was refused at the door (the request never entered the
/// queue and will get no response).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control: the queue is at capacity.
    QueueFull { capacity: usize },
    /// The serving scope is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Run a serving scope over `engine`: the one-shard case of
/// [`crate::serve_sharded`], served on `engine` itself (so its timings,
/// cache and model slot are the region's). Spawns the shard's supervisor
/// and its `cfg.workers` scheduler threads, hands the body a
/// [`ServeClient`], and on return closes admission, drains the queue,
/// joins the workers, and reports the final metrics. A panicking body
/// closes admission too, so the panic reaches the caller once the workers
/// have drained. Requests reference `contexts` by index, exactly like
/// [`ForecastEngine::forecast_batch_entries`].
pub fn serve<R>(
    engine: &ForecastEngine,
    contexts: &[&RaceContext],
    cfg: &ServeConfig,
    body: impl FnOnce(ServeClient<'_, '_>) -> R,
) -> (R, MetricsSnapshot) {
    let (out, snapshot) = region(engine, contexts, cfg, ShardTopology::new(1), None, body);
    (out, snapshot.merged())
}

/// [`serve`] with a model-lifecycle controller attached: while a candidate
/// is staged, sampled healthy responses are shadow-compared against it,
/// and the controller's promote / rollback decisions (including hot-swaps
/// of `engine`'s model slot) happen inside the region. The controller's
/// swap / rollback / divergence tallies are folded into the returned
/// metrics, and the `rpf_model_version` gauge reports the version serving
/// at region end.
pub fn serve_with_lifecycle<R>(
    engine: &ForecastEngine,
    contexts: &[&RaceContext],
    cfg: &ServeConfig,
    lifecycle: &LifecycleController,
    body: impl FnOnce(ServeClient<'_, '_>) -> R,
) -> (R, MetricsSnapshot) {
    let topo = ShardTopology::new(1);
    let (out, snapshot) = region(engine, contexts, cfg, topo, Some(lifecycle), body);
    (out, snapshot.merged())
}

/// What a worker found when it asked the mailbox for work.
pub(crate) enum NextStep {
    Batch(Batch<Arc<Slot>>),
    Shutdown,
    /// An injected shard-kill fault targets this worker: the entries it
    /// was about to drain stay queued, and the worker must die *outside*
    /// the poison-recovery catch so the supervisor sees a real death.
    #[cfg(feature = "fault-inject")]
    Kill,
}

pub(crate) fn worker_loop(shard: &Shard<'_>) {
    loop {
        // `next_batch` can only panic via an injected queue-lock fault (the
        // fault-inject matrix); it mutates nothing before it forms the
        // batch, so catching here loses no entries — the mutex is merely poisoned,
        // and the next lock recovers it.
        let step = match catch_unwind(AssertUnwindSafe(|| next_batch(shard))) {
            Ok(step) => step,
            Err(_) => {
                shard.metrics.record_queue_poison_recovery();
                continue;
            }
        };
        match step {
            NextStep::Batch(batch) => serve_batch(shard, batch),
            NextStep::Shutdown => return,
            #[cfg(feature = "fault-inject")]
            NextStep::Kill => panic!("injected fault: shard worker killed"),
        }
    }
}

/// Block until a batch can be formed (or shutdown empties the world).
/// Every decision — idle, hold the under-full batch, dispatch how many,
/// drain on shutdown — and the batch itself come from the scheduler core
/// under the mailbox lock, at one wall-clock reading per pass; this loop
/// only sleeps on the condvar as told.
fn next_batch(shard: &Shard<'_>) -> NextStep {
    let mailbox = &shard.mailbox;
    let mut core = mailbox.lock();
    #[cfg(feature = "fault-inject")]
    crate::fault::maybe_poison_queue_lock(shard.id);
    loop {
        let now_ns = mailbox.clock.now_ns();
        core = match core.next_step(now_ns) {
            Step::Shutdown => return NextStep::Shutdown,
            Step::Idle => mailbox.wakeup.wait(core).unwrap_or_else(|p| p.into_inner()),
            Step::Wait(hold) => {
                mailbox
                    .wakeup
                    .wait_timeout(core, hold)
                    .unwrap_or_else(|p| p.into_inner())
                    .0
            }
            Step::Dispatch(n) => {
                #[cfg(feature = "fault-inject")]
                {
                    let ids: Vec<u64> = core.queued().take(n).map(|e| e.id).collect();
                    if crate::fault::should_kill_worker(shard.id, &ids) {
                        return NextStep::Kill;
                    }
                }
                return NextStep::Batch(core.form_batch(n, now_ns, &shard.metrics));
            }
        };
    }
}

fn serve_batch(shard: &Shard<'_>, batch: Batch<Arc<Slot>>) {
    let batch_size = batch.expired.len() + batch.live.len();
    // Requests that had outlived their deadline when the batch formed
    // answer with the fallback instead of holding a seat in the engine.
    for e in batch.expired {
        deliver_fallback(shard, e, FallbackReason::DeadlineExpired, batch_size);
    }
    let live = batch.live;
    if live.is_empty() {
        return;
    }

    let requests: Vec<ForecastRequest> = live
        .iter()
        .map(|e| ForecastRequest {
            race: e.req.race,
            origin: e.req.origin,
            horizon: e.req.horizon,
            n_samples: e.req.n_samples,
        })
        .collect();

    // Lifecycle fault hook: fire a planned swap while this batch is
    // between formation and its engine call ("swap mid-batch" /
    // "swap during shutdown-drain" in the fault matrix). The hook runs
    // outside the catch_unwind below, so a hook that lets a swap panic
    // escape would kill the worker — planned hooks guard their own swaps
    // (see `LifecycleController::rolling_swap`).
    #[cfg(feature = "fault-inject")]
    for e in &live {
        crate::fault::maybe_fire_swap(e.id);
    }

    let attempt = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "fault-inject")]
        for e in &live {
            crate::fault::maybe_panic_request(e.id);
        }
        shard
            .engine
            .forecast_batch_entries(shard.contexts, &requests)
    }));

    match attempt {
        Ok(results) => {
            for (e, res) in live.into_iter().zip(results) {
                deliver_engine_result(shard, e, res, batch_size);
            }
        }
        Err(_) => {
            // A panic mid-batch: contain it, then retry one request at a
            // time so only the poisoned request degrades.
            shard.metrics.record_worker_panic();
            for (e, req) in live.into_iter().zip(&requests) {
                let single = catch_unwind(AssertUnwindSafe(|| {
                    #[cfg(feature = "fault-inject")]
                    crate::fault::maybe_panic_request(e.id);
                    shard
                        .engine
                        .forecast_batch_entries(shard.contexts, std::slice::from_ref(req))
                        .swap_remove(0)
                }));
                match single {
                    Ok(res) => deliver_engine_result(shard, e, res, 1),
                    Err(_) => {
                        shard.metrics.record_worker_panic();
                        deliver_fallback(shard, e, FallbackReason::WorkerPanic, 1);
                    }
                }
            }
        }
    }
}

fn deliver_engine_result(
    shard: &Shard<'_>,
    e: Queued,
    res: Result<EngineForecast, EngineError>,
    batch_size: usize,
) {
    // Shadow evaluation (sampled): compare the live answer against a
    // staged candidate before delivery, so the decision sequence is a pure
    // function of the admission order. Only sampled admissions pay the
    // candidate's inline forecast.
    if let (Some(lc), Ok(forecast)) = (shard.lifecycle, &res) {
        lc.observe(shard.engine, shard.contexts, e.id, &e.req, forecast);
    }
    respond(shard, e, res, None, batch_size);
}

/// Answer with the model-free CurRank persistence forecast, flagged with
/// `reason`. If even the fallback is impossible (malformed request), the
/// typed validation error goes out instead — the caller is never left
/// waiting.
pub(crate) fn deliver_fallback(
    shard: &Shard<'_>,
    e: Queued,
    reason: FallbackReason,
    batch_size: usize,
) {
    let req = &e.req;
    let built = if req.race >= shard.contexts.len() {
        Err(EngineError::RaceOutOfRange {
            race: req.race,
            n_contexts: shard.contexts.len(),
        })
    } else {
        currank_forecast(
            shard.contexts[req.race],
            req.origin,
            req.horizon,
            req.n_samples,
        )
    };
    respond(shard, e, built, Some(reason), batch_size);
}

/// Answer `e` with `res` — a model forecast, or the CurRank forecast
/// flagged `fallback` — and record the response, with its latency from
/// admission to this instant.
fn respond(
    shard: &Shard<'_>,
    e: Queued,
    res: Result<EngineForecast, EngineError>,
    fallback: Option<FallbackReason>,
    batch_size: usize,
) {
    let (kind, result) = match res {
        Ok(forecast) => (
            match fallback {
                None => ResponseKind::Ok,
                Some(FallbackReason::DeadlineExpired) => ResponseKind::FallbackDeadline,
                Some(FallbackReason::WorkerPanic) => ResponseKind::FallbackPanic,
                Some(FallbackReason::ShardFailure) => ResponseKind::FallbackShard,
            },
            Ok(ServeResponse {
                id: e.id,
                forecast,
                fallback,
                batch_size,
            }),
        ),
        Err(err) => (ResponseKind::Invalid, Err(ServeError::Invalid(err))),
    };
    let latency_ns = e.waited_ns(shard.mailbox.clock.now_ns());
    shard.metrics.record_response(kind, latency_ns);
    e.payload.deliver(result);
}
