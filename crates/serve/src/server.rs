//! The scheduler: bounded admission, dynamic micro-batching, worker
//! threads, per-request deadlines, and panic containment.
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
//! The same invariant extends to shard placement: the sharded front
//! ([`crate::serve_sharded`]) runs this exact scheduler once per shard
//! over a forked engine with the same seed, so which shard a request
//! hashes to is equally invisible in the output bits.
//!
//! # Failure model
//!
//! * **Queue full** — admission rejects with [`SubmitError::QueueFull`];
//!   the queue never exceeds its configured depth.
//! * **Deadline expiry** — a request still queued past its deadline is
//!   answered with the CurRank persistence fallback, flagged
//!   [`FallbackReason::DeadlineExpired`]; it never blocks the caller
//!   further and never runs the model.
//! * **Worker panic mid-batch** — the engine call runs under
//!   `catch_unwind`; on a panic the batch is retried one request at a
//!   time, so the poisoned request degrades to a flagged CurRank fallback
//!   while its neighbours still get real forecasts. Nothing hangs, nothing
//!   is dropped.
//! * **Poisoned queue mutex** — every queue lock recovers a poisoned
//!   guard (`into_inner`); queue state is plain data, so recovery is safe.
//! * **Shard worker death** — under sharded serving, a panic that escapes
//!   the containment above (only an injected kill can produce one — every
//!   real unwind path inside a batch is caught) reaches the shard's
//!   supervisor, which fallback-drains the backlog with
//!   [`FallbackReason::ShardFailure`] and respawns the worker
//!   (`supervisor.rs`); other shards are untouched.
//! * **Shutdown** — when the body closure returns, admission closes
//!   ([`SubmitError::ShuttingDown`]) and workers drain every queued
//!   request before exiting: accepted always implies answered.

use crate::config::ServeConfig;
use crate::lifecycle::LifecycleController;
use crate::mailbox::{Entry, Mailbox, Pending};
use crate::metrics::{MetricsSnapshot, ResponseKind, ServeMetrics};
use ranknet_core::engine::{
    currank_forecast, EngineError, EngineForecast, ForecastEngine, ForecastRequest,
};
use ranknet_core::features::RaceContext;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// Admission id — unique within its region (per shard, under sharded
    /// serving), assigned in submission order.
    pub id: u64,
    pub forecast: EngineForecast,
    /// `Some` when the model never ran and the CurRank fallback answered.
    pub fallback: Option<FallbackReason>,
    /// How many requests shared this response's engine batch.
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

/// One serving region's shared state: the flat region or one race shard.
pub(crate) struct Shared<'a> {
    pub(crate) engine: &'a ForecastEngine,
    pub(crate) contexts: &'a [&'a RaceContext],
    pub(crate) cfg: ServeConfig,
    pub(crate) mailbox: Mailbox,
    pub(crate) metrics: ServeMetrics,
    /// Shadow-evaluation / hot-swap controller, when serving under
    /// [`serve_with_lifecycle`].
    pub(crate) lifecycle: Option<&'a LifecycleController>,
    /// Shard index under sharded serving; `None` in the flat region. Used
    /// only for fault targeting — never for scheduling decisions, which is
    /// what keeps placement invisible in the output bits.
    #[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
    pub(crate) shard: Option<usize>,
}

impl<'a> Shared<'a> {
    pub(crate) fn new(
        engine: &'a ForecastEngine,
        contexts: &'a [&'a RaceContext],
        cfg: ServeConfig,
        lifecycle: Option<&'a LifecycleController>,
        shard: Option<usize>,
    ) -> Shared<'a> {
        Shared {
            engine,
            contexts,
            cfg,
            mailbox: Mailbox::new(cfg.queue_capacity),
            metrics: ServeMetrics::new(),
            lifecycle,
            shard,
        }
    }
}

/// Submission handle passed to the [`serve`] body; `Copy`, so it can be
/// handed to any number of client threads inside the scope.
#[derive(Clone, Copy)]
pub struct ServeClient<'s, 'a> {
    shared: &'s Shared<'a>,
}

impl ServeClient<'_, '_> {
    /// Submit without blocking on the forecast. Admission is all-or-nothing:
    /// `Ok` means the request is queued and will be answered; `Err` means
    /// it never entered the queue.
    pub fn submit(&self, req: ServeRequest) -> Result<Pending, SubmitError> {
        self.shared.mailbox.submit(req, &self.shared.metrics)
    }

    /// Submit and block until the response arrives.
    pub fn forecast(&self, req: ServeRequest) -> Result<ServeResult, SubmitError> {
        self.submit(req).map(Pending::wait)
    }

    /// Live counter snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Current submission-queue depth (requests admitted, not yet picked
    /// up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared.mailbox.depth()
    }
}

/// Has `entry` outlived its deadline after waiting `waited`? Shared by the
/// threaded scheduler and the deterministic replay so the two agree.
pub(crate) fn deadline_expired(waited: Duration, deadline: Option<Duration>) -> bool {
    deadline.is_some_and(|d| waited >= d)
}

/// Run a serving scope: spawn `cfg.workers` scheduler threads over
/// `engine`, hand the body a [`ServeClient`], and on return close
/// admission, drain the queue, join the workers, and report the final
/// metrics. A panicking body closes admission too, so the panic reaches
/// the caller once the workers have drained. Requests reference `contexts` by index, exactly like
/// [`ForecastEngine::try_forecast_batch`].
pub fn serve<R>(
    engine: &ForecastEngine,
    contexts: &[&RaceContext],
    cfg: &ServeConfig,
    body: impl FnOnce(ServeClient<'_, '_>) -> R,
) -> (R, MetricsSnapshot) {
    serve_inner(engine, contexts, cfg, None, body)
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
    serve_inner(engine, contexts, cfg, Some(lifecycle), body)
}

fn serve_inner<R>(
    engine: &ForecastEngine,
    contexts: &[&RaceContext],
    cfg: &ServeConfig,
    lifecycle: Option<&LifecycleController>,
    body: impl FnOnce(ServeClient<'_, '_>) -> R,
) -> (R, MetricsSnapshot) {
    let cfg = cfg.normalized();
    let shared = Shared::new(engine, contexts, cfg, lifecycle, None);

    let out = std::thread::scope(|s| {
        for _ in 0..cfg.workers {
            s.spawn(|| worker_loop(&shared));
        }
        let closer = shared.mailbox.close_on_drop();
        let out = body(ServeClient { shared: &shared });
        drop(closer);
        out
    });
    if let Some(lc) = lifecycle {
        lc.flush_into(&shared.metrics, engine);
    } else {
        shared.metrics.set_model_version(engine.model_version());
    }
    (out, shared.metrics.snapshot())
}

/// What a worker found when it asked the mailbox for work.
pub(crate) enum NextStep {
    Batch(Vec<Entry>),
    Shutdown,
    /// An injected shard-kill fault targets this worker: the entries it
    /// was about to drain stay queued, and the worker must die *outside*
    /// the poison-recovery catch so the supervisor sees a real death.
    #[cfg(feature = "fault-inject")]
    Kill,
}

pub(crate) fn worker_loop(shared: &Shared<'_>) {
    loop {
        // `next_batch` can only panic via an injected queue-lock fault (the
        // fault-inject matrix); it mutates nothing before its final drain,
        // so catching here loses no entries — the mutex is merely poisoned,
        // and the next lock recovers it.
        let step = match catch_unwind(AssertUnwindSafe(|| next_batch(shared))) {
            Ok(step) => step,
            Err(_) => {
                shared.metrics.record_queue_poison_recovery();
                continue;
            }
        };
        match step {
            NextStep::Batch(batch) => serve_batch(shared, batch),
            NextStep::Shutdown => return,
            #[cfg(feature = "fault-inject")]
            NextStep::Kill => panic!("injected fault: shard worker killed"),
        }
    }
}

/// Block until a batch can be formed (or shutdown empties the world).
/// Dynamic micro-batching: once at least one request is queued, hold the
/// batch open until it reaches `max_batch` or the oldest request has
/// waited `max_delay`, then drain up to `max_batch` entries. During
/// shutdown the hold is skipped so the queue drains immediately.
fn next_batch(shared: &Shared<'_>) -> NextStep {
    let mut q = shared.mailbox.lock();
    #[cfg(feature = "fault-inject")]
    crate::fault::maybe_poison_queue_lock(shared.shard);
    'outer: loop {
        while q.entries.is_empty() {
            if q.shutdown {
                return NextStep::Shutdown;
            }
            q = shared
                .mailbox
                .wakeup
                .wait(q)
                .unwrap_or_else(|p| p.into_inner());
        }
        while q.entries.len() < shared.cfg.max_batch && !q.shutdown {
            let oldest = match q.entries.front() {
                Some(e) => e.enqueued,
                None => continue 'outer,
            };
            let waited = oldest.elapsed();
            if waited >= shared.cfg.max_delay {
                break;
            }
            q = shared
                .mailbox
                .wakeup
                .wait_timeout(q, shared.cfg.max_delay - waited)
                .unwrap_or_else(|p| p.into_inner())
                .0;
            if q.entries.is_empty() {
                // A sibling worker drained the queue while we waited.
                continue 'outer;
            }
        }
        let n = q.entries.len().min(shared.cfg.max_batch);
        #[cfg(feature = "fault-inject")]
        {
            let ids: Vec<u64> = q.entries.iter().take(n).map(|e| e.id).collect();
            if crate::fault::should_kill_worker(shared.shard, &ids) {
                return NextStep::Kill;
            }
        }
        return NextStep::Batch(q.entries.drain(..n).collect());
    }
}

fn serve_batch(shared: &Shared<'_>, batch: Vec<Entry>) {
    let batch_size = batch.len();
    shared.metrics.record_batch(batch_size as u64);

    // Deadline triage: expired requests answer immediately with the
    // fallback instead of holding a seat in the engine batch.
    let mut live: Vec<Entry> = Vec::with_capacity(batch_size);
    for e in batch {
        if deadline_expired(e.enqueued.elapsed(), e.req.deadline) {
            deliver_fallback(shared, e, FallbackReason::DeadlineExpired, batch_size);
        } else {
            live.push(e);
        }
    }
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
    // (see `LifecycleController::swap_now_slot`).
    #[cfg(feature = "fault-inject")]
    for e in &live {
        crate::fault::maybe_fire_swap(e.id);
    }

    let attempt = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "fault-inject")]
        for e in &live {
            crate::fault::maybe_panic_request(e.id);
        }
        shared
            .engine
            .forecast_batch_entries(shared.contexts, &requests)
    }));

    match attempt {
        Ok(results) => {
            for (e, res) in live.into_iter().zip(results) {
                deliver_engine_result(shared, e, res, batch_size);
            }
        }
        Err(_) => {
            // A panic mid-batch: contain it, then retry one request at a
            // time so only the poisoned request degrades.
            shared.metrics.record_worker_panic();
            for e in live {
                let single = catch_unwind(AssertUnwindSafe(|| {
                    #[cfg(feature = "fault-inject")]
                    crate::fault::maybe_panic_request(e.id);
                    let req = &e.req;
                    if req.race >= shared.contexts.len() {
                        Err(EngineError::RaceOutOfRange {
                            race: req.race,
                            n_contexts: shared.contexts.len(),
                        })
                    } else {
                        shared.engine.try_forecast_keyed(
                            req.race,
                            shared.contexts[req.race],
                            req.origin,
                            req.horizon,
                            req.n_samples,
                        )
                    }
                }));
                match single {
                    Ok(res) => deliver_engine_result(shared, e, res, 1),
                    Err(_) => {
                        shared.metrics.record_worker_panic();
                        deliver_fallback(shared, e, FallbackReason::WorkerPanic, 1);
                    }
                }
            }
        }
    }
}

fn deliver_engine_result(
    shared: &Shared<'_>,
    e: Entry,
    res: Result<EngineForecast, EngineError>,
    batch_size: usize,
) {
    // Shadow evaluation (sampled): compare the live answer against a
    // staged candidate before delivery, so the decision sequence is a pure
    // function of the admission order. Only sampled admissions pay the
    // candidate's inline forecast.
    if let (Some(lc), Ok(forecast)) = (shared.lifecycle, &res) {
        lc.observe(shared.engine, shared.contexts, e.id, &e.req, forecast);
    }
    let (kind, result) = match res {
        Ok(forecast) => (
            ResponseKind::Ok,
            Ok(ServeResponse {
                id: e.id,
                forecast,
                fallback: None,
                batch_size,
            }),
        ),
        Err(err) => (ResponseKind::Invalid, Err(ServeError::Invalid(err))),
    };
    shared
        .metrics
        .record_response(kind, e.enqueued.elapsed().as_nanos() as u64);
    e.slot.deliver(result);
}

/// Answer with the model-free CurRank persistence forecast, flagged with
/// `reason`. If even the fallback is impossible (malformed request), the
/// typed validation error goes out instead — the caller is never left
/// waiting.
pub(crate) fn deliver_fallback(
    shared: &Shared<'_>,
    e: Entry,
    reason: FallbackReason,
    batch_size: usize,
) {
    let req = &e.req;
    let built = if req.race >= shared.contexts.len() {
        Err(EngineError::RaceOutOfRange {
            race: req.race,
            n_contexts: shared.contexts.len(),
        })
    } else {
        currank_forecast(
            shared.contexts[req.race],
            req.origin,
            req.horizon,
            req.n_samples,
        )
    };
    let (kind, result) = match built {
        Ok(forecast) => (
            match reason {
                FallbackReason::DeadlineExpired => ResponseKind::FallbackDeadline,
                FallbackReason::WorkerPanic => ResponseKind::FallbackPanic,
                FallbackReason::ShardFailure => ResponseKind::FallbackShard,
            },
            Ok(ServeResponse {
                id: e.id,
                forecast,
                fallback: Some(reason),
                batch_size,
            }),
        ),
        Err(err) => (ResponseKind::Invalid, Err(ServeError::Invalid(err))),
    };
    shared
        .metrics
        .record_response(kind, e.enqueued.elapsed().as_nanos() as u64);
    e.slot.deliver(result);
}
