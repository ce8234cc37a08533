//! The forecast engine: a batched, thread-parallel front end over
//! [`RankNet`] with deterministic counter-derived sampling.
//!
//! The raw model API re-runs the LSTM encoder on every call and threads a
//! mutable `StdRng` through the sampler, which couples results to call
//! order and thread schedule. The engine fixes both:
//!
//! * **Determinism** — every call's draws derive from
//!   `(engine seed, race key, origin)` through [`RngStreams`], so a
//!   forecast is a pure function of the model and those keys. Thread count
//!   and batching change wall-clock time, never samples.
//! * **Encoder amortisation** — encoder states are cached per
//!   `(race key, origin)`; repeated forecasts at one origin (different
//!   horizons, sample counts, or models of a comparison sweep) pay the
//!   encoder once.
//! * **Observability** — per-phase wall-clock counters (encode / covariate
//!   sampling / decode) and a trajectory count, for throughput reporting.
//! * **Graceful degradation** (DESIGN.md §9) — requests are validated up
//!   front into a typed [`EngineError`]; decoder trajectories that come
//!   back non-finite (a crashed worker, numerically broken weights, an
//!   injected fault) are replaced with the CurRank baseline and flagged,
//!   so a serving engine returns a usable answer instead of panicking.

use crate::features::RaceContext;
use crate::lifecycle::{ModelSlot, VersionedModel};
use crate::rank_model::{CovariateFuture, EncoderState, ForecastSamples};
use crate::ranknet::{DecodeJob, RankNet};
use rpf_nn::RngStreams;
use rpf_obs::{span_name, Counter, Gauge, MetricsSnapshot, Registry, SpanName, Tracer};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One forecast of a batch: `race` indexes the context slice handed to
/// [`ForecastEngine::forecast_batch_entries`].
#[derive(Clone, Copy, Debug)]
pub struct ForecastRequest {
    pub race: usize,
    pub origin: usize,
    pub horizon: usize,
    pub n_samples: usize,
}

/// Why the engine rejected a forecast request (before running the model).
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// `request.race` does not index the supplied context slice.
    RaceOutOfRange { race: usize, n_contexts: usize },
    /// The forecast origin must be at least lap 1 (the decoder conditions
    /// on the lap before the origin).
    BadOrigin { origin: usize },
    /// A forecast needs at least one step ahead.
    BadHorizon,
    /// A Monte-Carlo forecast needs at least one sample.
    BadSampleCount,
    /// An input feature of a car still in the race is NaN or infinite.
    NonFiniteFeature { car: usize, lap: usize },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::RaceOutOfRange { race, n_contexts } => {
                write!(f, "race index {race} out of range ({n_contexts} contexts)")
            }
            EngineError::BadOrigin { origin } => {
                write!(f, "forecast origin {origin} must be >= 1")
            }
            EngineError::BadHorizon => write!(f, "forecast horizon must be >= 1"),
            EngineError::BadSampleCount => write!(f, "sample count must be >= 1"),
            EngineError::NonFiniteFeature { car, lap } => {
                write!(
                    f,
                    "non-finite feature for car slot {car} at lap index {lap}"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// A forecast plus its degradation report.
#[derive(Clone, Debug)]
pub struct EngineForecast {
    pub samples: ForecastSamples,
    /// True when at least one trajectory fell back to the CurRank baseline.
    pub degraded: bool,
    /// How many trajectories fell back.
    pub degraded_trajectories: u64,
    /// Lifecycle version of the model that produced this forecast
    /// (0 = unversioned: an engine built from a bare model, or the
    /// model-free [`currank_forecast`] fallback).
    pub model_version: u64,
}

/// Snapshot of the engine's accumulated phase counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Time spent running the encoder (cache misses only).
    pub encode: Duration,
    /// Time spent sampling covariate futures (PitModel step).
    pub covariates: Duration,
    /// Time spent in ancestral decoding (the Monte-Carlo bulk).
    pub decode: Duration,
    /// Forecast calls served.
    pub calls: u64,
    /// Calls that reused a cached encoder state.
    pub encoder_reuses: u64,
    /// Trajectories sampled (`active cars × n_samples`, summed over calls).
    pub trajectories: u64,
    /// Trajectories that came back non-finite and fell back to CurRank.
    pub degraded_trajectories: u64,
    /// Requests rejected by validation (never reached the model).
    pub rejected_requests: u64,
    /// Encoder states evicted from the bounded LRU cache.
    pub cache_evictions: u64,
    /// Batch-entry requests answered by cloning an identical neighbour's
    /// result instead of running the model again.
    pub coalesced_requests: u64,
}

impl PhaseTimings {
    /// Sampled trajectories per second of decode time.
    pub fn trajectories_per_sec(&self) -> f64 {
        let s = self.decode.as_secs_f64();
        if s > 0.0 {
            self.trajectories as f64 / s
        } else {
            0.0
        }
    }
}

/// Encoder cache capacity of a new engine: enough for every origin of a
/// handful of concurrently-live races, small enough that a season-long
/// soak stays bounded. [`ForecastEngine::with_cache_capacity`] overrides it.
const DEFAULT_ENCODER_CACHE_CAPACITY: usize = 1024;

/// Most trajectory rows one lock-step decode advances. A serving
/// micro-batch — a few distinct 100-sample questions over a 33-car field —
/// decodes in one fold; a long `forecast_batch_entries` sweep decodes a few
/// requests at a time, so each step's state stays cache-sized and peak
/// memory is one fold's, not the sweep's. Folding never changes a
/// response (batched rows are independent), only time and memory.
const MAX_FOLD_ROWS: usize = 8192;

/// Split `jobs` into consecutive folds of at most [`MAX_FOLD_ROWS`] rows;
/// a job larger than that decodes alone.
fn fold_ranges(jobs: &[DecodeJob<'_>]) -> Vec<std::ops::Range<usize>> {
    let mut folds = Vec::new();
    let (mut start, mut rows) = (0, 0);
    for (i, job) in jobs.iter().enumerate() {
        if i > start && rows + job.rows() > MAX_FOLD_ROWS {
            folds.push(start..i);
            (start, rows) = (i, 0);
        }
        rows += job.rows();
    }
    if start < jobs.len() {
        folds.push(start..jobs.len());
    }
    folds
}

/// Encoder-cache key: `(model version, race, origin)`. The version
/// component makes a hot-swap safe without a cache flush — an encoder
/// state is weight-dependent, so a state computed under the old model must
/// never serve the new one. Old-version entries age out via LRU.
type CacheKey = (u64, usize, usize);

/// The bounded encoder cache: a map from `(version, race, origin)` to the
/// cached state stamped with a logical tick, behind one mutex. A serving
/// shard makes one lookup per distinct request of a micro-batch, so the
/// lock is uncontended at benchmark rates. Eviction scans for the minimum
/// stamp — O(len), far cheaper than the encoder run it replaces — and
/// only changes *whether* an encoder state is recomputed: `encode` is
/// deterministic, so a recompute yields a bit-identical state and
/// forecasts are unaffected.
struct EncoderCache {
    lru: Mutex<Lru>,
    capacity: usize,
}

struct Lru {
    map: HashMap<CacheKey, (u64, EncoderState)>,
    tick: u64,
}

impl EncoderCache {
    fn new(capacity: usize) -> EncoderCache {
        EncoderCache {
            lru: Mutex::new(Lru {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity,
        }
    }

    /// The cache holds plain data (no invariant a panicking caller could
    /// break mid-update), so a poisoned lock is recovered rather than
    /// propagated — one crashed caller must not take the cache down.
    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn get(&self, key: &CacheKey) -> Option<EncoderState> {
        let mut lru = self.lock();
        lru.tick += 1;
        let tick = lru.tick;
        lru.map.get_mut(key).map(|slot| {
            slot.0 = tick;
            slot.1.clone()
        })
    }

    /// Insert, evicting the least-recently-used entry if the cache is at
    /// capacity. Returns how many entries were evicted (0 or 1).
    fn insert(&self, key: CacheKey, state: EncoderState) -> u64 {
        if self.capacity == 0 {
            return 0; // caching disabled: nothing stored, nothing evicted
        }
        let mut lru = self.lock();
        lru.tick += 1;
        let mut evicted = 0;
        if !lru.map.contains_key(&key) && lru.map.len() >= self.capacity {
            if let Some(&oldest) = lru
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k)
            {
                lru.map.remove(&oldest);
                evicted = 1;
            }
        }
        let tick = lru.tick;
        lru.map.insert(key, (tick, state));
        evicted
    }

    fn len(&self) -> usize {
        self.lock().map.len()
    }

    fn clear(&self) {
        self.lock().map.clear();
    }
}

/// Deterministic parallel Monte-Carlo forecast engine over a trained
/// [`RankNet`].
///
/// The model is owned through an [`Arc`]-based [`ModelSlot`], so a
/// lifecycle controller can hot-swap weights under live traffic: each
/// forecast (or batch) loads the slot once and runs entirely on that
/// version — in-flight work finishes on the old model, later admissions
/// see the new one, and the version-keyed encoder cache never serves a
/// stale state across a swap. Engines built from a bare model get version
/// 0 and behave exactly as before the slot existed.
///
/// Phase counters live in an owned [`rpf_obs::Registry`] (one per engine —
/// two engines never share cells); [`ForecastEngine::timings`] is the
/// typed view over the same handles, and [`ForecastEngine::obs_snapshot`]
/// the mergeable one. Phase spans (encode / covariates / decode) record
/// into an embedded [`Tracer`], disabled by default.
pub struct ForecastEngine {
    slot: Arc<ModelSlot>,
    seed: u64,
    threads: usize,
    cache: EncoderCache,
    registry: Registry,
    tracer: Tracer,
    span_encode: SpanName,
    span_covariates: SpanName,
    span_decode: SpanName,
    encode_ns: Counter,
    covariate_ns: Counter,
    decode_ns: Counter,
    calls: Counter,
    encoder_reuses: Counter,
    trajectories: Counter,
    degraded_trajectories: Counter,
    rejected_requests: Counter,
    cache_evictions: Counter,
    coalesced_requests: Counter,
    model_swaps: Counter,
    model_version_gauge: Gauge,
}

/// Ergonomics shim for the slot refactor: historical call sites pass
/// `&model`, which now clones the model into shared ownership. Callers
/// that already hold an `Arc<RankNet>` (or can move the model) pass it
/// directly and pay nothing.
impl From<&RankNet> for Arc<RankNet> {
    fn from(model: &RankNet) -> Arc<RankNet> {
        Arc::new(model.clone())
    }
}

impl ForecastEngine {
    /// Build an engine with the machine's default thread count and the
    /// default encoder cache capacity. Accepts `&RankNet` (cloned into the
    /// slot), an owned `RankNet`, or an `Arc<RankNet>`; the model gets
    /// lifecycle version 0 ("unversioned").
    pub fn new(model: impl Into<Arc<RankNet>>, seed: u64) -> ForecastEngine {
        ForecastEngine::with_slot(ModelSlot::new(VersionedModel::new(0, model)), seed)
    }

    /// Build an engine over an existing [`ModelSlot`] — the lifecycle
    /// entry point: the controller keeps a clone of the slot (or of the
    /// engine's [`ForecastEngine::slot`]) and swaps versions through it.
    pub fn with_slot(slot: Arc<ModelSlot>, seed: u64) -> ForecastEngine {
        let registry = Registry::new();
        let model_version_gauge = registry.gauge("engine_model_version");
        model_version_gauge.set(slot.version());
        ForecastEngine {
            slot,
            seed,
            threads: rpf_tensor::par::num_threads(),
            cache: EncoderCache::new(DEFAULT_ENCODER_CACHE_CAPACITY),
            tracer: Tracer::new(),
            span_encode: span_name("engine_encode"),
            span_covariates: span_name("engine_covariates"),
            span_decode: span_name("engine_decode"),
            encode_ns: registry.counter("engine_encode_ns"),
            covariate_ns: registry.counter("engine_covariates_ns"),
            decode_ns: registry.counter("engine_decode_ns"),
            calls: registry.counter("engine_calls"),
            encoder_reuses: registry.counter("engine_encoder_reuses"),
            trajectories: registry.counter("engine_trajectories"),
            degraded_trajectories: registry.counter("engine_degraded_trajectories"),
            rejected_requests: registry.counter("engine_rejected_requests"),
            cache_evictions: registry.counter("engine_cache_evictions"),
            coalesced_requests: registry.counter("engine_coalesced_requests"),
            model_swaps: registry.counter("engine_model_swaps"),
            model_version_gauge,
            registry,
        }
    }

    /// The shared model slot — clone it to hot-swap versions from a
    /// lifecycle controller while this engine serves.
    pub fn slot(&self) -> &Arc<ModelSlot> {
        &self.slot
    }

    /// The currently installed versioned model.
    pub fn current_model(&self) -> Arc<VersionedModel> {
        self.slot.load()
    }

    /// Lifecycle version of the currently installed model.
    pub fn model_version(&self) -> u64 {
        self.slot.version()
    }

    /// Atomically install a new model version; returns the one it
    /// replaced. In-flight forecasts that already loaded the slot finish
    /// on the old version; every forecast admitted after this call runs on
    /// the new one. No cache flush is needed — encoder states are keyed by
    /// version, so old entries can never serve the new model.
    pub fn swap_model(&self, next: VersionedModel) -> Arc<VersionedModel> {
        let version = next.version;
        let prev = self.slot.swap(next);
        self.model_swaps.inc();
        self.model_version_gauge.set(version);
        prev
    }

    /// Override the decoder worker count (≥ 1). Changes scheduling only;
    /// the samples are identical for every setting.
    pub fn with_threads(mut self, threads: usize) -> ForecastEngine {
        self.threads = threads.max(1);
        self
    }

    /// Override the encoder cache capacity (entries; 0 disables caching).
    /// Eviction only forces deterministic recomputes — never different
    /// samples.
    pub fn with_cache_capacity(mut self, capacity: usize) -> ForecastEngine {
        self.cache = EncoderCache::new(capacity);
        self
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Clone this engine's *configuration* into a fresh engine for one
    /// serving shard, over the currently installed versioned model. See
    /// [`ForecastEngine::fork_with`].
    pub fn fork(&self) -> ForecastEngine {
        let vm = self.slot.load();
        self.fork_with(VersionedModel::new(vm.version, Arc::clone(&vm.model)))
    }

    /// A fresh engine over `model` with this engine's configuration: same
    /// seed, thread budget and encoder-cache capacity — so it serves
    /// exactly what this engine would serve with `model` installed — but
    /// its own [`ModelSlot`], its own empty encoder cache and its own obs
    /// registry. Serving shards ([`ForecastEngine::fork`]) and lifecycle
    /// shadow engines are built this way; they share no locks, no cache
    /// lines and no metric cells with this engine.
    pub fn fork_with(&self, model: VersionedModel) -> ForecastEngine {
        ForecastEngine::with_slot(ModelSlot::new(model), self.seed)
            .with_threads(self.threads)
            .with_cache_capacity(self.cache.capacity)
    }

    /// The engine seed every call's RNG streams derive from. A shadow
    /// engine built with the same seed over a candidate model produces
    /// exactly what that candidate would serve after promotion.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Encoder states currently resident in the cache. Never exceeds the
    /// configured capacity.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Forecast one race at one origin: the convenience wrapper over the
    /// pipeline of [`ForecastEngine::forecast_batch_entries`], for one
    /// request whose context is passed directly. The race key scopes both
    /// the encoder cache and the RNG streams: calls with the same
    /// `(race, origin)` reuse the cached encoder state and replay the same
    /// random draws (common random numbers across horizons and sample
    /// counts), while distinct keys are independent.
    ///
    /// Degradation: any trajectory containing a non-finite value (crashed
    /// decoder worker, numerically broken weights, injected fault) is
    /// replaced with the CurRank persistence baseline — the car's last
    /// observed rank repeated over the horizon — and counted in
    /// [`EngineForecast::degraded_trajectories`]. Healthy trajectories are
    /// untouched, so degradation never changes a healthy forecast.
    pub fn try_forecast_keyed(
        &self,
        race: usize,
        ctx: &RaceContext,
        origin: usize,
        horizon: usize,
        n_samples: usize,
    ) -> Result<EngineForecast, EngineError> {
        let request = ForecastRequest {
            race,
            origin,
            horizon,
            n_samples,
        };
        let vm = self.slot.load();
        // One request in, one result out.
        self.run_pipeline(&vm, &[request], |_| Ok(ctx))
            .swap_remove(0)
    }

    /// Cache-aware encoder lookup: reuse the `(version, race, origin)`
    /// state if resident, otherwise encode under the encode span and
    /// insert.
    fn encoder_for(
        &self,
        vm: &VersionedModel,
        race: usize,
        ctx: &RaceContext,
        origin: usize,
    ) -> EncoderState {
        let key = (vm.version, race, origin);
        let cached = self.cache.get(&key);
        match cached {
            Some(enc) => {
                self.encoder_reuses.inc();
                enc
            }
            None => {
                let _span = self.tracer.span(self.span_encode);
                let t0 = Instant::now();
                let enc = vm.model.rank_model.encode(ctx, origin);
                self.add_ns(&self.encode_ns, t0);
                let evicted = self.cache.insert(key, enc.clone());
                self.cache_evictions.add(evicted);
                enc
            }
        }
    }

    /// Covariate-group sampling under its span and phase counter.
    fn covariates_for(
        &self,
        vm: &VersionedModel,
        ctx: &RaceContext,
        origin: usize,
        horizon: usize,
        n_samples: usize,
        call_seed: u64,
    ) -> Vec<(CovariateFuture, usize)> {
        let _span = self.tracer.span(self.span_covariates);
        let t0 = Instant::now();
        let groups = vm
            .model
            .covariate_groups(ctx, origin, horizon, n_samples, call_seed);
        self.add_ns(&self.covariate_ns, t0);
        groups
    }

    /// The engine's one validated batch call, which the serving layer
    /// dispatches on. `requests[i].race` indexes `contexts`; results come
    /// back in request order as per-request outcomes (an invalid request
    /// becomes its own `Err` without failing its neighbours), with
    /// identical requests — same
    /// `(race, origin, horizon, n_samples)` — coalesced onto a single model
    /// run. Coalescing is legal because a forecast is a pure function of
    /// request identity (the determinism contract): the cloned result is
    /// bit-identical to what a fresh [`ForecastEngine::try_forecast_keyed`]
    /// call would have produced.
    ///
    /// The distinct requests fold into lock-step decodes of up to
    /// `MAX_FOLD_ROWS` trajectories ([`RankNet::decode_jobs_batched`] —
    /// one decode for a serving micro-batch): every batched kernel computes
    /// each trajectory row independently and each request keeps its own
    /// stream families, so the folded results stay bit-identical to
    /// per-request calls — folding changes wall-clock time, never a
    /// response.
    pub fn forecast_batch_entries(
        &self,
        contexts: &[&RaceContext],
        requests: &[ForecastRequest],
    ) -> Vec<Result<EngineForecast, EngineError>> {
        let vm = self.slot.load();
        self.run_pipeline(&vm, requests, |race| context_at(contexts, race))
    }

    /// The engine's one request pipeline, behind both entry points:
    ///
    /// 1. **dedupe** — identical requests share the first one's run
    ///    (counted in `coalesced_requests`);
    /// 2. **validate** each distinct request — `ctx_of` resolves its race
    ///    to a context; an invalid request becomes its own `Err` and its
    ///    neighbours still run;
    /// 3. **encode** (cache-aware) and **sample covariates** per valid
    ///    request, seeded from `(engine seed, race, origin)` — request
    ///    identity, never call order;
    /// 4. **decode** the valid requests in lock-step batched folds of at
    ///    most [`MAX_FOLD_ROWS`] trajectories;
    /// 5. **degrade** non-finite trajectories to the CurRank baseline;
    /// 6. **fan out** one result per request, in request order.
    ///
    /// The caller loads the model slot once and passes it in, so a swap
    /// landing mid-batch can never produce a torn batch (some requests
    /// old, some new).
    fn run_pipeline<'c>(
        &self,
        vm: &VersionedModel,
        requests: &[ForecastRequest],
        ctx_of: impl Fn(usize) -> Result<&'c RaceContext, EngineError>,
    ) -> Vec<Result<EngineForecast, EngineError>> {
        // Distinct requests in first-appearance order; duplicates point at
        // their representative's slot.
        let mut first_at: HashMap<(usize, usize, usize, usize), usize> = HashMap::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(requests.len());
        let mut uniq: Vec<ForecastRequest> = Vec::with_capacity(requests.len());
        for r in requests {
            let key = (r.race, r.origin, r.horizon, r.n_samples);
            if let Some(&u) = first_at.get(&key) {
                self.coalesced_requests.inc();
                slot_of.push(u);
                continue;
            }
            first_at.insert(key, uniq.len());
            slot_of.push(uniq.len());
            uniq.push(*r);
        }

        struct Prepared<'c> {
            ctx: &'c RaceContext,
            enc: EncoderState,
            groups: Vec<(CovariateFuture, usize)>,
            seed: u64,
        }
        let prepared: Vec<Result<Prepared<'c>, EngineError>> = uniq
            .iter()
            .map(|r| {
                let checked = ctx_of(r.race).and_then(|ctx| {
                    validate_request(ctx, r.origin, r.horizon, r.n_samples).map(|()| ctx)
                });
                let ctx = checked.inspect_err(|_| self.rejected_requests.inc())?;
                let seed = RngStreams::new(self.seed)
                    .child(r.race as u64)
                    .seed(r.origin as u64);
                let enc = self.encoder_for(vm, r.race, ctx, r.origin);
                let groups = self.covariates_for(vm, ctx, r.origin, r.horizon, r.n_samples, seed);
                Ok(Prepared {
                    ctx,
                    enc,
                    groups,
                    seed,
                })
            })
            .collect();

        let jobs: Vec<DecodeJob<'_>> = prepared
            .iter()
            .zip(&uniq)
            .filter_map(|(p, r)| {
                p.as_ref().ok().map(|p| DecodeJob {
                    ctx: p.ctx,
                    enc: &p.enc,
                    groups: &p.groups,
                    origin: r.origin,
                    horizon: r.horizon,
                    n_samples: r.n_samples,
                    seed: p.seed,
                })
            })
            .collect();
        let decoded: Vec<ForecastSamples> = if jobs.is_empty() {
            Vec::new()
        } else {
            let _span = self.tracer.span(self.span_decode);
            let t0 = Instant::now();
            let decoded = fold_ranges(&jobs)
                .into_iter()
                .flat_map(|fold| vm.model.decode_jobs_batched(&jobs[fold], self.threads))
                .collect();
            self.add_ns(&self.decode_ns, t0);
            decoded
        };

        // Degrade and package per distinct request (decoded results are in
        // valid-request order), then fan out in request order.
        let mut decoded = decoded.into_iter();
        let unique_results: Vec<Result<EngineForecast, EngineError>> = prepared
            .into_iter()
            .zip(&uniq)
            .map(|(p, r)| {
                let p = p?;
                let mut samples = decoded
                    .next()
                    .unwrap_or_else(|| vec![Vec::new(); p.ctx.sequences.len()]);
                let degraded_trajectories =
                    degrade_non_finite(p.ctx, &mut samples, r.origin, r.horizon);
                self.degraded_trajectories.add(degraded_trajectories);
                self.calls.inc();
                self.trajectories
                    .add((p.enc.cars.len() * r.n_samples) as u64);
                Ok(EngineForecast {
                    samples,
                    degraded: degraded_trajectories > 0,
                    degraded_trajectories,
                    model_version: vm.version,
                })
            })
            .collect();
        if unique_results.len() == requests.len() {
            return unique_results; // nothing coalesced: one result per request
        }
        slot_of.iter().map(|&u| unique_results[u].clone()).collect()
    }

    /// Drop cached encoder states (e.g. after fine-tuning the model the
    /// engine borrows — required, since states are weight-dependent).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Accumulated phase counters since construction (or the last
    /// [`ForecastEngine::reset_timings`]) — the typed view over the
    /// engine's registry handles.
    pub fn timings(&self) -> PhaseTimings {
        PhaseTimings {
            encode: Duration::from_nanos(self.encode_ns.value()),
            covariates: Duration::from_nanos(self.covariate_ns.value()),
            decode: Duration::from_nanos(self.decode_ns.value()),
            calls: self.calls.value(),
            encoder_reuses: self.encoder_reuses.value(),
            trajectories: self.trajectories.value(),
            degraded_trajectories: self.degraded_trajectories.value(),
            rejected_requests: self.rejected_requests.value(),
            cache_evictions: self.cache_evictions.value(),
            coalesced_requests: self.coalesced_requests.value(),
        }
    }

    pub fn reset_timings(&self) {
        self.registry.reset();
        self.tracer.reset();
    }

    /// Enable or disable phase-span tracing (encode / covariates /
    /// decode). Off by default; a disabled span is one relaxed load.
    pub fn set_tracing(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// The engine's phase-span tracer (ring buffer + per-name totals).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mergeable snapshot of the engine's counters plus span totals —
    /// combine with serving and training snapshots via
    /// [`MetricsSnapshot::merge`] for one exposition.
    pub fn obs_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot().with_spans(self.tracer.totals())
    }

    fn add_ns(&self, counter: &Counter, since: Instant) {
        counter.add(since.elapsed().as_nanos() as u64);
    }
}

/// Resolve a batch request's race index to its context.
fn context_at<'c>(
    contexts: &[&'c RaceContext],
    race: usize,
) -> Result<&'c RaceContext, EngineError> {
    contexts
        .get(race)
        .copied()
        .ok_or(EngineError::RaceOutOfRange {
            race,
            n_contexts: contexts.len(),
        })
}

/// Request validation shared by every entry point.
fn validate_request(
    ctx: &RaceContext,
    origin: usize,
    horizon: usize,
    n_samples: usize,
) -> Result<(), EngineError> {
    if origin == 0 {
        return Err(EngineError::BadOrigin { origin });
    }
    if horizon == 0 {
        return Err(EngineError::BadHorizon);
    }
    if n_samples == 0 {
        return Err(EngineError::BadSampleCount);
    }
    // Scan the observed history the encoder will consume: a single NaN
    // feature silently contaminates every trajectory of that car.
    for (car, seq) in ctx.sequences.iter().enumerate() {
        if seq.len() < origin {
            continue; // retired before the origin: not encoded
        }
        // Scenario columns too: the encoder reads them when the model uses
        // scenario features, and the PitModel reads tyre age and wetness.
        let cols: [&[f32]; 13] = [
            &seq.rank,
            &seq.lap_time,
            &seq.time_behind,
            &seq.lap_status,
            &seq.track_status,
            &seq.caution_laps,
            &seq.pit_age,
            &seq.leader_pit_count,
            &seq.total_pit_count,
            &seq.compound,
            &seq.tyre_age,
            &seq.track_wetness,
            &seq.fuel_target,
        ];
        for col in cols {
            for (lap, &v) in col.iter().take(origin).enumerate() {
                if !v.is_finite() {
                    return Err(EngineError::NonFiniteFeature { car, lap });
                }
            }
        }
    }
    Ok(())
}

/// The CurRank persistence forecast in engine output shape: every car
/// still running at `origin` gets `n_samples` identical paths repeating
/// its last observed rank. This is the degraded answer a serving layer
/// returns when a deadline expires or a worker crashes mid-batch — it
/// needs no model, cannot fail past validation, and is trivially
/// deterministic. The whole forecast is flagged degraded.
pub fn currank_forecast(
    ctx: &RaceContext,
    origin: usize,
    horizon: usize,
    n_samples: usize,
) -> Result<EngineForecast, EngineError> {
    validate_request(ctx, origin, horizon, n_samples)?;
    let mut samples: ForecastSamples = vec![Vec::new(); ctx.sequences.len()];
    let mut degraded = 0u64;
    for (car, seq) in ctx.sequences.iter().enumerate() {
        if seq.len() < origin {
            continue;
        }
        let cur = seq.rank[origin - 1];
        samples[car] = vec![vec![cur; horizon]; n_samples];
        degraded += n_samples as u64;
    }
    Ok(EngineForecast {
        samples,
        degraded: degraded > 0,
        degraded_trajectories: degraded,
        model_version: 0,
    })
}

/// Replace non-finite trajectories with the CurRank persistence baseline
/// (last observed rank, repeated). Returns how many were replaced.
fn degrade_non_finite(
    ctx: &RaceContext,
    samples: &mut ForecastSamples,
    origin: usize,
    horizon: usize,
) -> u64 {
    let mut degraded = 0u64;
    for (car, per_car) in samples.iter_mut().enumerate() {
        if per_car.is_empty() {
            continue;
        }
        let cur = ctx.sequences[car].rank[origin - 1];
        for path in per_car.iter_mut() {
            if path.iter().any(|v| !v.is_finite()) {
                *path = vec![cur; horizon];
                degraded += 1;
            }
        }
    }
    degraded
}
