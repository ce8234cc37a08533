//! Serving-side model lifecycle: shadow evaluation of candidate versions
//! under live traffic, and the promote / auto-rollback decision gate
//! (DESIGN.md §14).
//!
//! The [`LifecycleController`] sits next to a serve region
//! ([`crate::serve_with_lifecycle`]). A candidate version is *staged*;
//! while staged, a deterministic sample of admissions (`admission id %
//! shadow_sample_every == 0` — request identity, never wall clock) is run
//! through a **shadow engine** holding the candidate, forked from the live
//! engine's configuration so its outputs are bit-identical to what the
//! candidate would serve after promotion. The rank divergence between the
//! live and shadow answers feeds the `serve_shadow_divergence_milli`
//! histogram; after `shadow_min_samples` comparisons the controller
//! decides:
//!
//! * mean divergence within the gate → **promote**: atomic hot-swap into
//!   the live engine's [`ModelSlot`]; in-flight batches finish on the old
//!   version, later admissions get the new one.
//! * gate exceeded (or the candidate panicked) → **auto-rollback**: the
//!   old version keeps serving untouched and the candidate is quarantined
//!   in the [`ModelStore`] (when one is attached).
//!
//! Every swap attempt is panic-guarded: a panic mid-swap (see the
//! fault-inject matrix) is caught, counted as a rollback, and leaves the
//! old version serving — a lifecycle operation can never take the region
//! down.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ranknet_core::lifecycle::{rank_divergence_milli, ModelSlot, ModelStore, VersionedModel};
use ranknet_core::{EngineForecast, ForecastEngine, RaceContext, RankNet};

use crate::metrics::ServeMetrics;
use crate::server::ServeRequest;

/// Shadow-evaluation and rollback knobs.
#[derive(Clone, Debug)]
pub struct LifecycleConfig {
    /// Shadow every admission whose id is a multiple of this (1 = every
    /// request). Sampling is keyed by admission id, so which requests are
    /// shadowed is reproducible run to run.
    pub shadow_sample_every: u64,
    /// Comparisons to accumulate before deciding promote vs rollback.
    pub shadow_min_samples: u64,
    /// Promotion gate: mean divergence (milli-rank units, see
    /// [`rank_divergence_milli`]) above this rolls the candidate back.
    pub max_divergence_milli: u64,
}

impl Default for LifecycleConfig {
    fn default() -> LifecycleConfig {
        LifecycleConfig {
            shadow_sample_every: 4,
            shadow_min_samples: 8,
            max_divergence_milli: 500,
        }
    }
}

/// What the controller decided about a staged candidate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CandidateDecision {
    /// Swapped into the live slot (and `CURRENT` advanced, with a store).
    Promoted {
        version: u64,
        samples: u64,
        mean_divergence_milli: u64,
    },
    /// Old version kept serving; candidate quarantined (with a store).
    RolledBack {
        version: u64,
        samples: u64,
        mean_divergence_milli: u64,
    },
}

/// A staged candidate mid-shadow-evaluation.
struct Candidate {
    version: u64,
    /// Engine over the candidate forked from the live engine's settings —
    /// its answers are bit-identical to post-promotion serving.
    shadow: ForecastEngine,
    samples: u64,
    divergence_sum: u64,
}

/// Swap / rollback / comparison tallies accumulated by the controller and
/// flushed into a region's [`ServeMetrics`] (see
/// [`LifecycleController::flush_into`]).
#[derive(Default)]
struct Tallies {
    swaps: u64,
    rollbacks: u64,
    comparisons: u64,
    divergences: Vec<u64>,
}

/// See the module docs. One controller serves one live [`ModelSlot`];
/// `Arc` it to share with fault hooks or a fine-tuning thread.
pub struct LifecycleController {
    cfg: LifecycleConfig,
    store: Option<ModelStore>,
    /// Cheap pre-check so non-shadowed traffic never takes the state lock.
    active: AtomicBool,
    state: Mutex<Option<Candidate>>,
    tallies: Mutex<Tallies>,
    decisions: Mutex<Vec<CandidateDecision>>,
}

impl LifecycleController {
    pub fn new(cfg: LifecycleConfig) -> LifecycleController {
        LifecycleController {
            cfg,
            store: None,
            active: AtomicBool::new(false),
            state: Mutex::new(None),
            tallies: Mutex::new(Tallies::default()),
            decisions: Mutex::new(Vec::new()),
        }
    }

    /// Attach the artifact store: promotions advance `CURRENT`, rollbacks
    /// quarantine the candidate's on-disk version.
    pub fn with_store(mut self, store: ModelStore) -> LifecycleController {
        self.store = Some(store);
        self
    }

    pub fn store(&self) -> Option<&ModelStore> {
        self.store.as_ref()
    }

    /// Stage a candidate for shadow evaluation against `live`. Replaces
    /// (and silently drops) any previously staged candidate.
    pub fn stage_candidate(&self, live: &ForecastEngine, version: u64, model: Arc<RankNet>) {
        let shadow = live.fork_with(VersionedModel::new(version, model));
        *self.lock_state() = Some(Candidate {
            version,
            shadow,
            samples: 0,
            divergence_sum: 0,
        });
        self.active.store(true, Ordering::Release);
    }

    /// Version currently under shadow evaluation.
    pub fn candidate_version(&self) -> Option<u64> {
        self.lock_state().as_ref().map(|c| c.version)
    }

    /// Every decision taken so far, in order.
    pub fn decisions(&self) -> Vec<CandidateDecision> {
        self.lock_decisions().clone()
    }

    /// Immediate panic-guarded hot-swap through the live engine (counts
    /// into the engine's `engine_model_swaps` and version gauge). On an
    /// injected or real panic mid-swap the old version keeps serving, the
    /// on-disk candidate is quarantined, and a rollback is recorded.
    pub fn swap_now(
        &self,
        live: &ForecastEngine,
        version: u64,
        model: Arc<RankNet>,
    ) -> CandidateDecision {
        self.guarded_swap(version, model, 0, 0, |next| {
            live.swap_model(next);
        })
    }

    /// [`LifecycleController::swap_now`] addressed at a bare slot — for
    /// `'static` contexts (fault hooks, detached fine-tuning threads) that
    /// hold a cloned `Arc<ModelSlot>` rather than an engine borrow.
    pub fn swap_now_slot(
        &self,
        slot: &ModelSlot,
        version: u64,
        model: Arc<RankNet>,
    ) -> CandidateDecision {
        self.guarded_swap(version, model, 0, 0, |next| {
            slot.swap(next);
        })
    }

    /// Rolling hot-swap across a sharded region: walk every shard's
    /// [`ModelSlot`] in shard order, swapping `model` in as `version`.
    /// All-or-nothing at the fleet level — a panic at shard `k` (real, or
    /// injected via `panic_on_rolling_shard`) swaps shards `0..k` *back*
    /// to their previous versions in reverse order, quarantines the
    /// candidate, and records one rollback; only a fully successful walk
    /// advances `CURRENT` and counts one swap. In-flight batches on each
    /// shard finish on whichever version their engine loaded — the slot
    /// swap is atomic per shard, so no request ever sees a torn model.
    pub fn rolling_swap(
        &self,
        slots: &[Arc<ModelSlot>],
        version: u64,
        model: Arc<RankNet>,
    ) -> CandidateDecision {
        let mut prev: Vec<Arc<VersionedModel>> = Vec::with_capacity(slots.len());
        let mut failed = false;
        for (i, slot) in slots.iter().enumerate() {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-inject")]
                crate::fault::maybe_panic_rolling_shard(i);
                let _ = i;
                slot.swap(VersionedModel::new(version, Arc::clone(&model)))
            }));
            match attempt {
                Ok(old) => prev.push(old),
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        let decision = if failed {
            // Unwind the shards already swapped, newest first, so the
            // fleet converges back to a single serving version.
            for (slot, old) in slots.iter().zip(&prev).rev() {
                slot.swap(VersionedModel::new(old.version, Arc::clone(&old.model)));
            }
            self.quarantine_candidate(version, "rolling-swap-panic");
            self.lock_tallies().rollbacks += 1;
            CandidateDecision::RolledBack {
                version,
                samples: 0,
                mean_divergence_milli: 0,
            }
        } else {
            if let Some(store) = &self.store {
                // Best-effort, as in `guarded_swap`: an unwritable CURRENT
                // must not undo in-memory swaps that already happened.
                let _ = store.set_current(version);
            }
            self.lock_tallies().swaps += 1;
            CandidateDecision::Promoted {
                version,
                samples: 0,
                mean_divergence_milli: 0,
            }
        };
        self.lock_decisions().push(decision.clone());
        decision
    }

    fn guarded_swap(
        &self,
        version: u64,
        model: Arc<RankNet>,
        samples: u64,
        mean_divergence_milli: u64,
        swap: impl FnOnce(VersionedModel),
    ) -> CandidateDecision {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            swap(VersionedModel::new(version, model));
        }));
        let decision = match attempt {
            Ok(()) => {
                if let Some(store) = &self.store {
                    // Best-effort: an unwritable CURRENT must not undo an
                    // in-memory swap that already happened.
                    let _ = store.set_current(version);
                }
                self.lock_tallies().swaps += 1;
                CandidateDecision::Promoted {
                    version,
                    samples,
                    mean_divergence_milli,
                }
            }
            Err(_) => {
                self.quarantine_candidate(version, "swap-panic");
                self.lock_tallies().rollbacks += 1;
                CandidateDecision::RolledBack {
                    version,
                    samples,
                    mean_divergence_milli,
                }
            }
        };
        self.lock_decisions().push(decision.clone());
        decision
    }

    /// Shadow-evaluation hook, called by the scheduler for every healthy
    /// engine response while a candidate is staged. Sampled admissions run
    /// the candidate inline (bounded by `shadow_sample_every`); once
    /// enough comparisons accumulate, decides promote or rollback.
    pub(crate) fn observe(
        &self,
        live_engine: &ForecastEngine,
        contexts: &[&RaceContext],
        id: u64,
        req: &ServeRequest,
        live: &EngineForecast,
    ) -> Option<CandidateDecision> {
        if !self.active.load(Ordering::Acquire) {
            return None;
        }
        if self.cfg.shadow_sample_every > 1 && !id.is_multiple_of(self.cfg.shadow_sample_every) {
            return None;
        }
        let mut state = self.lock_state();
        let cand = state.as_mut()?;

        // A candidate with pathological weights may panic instead of
        // returning: that is an immediate, maximal divergence.
        let shadowed = catch_unwind(AssertUnwindSafe(|| {
            cand.shadow.try_forecast_keyed(
                req.race,
                contexts[req.race],
                req.origin,
                req.horizon,
                req.n_samples,
            )
        }));
        let divergence = match shadowed {
            Ok(Ok(shadow)) => rank_divergence_milli(&live.samples, &shadow.samples),
            // A request the candidate rejects or panics on that the live
            // model served is off-the-scale divergence: force the gate.
            Ok(Err(_)) | Err(_) => u64::MAX,
        };
        cand.samples += 1;
        cand.divergence_sum = cand.divergence_sum.saturating_add(divergence);
        {
            let mut t = self.lock_tallies();
            t.comparisons += 1;
            t.divergences.push(divergence.min(u64::MAX / 2));
        }
        if cand.samples < self.cfg.shadow_min_samples.max(1) {
            return None;
        }

        // Decision point: consume the candidate, then promote or roll back.
        let cand = state.take()?;
        self.active.store(false, Ordering::Release);
        drop(state);

        let mean = cand.divergence_sum / cand.samples;
        let decision = if mean <= self.cfg.max_divergence_milli {
            let vm = cand.shadow.current_model();
            self.guarded_swap(
                cand.version,
                Arc::clone(&vm.model),
                cand.samples,
                mean,
                |next| {
                    live_engine.swap_model(next);
                },
            )
        } else {
            self.quarantine_candidate(cand.version, "diverged");
            self.lock_tallies().rollbacks += 1;
            let d = CandidateDecision::RolledBack {
                version: cand.version,
                samples: cand.samples,
                mean_divergence_milli: mean,
            };
            self.lock_decisions().push(d.clone());
            d
        };
        Some(decision)
    }

    /// Drain accumulated tallies into a serve region's metrics and stamp
    /// the region's `rpf_model_version` gauge from the live engine.
    pub(crate) fn flush_into(&self, metrics: &ServeMetrics, live_engine: &ForecastEngine) {
        let mut t = self.lock_tallies();
        metrics.record_lifecycle(t.swaps, t.rollbacks, t.comparisons, &t.divergences);
        *t = Tallies::default();
        metrics.set_model_version(live_engine.model_version());
    }

    fn quarantine_candidate(&self, version: u64, reason: &str) {
        if let Some(store) = &self.store {
            // Best-effort: the version may never have been published (an
            // in-memory-only candidate), which is fine.
            let _ = store.quarantine(version, reason);
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, Option<Candidate>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_tallies(&self) -> MutexGuard<'_, Tallies> {
        self.tallies.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_decisions(&self) -> MutexGuard<'_, Vec<CandidateDecision>> {
        self.decisions.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranknet_core::features::extract_sequences;
    use ranknet_core::{RankNetConfig, RankNetVariant};
    use rpf_racesim::{simulate_race, Event, EventConfig};

    #[test]
    fn shadow_engine_keeps_the_live_cache_bound() {
        let ctx = extract_sequences(&simulate_race(
            &EventConfig::for_race(Event::Indy500, 2017),
            101,
        ));
        let cfg = RankNetConfig {
            max_epochs: 1,
            ..RankNetConfig::tiny()
        };
        let (model, _) = RankNet::fit(
            vec![ctx.clone()],
            vec![ctx.clone()],
            cfg,
            RankNetVariant::Oracle,
            40,
        );
        let model = Arc::new(model);
        let live = ForecastEngine::new(Arc::clone(&model), 5)
            .with_threads(1)
            .with_cache_capacity(2);
        let controller = LifecycleController::new(LifecycleConfig {
            shadow_sample_every: 1,
            shadow_min_samples: 100,
            ..LifecycleConfig::default()
        });
        controller.stage_candidate(&live, 2, Arc::clone(&model));

        // Five origins, every one shadowed; no decision is reached.
        let contexts = [&ctx];
        for (id, origin) in (60..65).enumerate() {
            let served = live
                .try_forecast_keyed(0, &ctx, origin, 2, 2)
                .expect("valid request");
            let req = ServeRequest::new(0, origin, 2, 2);
            let decision = controller.observe(&live, &contexts, id as u64, &req, &served);
            assert_eq!(decision, None);
        }

        let state = controller.lock_state();
        let shadow = &state.as_ref().expect("candidate still staged").shadow;
        assert_eq!(shadow.timings().calls, 5, "every request was shadowed");
        assert_eq!(live.cache_len(), 2);
        assert!(
            shadow.cache_len() <= 2,
            "shadow cached {} encoder states past the live bound of 2",
            shadow.cache_len()
        );
    }
}
