//! Training loop: minibatch Adam with learning-rate decay on plateau and
//! early stopping (paper §IV-C and Table IV), plus the throughput
//! measurements behind Fig 10.
//!
//! The loop is model-agnostic: the caller supplies a closure that, given a
//! batch of instance indices, builds the forward/backward pass and leaves
//! gradients in the [`ParamStore`]. Both models build that closure on
//! [`shard_parallel_loss`], which splits a batch across `std` scoped
//! threads, each with its own tape, and merges the shard gradients.

use crate::adam::{Adam, AdamState};
use crate::data::BatchIter;
use crate::params::{Binding, ParamStore};
use rpf_autodiff::{Tape, Var};
use rpf_tensor::par::{num_threads, par_ranges};
use rpf_tensor::Matrix;
use std::time::Instant;

/// Hyper-parameters of a training run (defaults follow Table IV).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    pub max_epochs: usize,
    pub batch_size: usize,
    /// Initial learning rate (Table IV: 1e-3).
    pub lr: f32,
    /// LR decay factor on validation plateau (Table IV: 0.5).
    pub lr_decay: f32,
    /// Epochs without validation improvement before decaying the LR
    /// (paper: 10).
    pub patience: usize,
    /// Stop when the LR would fall below this.
    pub min_lr: f32,
    pub seed: u64,
    /// Divergence recovery: how many times a non-finite epoch may be rolled
    /// back and retried at a reduced LR before training gives up.
    pub max_divergence_retries: usize,
    /// LR multiplier applied on each divergence rollback.
    pub retry_lr_factor: f32,
    /// Global-norm gradient clip handed to Adam (0 disables clipping).
    pub grad_clip_norm: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            max_epochs: 100,
            batch_size: 32,
            lr: 1e-3,
            lr_decay: 0.5,
            patience: 10,
            min_lr: 1e-5,
            seed: 0,
            max_divergence_retries: 3,
            retry_lr_factor: 0.5,
            grad_clip_norm: 10.0,
        }
    }
}

/// Why a divergence rollback fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergenceCause {
    /// The batch loss came back NaN or infinite.
    NonFiniteLoss,
    /// The accumulated gradients contained NaN or infinite values.
    NonFiniteGradient,
}

/// One recovery action taken by the training loop: the epoch was rolled
/// back to its entry snapshot (weights + optimizer moments) and retried
/// with the learning rate scaled by `retry_lr_factor`.
#[derive(Clone, Debug)]
pub struct RecoveryEvent {
    pub epoch: usize,
    /// Batch index within the epoch where the fault was detected.
    pub batch: usize,
    pub cause: DivergenceCause,
    /// Learning rate in effect after the rollback.
    pub lr_after: f32,
}

/// Why a training run failed (no panics: callers decide policy).
#[derive(Clone, Debug)]
pub enum TrainError {
    /// `n_instances` was zero — there is nothing to iterate.
    NoInstances,
    /// An epoch stayed non-finite through every allowed rollback retry.
    Diverged {
        epoch: usize,
        batch: usize,
        retries: usize,
    },
    /// A resume checkpoint did not match the model being trained.
    BadCheckpoint(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::NoInstances => write!(f, "no training instances"),
            TrainError::Diverged {
                epoch,
                batch,
                retries,
            } => write!(
                f,
                "training diverged at epoch {epoch}, batch {batch}: loss/gradients stayed \
                 non-finite after {retries} rollback retries"
            ),
            TrainError::BadCheckpoint(msg) => write!(f, "bad training checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// What a training run produced.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// `(train_loss, val_loss)` per epoch.
    pub epoch_losses: Vec<(f32, f32)>,
    /// Epoch index of the best validation loss (weights restored to it).
    pub best_epoch: usize,
    pub best_val_loss: f32,
    /// Mean training throughput, microseconds per sample (Fig 10's metric).
    pub us_per_sample: f64,
    /// Total wall-clock training time, seconds.
    pub wall_s: f64,
    pub epochs_run: usize,
    /// Divergence rollbacks performed (empty on a healthy run).
    pub recoveries: Vec<RecoveryEvent>,
    /// Observability snapshot of the run: epoch/batch/sample counters, an
    /// epoch-duration histogram and rollback timing, in the same
    /// [`rpf_obs::MetricsSnapshot`] form the engine and serving layers
    /// report, so all three merge into one exposition.
    pub metrics: rpf_obs::MetricsSnapshot,
}

/// Everything needed to continue a training run exactly where it stopped:
/// current + best weights, optimizer moments, the batch iterator position
/// and the early-stopping bookkeeping. Plain data — `core::persist` handles
/// (de)serialization and crash-safe writes.
#[derive(Clone, Debug)]
pub struct TrainCheckpoint {
    /// Epoch the resumed run will execute next.
    pub next_epoch: usize,
    /// Epoch shuffles consumed from the batch iterator so far.
    pub epochs_drawn: u64,
    /// Store values at the end of `next_epoch - 1`.
    pub weights: Vec<Matrix>,
    pub adam: AdamState,
    pub best_weights: Vec<Matrix>,
    pub best_val: f32,
    pub best_epoch: usize,
    pub since_improve: usize,
    pub epoch_losses: Vec<(f32, f32)>,
    pub samples_seen: u64,
    pub recoveries: Vec<RecoveryEvent>,
}

/// Run the training loop, panicking on error — the historical API, kept for
/// call sites that treat failure as a bug. New code should prefer
/// [`try_train`].
///
/// * `n_instances` — number of training instances the index batches draw from.
/// * `batch_loss` — computes the loss of a batch, *accumulating gradients
///   into the store*; returns the batch's mean loss.
/// * `val_loss` — validation loss of the current weights (no gradients).
pub fn train(
    store: &mut ParamStore,
    n_instances: usize,
    cfg: &TrainConfig,
    batch_loss: impl FnMut(&mut ParamStore, &[usize]) -> f32,
    val_loss: impl FnMut(&ParamStore) -> f32,
) -> TrainReport {
    match try_train(store, n_instances, cfg, batch_loss, val_loss) {
        Ok(report) => report,
        Err(e) => panic!("train: {e}"),
    }
}

/// Fallible training loop: returns a typed [`TrainError`] instead of
/// asserting, and transparently recovers from non-finite losses or
/// gradients by rolling the epoch back and retrying at a reduced LR (see
/// [`TrainConfig::max_divergence_retries`]). Recoveries are recorded in
/// [`TrainReport::recoveries`].
pub fn try_train(
    store: &mut ParamStore,
    n_instances: usize,
    cfg: &TrainConfig,
    batch_loss: impl FnMut(&mut ParamStore, &[usize]) -> f32,
    val_loss: impl FnMut(&ParamStore) -> f32,
) -> Result<TrainReport, TrainError> {
    try_train_resumable(store, n_instances, cfg, batch_loss, val_loss, None, None)
}

/// The full training loop: [`try_train`] plus crash-safe hooks.
///
/// * `resume` — continue from a [`TrainCheckpoint`] instead of from scratch.
///   The weights, optimizer moments and batch-iterator position are restored
///   exactly, so a killed-and-resumed run produces weights bit-identical to
///   an uninterrupted one (pinned by the kill–resume tests).
/// * `on_epoch_end` — called with a fresh checkpoint after every epoch;
///   `core::persist` uses it to write periodic crash-safe checkpoints.
pub fn try_train_resumable(
    store: &mut ParamStore,
    n_instances: usize,
    cfg: &TrainConfig,
    mut batch_loss: impl FnMut(&mut ParamStore, &[usize]) -> f32,
    mut val_loss: impl FnMut(&ParamStore) -> f32,
    resume: Option<&TrainCheckpoint>,
    mut on_epoch_end: Option<&mut dyn FnMut(&TrainCheckpoint)>,
) -> Result<TrainReport, TrainError> {
    if n_instances == 0 {
        return Err(TrainError::NoInstances);
    }
    let mut adam = Adam::new(store, cfg.lr);
    adam.clip_norm = cfg.grad_clip_norm;
    let mut batches = BatchIter::new(n_instances, cfg.batch_size, cfg.seed);

    let mut best_val = f32::INFINITY;
    let mut best_epoch = 0usize;
    let mut best_weights = store.snapshot();
    let mut since_improve = 0usize;
    let mut epoch_losses = Vec::new();
    let mut recoveries: Vec<RecoveryEvent> = Vec::new();
    let mut samples_seen = 0u64;
    let mut start_epoch = 0usize;

    if let Some(ckpt) = resume {
        restore_weights(store, &ckpt.weights).map_err(TrainError::BadCheckpoint)?;
        adam.restore(&ckpt.adam)
            .map_err(TrainError::BadCheckpoint)?;
        if ckpt.best_weights.len() != store.len() {
            return Err(TrainError::BadCheckpoint(format!(
                "best-weight snapshot has {} tensors, model has {}",
                ckpt.best_weights.len(),
                store.len()
            )));
        }
        batches.skip_epochs(ckpt.epochs_drawn);
        best_val = ckpt.best_val;
        best_epoch = ckpt.best_epoch;
        best_weights = ckpt.best_weights.clone();
        since_improve = ckpt.since_improve;
        epoch_losses = ckpt.epoch_losses.clone();
        samples_seen = ckpt.samples_seen;
        start_epoch = ckpt.next_epoch;
        recoveries = ckpt.recoveries.clone();
    }

    // Per-run registry: the report carries a snapshot, so two concurrent
    // training runs never share cells (unlike the process-global kernel
    // counters).
    let registry = rpf_obs::Registry::new();
    let m_epochs = registry.counter("train_epochs");
    let m_batches = registry.counter("train_batches");
    let m_samples = registry.counter("train_samples");
    let m_recoveries = registry.counter("train_recoveries");
    let m_rollback_ns = registry.counter("train_rollback_ns");
    let h_epoch_ns = registry.histogram("train_epoch_ns", &rpf_obs::DURATION_EDGES_NS);

    let started = Instant::now();
    let mut batch_counter = 0u64;

    'epochs: for epoch in start_epoch..cfg.max_epochs {
        let epoch_started = Instant::now();
        let epoch_batches = batches.epoch();
        // Entry snapshot: the rollback target if this epoch diverges.
        let entry_weights = store.snapshot();
        let entry_adam = adam.state();
        let mut attempts = 0usize;

        let train_loss = 'retry: loop {
            let mut epoch_sum = 0.0f64;
            let mut epoch_n = 0usize;
            let mut epoch_samples = 0u64;
            for (bi, batch) in epoch_batches.iter().enumerate() {
                store.zero_grads();
                let loss = fault_hook_loss(batch_counter, batch_loss(store, batch));
                batch_counter += 1;
                let cause = if !loss.is_finite() {
                    Some(DivergenceCause::NonFiniteLoss)
                } else if !store.grad_norm().is_finite() {
                    Some(DivergenceCause::NonFiniteGradient)
                } else {
                    None
                };
                if let Some(cause) = cause {
                    // Roll back to the epoch-entry snapshot and retry the
                    // whole epoch at a reduced LR, a bounded number of times.
                    attempts += 1;
                    if attempts > cfg.max_divergence_retries {
                        return Err(TrainError::Diverged {
                            epoch,
                            batch: bi,
                            retries: cfg.max_divergence_retries,
                        });
                    }
                    let rollback_started = Instant::now();
                    restore_weights(store, &entry_weights).map_err(TrainError::BadCheckpoint)?;
                    if adam.restore(&entry_adam).is_err() {
                        // Cannot happen: the snapshot came from this adam.
                        return Err(TrainError::BadCheckpoint(
                            "optimizer rollback failed".into(),
                        ));
                    }
                    m_recoveries.inc();
                    m_rollback_ns.add(rollback_started.elapsed().as_nanos() as u64);
                    // Compounding halving: restore() reset the LR to the
                    // epoch-entry value, so re-apply one factor per attempt.
                    adam.lr = entry_adam.lr * cfg.retry_lr_factor.powi(attempts as i32);
                    recoveries.push(RecoveryEvent {
                        epoch,
                        batch: bi,
                        cause,
                        lr_after: adam.lr,
                    });
                    store.zero_grads();
                    continue 'retry;
                }
                adam.step(store);
                // A batch run before a rollback stays counted:
                // `train_batches` counts work done, not work kept.
                m_batches.inc();
                epoch_samples += batch.len() as u64;
                epoch_sum += loss as f64;
                epoch_n += 1;
            }
            samples_seen += epoch_samples;
            m_samples.add(epoch_samples);
            break (epoch_sum / epoch_n.max(1) as f64) as f32;
        };
        m_epochs.inc();
        h_epoch_ns.observe(epoch_started.elapsed().as_nanos() as u64);

        let v = val_loss(store);
        epoch_losses.push((train_loss, v));

        if v < best_val - 1e-6 {
            best_val = v;
            best_epoch = epoch;
            best_weights = store.snapshot();
            since_improve = 0;
        } else {
            since_improve += 1;
            if since_improve >= cfg.patience {
                // Paper: decay LR when validation stalls; stop at min LR.
                adam.decay_lr(cfg.lr_decay);
                since_improve = 0;
                if adam.lr < cfg.min_lr {
                    break 'epochs;
                }
            }
        }

        if let Some(cb) = on_epoch_end.as_deref_mut() {
            cb(&TrainCheckpoint {
                next_epoch: epoch + 1,
                epochs_drawn: batches.epochs_drawn(),
                weights: store.snapshot(),
                adam: adam.state(),
                best_weights: best_weights.clone(),
                best_val,
                best_epoch,
                since_improve,
                epoch_losses: epoch_losses.clone(),
                samples_seen,
                recoveries: recoveries.clone(),
            });
        }
    }

    store.restore(&best_weights);
    let wall_s = started.elapsed().as_secs_f64();
    Ok(TrainReport {
        epochs_run: epoch_losses.len(),
        epoch_losses,
        best_epoch,
        best_val_loss: best_val,
        us_per_sample: if samples_seen == 0 {
            0.0
        } else {
            wall_s * 1e6 / samples_seen as f64
        },
        wall_s,
        recoveries,
        metrics: registry.snapshot(),
    })
}

/// Fault-injection seam on the batch loss: identity unless the
/// `fault-inject` feature is on AND a plan poisons this batch counter.
#[cfg(feature = "fault-inject")]
fn fault_hook_loss(batch: u64, loss: f32) -> f32 {
    crate::fault::corrupt_loss(batch, loss)
}

#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
fn fault_hook_loss(_batch: u64, loss: f32) -> f32 {
    loss
}

/// `ParamStore::restore` without the asserts: checkpoint data is untrusted.
fn restore_weights(store: &mut ParamStore, snapshot: &[Matrix]) -> Result<(), String> {
    if snapshot.len() != store.len() {
        return Err(format!(
            "weight snapshot has {} tensors, model has {}",
            snapshot.len(),
            store.len()
        ));
    }
    for (id, s) in store.iter_ids().zip(snapshot.iter()) {
        if store.value(id).shape() != s.shape() {
            return Err(format!(
                "weight tensor '{}' shape mismatch: {:?} vs {:?}",
                store.name(id),
                store.value(id).shape(),
                s.shape()
            ));
        }
    }
    store.restore(snapshot);
    Ok(())
}

/// Incremental fine-tuning driver over [`try_train_resumable`]: runs a
/// bounded number of epochs per call ("round"), carrying the full
/// [`TrainCheckpoint`] — weights, Adam moments, batch-iterator position,
/// early-stopping bookkeeping — between rounds. N rounds of `k` epochs on a
/// fixed dataset produce the same training trajectory as one `N*k`-epoch
/// run (checkpoint resume is bit-exact), so an online tuner can interleave
/// short training slices with serving without changing what is learned.
///
/// When the dataset changes between rounds (new laps streamed in), call
/// [`ResumableFineTuner::reset`]: the optimizer trajectory is restarted on
/// the new instance set, which is the well-defined semantic — resuming a
/// batch iterator into a different-sized dataset would silently desync the
/// shuffle sequence.
#[derive(Clone, Debug, Default)]
pub struct ResumableFineTuner {
    checkpoint: Option<TrainCheckpoint>,
    rounds_run: u64,
}

impl ResumableFineTuner {
    pub fn new() -> ResumableFineTuner {
        ResumableFineTuner::default()
    }

    /// Continue a tuner from a persisted checkpoint (e.g. loaded through
    /// `core::persist` after a crash).
    pub fn from_checkpoint(ckpt: TrainCheckpoint) -> ResumableFineTuner {
        ResumableFineTuner {
            checkpoint: Some(ckpt),
            rounds_run: 0,
        }
    }

    /// The checkpoint the next round resumes from (None before any round).
    pub fn checkpoint(&self) -> Option<&TrainCheckpoint> {
        self.checkpoint.as_ref()
    }

    /// Epoch index the next round starts at.
    pub fn next_epoch(&self) -> usize {
        self.checkpoint.as_ref().map_or(0, |c| c.next_epoch)
    }

    /// Rounds completed since construction (or the last reset).
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    /// Drop the carried checkpoint — required when the training set the
    /// rounds draw from has changed.
    pub fn reset(&mut self) {
        self.checkpoint = None;
        self.rounds_run = 0;
    }

    /// Run one round through an arbitrary resumable training entry point.
    /// The closure receives `(epoch_cap, resume, on_epoch_end)` and must
    /// forward them to its [`try_train_resumable`] call; the driver
    /// captures the final per-epoch checkpoint for the next round. Used by
    /// `core`'s online tuner, whose training closures live behind
    /// `RankModel::train_resumable`.
    pub fn step_with(
        &mut self,
        extra_epochs: usize,
        run: impl FnOnce(
            usize,
            Option<&TrainCheckpoint>,
            &mut dyn FnMut(&TrainCheckpoint),
        ) -> Result<TrainReport, TrainError>,
    ) -> Result<TrainReport, TrainError> {
        let cap = self.next_epoch() + extra_epochs.max(1);
        let mut last = self.checkpoint.clone();
        let report = run(cap, self.checkpoint.as_ref(), &mut |c| {
            last = Some(c.clone());
        })?;
        self.checkpoint = last;
        self.rounds_run += 1;
        Ok(report)
    }

    /// One round of `extra_epochs` epochs directly on a [`ParamStore`] —
    /// the nn-level driver for callers holding raw training closures.
    pub fn step(
        &mut self,
        store: &mut ParamStore,
        n_instances: usize,
        cfg: &TrainConfig,
        extra_epochs: usize,
        batch_loss: impl FnMut(&mut ParamStore, &[usize]) -> f32,
        val_loss: impl FnMut(&ParamStore) -> f32,
    ) -> Result<TrainReport, TrainError> {
        self.step_with(extra_epochs, |cap, resume, on_epoch| {
            let cfg = TrainConfig {
                max_epochs: cap,
                ..cfg.clone()
            };
            try_train_resumable(
                store,
                n_instances,
                &cfg,
                batch_loss,
                val_loss,
                resume,
                Some(on_epoch),
            )
        })
    }
}

/// How many shards a batch of `rows` instances splits into on `threads`
/// threads. Shards are floored at [`MIN_SHARD_ROWS`] rows: below that,
/// per-thread tape and spawn overhead outweighs the parallelism (the same
/// small-kernel effect the paper's Fig 10 shows for accelerator offload).
fn shard_count(rows: usize, threads: usize) -> usize {
    let max_by_size = rows.div_ceil(MIN_SHARD_ROWS).max(1);
    threads.max(1).min(rows.max(1)).min(max_by_size)
}

/// Minimum rows per training shard before splitting further stops paying.
pub const MIN_SHARD_ROWS: usize = 16;

/// Shard-parallel loss and gradient of one minibatch: the `batch_loss`
/// both models hand to the training loop.
///
/// The batch splits into `shard_count` contiguous shards run through
/// [`par_ranges`]. Each shard gets its own tape bound over the store's
/// values, and `shard_loss` builds that shard's mean-loss node. Gradients
/// are divided by the shard count and accumulated into the store in shard
/// order, so the merged update is the mean of the shard means; the
/// returned loss is the row-weighted mean of the shard losses.
///
/// A shard that panics becomes a NaN-loss shard that adds no gradient: the
/// training loop's divergence recovery rolls the epoch back instead of the
/// whole process dying.
pub fn shard_parallel_loss<F>(store: &mut ParamStore, batch: &[usize], shard_loss: F) -> f32
where
    F: Fn(&Binding<'_>, &[usize]) -> Var + Sync,
{
    let shards = shard_count(batch.len(), num_threads());
    // Per shard: its `(param, grad)` pairs, mean loss and row count.
    let results: Vec<_> = {
        let values = store.values();
        par_ranges(batch.len(), shards, |rows| {
            let shard = &batch[rows];
            let tape = Tape::new();
            let bind = Binding::over_values(&tape, values);
            let loss = shard_loss(&bind, shard);
            let value = tape.scalar(loss);
            (bind.into_grads(loss), value, shard.len())
        })
        .into_iter()
        .map(|(rows, out)| out.unwrap_or_else(|_| (Vec::new(), f32::NAN, rows.len())))
        .collect()
    };
    let n_shards = results.len().max(1);
    let mut total_loss = 0.0f64;
    let mut total_n = 0usize;
    for (grads, loss, n) in results {
        for (id, mut g) in grads {
            for v in g.as_mut_slice() {
                *v /= n_shards as f32;
            }
            store.accumulate_grad(id, &g);
        }
        total_loss += loss as f64 * n as f64;
        total_n += n;
    }
    if total_n == 0 {
        return f32::NAN;
    }
    (total_loss / total_n as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamId;

    #[test]
    fn trains_linear_regression_to_convergence() {
        // y = 3x - 1 with noise-free data; loss should approach zero.
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 1));
        let b = store.register("b", Matrix::zeros(1, 1));
        let xs: Vec<f32> = (0..64).map(|i| i as f32 / 32.0 - 1.0).collect();
        let ys: Vec<f32> = xs.iter().map(|x| 3.0 * x - 1.0).collect();

        let make_loss = |store: &mut ParamStore, batch: &[usize]| -> f32 {
            let tape = Tape::new();
            let bind = Binding::new(&tape, store);
            let x = tape.leaf(Matrix::from_vec(
                batch.len(),
                1,
                batch.iter().map(|&i| xs[i]).collect(),
            ));
            let t = tape.leaf(Matrix::from_vec(
                batch.len(),
                1,
                batch.iter().map(|&i| ys[i]).collect(),
            ));
            let ones = tape.leaf(Matrix::ones(batch.len(), 1));
            let pred = tape.add(tape.matmul(x, bind.var(w)), tape.matmul(ones, bind.var(b)));
            let loss = tape.mean(tape.square(tape.sub(pred, t)));
            let out = tape.scalar(loss);
            let __g = bind.into_grads(loss);
            store.apply_grads(__g);
            out
        };

        let cfg = TrainConfig {
            max_epochs: 200,
            batch_size: 16,
            lr: 0.05,
            ..Default::default()
        };
        let report = train(&mut store, 64, &cfg, make_loss, |store| {
            // Validation = exact fit quality.
            let wv = store.value(w).get(0, 0);
            let bv = store.value(b).get(0, 0);
            xs.iter()
                .zip(&ys)
                .map(|(x, y)| (wv * x + bv - y) * (wv * x + bv - y))
                .sum::<f32>()
                / xs.len() as f32
        });
        assert!(
            report.best_val_loss < 1e-3,
            "val loss {}",
            report.best_val_loss
        );
        assert!((store.value(w).get(0, 0) - 3.0).abs() < 0.05);
        assert!((store.value(b).get(0, 0) + 1.0).abs() < 0.05);
        assert!(report.us_per_sample > 0.0);
        assert!(report.epochs_run <= 200);
    }

    #[test]
    fn early_stopping_restores_best_weights() {
        // A validation function that worsens after epoch 3 regardless of the
        // weights: training must restore the epoch-3 snapshot.
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 1));
        let mut epoch_counter = 0usize;

        let cfg = TrainConfig {
            max_epochs: 40,
            batch_size: 4,
            lr: 0.1,
            patience: 3,
            min_lr: 0.05, // one decay ends training
            ..Default::default()
        };
        let report = train(
            &mut store,
            8,
            &cfg,
            |store, batch| {
                // Gradient of +1 per element: weights decrease each step.
                store.accumulate_grad(w, &Matrix::ones(1, 1));
                batch.len() as f32
            },
            |_| {
                epoch_counter += 1;
                if epoch_counter <= 3 {
                    10.0 - epoch_counter as f32 // improving
                } else {
                    100.0 // collapse
                }
            },
        );
        assert_eq!(report.best_epoch, 2);
        assert!(
            report.epochs_run < 40,
            "should stop early, ran {}",
            report.epochs_run
        );
        // Weights restored to the epoch-3 snapshot, not the last one.
        let restored = store.value(w).get(0, 0);
        let final_would_be = -0.1 * 2.0 * report.epochs_run as f32;
        assert!(restored > final_would_be + 0.05, "restored {restored}");
    }

    /// The training shard split written out on slices: the reference the
    /// `par_ranges` shard boundaries must match.
    fn reference_shards(batch: &[usize], shards: usize) -> Vec<&[usize]> {
        let max_by_size = batch.len().div_ceil(MIN_SHARD_ROWS).max(1);
        let shards = shards.max(1).min(batch.len().max(1)).min(max_by_size);
        let per = batch.len().div_ceil(shards);
        batch.chunks(per.max(1)).collect()
    }

    fn shards(batch: &[usize], threads: usize) -> Vec<&[usize]> {
        par_ranges(batch.len(), shard_count(batch.len(), threads), |r| r)
            .into_iter()
            .map(|(r, _)| &batch[r])
            .collect()
    }

    #[test]
    fn shard_indices_partition() {
        let batch: Vec<usize> = (0..100).collect();
        let split = shards(&batch, 3);
        assert_eq!(split.len(), 3);
        let flat: Vec<usize> = split.iter().flat_map(|s| s.iter().copied()).collect();
        assert_eq!(flat, batch);
        // More shards than items degrades gracefully.
        assert!(shards(&batch[..2], 8).len() <= 2);
        for n in [0, 1, 15, 16, 17, 64, 100] {
            let batch: Vec<usize> = (0..n).collect();
            for threads in [1, 2, 3, 16] {
                assert_eq!(
                    shards(&batch, threads),
                    reference_shards(&batch, threads),
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn shards_respect_minimum_rows() {
        let batch: Vec<usize> = (0..32).collect();
        let split = shards(&batch, 16);
        assert!(split.len() <= 2, "32 rows should make at most 2 shards");
        for s in &split {
            assert!(s.len() >= MIN_SHARD_ROWS);
        }
        // Large batches still fan out fully.
        let big: Vec<usize> = (0..3200).collect();
        assert_eq!(shards(&big, 16).len(), 16);
    }

    /// `w · x` summed over the shard's rows, scaled to a mean: the loss
    /// whose gradient w.r.t. `w` is the mean of the shard's `x`.
    fn mean_linear_loss(bind: &Binding<'_>, w: ParamId, shard: &[usize]) -> Var {
        let t = bind.tape();
        let x = t.leaf(Matrix::from_vec(
            shard.len(),
            1,
            shard.iter().map(|&i| i as f32).collect(),
        ));
        t.mean(t.matmul(x, bind.var(w)))
    }

    #[test]
    fn shard_step_merges_to_the_full_batch_mean() {
        // 48 rows split into 1, 2 or 3 equal shards on any thread count.
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::ones(1, 1));
        let batch: Vec<usize> = (0..48).collect();
        let loss = shard_parallel_loss(&mut store, &batch, |bind, shard| {
            mean_linear_loss(bind, w, shard)
        });
        assert!((loss - 23.5).abs() < 1e-4, "loss {loss}");
        let g = store.grad(w).get(0, 0);
        assert!((g - 23.5).abs() < 1e-4, "grad {g}");
    }

    #[test]
    fn panicking_shard_gives_nan_loss_and_no_gradient() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::ones(1, 1));
        let batch: Vec<usize> = (0..64).collect();
        let loss = shard_parallel_loss(&mut store, &batch, |_, _| -> Var {
            panic!("injected shard failure")
        });
        assert!(loss.is_nan());
        assert_eq!(store.grad(w).get(0, 0), 0.0);
    }

    #[test]
    fn panicking_shard_is_rolled_back_by_divergence_recovery() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::ones(1, 1));
        let mut calls = 0usize;
        let cfg = TrainConfig {
            max_epochs: 2,
            batch_size: 16,
            lr: 0.01,
            ..Default::default()
        };
        let report = try_train(
            &mut store,
            32,
            &cfg,
            |store, batch| {
                calls += 1;
                let first = calls == 1;
                shard_parallel_loss(store, batch, |bind, shard| {
                    assert!(!first, "injected shard failure");
                    mean_linear_loss(bind, w, shard)
                })
            },
            |store| store.value(w).get(0, 0),
        )
        .expect("recovers from the panicking shard");
        assert_eq!(report.recoveries.len(), 1);
        assert_eq!(report.recoveries[0].epoch, 0);
        assert!(store.value(w).get(0, 0).is_finite());
    }
}
