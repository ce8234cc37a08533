//! The RankModel: a DeepAR-style probabilistic LSTM encoder–decoder
//! (paper Fig 5c), trained per Algorithm 1 and sampled per Algorithm 2.
//!
//! Three of the paper's models are this network in different modes:
//!
//! * **DeepAR** — race-status covariates disabled (`cfg.deepar()`),
//! * **RankNet-Oracle / RankNet-MLP** — covariates enabled; the future race
//!   status comes from ground truth or from the PitModel (see `ranknet`),
//! * **RankNet-Joint** — `TargetKind::Joint`: the multivariate target
//!   `[Rank, LapStatus, TrackStatus]` trained jointly, which the paper shows
//!   fails from data sparsity (3% positive pit labels).
//!
//! Encoder and decoder share weights (one LSTM stack + one head), exactly
//! like the GluonTS DeepAR implementation the paper builds on.

use crate::config::{Likelihood, RankNetConfig};
use crate::features::RaceContext;
use crate::instances::{assemble_row, base_input_dim, Covariates, Regressive, TrainingSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rpf_autodiff::Tape;
use rpf_nn::embedding::Embedding;
use rpf_nn::gaussian::{
    draw_gaussian, draw_student_t, gaussian_nll, student_t_nll, GaussianParams,
};
use rpf_nn::train::{
    shard_parallel_loss, try_train_resumable, TrainCheckpoint, TrainConfig, TrainError, TrainReport,
};
use rpf_nn::{
    BatchScratch, Binding, GaussianHead, InferGaussianHead, InferStackedLstm, ParamStore,
    RngStreams, StackedLstm,
};
use rpf_tensor::par::par_ranges;
use rpf_tensor::Matrix;

/// What the decoder predicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetKind {
    /// Rank only (DeepAR, RankNet-Oracle, RankNet-MLP).
    RankOnly,
    /// `[Rank, LapStatus, TrackStatus]` jointly (RankNet-Joint).
    Joint,
}

/// Monte-Carlo forecast: `samples[car][sample][step]`, raw rank units.
pub type ForecastSamples = Vec<Vec<Vec<f32>>>;

/// Per-car future covariates handed to the decoder:
/// `rows[car][step]` for steps `origin..origin+horizon`.
#[derive(Clone, Debug, Default)]
pub struct CovariateFuture {
    pub rows: Vec<Vec<Covariates>>,
}

/// Deterministic encoder summary for one `(race, origin)`: the LSTM state
/// after consuming the observed history, one row per car still running at
/// the origin. Built by [`RankModel::encode`], consumed (read-only, so
/// shareable across decode calls and threads) by [`RankModel::decode_batched`]
/// and the [`RankModel::decode_tape`] reference.
#[derive(Clone, Debug)]
pub struct EncoderState {
    /// Context sequence slots with at least `origin` observed laps.
    pub cars: Vec<usize>,
    /// Embedding ids, parallel to `cars`.
    pub car_ids: Vec<usize>,
    /// Per-layer `(h, c)`, each `(cars.len() × hidden_dim)`.
    pub states: Vec<(Matrix, Matrix)>,
}

/// One decode unit of the batched decode: a `(request, covariate group)`
/// pair contributing `enc.cars.len() × rows_per` lock-step rows to a shared
/// GEMM batch (see [`RankModel::decode_runs_batched`]). Holds the same
/// read-only inputs a [`RankModel::decode_batched`] call takes; `streams` is
/// the run's own family, so its draws are independent of batch-mates.
#[derive(Clone, Copy)]
pub struct BatchedRun<'a> {
    pub ctx: &'a RaceContext,
    pub enc: &'a EncoderState,
    pub cov: &'a CovariateFuture,
    pub origin: usize,
    pub horizon: usize,
    /// Trajectories per car in this run (a covariate group's sample share).
    pub rows_per: usize,
    /// Stream family; run-local row `ri` draws from `streams.stream(ri)`.
    pub streams: RngStreams,
}

/// One row of the flattened batched-decode plan: which run it belongs to,
/// its run-local row index (RNG / fault-hook key) and its encoder row.
#[derive(Clone, Copy)]
struct BatchedRowPlan {
    run: usize,
    ri: usize,
    src: usize,
}

/// Tape-free serving runtime for one [`RankModel`]: the LSTM stack and
/// Gaussian heads on the batched kernels, converted one-shot from the
/// trained store (weights cloned once, at conversion time). Read-only
/// and `Sync`: [`RankModel::decode_runs_batched`] builds one per call and
/// shares it across every worker thread. Its LSTM stack steps on the same
/// batched kernel as [`RankModel::encode`], so encoder and decoder answer to
/// one tolerance contract (`DESIGN.md` §13).
pub struct RankRuntime {
    lstm: InferStackedLstm,
    heads: Vec<InferGaussianHead>,
}

#[derive(Clone)]
pub struct RankModel {
    pub cfg: RankNetConfig,
    pub kind: TargetKind,
    pub store: ParamStore,
    lstm: StackedLstm,
    heads: Vec<GaussianHead>,
    emb: Embedding,
    base_dim: usize,
}

impl RankModel {
    /// Number of target channels for the kind.
    fn n_targets(kind: TargetKind) -> usize {
        match kind {
            TargetKind::RankOnly => 1,
            TargetKind::Joint => 3,
        }
    }

    /// Joint mode feeds the lagged pit/caution flags back as regressive
    /// inputs instead of reading them from covariates.
    fn effective_base_dim(cfg: &RankNetConfig, kind: TargetKind) -> usize {
        match kind {
            TargetKind::RankOnly => base_input_dim(cfg),
            TargetKind::Joint => base_input_dim(&joint_cfg(cfg)) + 2,
        }
    }

    pub fn new(cfg: RankNetConfig, kind: TargetKind, max_car_id: usize) -> RankModel {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let base_dim = Self::effective_base_dim(&cfg, kind);
        let input_dim = base_dim + cfg.embedding_dim;
        let lstm = StackedLstm::new(
            &mut store,
            &mut rng,
            "rank_lstm",
            input_dim,
            cfg.hidden_dim,
            cfg.num_layers,
        );
        let heads = (0..Self::n_targets(kind))
            .map(|i| GaussianHead::new(&mut store, &mut rng, &format!("head{i}"), cfg.hidden_dim))
            .collect();
        let emb = Embedding::new(
            &mut store,
            &mut rng,
            "car",
            max_car_id + 1,
            cfg.embedding_dim,
        );
        RankModel {
            cfg,
            kind,
            store,
            lstm,
            heads,
            emb,
            base_dim,
        }
    }

    /// Total scalar parameter count (the paper quotes <30K — Table IV scale).
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    /// CarId embedding vocabulary (needed to rebuild the architecture when
    /// loading saved weights).
    pub fn vocab(&self) -> usize {
        self.emb.vocab
    }

    // ---- training ------------------------------------------------------

    /// Train per Algorithm 1 on `ts`, early-stopping on `val`. Panics if
    /// training diverges beyond recovery; prefer
    /// [`RankModel::train_resumable`] for fallible, crash-safe training.
    pub fn train(&mut self, ts: &TrainingSet, val: &TrainingSet) -> TrainReport {
        match self.train_resumable(ts, val, None, None) {
            Ok(report) => report,
            Err(e) => panic!("RankModel::train: {e}"),
        }
    }

    /// Fallible training with crash-safe hooks: optionally resume from a
    /// [`TrainCheckpoint`] and receive a fresh checkpoint after every epoch
    /// (see [`crate::persist::save_train_checkpoint`]). A resumed run
    /// continues to final weights bit-identical to an uninterrupted one.
    pub fn train_resumable(
        &mut self,
        ts: &TrainingSet,
        val: &TrainingSet,
        resume: Option<&TrainCheckpoint>,
        on_epoch_end: Option<&mut dyn FnMut(&TrainCheckpoint)>,
    ) -> Result<TrainReport, TrainError> {
        let cfg = self.cfg.clone();
        let kind = self.kind;
        let lstm = self.lstm.clone();
        let heads = self.heads.clone();
        let emb = self.emb;
        let base_dim = self.base_dim;

        let mut store = std::mem::take(&mut self.store);
        let train_cfg = TrainConfig {
            max_epochs: cfg.max_epochs,
            batch_size: cfg.batch_size,
            lr: cfg.learning_rate,
            seed: cfg.seed,
            ..Default::default()
        };
        // Validation subsample: a fixed slice keeps epochs cheap and the
        // early-stopping signal deterministic.
        let val_take = val.len().min(512);

        let report = try_train_resumable(
            &mut store,
            ts.len(),
            &train_cfg,
            |store, batch| {
                shard_parallel_loss(store, batch, |bind, shard| {
                    Self::window_loss(
                        &cfg, kind, &lstm, &heads, emb, base_dim, ts, bind, shard, true,
                    )
                })
            },
            |store| {
                let idx: Vec<usize> = (0..val_take).collect();
                Self::batch_loss_eval(&cfg, kind, &lstm, &heads, emb, base_dim, val, store, &idx)
            },
            resume,
            on_epoch_end,
        );
        self.store = store;
        report
    }

    /// Loss without gradients (validation).
    #[allow(clippy::too_many_arguments)]
    fn batch_loss_eval(
        cfg: &RankNetConfig,
        kind: TargetKind,
        lstm: &StackedLstm,
        heads: &[GaussianHead],
        emb: Embedding,
        base_dim: usize,
        ts: &TrainingSet,
        store: &ParamStore,
        batch: &[usize],
    ) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        let tape = Tape::new();
        let bind = Binding::new(&tape, store);
        let loss = Self::window_loss(
            cfg, kind, lstm, heads, emb, base_dim, ts, &bind, batch, true,
        );
        tape.scalar(loss)
    }

    /// Teacher-forced unroll over a set of windows; returns the scalar loss
    /// node (decoder steps only, per Algorithm 1).
    #[allow(clippy::too_many_arguments)]
    fn window_loss(
        cfg: &RankNetConfig,
        kind: TargetKind,
        lstm: &StackedLstm,
        heads: &[GaussianHead],
        emb: Embedding,
        base_dim: usize,
        ts: &TrainingSet,
        bind: &Binding<'_>,
        batch: &[usize],
        weighted: bool,
    ) -> rpf_autodiff::Var {
        let t = bind.tape();
        let b = batch.len();
        let window = cfg.context_len + cfg.prediction_len;

        // CarId embedding rows, constant over time steps.
        let car_ids: Vec<usize> = batch
            .iter()
            .map(|&i| {
                let w = &ts.instances[i];
                ts.contexts[w.race].sequences[w.car].car_id as usize
            })
            .collect();
        let emb_rows = emb.forward(bind, &car_ids);

        let mut states = lstm.zero_state(bind, b);
        let mut loss_terms = Vec::with_capacity(cfg.prediction_len);
        let mut row = Vec::with_capacity(base_dim);

        for j in 0..window {
            // Assemble the input matrix for this step.
            let mut x = Matrix::zeros(b, base_dim);
            for (bi, &inst) in batch.iter().enumerate() {
                let w = &ts.instances[inst];
                let ctx = &ts.contexts[w.race];
                let seq = &ctx.sequences[w.car];
                let idx = w.start + j;
                let reg = Self::regressive_at(cfg, seq, w.start, idx, j);
                let cov = Covariates::from_seq(seq, idx, cfg.prediction_len);
                Self::assemble(cfg, kind, ctx, &reg, &cov, seq, idx, &mut row);
                x.row_mut(bi).copy_from_slice(&row);
            }
            let x_leaf = t.leaf(x);
            let input = t.hstack(&[x_leaf, emb_rows]);
            let (out, new_states) = lstm.step(bind, input, &states);
            states = new_states;

            // Decoder steps contribute to the likelihood.
            if j >= cfg.context_len {
                let weights = if weighted {
                    let w = Matrix::from_vec(
                        b,
                        1,
                        batch.iter().map(|&i| ts.instances[i].weight).collect(),
                    );
                    Some(t.leaf(w))
                } else {
                    None
                };
                for (hi, head) in heads.iter().enumerate() {
                    let params = head.forward(bind, out);
                    let target = Matrix::from_vec(
                        b,
                        1,
                        batch
                            .iter()
                            .map(|&i| {
                                let w = &ts.instances[i];
                                let ctx = &ts.contexts[w.race];
                                let seq = &ctx.sequences[w.car];
                                Self::target_at(kind, hi, ctx, seq, w.start + j)
                            })
                            .collect(),
                    );
                    let target = t.leaf(target);
                    loss_terms.push(match cfg.likelihood {
                        Likelihood::Gaussian => gaussian_nll(bind, params, target, weights),
                        Likelihood::StudentT(nu) => {
                            student_t_nll(bind, params, target, weights, nu)
                        }
                    });
                }
            }
        }

        // Mean over decoder steps (and target channels for Joint).
        let mut total = loss_terms[0];
        for &term in &loss_terms[1..] {
            total = t.add(total, term);
        }
        t.scale(total, 1.0 / loss_terms.len() as f32)
    }

    /// Regressive inputs for predicting sequence index `idx` (lagged one
    /// step). During decoder steps, lap time and gap are frozen at their
    /// last encoder values — they are unknown at forecast time, so training
    /// must see the same persistence the decoder will use.
    fn regressive_at(
        cfg: &RankNetConfig,
        seq: &crate::features::CarSequence,
        start: usize,
        idx: usize,
        j: usize,
    ) -> Regressive {
        let lag = idx - 1;
        let frozen = (start + cfg.context_len - 1).min(seq.len() - 1);
        if j < cfg.context_len {
            Regressive {
                rank: seq.rank[lag],
                lap_time: seq.lap_time[lag],
                time_behind: seq.time_behind[lag],
            }
        } else {
            Regressive {
                rank: seq.rank[lag], // teacher forcing (Algorithm 1)
                lap_time: seq.lap_time[frozen],
                time_behind: seq.time_behind[frozen],
            }
        }
    }

    fn target_at(
        kind: TargetKind,
        head: usize,
        ctx: &RaceContext,
        seq: &crate::features::CarSequence,
        idx: usize,
    ) -> f32 {
        match (kind, head) {
            (_, 0) => ctx.norm_rank(seq.rank[idx]),
            (TargetKind::Joint, 1) => seq.lap_status[idx],
            (TargetKind::Joint, 2) => seq.track_status[idx],
            _ => unreachable!("head index out of range"),
        }
    }

    /// Row assembly dispatching on the target kind (Joint adds the lagged
    /// status flags as regressive inputs and strips them from covariates).
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        cfg: &RankNetConfig,
        kind: TargetKind,
        ctx: &RaceContext,
        reg: &Regressive,
        cov: &Covariates,
        seq: &crate::features::CarSequence,
        idx: usize,
        out: &mut Vec<f32>,
    ) {
        match kind {
            TargetKind::RankOnly => assemble_row(cfg, ctx, reg, cov, out),
            TargetKind::Joint => {
                let jcfg = joint_cfg(cfg);
                assemble_row(&jcfg, ctx, reg, cov, out);
                let lag = idx.saturating_sub(1);
                out.push(seq.lap_status.get(lag).copied().unwrap_or(0.0));
                out.push(seq.track_status.get(lag).copied().unwrap_or(0.0));
            }
        }
    }

    // ---- forecasting (Algorithm 2) --------------------------------------

    /// Build the tape-free serving runtime: a one-shot conversion of the
    /// current weights into forward-only layers. Rebuild after any weight
    /// mutation (the runtime holds its own copies).
    pub fn runtime(&self) -> RankRuntime {
        RankRuntime {
            lstm: InferStackedLstm::from_store(&self.store, &self.lstm),
            heads: self
                .heads
                .iter()
                .map(|h| InferGaussianHead::from_store(&self.store, h))
                .collect(),
        }
    }

    /// Probabilistic forecast for every car of `ctx` from `origin`
    /// (sequence index) `horizon` steps ahead. `cov_future.rows[car][step]`
    /// supplies the decoder covariates (ground truth for Oracle, PitModel
    /// samples for MLP, ignored for Joint). Cars whose recorded sequence is
    /// shorter than `origin` get an empty sample list.
    ///
    /// Convenience wrapper over [`RankModel::encode`] +
    /// [`RankModel::decode_batched`]: derives a stream family from `rng` and
    /// decodes on the machine's thread count. Same seed state → same
    /// samples, regardless of that thread count.
    pub fn forecast(
        &self,
        ctx: &RaceContext,
        cov_future: &CovariateFuture,
        origin: usize,
        horizon: usize,
        n_samples: usize,
        rng: &mut StdRng,
    ) -> ForecastSamples {
        let streams = RngStreams::from_rng(rng);
        let enc = self.encode(ctx, origin);
        self.decode_batched(
            ctx,
            cov_future,
            origin,
            horizon,
            n_samples,
            &enc,
            &streams,
            rpf_tensor::par::num_threads(),
        )
    }

    /// Run the encoder over the observed history up to `origin`:
    /// deterministic, one row per car still running. The result is reusable
    /// across any number of decode calls at the same origin
    /// (different sample counts, covariate futures, horizons), which is how
    /// [`crate::engine::ForecastEngine`] amortises it.
    ///
    /// Steps on the batched LSTM kernel the decoder uses
    /// ([`InferStackedLstm::step`]), so the states track
    /// [`RankModel::encode_tape`] within the tolerance contract of
    /// `DESIGN.md` §13. Each row depends only on its own car's inputs, and
    /// the steps run in a fixed order, so the states are bit-identical on
    /// every call.
    pub fn encode(&self, ctx: &RaceContext, origin: usize) -> EncoderState {
        let lstm = InferStackedLstm::from_store(&self.store, &self.lstm);
        let mut scratch = BatchScratch::new();
        self.encode_with(ctx, origin, |input, _, states| {
            lstm.step(input, states, &mut scratch)
        })
    }

    /// Reference encoder: [`RankModel::encode`]'s input rows stepped through
    /// the autodiff tape (`StackedLstm::step`, with the tape's own embedding
    /// gather). Not a serving path; the decode parity suite pins `encode`
    /// against it.
    pub fn encode_tape(&self, ctx: &RaceContext, origin: usize) -> EncoderState {
        self.encode_with(ctx, origin, |input, car_ids, states| {
            self.step_concrete(&input.slice_cols(0, self.base_dim), car_ids, states);
        })
    }

    /// The encoder's history loop: `step(input, car_ids, states)` advances
    /// every layer's state by one lap, where `input` holds one
    /// `base + embedding` row per car.
    fn encode_with(
        &self,
        ctx: &RaceContext,
        origin: usize,
        mut step: impl FnMut(&Matrix, &[usize], &mut [(Matrix, Matrix)]),
    ) -> EncoderState {
        let cars: Vec<usize> = (0..ctx.sequences.len())
            .filter(|&c| ctx.sequences[c].len() >= origin)
            .collect();
        let b = cars.len();
        let car_ids: Vec<usize> = cars
            .iter()
            .map(|&c| ctx.sequences[c].car_id as usize)
            .collect();
        let mut states: Vec<(Matrix, Matrix)> = (0..self.cfg.num_layers)
            .map(|_| {
                (
                    Matrix::zeros(b, self.cfg.hidden_dim),
                    Matrix::zeros(b, self.cfg.hidden_dim),
                )
            })
            .collect();
        if b == 0 {
            return EncoderState {
                cars,
                car_ids,
                states,
            };
        }
        let enc_start = origin.saturating_sub(self.cfg.context_len).max(1);
        // Persistent input matrix: regressive/covariate columns are
        // rewritten in place each step; the embedding columns are constant
        // across steps, so they are written once.
        let mut input = Matrix::zeros(b, self.base_dim + self.cfg.embedding_dim);
        let table = self.store.value(self.emb.table);
        for (bi, &id) in car_ids.iter().enumerate() {
            input.row_mut(bi)[self.base_dim..].copy_from_slice(table.row(id));
        }
        let mut row = Vec::with_capacity(self.base_dim);
        for idx in enc_start..origin {
            for (bi, &c) in cars.iter().enumerate() {
                let seq = &ctx.sequences[c];
                let reg = Regressive {
                    rank: seq.rank[idx - 1],
                    lap_time: seq.lap_time[idx - 1],
                    time_behind: seq.time_behind[idx - 1],
                };
                let cov = Covariates::from_seq(seq, idx, self.cfg.prediction_len);
                Self::assemble(&self.cfg, self.kind, ctx, &reg, &cov, seq, idx, &mut row);
                input.row_mut(bi)[..self.base_dim].copy_from_slice(&row);
            }
            step(&input, &car_ids, &mut states);
        }
        EncoderState {
            cars,
            car_ids,
            states,
        }
    }

    /// Reference decode: ancestral sampling stepped through the autodiff
    /// tape (the training graph run forward). Not a serving path — the
    /// parity suites and benchmarks pin [`RankModel::decode_batched`]
    /// against it.
    ///
    /// The `b · n_samples` replicated rows are independent trajectories:
    /// each carries its own rank feedback, frozen regressive values and its
    /// own RNG stream, `streams.stream(row_index)` with the row index taken
    /// over the *whole* replicated batch. The rows are split into `threads`
    /// contiguous chunks decoded on scoped worker threads; because every
    /// tape kernel accumulates each output element in a fixed order
    /// independent of batch size, the output is bit-identical for every
    /// value of `threads`.
    #[allow(clippy::too_many_arguments)]
    pub fn decode_tape(
        &self,
        ctx: &RaceContext,
        cov_future: &CovariateFuture,
        origin: usize,
        horizon: usize,
        n_samples: usize,
        enc: &EncoderState,
        streams: &RngStreams,
        threads: usize,
    ) -> ForecastSamples {
        let mut samples: ForecastSamples = vec![Vec::new(); ctx.sequences.len()];
        let bs = enc.cars.len() * n_samples;
        let chunks = par_ranges(bs, threads, |rows| {
            self.decode_rows_tape(
                ctx, cov_future, origin, horizon, n_samples, enc, streams, rows,
            )
        });
        for (rows, out) in chunks {
            // A crashed worker yields NaN paths for its chunk instead of
            // killing the process; the engine's degradation pass replaces
            // them with the CurRank baseline and flags the forecast.
            let paths = out.unwrap_or_else(|_| vec![vec![f32::NAN; horizon]; rows.len()]);
            // Row `ri` is trajectory `ri % n_samples` of car slot `ri / n_samples`.
            for (ri, path) in rows.zip(paths) {
                samples[enc.cars[ri / n_samples]].push(path);
            }
        }
        samples
    }

    /// The serving decode: ancestral sampling (Algorithm 2) with every
    /// trajectory advanced lock-step through the FMA GEMM / fast-activation kernels of
    /// `rpf_tensor::batched` (see `DESIGN.md` §13).
    ///
    /// Contract: *tolerance-pinned*, not bitwise — outputs track
    /// [`RankModel::decode_tape`] within the bound the `decode_parity` suite
    /// pins, and are bit-deterministic for a fixed `(enc, streams,
    /// n_samples)` layout. Because every batched kernel computes each output
    /// row as a pure function of its own input row and the weights, the
    /// per-row bits are invariant to thread count and to folding additional
    /// rows into the same batch — which is what lets the serving layer
    /// coalesce micro-batches into one GEMM without changing any response.
    #[allow(clippy::too_many_arguments)]
    pub fn decode_batched(
        &self,
        ctx: &RaceContext,
        cov_future: &CovariateFuture,
        origin: usize,
        horizon: usize,
        n_samples: usize,
        enc: &EncoderState,
        streams: &RngStreams,
        threads: usize,
    ) -> ForecastSamples {
        let runs = [BatchedRun {
            ctx,
            enc,
            cov: cov_future,
            origin,
            horizon,
            rows_per: n_samples,
            streams: *streams,
        }];
        let mut per_run = self.decode_runs_batched(&runs, threads);
        let paths = per_run.pop().unwrap_or_default();
        let mut samples: ForecastSamples = vec![Vec::new(); ctx.sequences.len()];
        for (ri, path) in paths.into_iter().enumerate() {
            samples[enc.cars[ri / n_samples]].push(path);
        }
        samples
    }

    /// Decode several [`BatchedRun`]s in one lock-step batch: the union of
    /// all runs' replicated rows advances through shared GEMMs, split into
    /// `threads` contiguous chunks. Returns each run's sampled paths in row
    /// order (row `ri` of a run is trajectory `ri % rows_per` of car slot
    /// `enc.cars[ri / rows_per]`, drawing from `streams.stream(ri)` — the
    /// same mapping as [`RankModel::decode_tape`], so a run's bits never depend
    /// on what else shares the batch).
    pub fn decode_runs_batched(
        &self,
        runs: &[BatchedRun<'_>],
        threads: usize,
    ) -> Vec<Vec<Vec<f32>>> {
        let runtime = self.runtime();
        let mut plan: Vec<BatchedRowPlan> = Vec::new();
        let mut run_rows: Vec<usize> = Vec::with_capacity(runs.len());
        for (r, run) in runs.iter().enumerate() {
            let n = run.enc.cars.len() * run.rows_per;
            run_rows.push(n);
            for ri in 0..n {
                plan.push(BatchedRowPlan {
                    run: r,
                    ri,
                    src: ri / run.rows_per,
                });
            }
        }
        // A crashed worker yields NaN paths for its rows instead of killing
        // the process; the engine's degradation pass replaces them with the
        // CurRank baseline and flags the forecast.
        let mut flat = par_ranges(plan.len(), threads, |rows| {
            self.decode_rows_batched(runs, &runtime, &plan[rows])
        })
        .into_iter()
        .flat_map(|(rows, out)| {
            out.unwrap_or_else(|_| {
                plan[rows]
                    .iter()
                    .map(|p| vec![f32::NAN; runs[p.run].horizon])
                    .collect()
            })
        });
        run_rows
            .iter()
            .map(|&n| (0..n).filter_map(|_| flat.next()).collect())
            .collect()
    }

    /// Decode one contiguous slice of the batched row plan. Mirrors
    /// [`RankModel::decode_rows_tape`] row for row — same feedback, RNG
    /// stream, fault-hook key and clamp — but steps every row at once
    /// through the batched kernels, and assembles inputs from a
    /// per-`(run, car)` template: within a car's trajectory block only the
    /// rank-feedback column (and, for Joint, the two lagged status flags)
    /// varies per row, so the rest of the row is built once per step.
    ///
    /// The first step is *compacted*: before any draw has been fed back,
    /// every trajectory of a `(run, car)` group carries the same input row
    /// and the same encoder state, so step 0 advances one representative
    /// row per group and broadcasts the resulting state (and mu/sigma) to
    /// the group. Row independence of the batched kernels makes the
    /// broadcast bit-identical to stepping every replica — the trajectories
    /// only diverge once the per-row RNG streams draw from the shared
    /// distribution.
    fn decode_rows_batched(
        &self,
        runs: &[BatchedRun<'_>],
        runtime: &RankRuntime,
        plan: &[BatchedRowPlan],
    ) -> Vec<Vec<f32>> {
        let cb = plan.len();
        let hid = self.cfg.hidden_dim;
        // Replica rows of one (run, car) group are contiguous in the plan;
        // `groups` holds each group's first row index.
        let mut groups: Vec<usize> = Vec::new();
        let mut group_of: Vec<usize> = vec![0; cb];
        for (li, p) in plan.iter().enumerate() {
            if li == 0 || (p.run, p.src) != (plan[li - 1].run, plan[li - 1].src) {
                groups.push(li);
            }
            group_of[li] = groups.len() - 1;
        }
        let ng = groups.len();
        // Full-size states start empty: step 0 runs on the compact group
        // batch seeded from the encoder, and its result is broadcast here —
        // the same copies the per-row seeding would have cost.
        let mut h_states: Vec<(Matrix, Matrix)> = (0..self.cfg.num_layers)
            .map(|_| (Matrix::zeros(cb, hid), Matrix::zeros(cb, hid)))
            .collect();
        let mut g_states: Vec<(Matrix, Matrix)> = (0..self.cfg.num_layers)
            .map(|l| {
                let mut h = Matrix::zeros(ng, hid);
                let mut c = Matrix::zeros(ng, hid);
                for (gi, &li) in groups.iter().enumerate() {
                    let p = &plan[li];
                    let (eh, ec) = &runs[p.run].enc.states[l];
                    h.row_mut(gi).copy_from_slice(eh.row(p.src));
                    c.row_mut(gi).copy_from_slice(ec.row(p.src));
                }
                (h, c)
            })
            .collect();
        let mut rngs: Vec<StdRng> = plan
            .iter()
            .map(|p| runs[p.run].streams.stream(p.ri as u64))
            .collect();

        // Last observed regressive values per row (lap_time / time_behind
        // are frozen per car; rank is the sampled feedback).
        let mut last_rank: Vec<f32> = plan
            .iter()
            .map(|p| {
                let run = &runs[p.run];
                run.ctx.sequences[run.enc.cars[p.src]].rank[run.origin - 1]
            })
            .collect();
        let mut last_lap_status: Vec<f32> = plan
            .iter()
            .map(|p| {
                let run = &runs[p.run];
                run.ctx.sequences[run.enc.cars[p.src]].lap_status[run.origin - 1]
            })
            .collect();
        let mut last_track_status: Vec<f32> = plan
            .iter()
            .map(|p| {
                let run = &runs[p.run];
                run.ctx.sequences[run.enc.cars[p.src]].track_status[run.origin - 1]
            })
            .collect();

        let top = self.cfg.num_layers - 1;
        let mut input = Matrix::zeros(cb, self.base_dim + self.cfg.embedding_dim);
        let mut g_input = Matrix::zeros(ng, self.base_dim + self.cfg.embedding_dim);
        let mut scratch = BatchScratch::new();
        let mut mu = Matrix::zeros(0, 0);
        let mut sigma = Matrix::zeros(0, 0);
        let mut mu1 = Matrix::zeros(0, 0);
        let mut sigma1 = Matrix::zeros(0, 0);
        let mut mu2 = Matrix::zeros(0, 0);
        let mut sigma2 = Matrix::zeros(0, 0);
        let table = self.store.value(self.emb.table);
        for (li, p) in plan.iter().enumerate() {
            let run = &runs[p.run];
            input.row_mut(li)[self.base_dim..].copy_from_slice(table.row(run.enc.car_ids[p.src]));
        }
        for (gi, &li) in groups.iter().enumerate() {
            let p = &plan[li];
            let run = &runs[p.run];
            g_input.row_mut(gi)[self.base_dim..].copy_from_slice(table.row(run.enc.car_ids[p.src]));
        }

        let max_horizon = runs.iter().map(|r| r.horizon).max().unwrap_or(0);
        let mut step_outputs: Vec<Vec<f32>> = plan
            .iter()
            .map(|p| Vec::with_capacity(runs[p.run].horizon))
            .collect();
        let mut template = Vec::with_capacity(self.base_dim);
        for step in 0..max_horizon {
            // Step 0 is degenerate (no feedback has diverged yet): assemble
            // and step one row per group, then fan the state out below.
            let compact = step == 0;
            // Rows of a run that already reached its horizon keep their last
            // inputs: the GEMM still computes them (row independence makes
            // that harmless) but they draw and emit nothing further.
            let mut cur: Option<(usize, usize)> = None;
            let n_assembly = if compact { ng } else { cb };
            let dst_input = if compact { &mut g_input } else { &mut input };
            // `row` indexes `dst_input` and (when compact) `groups` — an
            // iterator form would need the same dual indexing.
            #[allow(clippy::needless_range_loop)]
            for row in 0..n_assembly {
                let li = if compact { groups[row] } else { row };
                let p = &plan[li];
                let run = &runs[p.run];
                if step >= run.horizon {
                    continue;
                }
                let seq = &run.ctx.sequences[run.enc.cars[p.src]];
                if cur != Some((p.run, p.src)) {
                    let reg = Regressive {
                        // Placeholder — the rank column is per-row and
                        // patched below with the row's own feedback.
                        rank: seq.rank[run.origin - 1],
                        lap_time: seq.lap_time[run.origin - 1],
                        time_behind: seq.time_behind[run.origin - 1],
                    };
                    let cov = match self.kind {
                        TargetKind::RankOnly => run
                            .cov
                            .rows
                            .get(run.enc.cars[p.src])
                            .and_then(|r| r.get(step))
                            .copied()
                            .unwrap_or_default(),
                        TargetKind::Joint => Covariates::default(),
                    };
                    Self::assemble(
                        &self.cfg,
                        self.kind,
                        run.ctx,
                        &reg,
                        &cov,
                        seq,
                        run.origin + step,
                        &mut template,
                    );
                    cur = Some((p.run, p.src));
                }
                let dst = &mut dst_input.row_mut(row)[..self.base_dim];
                dst.copy_from_slice(&template);
                dst[0] = run.ctx.norm_rank(last_rank[li]);
                if self.kind == TargetKind::Joint {
                    dst[self.base_dim - 2] = last_lap_status[li];
                    dst[self.base_dim - 1] = last_track_status[li];
                }
            }
            let hidden = if compact {
                runtime.lstm.step(&g_input, &mut g_states, &mut scratch);
                // Fan the stepped group state out to every replica row —
                // bit-identical to having stepped each replica, and the
                // same copy volume the per-row encoder seeding would cost.
                for (l, (gh, gc)) in g_states.iter().enumerate() {
                    let (fh, fc) = &mut h_states[l];
                    for (li, &gi) in group_of.iter().enumerate() {
                        fh.row_mut(li).copy_from_slice(gh.row(gi));
                        fc.row_mut(li).copy_from_slice(gc.row(gi));
                    }
                }
                &g_states[top].0
            } else {
                runtime.lstm.step(&input, &mut h_states, &mut scratch);
                &h_states[top].0
            };
            // Index of a row's mu/sigma entry in this step's head output.
            let oi = |li: usize| if compact { group_of[li] } else { li };

            runtime.heads[0].forward_batch(hidden, &mut mu, &mut sigma);
            for (li, p) in plan.iter().enumerate() {
                let run = &runs[p.run];
                if step >= run.horizon {
                    continue;
                }
                let z = match self.cfg.likelihood {
                    Likelihood::Gaussian => draw_gaussian(
                        &mut rngs[li],
                        mu.as_slice()[oi(li)],
                        sigma.as_slice()[oi(li)],
                    ),
                    Likelihood::StudentT(nu) => draw_student_t(
                        &mut rngs[li],
                        mu.as_slice()[oi(li)],
                        sigma.as_slice()[oi(li)],
                        nu,
                    ),
                };
                let z = fault_hook_decoder(p.ri as u64, z);
                // NaN survives the clamp, so a poisoned draw degrades the
                // trajectory instead of silently pinning it to a bound.
                let rank = run
                    .ctx
                    .denorm_rank(z)
                    .clamp(0.5, run.ctx.field_size as f32 + 0.5);
                step_outputs[li].push(rank);
                last_rank[li] = rank;
            }
            if self.kind == TargetKind::Joint {
                runtime.heads[1].forward_batch(hidden, &mut mu1, &mut sigma1);
                runtime.heads[2].forward_batch(hidden, &mut mu2, &mut sigma2);
                for (li, p) in plan.iter().enumerate() {
                    if step >= runs[p.run].horizon {
                        continue;
                    }
                    let lap_s = draw_gaussian(
                        &mut rngs[li],
                        mu1.as_slice()[oi(li)],
                        sigma1.as_slice()[oi(li)],
                    );
                    let track_s = draw_gaussian(
                        &mut rngs[li],
                        mu2.as_slice()[oi(li)],
                        sigma2.as_slice()[oi(li)],
                    );
                    last_lap_status[li] = if lap_s > 0.5 { 1.0 } else { 0.0 };
                    last_track_status[li] = if track_s > 0.5 { 1.0 } else { 0.0 };
                }
            }
        }
        step_outputs
    }

    /// Decode one contiguous block of replicated rows (global indices
    /// `rows`) through the autodiff tape; returns each row's sampled path.
    /// Row `ri` belongs to car slot `enc.cars[ri / n_samples]` and draws
    /// from `streams.stream(ri)`.
    #[allow(clippy::too_many_arguments)]
    fn decode_rows_tape(
        &self,
        ctx: &RaceContext,
        cov_future: &CovariateFuture,
        origin: usize,
        horizon: usize,
        n_samples: usize,
        enc: &EncoderState,
        streams: &RngStreams,
        rows: std::ops::Range<usize>,
    ) -> Vec<Vec<f32>> {
        let cb = rows.len();
        let row0 = rows.start;
        // Encoder row (= car index within `enc.cars`) backing each local row.
        let src: Vec<usize> = rows.clone().map(|ri| ri / n_samples).collect();
        let mut h_states: Vec<(Matrix, Matrix)> = enc
            .states
            .iter()
            .map(|(h, c)| (h.gather_rows(&src), c.gather_rows(&src)))
            .collect();
        let rep_car_ids: Vec<usize> = src.iter().map(|&c| enc.car_ids[c]).collect();
        let mut rngs: Vec<StdRng> = rows.map(|ri| streams.stream(ri as u64)).collect();

        // Last observed regressive values per row.
        let mut last_rank: Vec<f32> = src
            .iter()
            .map(|&c| ctx.sequences[enc.cars[c]].rank[origin - 1])
            .collect();
        let frozen: Vec<(f32, f32)> = src
            .iter()
            .map(|&c| {
                let seq = &ctx.sequences[enc.cars[c]];
                (seq.lap_time[origin - 1], seq.time_behind[origin - 1])
            })
            .collect();
        // Joint mode: lagged sampled status flags.
        let mut last_lap_status: Vec<f32> = src
            .iter()
            .map(|&c| ctx.sequences[enc.cars[c]].lap_status[origin - 1])
            .collect();
        let mut last_track_status: Vec<f32> = src
            .iter()
            .map(|&c| ctx.sequences[enc.cars[c]].track_status[origin - 1])
            .collect();

        let mut step_outputs: Vec<Vec<f32>> = vec![Vec::with_capacity(horizon); cb];
        let mut row = Vec::with_capacity(self.base_dim);
        for step in 0..horizon {
            let mut x = Matrix::zeros(cb, self.base_dim);
            for (li, &c) in src.iter().enumerate() {
                let seq = &ctx.sequences[enc.cars[c]];
                let reg = Regressive {
                    rank: last_rank[li],
                    lap_time: frozen[li].0,
                    time_behind: frozen[li].1,
                };
                let cov = match self.kind {
                    TargetKind::RankOnly => cov_future
                        .rows
                        .get(enc.cars[c])
                        .and_then(|r| r.get(step))
                        .copied()
                        .unwrap_or_default(),
                    TargetKind::Joint => Covariates::default(),
                };
                // Joint regressive flags are injected by `assemble` reading
                // the sequence; at forecast time we overwrite them below.
                Self::assemble(
                    &self.cfg,
                    self.kind,
                    ctx,
                    &reg,
                    &cov,
                    seq,
                    origin + step,
                    &mut row,
                );
                if self.kind == TargetKind::Joint {
                    let n = row.len();
                    row[n - 2] = last_lap_status[li];
                    row[n - 1] = last_track_status[li];
                }
                x.row_mut(li).copy_from_slice(&row);
            }
            let out = self.step_concrete(&x, &rep_car_ids, &mut h_states);

            // Heads → one draw per row from its own stream.
            let (mu, sigma) = self.head_concrete(&out, 0);
            for li in 0..cb {
                let z = match self.cfg.likelihood {
                    Likelihood::Gaussian => {
                        draw_gaussian(&mut rngs[li], mu.as_slice()[li], sigma.as_slice()[li])
                    }
                    Likelihood::StudentT(nu) => {
                        draw_student_t(&mut rngs[li], mu.as_slice()[li], sigma.as_slice()[li], nu)
                    }
                };
                let z = fault_hook_decoder((row0 + li) as u64, z);
                // NaN survives the clamp, so a poisoned draw degrades the
                // trajectory instead of silently pinning it to a bound.
                let rank = ctx.denorm_rank(z).clamp(0.5, ctx.field_size as f32 + 0.5);
                step_outputs[li].push(rank);
                last_rank[li] = rank;
            }
            if self.kind == TargetKind::Joint {
                let (mu1, s1) = self.head_concrete(&out, 1);
                let (mu2, s2) = self.head_concrete(&out, 2);
                for li in 0..cb {
                    let lap_s = draw_gaussian(&mut rngs[li], mu1.as_slice()[li], s1.as_slice()[li]);
                    let track_s =
                        draw_gaussian(&mut rngs[li], mu2.as_slice()[li], s2.as_slice()[li]);
                    last_lap_status[li] = if lap_s > 0.5 { 1.0 } else { 0.0 };
                    last_track_status[li] = if track_s > 0.5 { 1.0 } else { 0.0 };
                }
            }
        }
        step_outputs
    }

    /// One forward LSTM step on concrete state (no gradient bookkeeping
    /// kept beyond the call).
    fn step_concrete(
        &self,
        x: &Matrix,
        car_ids: &[usize],
        states: &mut [(Matrix, Matrix)],
    ) -> Matrix {
        let tape = Tape::new();
        let bind = Binding::new(&tape, &self.store);
        let x_leaf = tape.leaf(x.clone());
        let emb_rows = self.emb.forward(&bind, car_ids);
        let input = tape.hstack(&[x_leaf, emb_rows]);
        let state_vars: Vec<rpf_nn::lstm::LstmState> = states
            .iter()
            .map(|(h, c)| rpf_nn::lstm::LstmState {
                h: tape.leaf(h.clone()),
                c: tape.leaf(c.clone()),
            })
            .collect();
        let (out, new_states) = self.lstm.step(&bind, input, &state_vars);
        for (slot, s) in states.iter_mut().zip(&new_states) {
            slot.0 = tape.value(s.h);
            slot.1 = tape.value(s.c);
        }
        tape.value(out)
    }

    /// Gaussian head `hi` on a concrete hidden state.
    fn head_concrete(&self, hidden: &Matrix, hi: usize) -> (Matrix, Matrix) {
        let tape = Tape::new();
        let bind = Binding::new(&tape, &self.store);
        let h = tape.leaf(hidden.clone());
        let p: GaussianParams = self.heads[hi].forward(&bind, h);
        (tape.value(p.mu), tape.value(p.sigma))
    }
}

/// Fault-injection seam on decoder draws, keyed by the trajectory's global
/// row index (stable across thread counts): identity unless the
/// `fault-inject` feature is on AND a plan poisons this row.
#[cfg(feature = "fault-inject")]
fn fault_hook_decoder(row: u64, z: f32) -> f32 {
    rpf_nn::fault::poison_decoder_sample(row, z)
}

#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
fn fault_hook_decoder(_row: u64, z: f32) -> f32 {
    z
}

/// Covariate layout used inside Joint mode: race-status columns move from
/// covariates to regressive inputs.
fn joint_cfg(cfg: &RankNetConfig) -> RankNetConfig {
    let mut c = cfg.clone();
    c.use_race_status = false;
    c.use_context_features = false;
    c.use_shift_features = false;
    c.use_scenario_features = false;
    c
}

/// Ground-truth covariate futures — the input RankNet-Oracle receives
/// (Table III: "PitModel support: Y (Ground Truth)").
pub fn oracle_covariates(
    ctx: &RaceContext,
    origin: usize,
    horizon: usize,
    shift: usize,
) -> CovariateFuture {
    let rows = ctx
        .sequences
        .iter()
        .map(|seq| {
            (0..horizon)
                .map(|s| Covariates::from_seq(seq, origin + s, shift))
                .collect()
        })
        .collect();
    CovariateFuture { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract_sequences;
    use rpf_racesim::{simulate_race, Event, EventConfig};

    fn tiny_training_set(seed: u64) -> TrainingSet {
        let race = simulate_race(&EventConfig::for_race(Event::Indy500, 2016), seed);
        let ctx = extract_sequences(&race);
        TrainingSet::build(vec![ctx], &RankNetConfig::tiny(), 16)
    }

    #[test]
    fn parameter_count_is_paper_scale() {
        let cfg = RankNetConfig::default();
        let model = RankModel::new(cfg, TargetKind::RankOnly, 33);
        // Table IV / §IV-J: "a relative simple model with less than 30K
        // parameters".
        let n = model.num_params();
        assert!(n < 60_000, "parameter count {n} should stay small");
        assert!(n > 10_000, "parameter count {n} suspiciously small");
    }

    #[test]
    fn training_reduces_loss() {
        let ts = tiny_training_set(1);
        let val = tiny_training_set(2);
        let mut cfg = RankNetConfig::tiny();
        cfg.max_epochs = 3;
        let mut model = RankModel::new(cfg, TargetKind::RankOnly, 40);
        let report = model.train(&ts, &val);
        assert!(report.epochs_run >= 1);
        let first = report.epoch_losses.first().unwrap().0;
        let last = report.epoch_losses.last().unwrap().0;
        assert!(last < first, "training loss should fall: {first} -> {last}");
        assert!(last.is_finite());
    }

    #[test]
    fn forecast_shapes_and_bounds() {
        let ts = tiny_training_set(3);
        let mut cfg = RankNetConfig::tiny();
        cfg.max_epochs = 1;
        let mut model = RankModel::new(cfg.clone(), TargetKind::RankOnly, 40);
        let _ = model.train(&ts, &ts);

        let ctx = &ts.contexts[0];
        let horizon = 2;
        let origin = 80;
        let cov = oracle_covariates(ctx, origin, horizon, cfg.prediction_len);
        let mut rng = StdRng::seed_from_u64(9);
        let samples = model.forecast(ctx, &cov, origin, horizon, 5, &mut rng);
        assert_eq!(samples.len(), ctx.sequences.len());
        for (c, per_car) in samples.iter().enumerate() {
            if ctx.sequences[c].len() >= origin {
                assert_eq!(per_car.len(), 5, "car {c} should have 5 samples");
                for path in per_car {
                    assert_eq!(path.len(), horizon);
                    for &r in path {
                        assert!((0.0..=34.0).contains(&r), "rank sample {r} out of range");
                    }
                }
            }
        }
    }

    #[test]
    fn student_t_likelihood_trains_and_forecasts() {
        let ts = tiny_training_set(8);
        let mut cfg = RankNetConfig::tiny();
        cfg.max_epochs = 2;
        cfg.likelihood = crate::config::Likelihood::StudentT(5.0);
        let mut model = RankModel::new(cfg.clone(), TargetKind::RankOnly, 40);
        let report = model.train(&ts, &ts);
        assert!(report.best_val_loss.is_finite());
        let first = report.epoch_losses.first().unwrap().0;
        let last = report.epoch_losses.last().unwrap().0;
        assert!(
            last < first,
            "t-likelihood training should improve: {first} -> {last}"
        );

        let ctx = &ts.contexts[0];
        let cov = oracle_covariates(ctx, 70, 2, cfg.prediction_len);
        let mut rng = StdRng::seed_from_u64(11);
        let samples = model.forecast(ctx, &cov, 70, 2, 6, &mut rng);
        let filled = samples.iter().filter(|s| !s.is_empty()).count();
        assert!(filled > 20);
        for s in samples.iter().filter(|s| !s.is_empty()) {
            assert!(s.iter().flatten().all(|v| v.is_finite()));
        }
    }

    fn flat_bits(s: &ForecastSamples) -> Vec<u32> {
        s.iter().flatten().flatten().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn decode_tape_is_thread_invariant_bitwise() {
        let ts = tiny_training_set(5);
        for (kind, likelihood) in [
            (TargetKind::RankOnly, Likelihood::Gaussian),
            (TargetKind::RankOnly, Likelihood::StudentT(5.0)),
            (TargetKind::Joint, Likelihood::Gaussian),
        ] {
            let mut cfg = RankNetConfig::tiny();
            cfg.max_epochs = 1;
            cfg.likelihood = likelihood;
            let mut model = RankModel::new(cfg.clone(), kind, 40);
            let _ = model.train(&ts, &ts);
            let ctx = &ts.contexts[0];
            let (origin, horizon) = (60, 3);
            let cov = oracle_covariates(ctx, origin, horizon, cfg.prediction_len);
            let enc = model.encode(ctx, origin);
            let mut rng = StdRng::seed_from_u64(21);
            let streams = RngStreams::from_rng(&mut rng);
            let reference = model.decode_tape(ctx, &cov, origin, horizon, 4, &enc, &streams, 1);
            assert!(flat_bits(&reference).len() > 20);
            let got = model.decode_tape(ctx, &cov, origin, horizon, 4, &enc, &streams, 3);
            assert_eq!(
                flat_bits(&got),
                flat_bits(&reference),
                "tape decode changed with 3 threads: kind {kind:?}, {likelihood:?}"
            );
        }
    }

    #[test]
    fn joint_mode_trains_and_forecasts() {
        let ts = tiny_training_set(4);
        let mut cfg = RankNetConfig::tiny();
        cfg.max_epochs = 1;
        let mut model = RankModel::new(cfg, TargetKind::Joint, 40);
        let report = model.train(&ts, &ts);
        assert!(report.best_val_loss.is_finite());
        let ctx = &ts.contexts[0];
        let cov = CovariateFuture {
            rows: vec![Vec::new(); ctx.sequences.len()],
        };
        let mut rng = StdRng::seed_from_u64(10);
        let samples = model.forecast(ctx, &cov, 60, 2, 3, &mut rng);
        let non_empty = samples.iter().filter(|s| !s.is_empty()).count();
        assert!(non_empty > 20);
    }
}
