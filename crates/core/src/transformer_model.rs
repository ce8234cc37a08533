//! Transformer-based RankNet variant (§IV-I).
//!
//! The paper swaps the stacked LSTM for the GluonTS Transformer — 8
//! attention heads, model dimension 32 — and finds the LSTM "consistently a
//! slightly better performance", which it attributes to the small data
//! size. This module reproduces that comparison: the same input rows,
//! covariate handling and Gaussian head as [`crate::rank_model`], with a
//! Transformer encoder–decoder in the middle.
//!
//! Sequences are processed one at a time as `(T, d)` matrices; training
//! shards instances across `std` scoped threads.

use crate::config::RankNetConfig;
use crate::features::RaceContext;
use crate::instances::{assemble_row, base_input_dim, Covariates, Regressive, TrainingSet};
use crate::rank_model::{CovariateFuture, ForecastSamples};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rpf_autodiff::{Tape, Var};
use rpf_nn::attention::{positional_encoding, DecoderLayer, EncoderLayer};
use rpf_nn::embedding::Embedding;
use rpf_nn::gaussian::{gaussian_nll, sample_gaussian, GaussianParams};
use rpf_nn::infer::{
    InferDecoderLayer, InferEmbedding, InferEncoderLayer, InferGaussianHead, InferLinear,
};
use rpf_nn::train::{shard_parallel_loss, train, TrainConfig, TrainReport};
use rpf_nn::{Binding, GaussianHead, Linear, ParamStore, RngStreams};
use rpf_tensor::{ops, Matrix};

/// Transformer hyper-parameters of §IV-I.
pub const D_MODEL: usize = 32;
pub const N_HEADS: usize = 8;
pub const N_LAYERS: usize = 2;
pub const FF_DIM: usize = 64;

pub struct TransformerModel {
    pub cfg: RankNetConfig,
    pub store: ParamStore,
    proj: Linear,
    enc_layers: Vec<EncoderLayer>,
    dec_layers: Vec<DecoderLayer>,
    head: GaussianHead,
    emb: Embedding,
    base_dim: usize,
}

/// Tape-free serving runtime for the Transformer: forward-only mirrors of
/// the projection, encoder/decoder stacks, head and car embedding,
/// converted one-shot per forecast call. The autoregressive decode re-runs
/// the decoder over the whole accumulated prefix each step, so the win here
/// is dropping the tape's node bookkeeping and per-op weight clones, not
/// scratch reuse; outputs stay bit-identical to the tape path.
struct TransformerRuntime {
    proj: InferLinear,
    enc_layers: Vec<InferEncoderLayer>,
    dec_layers: Vec<InferDecoderLayer>,
    head: InferGaussianHead,
    emb: InferEmbedding,
}

impl TransformerRuntime {
    /// Project, add positional encoding, run the encoder stack.
    fn encode(&self, rows: &Matrix) -> Matrix {
        let len = rows.rows();
        let mut h = self.proj.forward(rows);
        h = ops::add(&h, &positional_encoding(len, D_MODEL));
        for layer in &self.enc_layers {
            h = layer.forward(&h);
        }
        h
    }

    /// Decoder over `rows` with causal masking against `memory`.
    fn decode(&self, rows: &Matrix, memory: &Matrix) -> Matrix {
        let len = rows.rows();
        let mut h = self.proj.forward(rows);
        h = ops::add(&h, &positional_encoding(len, D_MODEL));
        for layer in &self.dec_layers {
            h = layer.forward(&h, memory);
        }
        h
    }
}

impl TransformerModel {
    pub fn new(cfg: RankNetConfig, max_car_id: usize) -> TransformerModel {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7F);
        let base_dim = base_input_dim(&cfg);
        let input_dim = base_dim + cfg.embedding_dim;
        let proj = Linear::new(&mut store, &mut rng, "tx.proj", input_dim, D_MODEL);
        let enc_layers = (0..N_LAYERS)
            .map(|i| {
                EncoderLayer::new(
                    &mut store,
                    &mut rng,
                    &format!("tx.enc{i}"),
                    D_MODEL,
                    N_HEADS,
                    FF_DIM,
                )
            })
            .collect();
        let dec_layers = (0..N_LAYERS)
            .map(|i| {
                DecoderLayer::new(
                    &mut store,
                    &mut rng,
                    &format!("tx.dec{i}"),
                    D_MODEL,
                    N_HEADS,
                    FF_DIM,
                )
            })
            .collect();
        let head = GaussianHead::new(&mut store, &mut rng, "tx.head", D_MODEL);
        let emb = Embedding::new(
            &mut store,
            &mut rng,
            "tx.car",
            max_car_id + 1,
            cfg.embedding_dim,
        );
        TransformerModel {
            cfg,
            store,
            proj,
            enc_layers,
            dec_layers,
            head,
            emb,
            base_dim,
        }
    }

    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    /// Project raw input rows, add positional encoding, and run the encoder
    /// stack. `rows` is `(T, base_dim + emb)`.
    fn encode(&self, bind: &Binding<'_>, rows: Var) -> Var {
        let t = bind.tape();
        let (len, _) = t.shape(rows);
        let mut h = self.proj.forward(bind, rows);
        let pe = t.leaf(positional_encoding(len, D_MODEL));
        h = t.add(h, pe);
        for layer in &self.enc_layers {
            h = layer.forward(bind, h);
        }
        h
    }

    /// Decoder over `rows` `(Td, input)` with causal masking against
    /// `memory`.
    fn decode(&self, bind: &Binding<'_>, rows: Var, memory: Var) -> Var {
        let t = bind.tape();
        let (len, _) = t.shape(rows);
        let mut h = self.proj.forward(bind, rows);
        let pe = t.leaf(positional_encoding(len, D_MODEL));
        h = t.add(h, pe);
        for layer in &self.dec_layers {
            h = layer.forward(bind, h, memory);
        }
        h
    }

    /// Input row matrix for sequence positions `[lo, hi)` of one window.
    fn rows_for(&self, ts: &TrainingSet, inst: usize, lo: usize, hi: usize) -> (Matrix, usize) {
        let w = &ts.instances[inst];
        let ctx = &ts.contexts[w.race];
        let seq = &ctx.sequences[w.car];
        let cfg = &self.cfg;
        let mut rows = Matrix::zeros(hi - lo, self.base_dim);
        let mut row = Vec::with_capacity(self.base_dim);
        let frozen = (w.start + cfg.context_len - 1).min(seq.len() - 1);
        for (r, j) in (lo..hi).enumerate() {
            let idx = w.start + j;
            let lag = idx - 1;
            let reg = if j < cfg.context_len {
                Regressive {
                    rank: seq.rank[lag],
                    lap_time: seq.lap_time[lag],
                    time_behind: seq.time_behind[lag],
                }
            } else {
                Regressive {
                    rank: seq.rank[lag],
                    lap_time: seq.lap_time[frozen],
                    time_behind: seq.time_behind[frozen],
                }
            };
            let cov = Covariates::from_seq(seq, idx, cfg.prediction_len);
            assemble_row(cfg, ctx, &reg, &cov, &mut row);
            rows.row_mut(r).copy_from_slice(&row);
        }
        (rows, seq.car_id as usize)
    }

    /// Loss of one window on the given tape.
    fn window_loss(&self, bind: &Binding<'_>, ts: &TrainingSet, inst: usize) -> Var {
        let t = bind.tape();
        let cfg = &self.cfg;
        let w = &ts.instances[inst];
        let ctx = &ts.contexts[w.race];
        let seq = &ctx.sequences[w.car];

        let (enc_rows, car_id) = self.rows_for(ts, inst, 0, cfg.context_len);
        let (dec_rows, _) = self.rows_for(
            ts,
            inst,
            cfg.context_len,
            cfg.context_len + cfg.prediction_len,
        );

        // Car embedding appended to every row.
        let enc_ids = vec![car_id; cfg.context_len];
        let dec_ids = vec![car_id; cfg.prediction_len];
        let enc_in = t.hstack(&[t.leaf(enc_rows), self.emb.forward(bind, &enc_ids)]);
        let dec_in = t.hstack(&[t.leaf(dec_rows), self.emb.forward(bind, &dec_ids)]);

        let memory = self.encode(bind, enc_in);
        let out = self.decode(bind, dec_in, memory);
        let params: GaussianParams = self.head.forward(bind, out);

        let target = Matrix::from_vec(
            cfg.prediction_len,
            1,
            (0..cfg.prediction_len)
                .map(|j| ctx.norm_rank(seq.rank[w.start + cfg.context_len + j]))
                .collect(),
        );
        let weights = t.leaf(Matrix::full(cfg.prediction_len, 1, w.weight));
        gaussian_nll(bind, params, t.leaf(target), Some(weights))
    }

    /// Train per Algorithm 1 (same loop as the LSTM model).
    pub fn train(&mut self, ts: &TrainingSet, val: &TrainingSet) -> TrainReport {
        let cfg = self.cfg.clone();
        let train_cfg = TrainConfig {
            max_epochs: cfg.max_epochs,
            batch_size: cfg.batch_size,
            lr: cfg.learning_rate,
            seed: cfg.seed,
            ..Default::default()
        };
        let val_take = val.len().min(128);
        // Detach the store so the closures can borrow `self` immutably
        // while the training loop owns the parameters mutably.
        let mut store = std::mem::take(&mut self.store);
        let this: &TransformerModel = self;
        let report = train(
            &mut store,
            ts.len(),
            &train_cfg,
            |store, batch| {
                shard_parallel_loss(store, batch, |bind, shard| this.shard_loss(bind, ts, shard))
            },
            |store| {
                let idx: Vec<usize> = (0..val_take).collect();
                this.batch_loss_eval(store, val, &idx)
            },
        );
        self.store = store;
        report
    }

    /// Mean loss of one shard's instances, each its own `(T, d)` sequence.
    fn shard_loss(&self, bind: &Binding<'_>, ts: &TrainingSet, shard: &[usize]) -> Var {
        let t = bind.tape();
        let mut losses = shard.iter().map(|&inst| self.window_loss(bind, ts, inst));
        // Shards are never empty; an empty one would be a NaN-loss shard.
        let first = losses
            .next()
            .unwrap_or_else(|| t.leaf(Matrix::full(1, 1, f32::NAN)));
        let total = losses.fold(first, |acc, l| t.add(acc, l));
        t.scale(total, 1.0 / shard.len() as f32)
    }

    fn batch_loss_eval(&self, store: &ParamStore, ts: &TrainingSet, batch: &[usize]) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        let tape = Tape::new();
        let bind = Binding::new(&tape, store);
        let mut sum = 0.0;
        for &inst in batch {
            let l = self.window_loss(&bind, ts, inst);
            sum += tape.scalar(l);
        }
        sum / batch.len() as f32
    }

    /// Build the tape-free serving runtime (one-shot weight conversion).
    fn runtime(&self) -> TransformerRuntime {
        TransformerRuntime {
            proj: InferLinear::from_store(&self.store, &self.proj),
            enc_layers: self
                .enc_layers
                .iter()
                .map(|l| InferEncoderLayer::from_store(&self.store, l))
                .collect(),
            dec_layers: self
                .dec_layers
                .iter()
                .map(|l| InferDecoderLayer::from_store(&self.store, l))
                .collect(),
            head: InferGaussianHead::from_store(&self.store, &self.head),
            emb: InferEmbedding::from_store(&self.store, &self.emb),
        }
    }

    /// Forecast per Algorithm 2 with autoregressive decoding. Same
    /// semantics as `RankModel::forecast` but one sequence at a time, on the
    /// tape-free runtime (bit-identical to the tape reference pinned in the
    /// test suite).
    pub fn forecast(
        &self,
        ctx: &RaceContext,
        cov_future: &CovariateFuture,
        origin: usize,
        horizon: usize,
        n_samples: usize,
        rng: &mut StdRng,
    ) -> ForecastSamples {
        let cfg = &self.cfg;
        let rt = self.runtime();
        let input_dim = self.base_dim + cfg.embedding_dim;
        let mut out: ForecastSamples = vec![Vec::new(); ctx.sequences.len()];
        for (c, seq) in ctx.sequences.iter().enumerate() {
            if seq.len() < origin {
                continue;
            }
            let enc_start = origin.saturating_sub(cfg.context_len).max(1);
            let enc_len = origin - enc_start;
            let car_id = seq.car_id as usize;

            // Encoder rows from actual history, base features plus the
            // constant car-embedding columns (the tape path hstacks these).
            let mut enc_in = Matrix::zeros(enc_len, input_dim);
            let mut row = Vec::with_capacity(self.base_dim);
            for (r, idx) in (enc_start..origin).enumerate() {
                let reg = Regressive {
                    rank: seq.rank[idx - 1],
                    lap_time: seq.lap_time[idx - 1],
                    time_behind: seq.time_behind[idx - 1],
                };
                let cov = Covariates::from_seq(seq, idx, cfg.prediction_len);
                assemble_row(cfg, ctx, &reg, &cov, &mut row);
                enc_in.row_mut(r)[..self.base_dim].copy_from_slice(&row);
                enc_in.row_mut(r)[self.base_dim..].copy_from_slice(rt.emb.row(car_id));
            }

            // Encode once; reuse the memory across samples.
            let memory = rt.encode(&enc_in);

            let frozen = (seq.lap_time[origin - 1], seq.time_behind[origin - 1]);
            for _s in 0..n_samples {
                let mut path = Vec::with_capacity(horizon);
                let mut last_rank = seq.rank[origin - 1];
                let mut dec_inputs: Vec<Vec<f32>> = Vec::with_capacity(horizon);
                for step in 0..horizon {
                    let reg = Regressive {
                        rank: last_rank,
                        lap_time: frozen.0,
                        time_behind: frozen.1,
                    };
                    let cov = cov_future
                        .rows
                        .get(c)
                        .and_then(|r| r.get(step))
                        .copied()
                        .unwrap_or_default();
                    assemble_row(cfg, ctx, &reg, &cov, &mut row);
                    dec_inputs.push(row.clone());

                    // Re-run the decoder over the accumulated inputs.
                    let t_len = dec_inputs.len();
                    let mut dec_in = Matrix::zeros(t_len, input_dim);
                    for (r, d) in dec_inputs.iter().enumerate() {
                        dec_in.row_mut(r)[..self.base_dim].copy_from_slice(d);
                        dec_in.row_mut(r)[self.base_dim..].copy_from_slice(rt.emb.row(car_id));
                    }
                    let h = rt.decode(&dec_in, &memory);
                    let last = h.slice_rows(t_len - 1, t_len);
                    let (mu, sigma) = rt.head.forward(&last);
                    let z = sample_gaussian(rng, &mu, &sigma).get(0, 0);
                    let rank = ctx.denorm_rank(z).clamp(0.5, ctx.field_size as f32 + 0.5);
                    path.push(rank);
                    last_rank = rank;
                }
                out[c].push(path);
            }
        }
        out
    }
}

/// Forecaster wrapper selecting the Transformer's covariate source —
/// ground truth (`Transformer-Oracle`) or PitModel samples
/// (`Transformer-MLP`), mirroring Fig 8 / Fig 9 / Table VII.
pub struct TransformerForecaster {
    pub model: TransformerModel,
    pub pit_model: Option<crate::pit_model::PitModel>,
}

impl crate::baseline_adapters::Forecaster for TransformerForecaster {
    fn name(&self) -> String {
        if self.pit_model.is_some() {
            "Transformer-MLP".into()
        } else {
            "Transformer-Oracle".into()
        }
    }

    fn forecast(
        &self,
        ctx: &RaceContext,
        origin: usize,
        horizon: usize,
        n_samples: usize,
        rng: &mut StdRng,
    ) -> ForecastSamples {
        let shift = self.model.cfg.prediction_len;
        match &self.pit_model {
            None => {
                let cov = crate::rank_model::oracle_covariates(ctx, origin, horizon, shift);
                self.model
                    .forecast(ctx, &cov, origin, horizon, n_samples, rng)
            }
            Some(pm) => {
                // Split samples into a few covariate-future groups, like the
                // LSTM RankNet-MLP.
                let groups = n_samples.clamp(1, 4);
                let per_group = n_samples.div_ceil(groups);
                let dists = pm.car_dists(ctx, origin);
                let mut all: ForecastSamples = vec![Vec::new(); ctx.sequences.len()];
                for g in 0..groups {
                    let mut group_rng =
                        StdRng::seed_from_u64(0xF00 ^ (g as u64) << 9 ^ origin as u64);
                    let cov = crate::ranknet::sample_covariate_future_streams(
                        &dists,
                        shift,
                        ctx,
                        origin,
                        horizon,
                        &RngStreams::from_rng(&mut group_rng),
                    );
                    let got = self
                        .model
                        .forecast(ctx, &cov, origin, horizon, per_group, rng);
                    for (slot, paths) in all.iter_mut().zip(got) {
                        slot.extend(paths);
                    }
                }
                for slot in all.iter_mut() {
                    slot.truncate(n_samples);
                }
                all
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract_sequences;
    use crate::rank_model::oracle_covariates;
    use rpf_racesim::{simulate_race, Event, EventConfig};

    fn tiny_ts(seed: u64) -> TrainingSet {
        let race = simulate_race(&EventConfig::for_race(Event::Indy500, 2016), seed);
        let ctx = extract_sequences(&race);
        TrainingSet::build(vec![ctx], &RankNetConfig::tiny(), 64)
    }

    #[test]
    fn builds_with_paper_dimensions() {
        let model = TransformerModel::new(RankNetConfig::tiny(), 40);
        assert_eq!(D_MODEL, 32);
        assert_eq!(N_HEADS, 8);
        assert!(model.num_params() > 10_000);
    }

    #[test]
    fn trains_and_loss_is_finite() {
        let ts = tiny_ts(1);
        let mut cfg = RankNetConfig::tiny();
        cfg.max_epochs = 2;
        cfg.batch_size = 16;
        let mut model = TransformerModel::new(cfg, 40);
        let report = model.train(&ts, &ts);
        assert!(report.best_val_loss.is_finite());
        let first = report.epoch_losses.first().unwrap().0;
        let last = report.epoch_losses.last().unwrap().0;
        assert!(
            last <= first * 1.5,
            "loss should not explode: {first} -> {last}"
        );
    }

    /// The pre-runtime serving path — encode and decode on a fresh tape
    /// each step — kept verbatim as the parity reference for `forecast`.
    fn tape_forecast(
        model: &TransformerModel,
        ctx: &RaceContext,
        cov_future: &CovariateFuture,
        origin: usize,
        horizon: usize,
        n_samples: usize,
        rng: &mut StdRng,
    ) -> ForecastSamples {
        let cfg = &model.cfg;
        let mut out: ForecastSamples = vec![Vec::new(); ctx.sequences.len()];
        for (c, seq) in ctx.sequences.iter().enumerate() {
            if seq.len() < origin {
                continue;
            }
            let enc_start = origin.saturating_sub(cfg.context_len).max(1);
            let enc_len = origin - enc_start;
            let car_id = seq.car_id as usize;
            let mut enc_rows = Matrix::zeros(enc_len, model.base_dim);
            let mut row = Vec::with_capacity(model.base_dim);
            for (r, idx) in (enc_start..origin).enumerate() {
                let reg = Regressive {
                    rank: seq.rank[idx - 1],
                    lap_time: seq.lap_time[idx - 1],
                    time_behind: seq.time_behind[idx - 1],
                };
                let cov = Covariates::from_seq(seq, idx, cfg.prediction_len);
                assemble_row(cfg, ctx, &reg, &cov, &mut row);
                enc_rows.row_mut(r).copy_from_slice(&row);
            }
            let tape = Tape::new();
            let bind = Binding::new(&tape, &model.store);
            let enc_ids = vec![car_id; enc_len];
            let enc_in = tape.hstack(&[
                tape.leaf(enc_rows.clone()),
                model.emb.forward(&bind, &enc_ids),
            ]);
            let memory_val = tape.value(model.encode(&bind, enc_in));

            let frozen = (seq.lap_time[origin - 1], seq.time_behind[origin - 1]);
            for _s in 0..n_samples {
                let mut path = Vec::with_capacity(horizon);
                let mut last_rank = seq.rank[origin - 1];
                let mut dec_inputs: Vec<Vec<f32>> = Vec::with_capacity(horizon);
                for step in 0..horizon {
                    let reg = Regressive {
                        rank: last_rank,
                        lap_time: frozen.0,
                        time_behind: frozen.1,
                    };
                    let cov = cov_future
                        .rows
                        .get(c)
                        .and_then(|r| r.get(step))
                        .copied()
                        .unwrap_or_default();
                    assemble_row(cfg, ctx, &reg, &cov, &mut row);
                    dec_inputs.push(row.clone());

                    let tape = Tape::new();
                    let bind = Binding::new(&tape, &model.store);
                    let mut dec_rows = Matrix::zeros(dec_inputs.len(), model.base_dim);
                    for (r, d) in dec_inputs.iter().enumerate() {
                        dec_rows.row_mut(r).copy_from_slice(d);
                    }
                    let dec_ids = vec![car_id; dec_inputs.len()];
                    let dec_in =
                        tape.hstack(&[tape.leaf(dec_rows), model.emb.forward(&bind, &dec_ids)]);
                    let memory = tape.leaf(memory_val.clone());
                    let h = model.decode(&bind, dec_in, memory);
                    let last = tape.slice_rows(h, dec_inputs.len() - 1, dec_inputs.len());
                    let params = model.head.forward(&bind, last);
                    let mu = tape.value(params.mu);
                    let sigma = tape.value(params.sigma);
                    let z = sample_gaussian(rng, &mu, &sigma).get(0, 0);
                    let rank = ctx.denorm_rank(z).clamp(0.5, ctx.field_size as f32 + 0.5);
                    path.push(rank);
                    last_rank = rank;
                }
                out[c].push(path);
            }
        }
        out
    }

    #[test]
    fn forecast_matches_tape_reference_bitwise() {
        let ts = tiny_ts(5);
        let mut cfg = RankNetConfig::tiny();
        cfg.max_epochs = 1;
        cfg.batch_size = 16;
        let mut model = TransformerModel::new(cfg.clone(), 40);
        let _ = model.train(&ts, &ts);
        let ctx = &ts.contexts[0];
        let cov = oracle_covariates(ctx, 60, 2, cfg.prediction_len);
        let mut rng_runtime = StdRng::seed_from_u64(17);
        let mut rng_tape = StdRng::seed_from_u64(17);
        let got = model.forecast(ctx, &cov, 60, 2, 2, &mut rng_runtime);
        let want = tape_forecast(&model, ctx, &cov, 60, 2, 2, &mut rng_tape);
        let bits = |s: &ForecastSamples| -> Vec<u32> {
            s.iter().flatten().flatten().map(|v| v.to_bits()).collect()
        };
        assert!(bits(&got).len() > 20);
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn forecast_has_sane_shape() {
        let ts = tiny_ts(2);
        let mut cfg = RankNetConfig::tiny();
        cfg.max_epochs = 1;
        cfg.batch_size = 16;
        let mut model = TransformerModel::new(cfg.clone(), 40);
        let _ = model.train(&ts, &ts);
        let ctx = &ts.contexts[0];
        let cov = oracle_covariates(ctx, 60, 2, cfg.prediction_len);
        let mut rng = StdRng::seed_from_u64(3);
        let samples = model.forecast(ctx, &cov, 60, 2, 3, &mut rng);
        let filled = samples.iter().filter(|s| !s.is_empty()).count();
        assert!(filled > 20);
        for s in samples.iter().filter(|s| !s.is_empty()) {
            assert_eq!(s.len(), 3);
            assert_eq!(s[0].len(), 2);
            assert!(s[0].iter().all(|&v| (0.0..=34.0).contains(&v)));
        }
    }
}
