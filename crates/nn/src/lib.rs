//! Neural-network layers, probabilistic heads and the training loop used by
//! the RankNet reproduction.
//!
//! Everything the paper's models need is here:
//!
//! * [`params`] — a central parameter store (values, gradients, Adam state)
//!   that layers reference by id, plus the per-forward-pass
//!   [`Binding`] that bridges parameters onto an autodiff
//!   [`Tape`](rpf_autodiff::Tape),
//! * [`linear`], [`embedding`], [`mlp`] — dense building blocks,
//! * [`lstm`] — the LSTM cell and the 2-layer stack the paper uses for both
//!   encoder and decoder (shared weights, exactly like the DeepAR
//!   implementation in GluonTS it builds on); `step_batched` is the
//!   tape-free serving step of the Monte-Carlo decode, on the FMA kernels
//!   within a pinned tolerance of the tape,
//! * [`attention`] — multi-head attention and the Transformer
//!   encoder/decoder layers of the §IV-I comparison,
//! * [`gaussian`] — the probabilistic output: a network predicts
//!   `θ = (µ, σ)` with `σ = softplus(...)`, trained by Gaussian negative
//!   log-likelihood (paper Eq. 1) and sampled ancestrally at forecast time;
//!   `forward_batched` is the head's tape-free serving forward (every other
//!   layer serves on the tape),
//! * [`adam`] — the Adam optimizer with gradient clipping,
//! * [`train`] — minibatch loop with learning-rate decay on plateau and
//!   early stopping (paper §IV-C), shard-parallel gradient computation on
//!   `std` scoped threads, and the µs/sample throughput measurements behind
//!   Fig 10.

pub mod adam;
pub mod attention;
pub mod data;
pub mod embedding;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod gaussian;
pub mod init;
pub mod linear;
pub mod lstm;
pub mod mlp;
pub mod params;
pub mod stream;
pub mod train;

pub use adam::{Adam, AdamState};
pub use data::{Batch, BatchIter};
pub use gaussian::GaussianHead;
pub use linear::Linear;
pub use lstm::{LstmCell, StackedLstm};
pub use mlp::Mlp;
pub use params::{Binding, ParamId, ParamStore};
pub use stream::RngStreams;
