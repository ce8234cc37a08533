//! Dense `f32` matrix kernels for the RankNet reproduction.
//!
//! This crate is the computational substrate for everything above it:
//! the autodiff tape (`rpf-autodiff`), the neural network layers, and the
//! classical ML baselines. It provides:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix with shape-checked ops,
//! * [`matmul`] — the tape's three GEMMs (`matmul`, `matmul_at`,
//!   `matmul_bt`) on one register-tiled kernel that keeps the bits of the
//!   plain ascending-`k` loops and goes parallel via `crossbeam` scoped
//!   threads once the output is large enough,
//! * [`batched`] — the FMA lock-step kernels every serving LSTM step runs
//!   (the encoder and the batched decoder).
//!
//! The kernel set mirrors the five operations the paper identifies inside an
//! LSTM cell: `MatMul`, elementwise `Mul`, `Add`, `Sigmoid` and `Tanh`.
//! Every kernel reports its class, FLOPs, bytes and walltime once per call to
//! `rpf_obs::ops`, and only while profiling is on; the disabled path reads
//! no clock. That profile is the measured operator breakdown (Fig 12).

pub mod batched;
pub mod matmul;
pub mod matrix;
pub mod ops;
pub mod par;
pub mod scalar;

pub use matrix::Matrix;
