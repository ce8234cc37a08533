//! Operator-level profiling: time, call and FLOP attribution per kernel
//! class, reproducing the paper's operator-breakdown table from real runs.
//!
//! Every kernel in the tensor crate brackets its work with [`start`] and
//! [`record`], passing a class and its FLOP / byte estimates; a fused
//! kernel records the sum of its parts once. Profiling is **off by
//! default**: the disabled path is a single relaxed load and a branch, with
//! no clock read, and the bench gate in `rpf-bench` pins that it adds <1%
//! to the decode benchmark.
//!
//! Attribution is by *class*, not call site. A tile-fused LSTM step is
//! one `MatmulBatched` entry; the gaussian output head installs a
//! [`class_scope`] so the matmuls and softplus it issues are attributed to
//! `GaussianHead` instead of their raw kernel classes — classes partition
//! time, nothing is double-counted.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Kernel classes of the inference graph, mirroring the paper's operator
/// breakdown (matmul, fused LSTM gates/state, output head, scalar ops).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Preallocated-output GEMM. No kernel records here; the class stays
    /// because the benchmark's per-layer table names it.
    MatmulInto,
    /// FMA-contracted lock-step GEMM (batched decode backend).
    MatmulBatched,
    /// Allocating GEMM variants (training path).
    Matmul,
    /// Stand-alone LSTM gate bias+activation sweep. No producer: serving
    /// runs the tile-fused step, recorded as `MatmulBatched`.
    LstmGatesFused,
    /// Stand-alone LSTM cell/hidden state update. No producer, as above;
    /// both LSTM classes stay for the same reason as `MatmulInto`.
    LstmStateUpdate,
    /// Gaussian output head (mu/sigma projections + softplus + floor).
    GaussianHead,
    /// Elementwise scalar kernels (add, mul, activations) outside a scope.
    Scalar,
    /// Anything unclassified.
    Other,
}

pub const OP_CLASSES: [OpClass; 8] = [
    OpClass::MatmulInto,
    OpClass::MatmulBatched,
    OpClass::Matmul,
    OpClass::LstmGatesFused,
    OpClass::LstmStateUpdate,
    OpClass::GaussianHead,
    OpClass::Scalar,
    OpClass::Other,
];

impl OpClass {
    pub fn name(self) -> &'static str {
        match self {
            OpClass::MatmulInto => "matmul_into",
            OpClass::MatmulBatched => "matmul_batched",
            OpClass::Matmul => "matmul",
            OpClass::LstmGatesFused => "lstm_gates_fused",
            OpClass::LstmStateUpdate => "lstm_state_update",
            OpClass::GaussianHead => "gaussian_head",
            OpClass::Scalar => "scalar",
            OpClass::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            OpClass::MatmulInto => 0,
            OpClass::MatmulBatched => 1,
            OpClass::Matmul => 2,
            OpClass::LstmGatesFused => 3,
            OpClass::LstmStateUpdate => 4,
            OpClass::GaussianHead => 5,
            OpClass::Scalar => 6,
            OpClass::Other => 7,
        }
    }
}

struct OpCell {
    calls: AtomicU64,
    flops: AtomicU64,
    bytes: AtomicU64,
    nanos: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_CELL: OpCell = OpCell {
    calls: AtomicU64::new(0),
    flops: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
    nanos: AtomicU64::new(0),
};

static CELLS: [OpCell; 8] = [ZERO_CELL; 8];

/// Global profiling switch; off by default so the hot path stays a single
/// relaxed load + branch in every shipped configuration.
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Per-thread class override installed by [`class_scope`]; `usize::MAX`
    /// means "no override". A `Cell<usize>` keeps the disabled check free
    /// of thread-local reads (the scope is only consulted when enabled).
    static SCOPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// RAII guard redirecting this thread's op attribution to one class (see
/// module docs: the gaussian head claims its constituent kernels).
pub struct ClassScope {
    prev: usize,
}

pub fn class_scope(class: OpClass) -> ClassScope {
    let prev = SCOPE.with(|s| s.replace(class.index()));
    ClassScope { prev }
}

impl Drop for ClassScope {
    fn drop(&mut self) {
        let prev = self.prev;
        SCOPE.with(|s| s.set(prev));
    }
}

/// The start instant of one kernel call, or `None` while profiling is
/// disabled, so the disabled path never reads the clock.
#[inline]
pub fn start() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Record one kernel invocation that began at `started` (from [`start`]).
/// A `None` start is a no-op, so a call that began while profiling was
/// disabled is never recorded.
#[inline]
pub fn record(class: OpClass, flops: u64, bytes: u64, started: Option<Instant>) {
    if let Some(started) = started {
        record_nanos(class, flops, bytes, started.elapsed().as_nanos() as u64);
    }
}

/// Deterministic entry point: like [`record`] but with an explicit
/// duration, for tests that must not read the wall clock.
pub fn record_nanos(class: OpClass, flops: u64, bytes: u64, nanos: u64) {
    if !enabled() {
        return;
    }
    let idx = SCOPE.with(|s| s.get());
    let idx = if idx == usize::MAX {
        class.index()
    } else {
        idx
    };
    let cell = &CELLS[idx];
    cell.calls.fetch_add(1, Ordering::Relaxed);
    cell.flops.fetch_add(flops, Ordering::Relaxed);
    cell.bytes.fetch_add(bytes, Ordering::Relaxed);
    cell.nanos.fetch_add(nanos, Ordering::Relaxed);
}

/// One class's accumulated totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    pub calls: u64,
    pub flops: u64,
    pub bytes: u64,
    pub nanos: u64,
}

impl OpStats {
    /// Effective GFLOP/s over the attributed time.
    pub fn gflops(&self) -> f64 {
        if self.nanos == 0 {
            0.0
        } else {
            self.flops as f64 / self.nanos as f64
        }
    }
}

pub fn stats(class: OpClass) -> OpStats {
    let cell = &CELLS[class.index()];
    OpStats {
        calls: cell.calls.load(Ordering::Relaxed),
        flops: cell.flops.load(Ordering::Relaxed),
        bytes: cell.bytes.load(Ordering::Relaxed),
        nanos: cell.nanos.load(Ordering::Relaxed),
    }
}

/// Every class's totals in declaration order (including zero rows, so the
/// breakdown table has a stable shape).
pub fn all_stats() -> Vec<(OpClass, OpStats)> {
    OP_CLASSES.iter().map(|&c| (c, stats(c))).collect()
}

/// Zero every cell (between profiled runs).
pub fn reset() {
    for cell in &CELLS {
        cell.calls.store(0, Ordering::Relaxed);
        cell.flops.store(0, Ordering::Relaxed);
        cell.bytes.store(0, Ordering::Relaxed);
        cell.nanos.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The cells are process-global; serialize tests that touch them.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_record_is_a_no_op() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        set_enabled(false);
        record_nanos(OpClass::MatmulInto, 100, 10, 5);
        assert_eq!(stats(OpClass::MatmulInto), OpStats::default());
    }

    #[test]
    fn enabled_record_accumulates() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        set_enabled(true);
        record_nanos(OpClass::MatmulInto, 100, 16, 5);
        record_nanos(OpClass::MatmulInto, 200, 16, 7);
        set_enabled(false);
        let s = stats(OpClass::MatmulInto);
        assert_eq!((s.calls, s.flops, s.bytes, s.nanos), (2, 300, 32, 12));
    }

    #[test]
    fn start_and_record_only_count_while_enabled() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        set_enabled(false);
        assert!(start().is_none());
        set_enabled(true);
        record(OpClass::Matmul, 100, 16, None);
        assert_eq!(stats(OpClass::Matmul), OpStats::default());
        let started = start();
        assert!(started.is_some());
        record(OpClass::Matmul, 100, 16, started);
        set_enabled(false);
        let s = stats(OpClass::Matmul);
        assert_eq!((s.calls, s.flops, s.bytes), (1, 100, 16));
    }

    #[test]
    fn class_scope_redirects_and_restores() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        set_enabled(true);
        {
            let _scope = class_scope(OpClass::GaussianHead);
            record_nanos(OpClass::MatmulInto, 50, 8, 3);
            record_nanos(OpClass::Scalar, 10, 8, 1);
        }
        record_nanos(OpClass::Scalar, 1, 1, 1);
        set_enabled(false);
        let head = stats(OpClass::GaussianHead);
        assert_eq!((head.calls, head.flops, head.nanos), (2, 60, 4));
        assert_eq!(stats(OpClass::MatmulInto), OpStats::default());
        let scalar = stats(OpClass::Scalar);
        assert_eq!((scalar.calls, scalar.nanos), (1, 1));
    }

    #[test]
    fn gflops_is_flops_per_nano() {
        let s = OpStats {
            calls: 1,
            flops: 2_000,
            bytes: 0,
            nanos: 1_000,
        };
        assert!((s.gflops() - 2.0).abs() < 1e-12);
    }
}
