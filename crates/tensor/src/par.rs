//! The one data-parallel helper: [`par_chunks_mut`], built on `crossbeam`
//! scoped threads.
//!
//! The kernels need a single pattern — "split a mutable slice into
//! row-aligned chunks and process them on a small scoped pool" — so it is
//! implemented directly rather than through rayon. Work below
//! [`PAR_THRESHOLD`] elements runs sequentially: thread spawn + join costs
//! more than the work itself for the small per-timestep LSTM matrices. For
//! the same reason there is no per-index fan-out: small independent jobs,
//! like per-car covariate sampling, run in a plain loop on the caller.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Below this many "work units" (caller-defined, usually output elements),
/// parallel helpers run sequentially.
pub const PAR_THRESHOLD: usize = 16 * 1024;

/// Number of worker threads to use: the machine's parallelism, capped so
/// tiny machines and CI runners behave.
pub fn num_threads() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16);
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// Apply `f` to disjoint chunks of `out`, in parallel when the slice is
/// large enough. `f` receives `(chunk_start_index, chunk)`.
///
/// The chunk boundaries are aligned to `row_len` so callers that process
/// whole rows never see a split row.
pub fn par_chunks_mut<F>(out: &mut [f32], row_len: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let row_len = row_len.max(1);
    let n = out.len();
    let threads = num_threads();
    if n < PAR_THRESHOLD || threads == 1 {
        f(0, out);
        return;
    }
    let rows = n / row_len;
    let rows_per = rows.div_ceil(threads).max(1);
    let chunk = rows_per * row_len;
    crossbeam::scope(|s| {
        let mut offset = 0;
        for piece in out.chunks_mut(chunk) {
            let start = offset;
            offset += piece.len();
            let f = &f;
            s.spawn(move |_| f(start, piece));
        }
    })
    .expect("worker thread panicked");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_mut_covers_everything_once() {
        let mut v = vec![0.0f32; 100_000];
        par_chunks_mut(&mut v, 10, |start, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x += (start + i) as f32;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as f32);
        }
    }

    #[test]
    fn par_chunks_mut_small_is_sequential_and_correct() {
        let mut v = vec![1.0f32; 7];
        par_chunks_mut(&mut v, 3, |_, chunk| {
            for x in chunk {
                *x *= 2.0;
            }
        });
        assert!(v.iter().all(|&x| x == 2.0));
    }

    #[test]
    fn num_threads_is_stable_and_positive() {
        let a = num_threads();
        let b = num_threads();
        assert!((1..=16).contains(&a));
        assert_eq!(a, b);
    }
}
