//! The data-parallel helpers, built on `std` scoped threads:
//! [`par_ranges`], the one fan-out training shards and decode row chunks
//! go through, and [`par_chunks_mut`], the kernels' row-chunked slice
//! split.
//!
//! Both are implemented directly rather than through rayon. Work below
//! [`PAR_THRESHOLD`] elements runs sequentially: thread spawn + join costs
//! more than the work itself for the small per-timestep LSTM matrices. For
//! the same reason there is no per-index fan-out: small independent jobs,
//! like per-car covariate sampling, run in a plain loop on the caller.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

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
    thread::scope(|s| {
        let mut offset = 0;
        for piece in out.chunks_mut(chunk) {
            let start = offset;
            offset += piece.len();
            let f = &f;
            s.spawn(move || f(start, piece));
        }
    });
}

/// Split `0..n` into contiguous ranges of `n.div_ceil(threads.clamp(1, n))`
/// items (the last may be shorter, so there can be fewer ranges than
/// threads) and run `f` on each, one scoped thread per range. Returns every
/// range with its outcome, in range order.
///
/// A panic in `f` is contained to its own slot as an `Err`; the other
/// ranges still run to completion and return `Ok`. A single range runs
/// inline on the caller's thread under the same contract. `n == 0` yields
/// no ranges.
pub fn par_ranges<T, F>(n: usize, threads: usize, f: F) -> Vec<(Range<usize>, thread::Result<T>)>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let per = n.div_ceil(threads.clamp(1, n.max(1))).max(1);
    let ranges: Vec<Range<usize>> = (0..n)
        .step_by(per)
        .map(|lo| lo..(lo + per).min(n))
        .collect();
    if let [only] = ranges.as_slice() {
        let out = catch_unwind(AssertUnwindSafe(|| f(only.clone())));
        return vec![(only.clone(), out)];
    }
    thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| {
                let r = r.clone();
                s.spawn(move || f(r))
            })
            .collect();
        ranges
            .into_iter()
            .zip(handles)
            .map(|(r, h)| (r, h.join()))
            .collect()
    })
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

    /// The decode row-chunk formula, the reference `par_ranges` must match
    /// so decode chunks keep their boundaries.
    fn reference_decode_chunks(n: usize, threads: usize) -> Vec<Range<usize>> {
        if n == 0 {
            return Vec::new();
        }
        let threads = threads.clamp(1, n);
        let rows_per = n.div_ceil(threads);
        (0..n)
            .step_by(rows_per)
            .map(|lo| lo..(lo + rows_per).min(n))
            .collect()
    }

    #[test]
    fn par_ranges_match_the_decode_chunks() {
        for n in [0, 1, 15, 16, 17, 64, 100] {
            for threads in [1, 2, 3, 16] {
                let out = par_ranges(n, threads, |r| r);
                let ranges: Vec<Range<usize>> = out.iter().map(|(r, _)| r.clone()).collect();
                assert_eq!(
                    ranges,
                    reference_decode_chunks(n, threads),
                    "n={n} threads={threads}"
                );
                for (r, res) in out {
                    assert_eq!(res.ok(), Some(r), "each range sees its own rows");
                }
            }
        }
    }

    #[test]
    fn par_ranges_contains_a_panic_to_its_own_slot() {
        let out = par_ranges(12, 4, |r| {
            assert!(r.start != 3, "injected failure");
            r.start
        });
        assert_eq!(out.len(), 4);
        assert!(out[1].1.is_err());
        let ok: Vec<usize> = out.into_iter().filter_map(|(_, res)| res.ok()).collect();
        assert_eq!(ok, vec![0, 6, 9]);
    }

    #[test]
    fn par_ranges_single_range_runs_on_the_caller_thread() {
        let caller = std::thread::current().id();
        let out = par_ranges(5, 1, |_| std::thread::current().id());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.as_ref().ok(), Some(&caller));
        let panicked = par_ranges(5, 1, |_| -> usize { panic!("injected failure") });
        assert!(panicked[0].1.is_err());
        let spread = par_ranges(4, 2, |_| std::thread::current().id());
        assert!(spread
            .iter()
            .all(|(_, id)| id.as_ref().ok() != Some(&caller)));
    }

    #[test]
    fn num_threads_is_stable_and_positive() {
        let a = num_threads();
        let b = num_threads();
        assert!((1..=16).contains(&a));
        assert_eq!(a, b);
    }
}
