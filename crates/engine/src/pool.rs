//! A deterministic scoped-thread worker pool (std-only).
//!
//! The experiment runner fans independent simulation runs out across
//! cores. The pool here is intentionally *work-stealing-free*: workers
//! claim items from a shared atomic cursor in index order and write each
//! result into the slot reserved for its item, so the output of
//! [`ScopedPool::map`] is **always in input order**, independent of
//! thread count, scheduling, or which worker computed what. Combined
//! with pure `Fn(item) -> output` closures (every simulation run is a
//! pure function of its config), this yields byte-identical results to a
//! serial loop — the determinism contract `run_seeds_parallel` exposes.
//!
//! Design notes:
//!
//! * `std::thread::scope` keeps everything borrow-checked with no
//!   `'static` bounds and no channels; worker panics propagate to the
//!   caller on scope exit.
//! * One worker loop serves both entry points: [`map`] (one claim-once
//!   slot per item) and [`map_grid`] (one item per `(cell, repeat)`
//!   pair, run through [`map`]). Items are claimed one at a time (no
//!   chunking), so the schedule stays balanced even when run times
//!   differ wildly across seeds or schemes.
//! * One thread-count policy: the servicing width is clamped to
//!   `[1, items]` and capped at the machine's available parallelism
//!   (floor two, so any requested width above one still exercises the
//!   real cross-thread path). One thread short-circuits to a plain
//!   serial loop on the caller's thread.
//!
//! [`map`]: ScopedPool::map
//! [`map_grid`]: ScopedPool::map_grid
//!
//! # Example
//!
//! ```
//! use rcast_engine::pool::ScopedPool;
//!
//! let squares = ScopedPool::new(4).map((0..8u64).collect(), |_, x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-width scoped worker pool. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopedPool {
    threads: usize,
}

impl ScopedPool {
    /// Creates a pool that uses up to `threads` worker threads.
    /// A requested width of zero is clamped to one.
    pub fn new(threads: usize) -> Self {
        ScopedPool {
            threads: threads.max(1),
        }
    }

    /// Creates a pool as wide as the machine's available parallelism.
    pub fn machine_wide() -> Self {
        ScopedPool::new(available_threads())
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, returning outputs **in
    /// input order** regardless of thread count. `f` receives the item's
    /// index alongside the item. This is the pool's one worker loop.
    ///
    /// Determinism: for a pure `f`, `map` returns the same `Vec` as the
    /// serial `items.into_iter().enumerate().map(|(i, x)| f(i, x))`.
    /// `F: Fn(..) + Sync` rules out shared writes at compile time, up
    /// to interior mutability — rcast-lint D008 walks these closures.
    /// The pool only decides how many OS threads service the items (see
    /// the module docs' thread-count policy), which is invisible to the
    /// result.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `f`, with its original payload.
    pub fn map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, T) -> U + Sync,
    {
        let n = items.len();
        // Serial short-circuit first: width-1 pools must not even probe
        // the machine (the probe reads cgroup files, which allocates).
        if self.threads.min(n) <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, x)| f(i, x))
                .collect();
        }
        let width = self.threads.min(n).min(available_threads().max(2));

        // Each slot's input is taken exactly once by the worker that
        // claims its index off the cursor; its output is written once.
        let slots: Vec<Mutex<(Option<T>, Option<U>)>> = items
            .into_iter()
            .map(|x| Mutex::new((Some(x), None)))
            .collect();
        let cursor = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..width)
                .map(|_| {
                    scope.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let slot = &slots[i];
                        let item = slot.lock().expect("slot poisoned").0.take();
                        let out = f(i, item.expect("each item is claimed once"));
                        slot.lock().expect("slot poisoned").1 = Some(out);
                    })
                })
                .collect();
            // Join explicitly so a worker's panic payload reaches the
            // caller verbatim (scope's implicit join would replace it).
            for w in workers {
                if let Err(payload) = w.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                let (_, out) = slot.into_inner().expect("slot poisoned");
                out.expect("every item computed")
            })
            .collect()
    }

    /// Applies `f` across the whole `outer × inner` grid — every
    /// `(cell, repeat)` pair is one unit of work claimed from a single
    /// shared cursor, so workers steal across *cells*, not just within
    /// one cell's repeats. The result is regrouped per outer item:
    /// `result[o][i] == f(o, &outer[o], i)`, in input order, for any
    /// thread count.
    ///
    /// This is the sweep-campaign generalization of [`map`](Self::map):
    /// a seed fan-out is the `outer.len() == 1` special case, a figure
    /// grid keeps every core busy even when cells finish at wildly
    /// different speeds (an 802.11 cell at 2 pkt/s costs a multiple of
    /// a static Rcast cell).
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `f` when the scope joins.
    pub fn map_grid<T, U, F>(&self, outer: &[T], inner: usize, f: F) -> Vec<Vec<U>>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T, usize) -> U + Sync,
    {
        let pairs: Vec<(usize, usize)> = (0..outer.len())
            .flat_map(|o| (0..inner).map(move |i| (o, i)))
            .collect();
        let mut flat = self
            .map(pairs, |_, (o, i)| f(o, &outer[o], i))
            .into_iter();
        (0..outer.len())
            .map(|_| flat.by_ref().take(inner).collect())
            .collect()
    }
}

/// The machine's available parallelism, defaulting to 1 when unknown.
///
/// Probed once and cached: the std probe reads cgroup quota files on
/// Linux (open/parse/allocate), so repeated pool calls probe only once.
pub fn available_threads() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    match CACHED.load(Ordering::Relaxed) {
        0 => {
            let probed = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            CACHED.store(probed, Ordering::Relaxed);
            probed
        }
        cached => cached,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn map_preserves_input_order() {
        for threads in [1, 2, 3, 8, 64] {
            let out = ScopedPool::new(threads).map((0..100u64).collect(), |i, x| {
                assert_eq!(i as u64, x);
                x * 3
            });
            assert_eq!(out, (0..100u64).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_equals_serial_under_skewed_work() {
        // Uneven per-item cost must not perturb output order.
        let work = |_, x: u64| {
            if x.is_multiple_of(7) {
                std::thread::yield_now();
            }
            x.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        let serial = ScopedPool::new(1).map((0..64).collect(), work);
        let parallel = ScopedPool::new(8).map((0..64).collect(), work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ScopedPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(vec![5, 6], |_, x| x + 1), vec![6, 7]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = ScopedPool::new(32).map(vec![1u8, 2, 3], |_, x| x);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = ScopedPool::new(4).map(Vec::<u8>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let calls = AtomicU32::new(0);
        let out = ScopedPool::new(4).map((0..50u32).collect(), |_, x| {
            // det: shared-ok — commutative counter: the test asserts coverage, not order
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 50);
        assert_eq!(calls.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn non_copy_items_move_through() {
        let items: Vec<String> = (0..12).map(|i| format!("seed-{i}")).collect();
        let out = ScopedPool::new(3).map(items, |_, s| s.len());
        assert_eq!(out, vec![6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 7, 7]);
    }

    #[test]
    fn machine_wide_is_at_least_one() {
        assert!(ScopedPool::machine_wide().threads() >= 1);
        assert!(available_threads() >= 1);
    }

    #[test]
    fn map_grid_matches_the_serial_cross_product() {
        let cells = vec![10u64, 20, 30];
        let serial: Vec<Vec<u64>> = cells
            .iter()
            .map(|&c| (0..4).map(|i| c + i).collect())
            .collect();
        for threads in [1, 2, 3, 8] {
            let got = ScopedPool::new(threads).map_grid(&cells, 4, |o, &c, i| {
                assert_eq!(cells[o], c);
                c + i as u64
            });
            assert_eq!(got, serial, "{threads} threads");
        }
    }

    #[test]
    fn map_grid_degenerate_shapes() {
        let pool = ScopedPool::new(4);
        let empty: Vec<Vec<u8>> = pool.map_grid(&Vec::<u8>::new(), 3, |_, &x, _| x);
        assert!(empty.is_empty());
        let zero_inner: Vec<Vec<u8>> = pool.map_grid(&[1u8, 2], 0, |_, &x, _| x);
        assert_eq!(zero_inner, vec![Vec::<u8>::new(), Vec::new()]);
        let single = pool.map_grid(&[7u8], 1, |o, &x, i| (o, x, i));
        assert_eq!(single, vec![vec![(0, 7, 0)]]);
    }

    #[test]
    fn map_grid_claims_every_pair_once() {
        let calls = AtomicU32::new(0);
        let out = ScopedPool::new(8).map_grid(&[0u8; 5], 7, |_, _, _| {
            // det: shared-ok — commutative counter: the test asserts coverage, not order
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.iter().map(Vec::len).sum::<usize>(), 35);
        assert_eq!(calls.load(Ordering::Relaxed), 35);
    }

    #[test]
    fn map_spawns_real_threads_at_width_above_one() {
        // Width > 1 must exercise the threaded path even on a
        // single-core machine.
        let main_id = std::thread::current().id();
        let seen = ScopedPool::new(4).map(vec![(); 4], |_, ()| std::thread::current().id());
        assert!(seen.iter().all(|&id| id != main_id));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _ = ScopedPool::new(2).map(vec![0u8, 1], |_, x| {
            if x == 1 {
                panic!("boom");
            }
            x
        });
    }
}
