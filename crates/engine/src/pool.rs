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
//! * One worker loop serves every entry point: [`map_shards`]
//!   (in-place lanes), [`map`] (one lane per item) and [`map_grid`]
//!   (one lane per `(cell, repeat)` pair). Items are claimed one at a
//!   time (no chunking), so the schedule stays balanced even when run
//!   times differ wildly across seeds or schemes.
//! * One thread-count policy: the servicing width is clamped to
//!   `[1, items]` and capped at the machine's available parallelism
//!   (floor two, so any requested width above one still exercises the
//!   real cross-thread path). One thread short-circuits to a plain
//!   serial loop on the caller's thread.
//! * [`shard_range`] is the one shard geometry: every intra-interval
//!   pass splits its node (or delivery) index space with it.
//!
//! [`map_shards`]: ScopedPool::map_shards
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

use std::ops::Range;
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
    /// index alongside the item. Each item is one
    /// [`map_shards`](Self::map_shards) lane.
    ///
    /// Determinism: for a pure `f`, `map` returns the same `Vec` as the
    /// serial `items.into_iter().enumerate().map(|(i, x)| f(i, x))`.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `f` when the scope joins.
    pub fn map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, T) -> U + Sync,
    {
        // Each lane's input is taken exactly once by the worker that
        // claims its index; its output is written exactly once.
        let mut lanes: Vec<(Option<T>, Option<U>)> =
            items.into_iter().map(|x| (Some(x), None)).collect();
        self.map_shards(&mut lanes, |i, (item, out)| {
            *out = Some(f(i, item.take().expect("each item is claimed once")));
        });
        lanes
            .into_iter()
            .map(|(_, out)| out.expect("every lane filled"))
            .collect()
    }

    /// Runs `f(shard_index, &mut lane)` once per lane, in parallel,
    /// mutating each lane in place. This is the pool's one worker loop.
    /// Within a simulation, one interval's node-indexed work is split
    /// into `lanes.len()` shards (ranges from [`shard_range`]), each
    /// shard writes only into its own lane, and the caller merges lanes
    /// serially in shard order afterwards; width 1 is the same seam with
    /// one lane.
    ///
    /// Determinism: `f` must derive everything it writes from
    /// `shard_index` plus captured immutable state (`F: Fn(..) + Sync`
    /// and `&mut`-disjoint lanes enforce the no-shared-writes part at
    /// compile time, up to interior mutability — rcast-lint D008 walks
    /// these closures). Under that contract the lane contents are a pure
    /// function of the shard index, so the merged result is identical
    /// for any thread count — the differential tests in
    /// `tests/parallel_interval.rs` pin this byte-for-byte.
    ///
    /// Shard *count* is chosen by the caller via `lanes.len()` and is
    /// what fixes the output layout; this pool only decides how many OS
    /// threads service the lanes (see the module docs' thread-count
    /// policy), which is invisible to the result. Width 1 short-circuits
    /// to a plain serial loop with zero allocations, which keeps the
    /// quiet-interval zero-alloc contract intact at the default width.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `f` when the scope joins.
    pub fn map_shards<S, F>(&self, lanes: &mut [S], f: F)
    where
        S: Send,
        F: Fn(usize, &mut S) + Sync,
    {
        let n = lanes.len();
        // Serial short-circuit first: width-1 pools must not even probe
        // the machine (the probe reads cgroup files, which allocates —
        // it would break the quiet-interval zero-alloc contract).
        if self.threads.min(n) <= 1 {
            for (i, lane) in lanes.iter_mut().enumerate() {
                f(i, lane);
            }
            return;
        }
        let width = self.threads.min(n).min(available_threads().max(2));

        // Each slot wraps a disjoint `&mut` borrow and is taken exactly
        // once by the worker that claims its index off the cursor.
        let slots: Vec<Mutex<Option<&mut S>>> =
            lanes.iter_mut().map(|l| Mutex::new(Some(l))).collect();
        let cursor = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..width)
                .map(|_| {
                    scope.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let lane = slots[i]
                            .lock()
                            .expect("shard slot poisoned")
                            .take()
                            .expect("each shard is claimed once");
                        f(i, lane);
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

/// Shard `shard`'s slice of the index space `0..len` when it is split
/// into `shards` contiguous, ascending, disjoint ranges that cover it
/// exactly. Sizes differ by at most one, so with `shards <= len` every
/// range is non-empty; with more shards than items the surplus ranges
/// are empty. Consuming lanes in shard order is therefore index order,
/// which is what makes every sharded pass byte-identical at every width.
///
/// # Panics
///
/// Debug builds assert `shard < shards`.
pub fn shard_range(shard: usize, shards: usize, len: usize) -> Range<usize> {
    debug_assert!(shard < shards, "shard {shard} out of {shards}");
    let bound = |s: usize| s * len / shards;
    bound(shard)..bound(shard + 1)
}

/// The machine's available parallelism, defaulting to 1 when unknown.
///
/// Probed once and cached: the std probe reads cgroup quota files on
/// Linux (open/parse/allocate), far too heavy for the per-interval shard
/// passes that consult this on every call.
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
    fn map_shards_matches_the_serial_loop() {
        let run = |threads: usize| {
            let mut lanes: Vec<Vec<u64>> = vec![Vec::new(); 8];
            ScopedPool::new(threads).map_shards(&mut lanes, |shard, lane| {
                for k in 0..=(shard as u64) {
                    lane.push(shard as u64 * 100 + k);
                }
            });
            lanes
        };
        let serial = run(1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(run(threads), serial, "{threads} threads");
        }
    }

    #[test]
    fn map_shards_reuses_lane_capacity_serially() {
        // Width 1 must not allocate: lanes are cleared, not rebuilt.
        let mut lanes: Vec<Vec<u32>> = (0..4).map(|_| Vec::with_capacity(16)).collect();
        let caps: Vec<usize> = lanes.iter().map(Vec::capacity).collect();
        ScopedPool::new(1).map_shards(&mut lanes, |shard, lane| {
            lane.clear();
            lane.push(shard as u32);
        });
        assert_eq!(
            lanes.iter().map(Vec::capacity).collect::<Vec<_>>(),
            caps,
            "serial shard pass must reuse lane storage"
        );
    }

    #[test]
    fn map_shards_degenerate_shapes() {
        let pool = ScopedPool::new(4);
        let mut empty: Vec<u8> = Vec::new();
        pool.map_shards(&mut empty, |_, _| unreachable!());
        let mut one = [0u32];
        pool.map_shards(&mut one, |shard, lane| *lane = shard as u32 + 7);
        assert_eq!(one, [7]);
    }

    #[test]
    fn map_shards_claims_every_lane_once() {
        let calls = AtomicU32::new(0);
        let mut lanes = vec![0u8; 23];
        ScopedPool::new(8).map_shards(&mut lanes, |_, lane| {
            // det: shared-ok — commutative counter: the test asserts coverage, not order
            calls.fetch_add(1, Ordering::Relaxed);
            *lane += 1;
        });
        assert_eq!(calls.load(Ordering::Relaxed), 23);
        assert!(lanes.iter().all(|&l| l == 1));
    }

    #[test]
    fn map_shards_spawns_real_threads_at_width_above_one() {
        // The differential suite relies on width > 1 exercising the
        // threaded path even on a single-core machine.
        let main_id = std::thread::current().id();
        let mut seen = vec![None; 4];
        ScopedPool::new(4).map_shards(&mut seen, |_, lane| {
            *lane = Some(std::thread::current().id());
        });
        assert!(seen.iter().all(|id| id.is_some_and(|id| id != main_id)));
    }

    #[test]
    fn shard_ranges_tile_the_index_space() {
        // len 0, len < width, len = width and uneven splits.
        for (width, len) in [(1, 0), (4, 0), (8, 3), (4, 4), (3, 10), (4, 7), (2, 1200), (1, 5)] {
            let shards = width.min(len);
            let ranges: Vec<Range<usize>> =
                (0..shards).map(|s| shard_range(s, shards, len)).collect();
            assert_eq!(ranges.len(), width.min(len), "width {width}, len {len}");
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "contiguous and disjoint: {ranges:?}");
                assert!(r.start < r.end, "ascending and non-empty: {ranges:?}");
                next = r.end;
            }
            assert_eq!(next, len, "covers exactly 0..{len}: {ranges:?}");
        }
        // More shards than items: the surplus ranges are empty, and the
        // union still covers the index space in order.
        let covered: Vec<usize> = (0..8).flat_map(|s| shard_range(s, 8, 3)).collect();
        assert_eq!(covered, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "shard boom")]
    fn map_shards_panics_propagate() {
        let mut lanes = vec![0u8; 2];
        ScopedPool::new(2).map_shards(&mut lanes, |shard, _| {
            if shard == 1 {
                panic!("shard boom");
            }
        });
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
