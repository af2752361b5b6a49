//! Work-stealing task pool and deterministic seed derivation — the
//! engine behind the parallel experiment runner.
//!
//! The paper's evaluation is a grid of independent simulation points:
//! every (scheduler, N, load, seed) cell can run on any core in any
//! order, provided the *inputs* of each cell never depend on execution
//! order. This crate supplies the two pieces that make that safe:
//!
//! * [`Pool`] — a scoped-thread worker pool with per-worker deques and
//!   work stealing. [`Pool::map`] runs one closure per item and returns
//!   results in *item order*, so callers see the same `Vec` whatever the
//!   worker count or completion order was. [`Pool::for_each_part`]
//!   instead hands each worker one contiguous part of a mutable slice
//!   for the whole call, so a simulation can step its parts in lockstep
//!   without a thread fork-join per step.
//! * [`task_seed`] — derives a task's RNG seed as a pure hash of
//!   `(root_seed, task_key)`. Because no task's seed is "the next draw"
//!   of a shared generator, adding, removing, or reordering tasks never
//!   perturbs any other task's randomness — the property that makes
//!   `--threads 1` and `--threads N` bit-identical.
//!
//! No external dependencies; workers are `std::thread` scoped threads.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// Derives a task's RNG seed from the experiment's root seed and a
/// stable task key.
///
/// FNV-1a over the key bytes, mixed with the root seed and finalized
/// with the SplitMix64 avalanche, so related keys ("rep0", "rep1") land
/// far apart. The mapping is **pinned by golden tests**: published
/// experiment numbers are reproducible only as long as this function
/// never changes, so treat any edit here as a breaking change to every
/// recorded result.
///
/// # Examples
///
/// ```
/// use an2_task::task_seed;
/// // Stable: same inputs, same seed, on every platform.
/// assert_eq!(task_seed(7, "table1/p0.50"), task_seed(7, "table1/p0.50"));
/// // Distinct keys and distinct roots give unrelated streams.
/// assert_ne!(task_seed(7, "table1/p0.50"), task_seed(7, "table1/p0.75"));
/// assert_ne!(task_seed(7, "table1/p0.50"), task_seed(8, "table1/p0.50"));
/// ```
pub fn task_seed(root_seed: u64, key: &str) -> u64 {
    let mut z = fnv1a(key.as_bytes()) ^ root_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string — the workspace's standard cheap digest,
/// used both by [`task_seed`] and by the determinism checks that compare
/// serial and parallel experiment outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fixed-width worker pool that runs batches of independent tasks with
/// work stealing.
///
/// The pool is a *policy* object — it owns no threads between calls.
/// Each [`map`](Pool::map) or [`for_each_part`](Pool::for_each_part)
/// call spawns scoped workers, runs the batch, and joins them, so a
/// `Pool` can be passed freely down a call tree (including from inside
/// another pool's task, where the nested call simply runs with its own
/// workers).
///
/// # Examples
///
/// ```
/// use an2_task::Pool;
/// let pool = Pool::new(4);
/// let squares = pool.map((0u64..8).collect(), |_, x| x * x);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// // Results are identical at any worker count.
/// assert_eq!(squares, Pool::serial().map((0u64..8).collect(), |_, x| x * x));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with the given worker count (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn available() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// A single-worker pool: every task runs on the calling thread, in
    /// submission order. The reference execution for determinism checks.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Worker count this pool schedules onto.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` once per item and returns the results **in item order**.
    ///
    /// Items are dealt round-robin onto per-worker deques; a worker that
    /// drains its own deque steals the front half of a victim's. Because
    /// each result lands in the slot of its item index, the output is
    /// independent of worker count and of which worker ran what — any
    /// order dependence left in the caller's closure (e.g. a shared
    /// sequential RNG) is a bug this pool is designed to starve out; use
    /// [`task_seed`] instead.
    ///
    /// # Panics
    ///
    /// Panics if any task panics (the first panic is propagated).
    // an2-lint: allow(panic-freedom) the joins/expects propagate worker panics by design (documented `# Panics`); slot indices are < n by construction
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            // an2-lint: allow(alloc-in-hot-path) single-thread fallback materializes the result vec once per map() batch, not per slot
            return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let workers = self.threads.min(n);
        // Task payloads and result slots, indexed by item position. A
        // Mutex per slot is coarse but contention-free: exactly one
        // worker ever touches a given slot.
        let tasks: Vec<Mutex<Option<T>>> =
            // an2-lint: allow(alloc-in-hot-path) per-batch pool setup, amortized over the whole map() batch rather than per slot
            items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        // an2-lint: allow(alloc-in-hot-path) per-batch pool setup, amortized over the whole map() batch rather than per slot
        let mut results: Vec<Mutex<Option<R>>> = Vec::new();
        results.resize_with(n, || Mutex::new(None));
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            // an2-lint: allow(alloc-in-hot-path) per-batch pool setup, amortized over the whole map() batch rather than per slot
            .map(|w| Mutex::new((w..n).step_by(workers).collect()))
            // an2-lint: allow(alloc-in-hot-path) per-batch pool setup, amortized over the whole map() batch rather than per slot
            .collect();
        std::thread::scope(|scope| {
            let tasks = &tasks;
            let results = &results;
            let deques = &deques;
            let f = &f;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        while let Some(idx) = next_task(deques, w) {
                            let item = lock(&tasks[idx]).take().expect("task scheduled twice");
                            let out = f(idx, item);
                            *lock(&results[idx]) = Some(out);
                        }
                    })
                })
                // an2-lint: allow(alloc-in-hot-path) one spawn handle per worker, once per map() batch
                .collect();
            for h in handles {
                h.join().expect("pool worker panicked");
            }
        });
        results
            .into_iter()
            .map(|slot| {
                lock_owned(slot).expect("every scheduled task stored a result")
            })
            // an2-lint: allow(alloc-in-hot-path) materializes the batch results once per map() call
            .collect()
    }

    /// Number of contiguous parts [`for_each_part`](Pool::for_each_part)
    /// splits `len` items into: the worker count, capped at `len`, and at
    /// least one.
    pub fn parts(&self, len: usize) -> usize {
        self.threads.min(len).max(1)
    }

    /// Splits `items` into [`parts`](Pool::parts) contiguous, in-order
    /// parts and runs `f(part, slice)` once per part.
    ///
    /// Part sizes differ by at most one, the longer parts first: 32 items
    /// on 3 workers split as 11, 11, 10. With more than one part every
    /// part runs on its own scoped thread and the caller only spawns and
    /// joins, so the parts may run in lockstep (for example around a
    /// [`std::sync::Barrier`] of [`parts`](Pool::parts) parties) for as
    /// long as `f` keeps going. With one part, `f` runs inline on the
    /// caller.
    ///
    /// # Examples
    ///
    /// ```
    /// use an2_task::Pool;
    /// let mut xs: Vec<u32> = (0..10).collect();
    /// Pool::new(3).for_each_part(&mut xs, |part, slice| {
    ///     for x in slice {
    ///         *x = *x * 10 + part as u32;
    ///     }
    /// });
    /// assert_eq!(xs, [0, 10, 20, 30, 41, 51, 61, 72, 82, 92]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if any part panics (the first panic is propagated, as in
    /// [`map`](Pool::map)).
    pub fn for_each_part<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let parts = self.parts(items.len());
        if parts == 1 {
            f(0, items);
            return;
        }
        let (base, longer) = (items.len() / parts, items.len() % parts);
        std::thread::scope(|scope| {
            let f = &f;
            let mut rest = items;
            let handles: Vec<_> = (0..parts)
                .map(|part| {
                    let len = base + usize::from(part < longer);
                    let (mine, tail) = std::mem::take(&mut rest).split_at_mut(len);
                    rest = tail;
                    scope.spawn(move || f(part, mine))
                })
                .collect();
            for h in handles {
                h.join().expect("pool worker panicked");
            }
        });
    }

    /// Runs a batch of heterogeneous boxed tasks; sugar over [`map`](Pool::map)
    /// for callers whose tasks are distinct closures rather than uniform
    /// items.
    pub fn run_boxed<R: Send>(&self, tasks: Vec<Box<dyn FnOnce() -> R + Send + '_>>) -> Vec<R> {
        self.map(tasks, |_, task| task())
    }
}

/// Pops the worker's own deque, stealing the front half of the richest
/// victim when empty. `None` once every deque is empty (no task can
/// reappear: indices only move between deques under their locks).
// an2-lint: allow(panic-freedom) deque indices w and victim are < workers by the modular step
fn next_task(deques: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(idx) = lock(&deques[w]).pop_front() {
        return Some(idx);
    }
    let workers = deques.len();
    for step in 1..workers {
        let victim = (w + step) % workers;
        let stolen: Vec<usize> = {
            let mut q = lock(&deques[victim]);
            let take = q.len().div_ceil(2);
            // an2-lint: allow(alloc-in-hot-path) work-stealing moves existing indices between deques; the stolen batch is bounded by the victim's half
            q.drain(..take).collect()
        };
        if let Some((&first, rest)) = stolen.split_first() {
            // an2-lint: allow(alloc-in-hot-path) work-stealing moves existing indices between deques; the stolen batch is bounded by the victim's half
            lock(&deques[w]).extend(rest.iter().copied());
            return Some(first);
        }
    }
    None
}

/// Locks ignoring poisoning: a panicked worker is re-raised at join, so
/// survivors may keep draining the queue in the meantime.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn lock_owned<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_item_order() {
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let out = pool.map((0..100).collect(), |idx, x: i32| {
                assert_eq!(idx as i32, x);
                x * 2
            });
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let out = Pool::new(4).map((0..257).collect::<Vec<u32>>(), |_, x| {
            ran.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 257);
        assert_eq!(ran.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn uneven_task_durations_still_complete() {
        // Front-loaded long tasks force the later workers to steal.
        let out = Pool::new(4).map((0..32u64).collect(), |_, x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_batches() {
        let pool = Pool::new(8);
        assert_eq!(pool.map(Vec::<u8>::new(), |_, x| x), Vec::<u8>::new());
        assert_eq!(pool.map(vec![9u8], |_, x| x), vec![9]);
    }

    #[test]
    fn nested_map_from_inside_a_task() {
        let pool = Pool::new(2);
        let out = pool.map(vec![10u64, 20], |_, base| {
            Pool::new(2)
                .map((0..4).collect(), move |_, k: u64| base + k)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(out, vec![10 * 4 + 6, 20 * 4 + 6]);
    }

    #[test]
    fn run_boxed_heterogeneous_tasks() {
        let a = 3u64;
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> =
            vec![Box::new(move || a * a), Box::new(|| 42)];
        assert_eq!(Pool::new(2).run_boxed(tasks), vec![9, 42]);
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn task_panic_propagates() {
        let _ = Pool::new(2).map((0..8).collect::<Vec<u32>>(), |_, x| {
            assert!(x != 5, "boom");
            x
        });
    }

    /// Runs `for_each_part` over `0..len` and returns, per part, its index,
    /// the items it saw and whether it ran on the calling thread.
    fn record_parts(threads: usize, len: usize) -> Vec<(usize, Vec<usize>, bool)> {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        let mut items: Vec<usize> = (0..len).collect();
        Pool::new(threads).for_each_part(&mut items, |part, slice| {
            let inline = std::thread::current().id() == caller;
            lock(&seen).push((part, slice.to_vec(), inline));
        });
        let mut seen = lock_owned(seen);
        seen.sort();
        seen
    }

    #[test]
    fn parts_are_contiguous_balanced_and_cover_every_item_once() {
        for threads in 1..=5 {
            for len in 0..=23 {
                let seen = record_parts(threads, len);
                let parts = Pool::new(threads).parts(len);
                assert_eq!(seen.len(), parts, "threads={threads} len={len}");
                let flat: Vec<usize> = seen.iter().flat_map(|(_, s, _)| s.clone()).collect();
                assert_eq!(flat, (0..len).collect::<Vec<_>>(), "threads={threads} len={len}");
                let sizes: Vec<usize> = seen.iter().map(|(_, s, _)| s.len()).collect();
                assert!(
                    sizes.windows(2).all(|w| w[0] == w[1] || w[0] == w[1] + 1),
                    "unbalanced split {sizes:?}"
                );
            }
        }
        let sizes: Vec<usize> = record_parts(3, 32).iter().map(|(_, s, _)| s.len()).collect();
        assert_eq!(sizes, [11, 11, 10]);
    }

    #[test]
    fn one_part_runs_on_the_caller_and_many_parts_do_not() {
        let serial = record_parts(1, 8);
        assert_eq!(serial.len(), 1);
        assert!(serial[0].2, "a single part runs inline");
        assert!(record_parts(4, 0)[0].2, "an empty slice is one inline part");
        let parallel = record_parts(3, 8);
        assert_eq!(parallel.len(), 3);
        assert!(
            parallel.iter().all(|(_, _, inline)| !inline),
            "the caller only spawns and joins"
        );
    }

    #[test]
    fn more_threads_than_items_gives_one_item_per_part() {
        let seen = record_parts(8, 3);
        assert_eq!(Pool::new(8).parts(3), 3);
        let parts: Vec<(usize, Vec<usize>)> = seen.into_iter().map(|(p, s, _)| (p, s)).collect();
        assert_eq!(parts, [(0, vec![0]), (1, vec![1]), (2, vec![2])]);
    }

    #[test]
    fn parts_can_run_in_lockstep_on_a_barrier() {
        let pool = Pool::new(3);
        let mut counts = vec![0u32; 7];
        let barrier = std::sync::Barrier::new(pool.parts(counts.len()));
        pool.for_each_part(&mut counts, |_, slice| {
            for _ in 0..50 {
                for c in slice.iter_mut() {
                    *c += 1;
                }
                barrier.wait();
            }
        });
        assert_eq!(counts, [50; 7]);
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn part_panic_propagates() {
        let mut items: Vec<u32> = (0..8).collect();
        Pool::new(2).for_each_part(&mut items, |_, slice| {
            assert!(!slice.contains(&5), "boom");
        });
    }

    #[test]
    fn threads_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::serial().threads(), 1);
        assert!(Pool::available().threads() >= 1);
    }

    #[test]
    fn task_seed_mixes_root_and_key() {
        let a = task_seed(1, "x");
        assert_ne!(a, task_seed(2, "x"));
        assert_ne!(a, task_seed(1, "y"));
        assert_eq!(a, task_seed(1, "x"));
        // Nearby keys avalanche: no shared low bits.
        let b = task_seed(1, "rep0");
        let c = task_seed(1, "rep1");
        assert!((b ^ c).count_ones() > 8, "{b:#x} vs {c:#x}");
    }

    /// Golden pin of the derived-seed function. Published experiment
    /// numbers are a pure function of these values: if this test fails,
    /// the change silently reseeds **every** recorded result. Do not
    /// update the constants without regenerating EXPERIMENTS.md and the
    /// results/ artifacts in the same commit.
    #[test]
    fn task_seed_is_pinned() {
        for (root, key, expected) in GOLDEN_SEEDS {
            assert_eq!(
                task_seed(*root, key),
                *expected,
                "task_seed({root:#x}, {key:?}) drifted"
            );
        }
    }

    const GOLDEN_SEEDS: &[(u64, &str, u64)] = &[
        (0, "", 0xf52a15e9a9b5e89b),
        (0xA52_1992, "table1", 0x9ba88b3d675733f9),
        (0xA52_1992, "faults", 0xfb1dcde2a10f68ce),
        (7, "curve/pim4", 0x3f24d201c1bc9058),
        (7, "load3fe0000000000000/rep0", 0x1d4485f633c51633),
    ];

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
