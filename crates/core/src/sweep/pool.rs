//! The sweep's worker pool and its thread plan.
//!
//! One deliberately small parallel map, [`parallel_map_in_order`], built
//! on `std::thread::scope`:
//!
//! * work is pulled from a shared atomic counter (dynamic load balancing —
//!   runs at high utilization take much longer than runs at low
//!   utilization, so static chunking would straggle);
//! * results land in their input's slot, so output order equals input
//!   order and determinism is preserved no matter how threads interleave;
//! * slots are **write-once**: the atomic counter hands each index to
//!   exactly one worker, so results are stored through a plain
//!   `UnsafeCell` with no per-slot lock on the hot path;
//! * workers follow a *pull order*, so the sweep can start its
//!   expected-longest tasks (high-utilization points) first and keep
//!   every core busy until the very end;
//! * worker panics are propagated to the caller (a failed replication
//!   must not silently produce a truncated average).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use hetsched_error::HetschedError;

/// A write-once result slot.
///
/// Workers claim indices through an atomic counter, so each slot is
/// written by exactly one worker and read only after every worker has
/// been joined — the counter, not a lock, provides the exclusion.
struct Slot<R>(UnsafeCell<Option<R>>);

impl<R> Slot<R> {
    fn empty() -> Self {
        Slot(UnsafeCell::new(None))
    }
}

// SAFETY: each slot index is claimed by exactly one worker (a unique
// `fetch_add` ticket), giving that worker exclusive write access; the
// main thread reads only after joining all workers, which synchronizes
// the writes.
unsafe impl<R: Send> Sync for Slot<R> {}

/// Maps `f` over `items` using up to `threads` worker threads; workers
/// *pull* tasks in the sequence given by `order` (a permutation of
/// `0..items.len()`; `order[0]` is started first). Results are returned
/// in **input** order, so reordering affects only wall-clock
/// scheduling, never the output.
///
/// The sweep uses this to start their expected-longest tasks first:
/// a straggler that begins at `t = 0` hides behind the rest of the sweep
/// instead of running alone at the end.
///
/// `f` must be `Sync` (shared by reference across workers); items are
/// taken by reference. With `threads <= 1` or a single item the map runs
/// inline on the caller's thread, in pull order.
///
/// # Panics
/// Panics if `order` is not a permutation of the item indices; propagates
/// the first worker panic.
pub(super) fn parallel_map_in_order<T, R, F>(
    items: &[T],
    threads: usize,
    order: &[usize],
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    assert_eq!(
        order.len(),
        items.len(),
        "order must be a permutation of the item indices"
    );
    let mut seen = vec![false; items.len()];
    for &idx in order {
        assert!(
            idx < items.len() && !seen[idx],
            "order must be a permutation of the item indices"
        );
        seen[idx] = true;
    }
    if items.is_empty() {
        return Vec::new();
    }
    let workers = threads.max(1).min(items.len());
    if workers == 1 {
        let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for &idx in order {
            out[idx] = Some(f(&items[idx]));
        }
        return out
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect();
    }

    // A counter hands out tickets; `order` maps tickets to item indices.
    let next = AtomicUsize::new(0);
    let slots: Vec<Slot<R>> = (0..items.len()).map(|_| Slot::empty()).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let ticket = next.fetch_add(1, Ordering::Relaxed);
                    if ticket >= items.len() {
                        break;
                    }
                    let idx = order[ticket];
                    let r = f(&items[idx]);
                    // SAFETY: this worker holds the unique ticket for
                    // `idx`, so no other thread accesses this slot until
                    // after the join below.
                    unsafe { *slots[idx].0.get() = Some(r) };
                })
            })
            .collect();
        for h in handles {
            if h.join().is_err() {
                panic!("worker thread panicked");
            }
        }
    });

    slots
        .into_iter()
        .map(|s| s.0.into_inner().expect("every slot filled"))
        .collect()
}

/// Number of worker threads to use by default: the available parallelism,
/// capped at 16 (simulation runs are memory-light; beyond ~16 threads the
/// marginal return on a laptop/CI box is noise).
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Resolves a user-facing thread knob: `0` means "auto"
/// ([`default_threads`]), anything else is taken literally.
fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        default_threads()
    } else {
        requested
    }
}

/// Plans a two-level thread split: `outer` replication workers, each of
/// which may itself run `inner` simulation threads (the conservative
/// parallel engine's per-shard kernels). Returns the effective outer
/// worker count so that `outer × inner` stays within a sane multiple of
/// the machine budget, instead of letting the two knobs multiply into
/// hundreds of threads.
///
/// `outer` and `budget` follow the usual knob convention (`0` = auto:
/// [`default_threads`] for both); `inner` below 1 is treated as 1.
/// The cap is soft — oversubscription up to 4× the budget is allowed
/// (threads blocked on epoch barriers don't saturate a core) — but the
/// effective outer count is scaled down so `outer_eff × inner ≤ budget`
/// whenever `inner > 1`.
///
/// # Errors
/// [`HetschedError::InvalidConfig`] when the combination is absurd:
/// `inner` alone exceeding 4× the budget, or an explicit `outer` whose
/// product with a nested `inner > 1` exceeds 4× the budget (with
/// `inner = 1` the classic flat replication pool applies and `outer` is
/// taken as given). Absurd combinations are almost always a units
/// mistake in a config file, and silently clamping them would hide it.
pub(super) fn plan_nested(
    outer: usize,
    inner: usize,
    budget: usize,
) -> Result<usize, HetschedError> {
    let budget = if budget == 0 {
        default_threads()
    } else {
        budget
    };
    let inner_eff = inner.max(1);
    if inner_eff > 4 * budget {
        return Err(HetschedError::InvalidConfig(format!(
            "sim_threads = {inner_eff} exceeds 4× the machine budget ({budget} threads); \
             cap it at the shard count or the core count"
        )));
    }
    // inner = 1 is the classic engine: plain replication threading has
    // always been allowed to exceed the core count (workers are
    // independent and time-slice cleanly), so only police the product
    // when the run actually nests.
    if inner_eff > 1 && outer > 0 && outer * inner_eff > 4 * budget {
        return Err(HetschedError::InvalidConfig(format!(
            "threads × sim_threads = {outer} × {inner_eff} exceeds 4× the machine budget \
             ({budget} threads); lower one of the knobs (0 = auto)"
        )));
    }
    let outer_eff = if inner_eff > 1 {
        resolve_threads(outer).min((budget / inner_eff).max(1))
    } else {
        resolve_threads(outer)
    };
    Ok(outer_eff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    /// The pool in input order.
    fn parallel_map<T: Sync, R: Send>(
        items: &[T],
        threads: usize,
        f: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        let order: Vec<usize> = (0..items.len()).collect();
        parallel_map_in_order(items, threads, &order, f)
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(&[] as &[i32], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&items, 8, |&x| x * 2);
        for (i, &r) in out.iter().enumerate() {
            assert_eq!(r, 2 * i as u64);
        }
    }

    #[test]
    fn single_thread_inline() {
        let items = [1, 2, 3];
        let out = parallel_map(&items, 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let counter = AtomicU64::new(0);
        let items: Vec<u32> = (0..500).collect();
        let out = parallel_map(&items, 4, |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 500);
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs; dynamic pulling must still
        // produce correct, ordered output.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, 8, |&x| {
            let mut acc = 0u64;
            let spin = if x % 7 == 0 { 200_000 } else { 10 };
            for i in 0..spin {
                acc = acc.wrapping_add(i ^ x);
            }
            (x, acc)
        });
        for (i, &(x, _)) in out.iter().enumerate() {
            assert_eq!(x, i as u64);
        }
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(&[1, 2], 32, |&x| x);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn default_threads_is_positive() {
        let t = default_threads();
        assert!((1..=16).contains(&t));
    }

    #[test]
    fn resolve_threads_zero_is_auto() {
        assert_eq!(resolve_threads(0), default_threads());
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn worker_panic_propagates() {
        parallel_map(&[1, 2, 3, 4], 2, |&x| {
            if x == 3 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn ordered_map_returns_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let order: Vec<usize> = (0..100).rev().collect();
        let out = parallel_map_in_order(&items, 4, &order, |&x| x * 3);
        for (i, &r) in out.iter().enumerate() {
            assert_eq!(r, 3 * i as u64);
        }
    }

    #[test]
    fn ordered_map_single_thread_follows_pull_order() {
        let items: Vec<usize> = (0..8).collect();
        let order = [5, 3, 7, 1, 0, 2, 4, 6];
        let log = Mutex::new(Vec::new());
        let out = parallel_map_in_order(&items, 1, &order, |&x| {
            log.lock().unwrap().push(x);
            x
        });
        assert_eq!(out, items);
        assert_eq!(*log.lock().unwrap(), order.to_vec());
    }

    #[test]
    fn ordered_map_with_many_threads() {
        let items: Vec<u64> = (0..257).collect();
        let order: Vec<usize> = (0..257).rev().collect();
        let out = parallel_map_in_order(&items, 16, &order, |&x| x + 1);
        assert_eq!(out.len(), 257);
        for (i, &r) in out.iter().enumerate() {
            assert_eq!(r, i as u64 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "order must be a permutation")]
    fn ordered_map_rejects_wrong_length() {
        parallel_map_in_order(&[1, 2, 3], 2, &[0, 1], |&x| x);
    }

    #[test]
    #[should_panic(expected = "order must be a permutation")]
    fn ordered_map_rejects_duplicates() {
        parallel_map_in_order(&[1, 2, 3], 2, &[0, 1, 1], |&x| x);
    }

    #[test]
    fn nested_plan_caps_the_product() {
        // inner = 1: the classic path, outer untouched.
        assert_eq!(plan_nested(6, 1, 8).unwrap(), 6);
        assert_eq!(plan_nested(6, 0, 8).unwrap(), 6);
        // inner > 1: outer scaled so outer × inner ≤ budget.
        assert_eq!(plan_nested(8, 4, 8).unwrap(), 2);
        assert_eq!(plan_nested(0, 8, 8).unwrap(), 1);
        // Auto outer resolves before capping.
        let auto = plan_nested(0, 2, 8).unwrap();
        assert!((1..=4).contains(&auto));
    }

    #[test]
    fn nested_plan_rejects_absurd_combinations() {
        assert!(plan_nested(1, 64, 4).is_err());
        assert!(plan_nested(16, 4, 4).is_err());
        match plan_nested(16, 4, 4) {
            Err(HetschedError::InvalidConfig(msg)) => assert!(msg.contains("16 × 4"), "got: {msg}"),
            other => panic!("expected an InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn nested_plan_always_returns_at_least_one_worker() {
        assert_eq!(plan_nested(1, 16, 8).unwrap(), 1);
    }

    #[test]
    fn results_with_drop_types_are_not_leaked() {
        // Strings exercise the Option drop path of unclaimed/claimed slots.
        let items: Vec<u32> = (0..64).collect();
        let out = parallel_map(&items, 4, |&x| format!("v{x}"));
        assert_eq!(out[63], "v63");
    }
}
