//! A dependency-free scoped worker pool with deterministic merge.
//!
//! The timing sweeps fan independent work items (whole fanout cones)
//! across `std::thread::scope` workers.
//! Workers pull indices from a shared atomic counter — dynamic load
//! balancing without any work-stealing machinery — and tag every result
//! with its input index, so the merged output vector is ordered exactly
//! like the input regardless of thread count or scheduling. Combined with
//! the fact that each item's computation performs the identical sequence
//! of floating-point operations on any thread, N-thread results are
//! bit-identical to 1-thread results.
//!
//! Every run has one per-item loop: pull an index, poll the deadline, run
//! the item under `catch_unwind`. When one worker suffices (one thread,
//! or at most one item) the coordinator runs that loop itself and spawns
//! nothing; otherwise each spawned worker runs it.
//!
//! # Panic containment
//!
//! A panicking item must not abort the whole analysis, at any worker
//! count: the loop catches it, and any item whose result went missing
//! (its call panicked, or its worker died) is retried **once, on the
//! coordinator** after the loop. The retry runs the identical computation
//! on the identical input, so a transient panic (an injected fault, a
//! poisoned lock another thread has since healed) recovers
//! bit-identically, while a deterministic panic reproduces on the
//! coordinator with its original message and full backtrace.
//!
//! # Cooperative deadlines
//!
//! [`par_map_govern`] additionally polls an [`nsta_obs::Deadline`] once
//! per pulled item: once it reads expired, the loop stops (in-flight items
//! always finish) and every un-started item's slot comes back `None` so
//! the caller can substitute stale fallback data and record exactly which
//! items were skipped. A missing slot is classified after the loop, with
//! one more poll made only when a slot is missing: deadline expired →
//! skipped (left `None`); deadline still live → the item panicked, so it
//! is retried on the coordinator exactly like [`par_map`] would.

use nsta_obs::Deadline;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Worker threads actually spawned for `items` work items: never more
/// than there are items, so small batches do not pay the spawn cost of
/// idle threads (a worker that never pops an index still costs an OS
/// thread creation).
pub(crate) fn effective_workers(threads: usize, items: usize) -> usize {
    threads.min(items)
}

/// Maps `f` over `items`, using up to `threads` scoped worker threads,
/// returning results in input order.
///
/// `threads <= 1` (or a single item) runs on the caller's thread without
/// spawning; the output is identical either way.
pub(crate) fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // Without a deadline no slot can be skipped: every missing result was
    // either recovered by the coordinator's retry or propagated its panic
    // there.
    par_map_govern(threads, items, None, f)
        .0
        .into_iter()
        .map(|s| s.unwrap_or_else(|| panic!("scheduler bug: slot neither filled nor retried")))
        .collect()
}

/// Deadline-governed [`par_map`]: item `i`'s slot is `None` iff the
/// deadline expired before the pool could start (or retry) it. With
/// `deadline: None` every slot is `Some` (panic recovery still applies).
/// Also reports which item indices had to be retried on the coordinator
/// after a panic (empty on every healthy run); the crosstalk cone
/// scheduler uses them to record degrade events.
pub(crate) fn par_map_govern<T, R, F>(
    threads: usize,
    items: &[T],
    deadline: Option<&Deadline>,
    f: F,
) -> (Vec<Option<R>>, Vec<usize>)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = effective_workers(threads, items.len());
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    // Observability: one span per worker lifetime with busy/idle args.
    // `observe` is sampled once per pool, not once per item.
    let observe = nsta_obs::recorder().is_enabled();
    let mut pool_span = nsta_obs::span!("par.pool");
    pool_span.set_arg("workers", workers as f64);
    pool_span.set_arg("items", items.len() as f64);
    // The one per-item loop, run by the coordinator when one worker
    // suffices and by each spawned worker otherwise.
    let work = || {
        let mut worker_span = nsta_obs::span!("par.worker");
        let spawned = observe.then(Instant::now);
        let mut busy_ns = 0u128;
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            // Cooperative cancellation, polled once per pulled item: an
            // expired deadline leaves this item and every later one
            // unstarted; whatever already started has finished.
            if deadline.is_some_and(|d| d.expired()) {
                break;
            }
            // Contain a panicking item: drop the payload (the panic hook
            // already reported it) and move on; the missing-slot pass
            // below retries the index on the coordinator.
            let t0 = observe.then(Instant::now);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| f(item)));
            if let Some(t0) = t0 {
                busy_ns += t0.elapsed().as_nanos();
            }
            if let Ok(r) = caught {
                local.push((i, r));
            }
        }
        if let Some(spawned) = spawned {
            let lifetime_ns = spawned.elapsed().as_nanos();
            worker_span.set_arg("items", local.len() as f64);
            worker_span.set_arg("busy_us", busy_ns as f64 / 1_000.0);
            // Time the worker spent outside `f`: queue pulls, allocation,
            // and (dominantly) waiting to be scheduled while other
            // workers drained the queue.
            worker_span.set_arg("idle_us", lifetime_ns.saturating_sub(busy_ns) as f64 / 1e3);
            nsta_obs::count!("par.items_processed", local.len());
        }
        local
    };
    let locals = if workers <= 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            // A worker that died outside the per-item catch (it cannot,
            // today, but defend anyway) just loses its results; the
            // missing-slot pass below recovers them.
            handles.into_iter().filter_map(|h| h.join().ok()).collect()
        })
    };
    for (i, r) in locals.into_iter().flatten() {
        slots[i] = Some(r);
    }
    // Classify-and-recover pass, in input order. A missing slot means
    // either "its item panicked" or "the deadline expired before the item
    // started" — expiry is monotone, so one poll, made only when a slot
    // is missing, decides: expired → every missing slot is (or may as
    // well be) a skip, and retrying would only burn more over-budget
    // time; still live → nothing was skipped, so the miss was a panic and
    // the coordinator's retry recomputes it bit-identically (a persistent
    // panic propagates here with its original message).
    let mut retried = Vec::new();
    let expired = slots.iter().any(Option::is_none) && deadline.is_some_and(|d| d.expired());
    let mut skipped = 0usize;
    for (i, slot) in slots.iter_mut().enumerate() {
        if slot.is_some() {
            continue;
        }
        if expired {
            skipped += 1;
        } else {
            *slot = Some(f(&items[i]));
            retried.push(i);
        }
    }
    if !retried.is_empty() {
        nsta_obs::count!("par.items_retried", retried.len());
        nsta_obs::count!("par.items_processed", retried.len());
    }
    if skipped > 0 {
        nsta_obs::count!("par.items_deadline_skipped", skipped);
    }
    (slots, retried)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_thread_count() {
        let _guard = crate::obs_test_guard();
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|i| i * i).collect();
        for threads in [0, 1, 2, 3, 8, 200] {
            assert_eq!(par_map(threads, &items, |&i| i * i), expect);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _guard = crate::obs_test_guard();
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn worker_count_clamps_to_item_count() {
        // Tiny batches must not spawn idle threads.
        assert_eq!(effective_workers(8, 3), 3);
        assert_eq!(effective_workers(8, 0), 0);
        assert_eq!(effective_workers(1, 100), 1);
        assert_eq!(effective_workers(0, 100), 0);
        assert_eq!(effective_workers(4, 4), 4);
    }

    #[test]
    fn fewer_items_than_threads_is_correct_and_ordered() {
        let _guard = crate::obs_test_guard();
        // items < threads: the clamp leaves one worker per item; results
        // must still come back complete and in input order.
        let items = [10usize, 20, 30];
        assert_eq!(par_map(64, &items, |&i| i + 1), vec![11, 21, 31]);
        // Two items, many threads — exercises the 2-worker path.
        let pair = [1u64, 2];
        assert_eq!(par_map(200, &pair, |&i| i * 3), vec![3, 6]);
    }

    #[test]
    fn global_counters_are_exact_under_the_worker_pool() {
        // Four workers hammering one named counter must lose no update:
        // the per-counter cell is atomic, the registry lock only resolves
        // the name.
        let _guard = crate::obs_test_guard();
        let rec = nsta_obs::recorder();
        rec.reset();
        rec.enable();
        let items: Vec<u64> = (0..10_000).collect();
        let out = par_map(4, &items, |&i| {
            nsta_obs::count!("par.test.bumps");
            i
        });
        rec.disable();
        let bumps = rec.metrics().get("par.test.bumps");
        let processed = rec.metrics().get("par.items_processed");
        rec.reset();
        assert_eq!(out.len(), items.len());
        assert_eq!(bumps, Some(10_000.0));
        // The pool's own accounting covers every item exactly once too.
        assert_eq!(processed, Some(10_000.0));
    }

    #[test]
    fn results_can_be_fallible() {
        let _guard = crate::obs_test_guard();
        let items = [1i32, -2, 3];
        let out: Vec<Result<i32, String>> = par_map(2, &items, |&i| {
            if i < 0 {
                Err(format!("bad {i}"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(out[0], Ok(1));
        assert!(out[1].is_err());
        assert_eq!(out[2], Ok(3));
    }

    #[test]
    fn panicked_item_is_retried_inline_and_reported() {
        let _guard = crate::obs_test_guard();
        use std::sync::atomic::AtomicBool;
        // Item 5 panics exactly once (in the per-item loop, whether the
        // coordinator or a spawned worker runs it); the coordinator's
        // retry then succeeds, so the output is complete and ordered, and
        // the retry is attributed to the right index.
        let items: Vec<usize> = (0..32).collect();
        for threads in [1, 4] {
            let tripped = AtomicBool::new(false);
            let (out, retried) = par_map_govern(threads, &items, None, |&i| {
                if i == 5 && !tripped.swap(true, Ordering::SeqCst) {
                    panic!("transient worker failure");
                }
                i * 2
            });
            let expect: Vec<Option<usize>> = items.iter().map(|i| Some(i * 2)).collect();
            assert_eq!(out, expect, "{threads} threads");
            assert_eq!(retried, vec![5], "{threads} threads");
        }
    }

    #[test]
    fn deadline_expiry_skips_remaining_items_inline_deterministically() {
        let _guard = crate::obs_test_guard();
        use nsta_obs::FakeClock;
        use std::sync::Arc;
        // Manual fake clock (step 0): the third item's work trips the
        // deadline, so items 0..=2 complete and everything after them is
        // skipped — same-thread, fully deterministic.
        let clock = FakeClock::new(0);
        let deadline = Deadline::on_fake(Arc::clone(&clock), 100);
        let items: Vec<usize> = (0..6).collect();
        let started = AtomicUsize::new(0);
        let (out, retried) = par_map_govern(1, &items, Some(&deadline), |&i| {
            if started.fetch_add(1, Ordering::SeqCst) == 2 {
                clock.advance(100);
            }
            i * 10
        });
        assert_eq!(
            out,
            vec![Some(0), Some(10), Some(20), None, None, None],
            "in-flight items finish, un-started items are skipped"
        );
        assert!(retried.is_empty());
    }

    #[test]
    fn pre_expired_deadline_skips_every_item_without_calling_f() {
        let _guard = crate::obs_test_guard();
        use nsta_obs::FakeClock;
        let deadline = Deadline::on_fake(FakeClock::new(0), 0);
        let items: Vec<usize> = (0..32).collect();
        let calls = AtomicUsize::new(0);
        let (out, retried) = par_map_govern(4, &items, Some(&deadline), |&i| {
            calls.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert!(out.iter().all(|s| s.is_none()));
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        assert!(retried.is_empty());
    }

    #[test]
    fn no_deadline_behaves_exactly_like_recover() {
        let _guard = crate::obs_test_guard();
        let items: Vec<usize> = (0..17).collect();
        let (out, retried) = par_map_govern(3, &items, None, |&i| i + 1);
        let expect: Vec<Option<usize>> = items.iter().map(|i| Some(i + 1)).collect();
        assert_eq!(out, expect);
        assert!(retried.is_empty());
    }

    #[test]
    fn persistent_panic_propagates_from_the_retry() {
        let _guard = crate::obs_test_guard();
        // A deterministic panic must not be swallowed: the coordinator's
        // retry reproduces it.
        let items: Vec<usize> = (0..8).collect();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(4, &items, |&i| {
                if i == 3 {
                    panic!("deterministic failure");
                }
                i
            })
        }));
        assert!(caught.is_err());
    }
}
