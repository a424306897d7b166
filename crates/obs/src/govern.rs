//! Resource-governance primitives: cooperative deadlines.
//!
//! The STA pipeline's window fixed point has no natural wall-clock bound;
//! a [`Deadline`] gives it one without preemption. Work units (cone tasks,
//! fixed-point iterations) poll [`Deadline::expired`] at their boundaries
//! and skip remaining work once the budget is gone — in-flight units
//! always finish, so results stay deterministic per unit and the caller
//! can mark exactly which units went stale.
//!
//! Like the [`Recorder`](crate::Recorder), the clock is swappable: the
//! default is monotonic ([`std::time::Instant`]), and [`FakeClock`]
//! substitutes a deterministic counter that advances by a fixed step per
//! reading, so tests can force "expiry after exactly N polls" without
//! timing races.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A deterministic clock for deadline tests: every reading advances an
/// atomic counter by a fixed step (mirroring `Recorder::use_fake_clock`),
/// and [`FakeClock::advance`] jumps it manually.
#[derive(Debug)]
pub struct FakeClock {
    now_ns: AtomicU64,
    step_ns: AtomicU64,
}

impl FakeClock {
    /// A fake clock starting at 0 that advances `step_ns` per reading
    /// (`step_ns = 0` gives a manual clock driven only by [`advance`]).
    ///
    /// [`advance`]: FakeClock::advance
    pub fn new(step_ns: u64) -> Arc<Self> {
        Arc::new(Self {
            now_ns: AtomicU64::new(0),
            step_ns: AtomicU64::new(step_ns),
        })
    }

    /// Reads the clock, advancing it by the per-reading step.
    pub fn now_ns(&self) -> u64 {
        let step = self.step_ns.load(Ordering::Relaxed);
        self.now_ns.fetch_add(step, Ordering::Relaxed)
    }

    /// Manually advances the clock by `ns`.
    pub fn advance(&self, ns: u64) {
        self.now_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

#[derive(Debug, Clone)]
enum ClockSource {
    /// Real monotonic time measured from `start`.
    Monotonic { start: Instant },
    /// Deterministic test clock (nanoseconds since its construction).
    Fake(Arc<FakeClock>),
}

/// A wall-clock budget polled cooperatively at work-unit boundaries.
///
/// Cloning shares the underlying clock, so one deadline handed to N
/// workers expires for all of them at once.
#[derive(Debug, Clone)]
pub struct Deadline {
    clock: ClockSource,
    budget_ns: u64,
}

impl Deadline {
    /// A deadline `budget` from now on the real monotonic clock.
    pub fn within(budget: Duration) -> Self {
        let budget_ns = u64::try_from(budget.as_nanos()).unwrap_or(u64::MAX);
        Self {
            clock: ClockSource::Monotonic {
                start: Instant::now(),
            },
            budget_ns,
        }
    }

    /// A deadline `budget_ns` nanoseconds out on a deterministic fake
    /// clock: each [`expired`](Deadline::expired) poll reads (and thereby
    /// advances) `clock`, so expiry lands after an exact number of polls.
    pub fn on_fake(clock: Arc<FakeClock>, budget_ns: u64) -> Self {
        Self {
            clock: ClockSource::Fake(clock),
            budget_ns,
        }
    }

    /// Whether the budget is spent.
    ///
    /// On a fake clock this reading advances the clock by its step.
    pub fn expired(&self) -> bool {
        let elapsed_ns = match &self.clock {
            ClockSource::Monotonic { start } => {
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            ClockSource::Fake(clock) => clock.now_ns(),
        };
        elapsed_ns >= self.budget_ns
    }
}

impl PartialEq for Deadline {
    /// Identity-flavoured equality (budget, clock source): lets
    /// containers like `SiOptions` keep deriving `PartialEq` without
    /// pretending two independently started monotonic deadlines are
    /// interchangeable.
    fn eq(&self, other: &Self) -> bool {
        if self.budget_ns != other.budget_ns {
            return false;
        }
        match (&self.clock, &other.clock) {
            (ClockSource::Monotonic { start: a }, ClockSource::Monotonic { start: b }) => a == b,
            (ClockSource::Fake(a), ClockSource::Fake(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fake_clock_expires_after_exact_poll_count() {
        let clock = FakeClock::new(10);
        let deadline = Deadline::on_fake(clock, 25);
        // Readings return 0, 10, 20, 30, ... so the third poll crosses 25.
        assert!(!deadline.expired());
        assert!(!deadline.expired());
        assert!(!deadline.expired());
        assert!(deadline.expired());
        assert!(deadline.expired());
    }

    #[test]
    fn manual_fake_clock_only_moves_on_advance() {
        let clock = FakeClock::new(0);
        let deadline = Deadline::on_fake(Arc::clone(&clock), 100);
        for _ in 0..64 {
            assert!(!deadline.expired());
        }
        clock.advance(100);
        assert!(deadline.expired());
    }

    #[test]
    fn clones_share_the_clock() {
        let clock = FakeClock::new(0);
        let a = Deadline::on_fake(Arc::clone(&clock), 50);
        let b = a.clone();
        clock.advance(50);
        assert!(a.expired());
        assert!(b.expired());
        assert_eq!(a, b);
    }

    #[test]
    fn monotonic_zero_budget_is_already_expired() {
        let deadline = Deadline::within(Duration::ZERO);
        assert!(deadline.expired());
    }
}
