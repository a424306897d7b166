//! Deterministic fault injection for recovery-path testing.
//!
//! The analysis pipeline carries a fault-tolerance layer (numeric
//! fallback chain, per-victim isolation, panic-safe scheduling) whose
//! error paths never run on healthy inputs. This module lets a test
//! *force* those paths deterministically: each named
//! [`site`](self#sites) in the pipeline asks [`should_fire`] whether to
//! misbehave, and an armed plan answers `true` at seed-reproducible
//! opportunity indices.
//!
//! # Sites
//!
//! * [`PIVOT_LOSS`] — a sparse LU factor/refactor reports a singular
//!   pivot instead of eliminating.
//! * [`NAN_SOLVE`] — a transient sweep's state vector is poisoned with
//!   NaN after the initial-condition solve.
//! * [`WORKER_PANIC`] — a crosstalk cone task panics at entry.
//!
//! # Determinism and overhead
//!
//! Disarmed (the default, and always the production state) every
//! [`should_fire`] call is one relaxed atomic load and an early return —
//! the same contract as the disabled [`Recorder`](crate::Recorder) —
//! so zero-fault runs are bit-identical to builds without the hooks.
//! Armed, each site draws its firing opportunities from an in-tree
//! xorshift PRNG seeded from `(seed, site)`, so the same spec + seed
//! fires at the same sites on every run regardless of thread count
//! (opportunity counters are global atomics; with several workers the
//! *winner* of a racy opportunity index may differ, but the number of
//! fired faults does not, and the recovery machinery under test is
//! required to restore parity either way).
//!
//! The plan is process-global: arm/disarm around exactly one analysis,
//! and serialize tests that use it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Sparse-LU factor/refactor reports a lost pivot.
pub const PIVOT_LOSS: usize = 0;
/// Transient sweep state vector is poisoned with NaN.
pub const NAN_SOLVE: usize = 1;
/// A crosstalk cone worker task panics.
pub const WORKER_PANIC: usize = 2;

const SITE_COUNT: usize = 3;
const SITE_NAMES: [&str; SITE_COUNT] = ["pivot-loss", "nan-solve", "worker-panic"];

/// Fast path: is any fault plan armed at all?
static ARMED: AtomicBool = AtomicBool::new(false);

/// Per-site opportunity counters (how many times the site has been
/// consulted since arming) — global atomics so firing indices are
/// meaningful across worker threads.
static OPPORTUNITIES: [AtomicU64; SITE_COUNT] =
    [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

/// Per-site fired counters.
static FIRED: [AtomicU64; SITE_COUNT] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

/// The armed plan: for each site, the sorted opportunity indices at
/// which it fires (empty = site not armed).
static PLAN: Mutex<Option<[Vec<u64>; SITE_COUNT]>> = Mutex::new(None);

/// Minimal xorshift64* PRNG — deterministic, zero-dependency, good
/// enough for fault placement and input mutation. Public so robustness
/// tests (parser fuzzing, mutation smoke) reuse the same generator.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the generator; a zero seed is remapped to a fixed odd
    /// constant (xorshift has a fixed point at 0).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform-ish value in `[0, bound)`; `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

fn plan_guard() -> std::sync::MutexGuard<'static, Option<[Vec<u64>; SITE_COUNT]>> {
    // The plan is only read/replaced under the lock, never left
    // half-written, so a poisoned guard is safe to take over.
    PLAN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn site_index(name: &str) -> Option<usize> {
    SITE_NAMES.iter().position(|s| *s == name)
}

/// Parses a fault spec: comma-separated site names, each optionally
/// `name:count`. Returns the per-site fire counts.
fn parse_spec(spec: &str) -> Result<[u64; SITE_COUNT], String> {
    let mut counts = [0u64; SITE_COUNT];
    let mut any = false;
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, count) = match part.split_once(':') {
            Some((n, c)) => {
                let count: u64 = c
                    .parse()
                    .map_err(|_| format!("bad fault count {c:?} in {part:?}"))?;
                (n, count)
            }
            None => (part, 1),
        };
        let idx = site_index(name).ok_or_else(|| {
            format!(
                "unknown fault site {name:?} (expected one of {})",
                SITE_NAMES.join(", ")
            )
        })?;
        if count == 0 {
            return Err(format!("fault count for {name:?} must be >= 1"));
        }
        counts[idx] += count;
        any = true;
    }
    if !any {
        return Err("empty fault spec".to_string());
    }
    Ok(counts)
}

/// Arms a fault plan. `spec` is comma-separated site names (optionally
/// `name:count` to fire more than once); `seed` makes the firing
/// opportunity indices reproducible. Replaces any previous plan and
/// resets all counters.
pub fn arm(spec: &str, seed: u64) -> Result<(), String> {
    let counts = parse_spec(spec)?;
    let mut plan: [Vec<u64>; SITE_COUNT] = Default::default();
    for (site, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        // Independent stream per (seed, site); targets are cumulative
        // small offsets so every site fires within its first few
        // consultations — pipelines with only a handful of opportunities
        // (tiny designs) still reach them.
        let mut rng = XorShift64::new(seed ^ (0xA5A5_0000 + site as u64));
        let mut next = rng.next_below(4);
        for _ in 0..count {
            plan[site].push(next);
            next += 1 + rng.next_below(4);
        }
    }
    let mut guard = plan_guard();
    for site in 0..SITE_COUNT {
        OPPORTUNITIES[site].store(0, Ordering::Relaxed);
        FIRED[site].store(0, Ordering::Relaxed);
    }
    *guard = Some(plan);
    ARMED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Disarms fault injection. Counters from the last armed run stay
/// readable via [`fired_counts`] until the next [`arm`].
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
    *plan_guard() = None;
}

/// Whether a plan is currently armed (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Consulted by an instrumented pipeline site: returns `true` when the
/// armed plan schedules a fault at this site's current opportunity
/// index. Disarmed, this is one relaxed atomic load.
#[inline]
pub fn should_fire(site: usize) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    should_fire_slow(site)
}

#[cold]
fn should_fire_slow(site: usize) -> bool {
    let index = OPPORTUNITIES[site].fetch_add(1, Ordering::Relaxed);
    let guard = plan_guard();
    let Some(plan) = guard.as_ref() else {
        return false;
    };
    if plan[site].contains(&index) {
        FIRED[site].fetch_add(1, Ordering::Relaxed);
        true
    } else {
        false
    }
}

/// Per-site `(name, fired)` counts for the current/most recent plan.
pub fn fired_counts() -> Vec<(&'static str, u64)> {
    SITE_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| (*name, FIRED[i].load(Ordering::Relaxed)))
        .collect()
}

/// Total faults fired by the current/most recent plan.
pub fn total_fired() -> u64 {
    FIRED.iter().map(|f| f.load(Ordering::Relaxed)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests touching the process-global plan.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            let v = a.next_u64();
            assert_eq!(v, b.next_u64());
            assert_ne!(v, 0);
        }
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn disarmed_sites_never_fire() {
        let _g = guard();
        disarm();
        assert!(!enabled());
        for site in 0..SITE_COUNT {
            for _ in 0..32 {
                assert!(!should_fire(site));
            }
        }
    }

    #[test]
    fn armed_plan_fires_exactly_the_requested_counts() {
        let _g = guard();
        arm("pivot-loss,nan-solve:2", 7).unwrap();
        let mut fired = [0u64; SITE_COUNT];
        for site in 0..SITE_COUNT {
            for _ in 0..64 {
                if should_fire(site) {
                    fired[site] += 1;
                }
            }
        }
        assert_eq!(fired[PIVOT_LOSS], 1);
        assert_eq!(fired[NAN_SOLVE], 2);
        assert_eq!(fired[WORKER_PANIC], 0);
        assert_eq!(total_fired(), 3);
        let counts = fired_counts();
        assert_eq!(counts[PIVOT_LOSS], ("pivot-loss", 1));
        assert_eq!(counts[NAN_SOLVE], ("nan-solve", 2));
        disarm();
    }

    #[test]
    fn same_seed_fires_at_same_opportunity_indices() {
        let _g = guard();
        let run = |seed: u64| {
            arm("worker-panic:3", seed).unwrap();
            let mut indices = Vec::new();
            for i in 0..64 {
                if should_fire(WORKER_PANIC) {
                    indices.push(i);
                }
            }
            disarm();
            indices
        };
        let a = run(11);
        let b = run(11);
        let c = run(12);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        // First target lands within the first four opportunities so tiny
        // pipelines still reach it.
        assert!(a[0] < 4);
        assert_ne!(a, c, "different seeds should move the firing points");
    }

    #[test]
    fn spec_parsing_rejects_garbage() {
        assert!(parse_spec("pivot-loss").is_ok());
        assert!(parse_spec("pivot-loss, worker-panic:4").is_ok());
        assert!(parse_spec("").is_err());
        assert!(parse_spec("pivot-loss:0").is_err());
        assert!(parse_spec("pivot-loss:x").is_err());
        assert!(parse_spec("meltdown").is_err());
    }
}
