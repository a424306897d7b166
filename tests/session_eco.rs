//! ECO-session robustness fuzz: randomized edit/rollback sequences from
//! the in-tree PRNG with interleaved injected faults. Every committed
//! state must match a fresh batch analysis within 1e-6 ps (the shadow
//! audit's default tolerance), every rolled-back state must be
//! bit-identical to the pre-edit snapshot, and journal replay must
//! reproduce the committed state bit-for-bit — at 1 and 4 analysis
//! threads.

// Integration tests panic on failure by design; the workspace's
// library-only unwrap/expect denies do not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use noisy_sta::liberty::characterize::{inverter_family, Options};
use noisy_sta::liberty::Library;
use noisy_sta::obs::fault::{self, XorShift64};
use noisy_sta::parasitics::BindOptions;
use noisy_sta::session::{Edit, EditOutcome, RollbackCause, SessionOptions, TimingSession};
use noisy_sta::spice::Process;
use noisy_sta::sta::{
    verilog, BoundaryConditions, Constraints, Deadline, FakeClock, SiOptions, Sta,
};
use nsta_bench::busgen;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Coupled bus groups in the fuzz workload (busgen: 3 cones per group,
/// with group g's far aggressor behind a 2g+1 inverter chain).
const GROUPS: usize = 4;
/// RC segments per extracted wire.
const SEGMENTS: usize = 3;
/// Edits per fuzz sequence.
const EDITS_PER_SEQUENCE: usize = 8;

/// The injection plan is process-global, so every test in this file must
/// hold this lock — including the fault-free ones, which would otherwise
/// race a neighbour's armed plan. Poison recovery keeps one failing test
/// from cascading into spurious lock panics.
fn fault_guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

fn lib() -> &'static Library {
    static LIB: OnceLock<Library> = OnceLock::new();
    LIB.get_or_init(|| {
        inverter_family(
            &Process::c013(),
            &[("INVX1", 1.0), ("INVX4", 4.0)],
            &Options::fast_test(),
        )
        .expect("characterization")
    })
}

fn open_session(threads: usize) -> TimingSession {
    let design = verilog::parse_design(&busgen::netlist(GROUPS)).expect("netlist");
    let sta = Sta::new(design, lib().clone()).expect("sta");
    let options = SessionOptions {
        si: SiOptions {
            threads,
            ..SiOptions::default()
        },
        // Audits run explicitly after each commit (below), never inside
        // `apply`, so an armed fault plan can only fire in the edit's
        // own re-solve — the batch reference stays fault-free.
        audit_every_n: None,
    };
    TimingSession::open(
        sta,
        busgen::spef(GROUPS, SEGMENTS),
        BindOptions::default(),
        BoundaryConditions::uniform(&Constraints::default()),
        options,
    )
    .expect("session open")
}

/// The same deterministic edit mix spefbus --eco drives: output-load
/// swaps, driver-resistance swaps, and re-extractions of the victim
/// wire with scaled caps (the mesh-changing ECO).
fn gen_edit(rng: &mut XorShift64, session: &TimingSession, i: usize) -> Edit {
    let g = rng.next_below(GROUPS as u64);
    match i % 3 {
        0 => Edit::SetLoad {
            port: format!("y{g}"),
            farads: (5 + rng.next_below(50)) as f64 * 1e-15,
        },
        1 => Edit::SetDriveResistance {
            net: format!("v{g}"),
            ohms: (120 + rng.next_below(240)) as f64,
        },
        _ => {
            let mut dnet = session
                .spef()
                .net(&format!("v{g}"))
                .expect("victim D_NET exists")
                .clone();
            let scale = 0.85 + 0.3 * (rng.next_below(1000) as f64 / 1000.0);
            for cap in &mut dnet.caps {
                cap.value *= scale;
            }
            Edit::ReannotateNet { dnet }
        }
    }
}

/// How one edit in a fuzz sequence is perturbed.
#[derive(Clone, Copy, PartialEq)]
enum Perturb {
    /// No fault plan, no deadline: the edit must commit.
    Clean,
    /// An already-expired fake deadline: the edit must roll back with
    /// [`RollbackCause::DeadlineExpired`] and the session must stay
    /// serviceable.
    ExpiredDeadline,
    /// A one-panic worker-panic plan: the cone pool retries the panicked
    /// task, so the edit still commits with bit-identical numerics (or the
    /// plan never reaches a firing opportunity — also a clean commit). One
    /// panic, not more: an edit's pass may schedule a single cone, and a
    /// second firing could land on that cone's own retry, which the pool
    /// propagates by design.
    WorkerPanic,
    /// A numeric-failure plan (poisoned solve / lost pivot). Three legal
    /// outcomes: the plan doesn't fire (clean commit); the fallback
    /// chain recovers on dense LU (the commit carries degraded numerics
    /// a fresh batch won't reproduce); or the chain exhausts and the
    /// edit rolls back.
    Numeric(&'static str),
}

/// The per-edit perturbation schedule: deterministic rollbacks and
/// bit-identical recoveries early, the possibly-degrading numeric fault
/// only on the final edit so every earlier committed state can be
/// audited against a fresh batch at full tolerance. The cone pool
/// contains a worker panic at any thread count (the coordinator retries
/// the cone), so the panic is scheduled on every run.
fn perturb_for(i: usize, seed: u64) -> Perturb {
    match i {
        2 | 5 => Perturb::ExpiredDeadline,
        3 => Perturb::WorkerPanic,
        _ if i + 1 == EDITS_PER_SEQUENCE => Perturb::Numeric(if seed.is_multiple_of(2) {
            "nan-solve:2"
        } else {
            "pivot-loss:2"
        }),
        _ => Perturb::Clean,
    }
}

/// Drives one PRNG edit sequence through a session with interleaved
/// injected faults and forced deadlines. A commit must advance the
/// epoch/journal and (until a degraded recovery lands) match a fresh
/// batch analysis within the audit tolerance; a rollback may only happen
/// under a perturbation and must leave the session bit-identical to the
/// pre-edit snapshot. Returns the session, whether a numeric fault fired
/// and recovered (the caller must then compare replay by tolerance
/// instead of bit-identity), and whether the worker panic fired (and was
/// therefore contained: its edit still committed).
fn fuzz_sequence(seed: u64, threads: usize, inject: bool) -> (TimingSession, bool, bool) {
    fault::disarm();
    let mut session = open_session(threads);
    let mut rng = XorShift64::new(seed);
    let mut rollbacks = 0u32;
    let mut degraded = false;
    let mut panicked = false;
    for i in 0..EDITS_PER_SEQUENCE {
        let edit = gen_edit(&mut rng, &session, i);
        let before = session.report().clone();
        let epoch_before = session.epoch();
        let journal_before = session.journal().len();
        let perturb = if inject {
            perturb_for(i, seed)
        } else {
            Perturb::Clean
        };
        match perturb {
            Perturb::Clean => {}
            Perturb::ExpiredDeadline => {
                session.set_edit_deadline(Some(Deadline::on_fake(FakeClock::new(0), 0)));
            }
            Perturb::WorkerPanic => fault::arm("worker-panic", seed ^ i as u64).expect("arm"),
            Perturb::Numeric(site) => fault::arm(site, seed ^ i as u64).expect("arm"),
        }
        let outcome = session.apply(edit);
        let fired = fault::enabled() && fault::total_fired() > 0;
        fault::disarm();
        session.set_edit_deadline(None);
        match outcome {
            EditOutcome::Committed(info) => {
                assert!(
                    perturb != Perturb::ExpiredDeadline,
                    "edit {i}: committed under an expired deadline"
                );
                assert_eq!(session.epoch(), epoch_before + 1, "edit {i}: epoch");
                assert_eq!(
                    session.journal().len(),
                    journal_before + 1,
                    "edit {i}: journal"
                );
                assert!(
                    info.dirty_nets > 0,
                    "edit {i}: committed with no dirty nets"
                );
                degraded |= matches!(perturb, Perturb::Numeric(_)) && fired;
                panicked |= perturb == Perturb::WorkerPanic && fired;
                // A degraded recovery legitimately diverges from a fresh
                // batch (dense-fallback numerics); the shadow audit's job
                // is to flag exactly that, so it only gates clean states.
                if !degraded {
                    let audit = session
                        .audit_now()
                        .unwrap_or_else(|f| panic!("edit {i} (seed {seed:#x}): {f}"));
                    assert!(
                        audit.max_divergence <= 1e-18,
                        "edit {i}: committed state diverged {:.3e} s from a fresh batch",
                        audit.max_divergence
                    );
                    assert!(
                        audit.untouched_identical,
                        "edit {i}: never-dirtied nets drifted"
                    );
                }
            }
            EditOutcome::RolledBack { cause } => {
                match perturb {
                    Perturb::ExpiredDeadline => assert_eq!(
                        cause,
                        RollbackCause::DeadlineExpired,
                        "edit {i}: wrong rollback cause"
                    ),
                    Perturb::Numeric(_) => {
                        assert!(fired, "edit {i}: rolled back but no fault fired")
                    }
                    _ => panic!("edit {i} (seed {seed:#x}) rolled back unperturbed: {cause:?}"),
                }
                assert_eq!(
                    session.report(),
                    &before,
                    "edit {i}: rolled-back state is not bit-identical to the snapshot"
                );
                assert_eq!(session.epoch(), epoch_before, "edit {i}: rollback epoch");
                assert_eq!(
                    session.journal().len(),
                    journal_before,
                    "edit {i}: rollback journal"
                );
                rollbacks += 1;
            }
            other => panic!("edit {i} (seed {seed:#x}): unexpected outcome {other:?}"),
        }
    }
    if inject {
        // The two expired-deadline edits always roll back.
        assert!(rollbacks >= 2, "forced-deadline rollbacks missing");
    }
    assert_eq!(session.rollbacks(), u64::from(rollbacks));
    assert!(session.quarantined().is_none(), "session quarantined");
    (session, degraded, panicked)
}

/// Replay rebuilds the committed state from the seed inputs plus the
/// journal. Fault-free it is bit-identical; after a degraded recovery
/// the retained state carries dense-fallback numerics the clean replay
/// cannot reproduce exactly, so it only has to land within the
/// dense-parity envelope (~0.1 fs).
fn assert_replay_matches(session: &TimingSession, seed: u64, degraded: bool) {
    let replayed = session.replay().expect("replay");
    assert_eq!(replayed.epoch(), session.epoch());
    assert_eq!(replayed.journal(), session.journal());
    if !degraded {
        assert_eq!(
            replayed.report(),
            session.report(),
            "replay is not bit-identical (seed {seed:#x})"
        );
        return;
    }
    for (a, b) in session.report().nets().iter().zip(replayed.report().nets()) {
        assert_eq!(a.name, b.name);
        for (pa, pb) in [(&a.rise, &b.rise), (&a.fall, &b.fall)] {
            match (pa, pb) {
                (None, None) => {}
                (Some(pa), Some(pb)) => {
                    for (x, y) in [
                        (pa.arrival, pb.arrival),
                        (pa.slew, pb.slew),
                        (pa.required, pb.required),
                        (pa.slack, pb.slack),
                    ] {
                        assert!(
                            (x - y).abs() <= 1e-13 || (x == y),
                            "replay diverged {:.3e} s on {} (seed {seed:#x})",
                            (x - y).abs(),
                            a.name,
                        );
                    }
                }
                _ => panic!("replay reachability differs on {} (seed {seed:#x})", a.name),
            }
        }
    }
}

#[test]
fn randomized_edit_rollback_fuzz_single_thread() {
    let _guard = fault_guard();
    let mut panics = 0;
    for seed in [0x5EED_0001u64, 0x5EED_0002, 0x5EED_0003] {
        let (session, degraded, panicked) = fuzz_sequence(seed, 1, true);
        assert_replay_matches(&session, seed, degraded);
        panics += usize::from(panicked);
    }
    // The one-thread pool runs its cone on the coordinator: at least one
    // seed must reach the armed panic there, or this test no longer covers
    // its containment.
    assert!(panics > 0, "no seed fired the worker panic at one thread");
}

#[test]
fn randomized_edit_rollback_fuzz_four_threads() {
    let _guard = fault_guard();
    let seed = 0x5EED_0004u64;
    let (session, degraded, panicked) = fuzz_sequence(seed, 4, true);
    assert_replay_matches(&session, seed, degraded);
    assert!(panicked, "the worker panic never fired (seed {seed:#x})");
}

/// With no faults armed the edit stream is pure and deterministic, so
/// the committed state must be bit-identical across thread schedules.
/// (Fault-armed runs can't be compared this way: firing opportunity
/// indices depend on worker interleaving.)
#[test]
fn thread_schedule_does_not_change_committed_state() {
    let _guard = fault_guard();
    fault::disarm();
    let seed = 0x5EED_0005u64;
    let (one, ..) = fuzz_sequence(seed, 1, false);
    let (four, ..) = fuzz_sequence(seed, 4, false);
    assert_eq!(
        one.report(),
        four.report(),
        "thread schedule changed the committed state"
    );
    assert_eq!(one.journal(), four.journal());
    assert_eq!(one.epoch(), four.epoch());
}

/// Invalid edits are refused before touching any state: unknown target,
/// non-positive resistance, non-finite load.
#[test]
fn invalid_edits_are_rejected_without_state_change() {
    let _guard = fault_guard();
    fault::disarm();
    let mut session = open_session(1);
    let before = session.report().clone();
    let epoch = session.epoch();
    for edit in [
        Edit::SetLoad {
            port: "no_such_port".into(),
            farads: 10e-15,
        },
        Edit::SetDriveResistance {
            net: "v0".into(),
            ohms: -5.0,
        },
        Edit::SetLoad {
            port: "y0".into(),
            farads: f64::NAN,
        },
    ] {
        match session.apply(edit) {
            EditOutcome::Rejected { .. } => {}
            other => panic!("expected rejection, got {other:?}"),
        }
    }
    assert_eq!(session.report(), &before);
    assert_eq!(session.epoch(), epoch);
    assert!(session.journal().is_empty());
    assert_eq!(session.rejected(), 3);
}
