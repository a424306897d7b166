//! A sweep of several source sets consults the `nan-solve` fault site
//! exactly where one one-set run per set would.
//!
//! The fault plan is process-global, so this check lives in its own test
//! binary: no other test's transient sweep can consult the site while the
//! plan is armed.

// Integration tests panic on failure by design; the workspace's
// library-only unwrap/expect denies do not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nsta_circuit::{Circuit, CircuitError, NumericError, TransientOptions};
use nsta_obs::fault;
use nsta_waveform::Waveform;

fn nan_solve_fired() -> u64 {
    fault::fired_counts()
        .into_iter()
        .find(|(name, _)| *name == "nan-solve")
        .map(|(_, fired)| fired)
        .unwrap()
}

/// A seed whose `spec` plan fires at exactly the listed consultations
/// among the site's first eight.
fn seed_firing_at(spec: &str, at: &[u64]) -> u64 {
    (0..10_000u64)
        .find(|&seed| {
            fault::arm(spec, seed).unwrap();
            let fired: Vec<u64> = (0..8u64)
                .filter(|_| fault::should_fire(fault::NAN_SOLVE))
                .collect();
            fired == at
        })
        .unwrap_or_else(|| panic!("no seed fires {spec} at {at:?}"))
}

fn is_non_finite<T>(result: &Result<T, CircuitError>) -> bool {
    matches!(
        result,
        Err(CircuitError::Numeric(NumericError::NonFinite(_)))
    )
}

#[test]
fn failing_pair_fires_the_nan_site_once_like_two_runs() {
    let mut ckt = Circuit::new();
    let agg = ckt.node("agg");
    let vic = ckt.node("vic");
    let aggressor = Waveform::new(vec![1e-9, 1.05e-9, 6e-9], vec![0.0, 1.0, 1.0]).unwrap();
    let hold = Waveform::constant(0.0, 0.0, 6e-9).unwrap();
    ckt.thevenin_driver(agg, aggressor.clone(), 100.0).unwrap();
    ckt.thevenin_driver(vic, hold.clone(), 200.0).unwrap();
    ckt.capacitor(agg, Circuit::GROUND, 5e-15).unwrap();
    ckt.capacitor(vic, Circuit::GROUND, 5e-15).unwrap();
    ckt.capacitor(agg, vic, 20e-15).unwrap();
    let system = ckt
        .factor_transient(TransientOptions::new(0.0, 6e-9, 2e-12).unwrap())
        .unwrap();
    let quiet: &[&Waveform] = &[&hold, &hold];
    let noisy: &[&Waveform] = &[&aggressor, &hold];

    // A two-fault plan that fires at the site's first two
    // consultations: the first set's and, if it were consulted, the
    // second set's.
    let seed = seed_firing_at("nan-solve:2", &[0, 1]);

    // Two one-set runs stop at the first failure: the second never runs.
    fault::arm("nan-solve:2", seed).unwrap();
    assert!(is_non_finite(&system.run_nodes(quiet, &[vic])));
    assert_eq!(nan_solve_fired(), 1);

    // The two-set sweep fails the same way, before the second set
    // consults the site.
    fault::arm("nan-solve:2", seed).unwrap();
    assert!(is_non_finite(
        &system.run_node_sets(&[quiet, noisy], &[vic])
    ));
    assert_eq!(nan_solve_fired(), 1);

    // The plan's second fault is still pending and hits the next set.
    assert!(system.run_nodes(noisy, &[vic]).is_err());
    assert_eq!(nan_solve_fired(), 2);

    // Four sets, as for both transitions of a victim: for a fault at
    // each position `j`, four one-set runs fail first at set `j`; the
    // sweep of the sets before `j` consults the site once per set and
    // runs clean; the four-set sweep fails at `j` without consulting the
    // site for a later set, so the plan's second fault (at `j + 1`) is
    // still pending after it.
    let victim = Waveform::new(vec![0.8e-9, 0.88e-9, 6e-9], vec![0.0, 1.0, 1.0]).unwrap();
    let sets: [&[&Waveform]; 4] = [&[&hold, &victim], &[&aggressor, &victim], quiet, noisy];
    for j in 0..4 {
        let seed = seed_firing_at("nan-solve:2", &[j as u64, j as u64 + 1]);
        fault::arm("nan-solve:2", seed).unwrap();
        let first_failure = sets
            .iter()
            .position(|set| system.run_nodes(set, &[vic]).is_err());
        assert_eq!(first_failure, Some(j));
        assert_eq!(nan_solve_fired(), 1);

        fault::arm("nan-solve:2", seed).unwrap();
        if j > 0 {
            assert!(system.run_node_sets(&sets[..j], &[vic]).is_ok());
            assert_eq!(nan_solve_fired(), 0);
        }

        fault::arm("nan-solve:2", seed).unwrap();
        assert!(is_non_finite(&system.run_node_sets(&sets, &[vic])));
        assert_eq!(nan_solve_fired(), 1, "fault at set {j}");
        assert!(system.run_nodes(noisy, &[vic]).is_err());
        assert_eq!(nan_solve_fired(), 2);
    }
    fault::disarm();
    assert!(system.run_node_sets(&sets, &[vic]).is_ok());
}
