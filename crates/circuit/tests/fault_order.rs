//! The fused noiseless/noisy pair consults the `nan-solve` fault site
//! exactly where two one-set runs did.
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

    // A seed whose two-fault plan fires at the site's first two
    // consultations: the first set's and, if it were consulted, the
    // second set's.
    let seed = (0..10_000u64)
        .find(|&seed| {
            fault::arm("nan-solve:2", seed).unwrap();
            fault::should_fire(fault::NAN_SOLVE) && fault::should_fire(fault::NAN_SOLVE)
        })
        .expect("some seed fires at opportunities 0 and 1");

    // Two one-set runs stop at the first failure: the second never runs.
    fault::arm("nan-solve:2", seed).unwrap();
    let first = system.run_nodes(quiet, &[vic]);
    assert!(matches!(
        first,
        Err(CircuitError::Numeric(NumericError::NonFinite(_)))
    ));
    assert_eq!(nan_solve_fired(), 1);

    // The fused pair fails the same way, before the second set consults
    // the site.
    fault::arm("nan-solve:2", seed).unwrap();
    let pair = system.run_node_pair([quiet, noisy], &[vic]);
    assert!(matches!(
        pair,
        Err(CircuitError::Numeric(NumericError::NonFinite(_)))
    ));
    assert_eq!(nan_solve_fired(), 1);

    // The plan's second fault is still pending and hits the next set.
    assert!(system.run_nodes(noisy, &[vic]).is_err());
    assert_eq!(nan_solve_fired(), 2);
    fault::disarm();
    assert!(system.run_node_pair([quiet, noisy], &[vic]).is_ok());
}
