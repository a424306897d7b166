//! The transient counters report the work a sweep actually does:
//! `circuit.transient.steps` adds the time points each column recorded,
//! and `circuit.transient.settled` counts the columns that met their
//! settle test, so a column the cap cut short shows as `settled` falling
//! short of `sweeps`.
//!
//! The recorder is process-global, so this check lives in its own test
//! binary: no other test's sweep can add to the counters while it reads
//! them.

// Integration tests panic on failure by design; the workspace's
// library-only unwrap/expect denies do not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nsta_circuit::{Circuit, TransientOptions};
use nsta_waveform::Waveform;

/// A 1 V step at `t0` into `r` ohms and 1 pF, on 2 ps steps to 2 ns.
fn rc_step(r: f64, t0: f64) -> (Circuit, nsta_circuit::NodeId) {
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.resistor(inp, out, r).unwrap();
    ckt.capacitor(out, Circuit::GROUND, 1e-12).unwrap();
    let step = Waveform::new(vec![t0, t0 + 20e-12, 10e-9], vec![0.0, 1.0, 1.0]).unwrap();
    ckt.vsource(inp, step).unwrap();
    (ckt, out)
}

#[test]
fn counters_report_recorded_steps_and_settled_columns() {
    let opts = TransientOptions::new(0.0, 2e-9, 2e-12)
        .unwrap()
        .until_settled(1e-6);
    // τ = 10 ps settles long before the cap; τ = 1 ns cannot.
    let (fast, fast_out) = rc_step(10.0, 0.1e-9);
    let (slow, slow_out) = rc_step(1_000.0, 0.1e-9);
    let fast = fast.factor_transient(opts).unwrap();
    let slow = slow.factor_transient(opts).unwrap();
    let late = Waveform::new(vec![0.5e-9, 0.52e-9, 10e-9], vec![0.0, 1.0, 1.0]).unwrap();
    let early = Waveform::new(vec![0.1e-9, 0.12e-9, 10e-9], vec![0.0, 1.0, 1.0]).unwrap();

    let rec = nsta_obs::recorder();
    rec.reset();
    rec.enable();
    let settled = fast
        .run_node_sets(&[&[&early], &[&late]], &[fast_out])
        .unwrap();
    let unsettled = slow.run_nodes(&[&early], &[slow_out]).unwrap();
    rec.disable();
    let metrics = rec.metrics();
    rec.reset();

    let points: Vec<usize> = settled
        .iter()
        .chain([&unsettled])
        .map(|traces| traces[0].len())
        .collect();
    // The later step settles later; the slow column records the grid.
    assert!(points[0] < points[1], "{points:?}");
    assert!(points[1] < slow.times().len());
    assert_eq!(points[2], slow.times().len());
    let count = |name: &str| metrics.get(name).unwrap_or(0.0) as usize;
    assert_eq!(count("circuit.transient.sweeps"), 3);
    assert_eq!(count("circuit.transient.settled"), 2);
    assert_eq!(
        count("circuit.transient.steps"),
        points.iter().sum::<usize>()
    );
}
