//! Sparse ≡ dense backend parity on randomized stamped circuits.
//!
//! The two [`SolverBackend`]s integrate the exact same trapezoidal system —
//! they differ only in storage and elimination order — so every node's
//! waveform must agree to solver round-off (well under 1 nV on these
//! meshes). The topologies are randomized with the workspace's in-tree
//! xorshift PRNG: RC ladders with random element values, random extra
//! cross-coupling caps, and star-coupled victim/aggressor bundles (the
//! exact shape the SI flow factors).

// Integration tests panic on failure by design; the workspace's
// library-only unwrap/expect denies do not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nsta_circuit::{
    Circuit, NodeId, RcLineSpec, SolverBackend, StarCoupledLines, TransientOptions,
};
use nsta_waveform::Waveform;

/// Deterministic xorshift PRNG in `[0, 1)`.
fn rng(mut seed: u64) -> impl FnMut() -> f64 {
    move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn ramp(t0: f64, rise: f64, v: f64, t_end: f64) -> Waveform {
    Waveform::new(vec![t0, t0 + rise, t_end], vec![0.0, v, v]).unwrap()
}

/// Runs the same circuit construction under both backends and asserts
/// per-node waveform agreement within `tol` volts at every time point.
fn assert_backend_parity(build: impl Fn(&mut Circuit) -> Vec<NodeId>, opts: TransientOptions) {
    let run = |backend: SolverBackend| {
        let mut ckt = Circuit::new();
        let probes = build(&mut ckt);
        let res = ckt
            .run_transient(opts.with_backend(backend))
            .expect("transient run");
        probes
            .iter()
            .map(|&n| res.voltage(n).expect("probe"))
            .collect::<Vec<_>>()
    };
    let sparse = run(SolverBackend::Sparse);
    let dense = run(SolverBackend::Dense);
    assert_eq!(sparse.len(), dense.len());
    for (node, (s, d)) in sparse.iter().zip(&dense).enumerate() {
        assert_eq!(s.times(), d.times(), "grids must match");
        for (ti, (vs, vd)) in s.values().iter().zip(d.values()).enumerate() {
            assert!(
                (vs - vd).abs() < 1e-9,
                "node {node} step {ti}: sparse {vs:e} vs dense {vd:e}"
            );
        }
    }
}

#[test]
fn random_rc_ladders_agree_across_backends() {
    let mut next = rng(0x5eed_cafe_f00d_0001);
    for trial in 0..6 {
        let stages = 3 + (next() * 20.0) as usize;
        let r_base = 50.0 + 500.0 * next();
        let c_base = 2e-15 + 40e-15 * next();
        let rise = 20e-12 + 200e-12 * next();
        // Rebuildable construction: the closure is invoked once per
        // backend and must produce structurally identical circuits.
        let vals: Vec<(f64, f64)> = (0..stages)
            .map(|_| (r_base * (0.5 + next()), c_base * (0.5 + next())))
            .collect();
        let cross: Vec<(usize, usize, f64)> = (0..stages / 3)
            .map(|_| {
                (
                    (next() * stages as f64) as usize,
                    (next() * stages as f64) as usize,
                    1e-15 + 10e-15 * next(),
                )
            })
            .collect();
        assert_backend_parity(
            |ckt| {
                let inp = ckt.node("in");
                ckt.vsource(inp, ramp(0.1e-9, rise, 1.2, 4e-9)).unwrap();
                let mut prev = inp;
                let mut nodes = Vec::new();
                for (k, &(r, c)) in vals.iter().enumerate() {
                    let n = ckt.node(&format!("n{k}"));
                    ckt.resistor(prev, n, r).unwrap();
                    ckt.capacitor(n, Circuit::GROUND, c).unwrap();
                    nodes.push(n);
                    prev = n;
                }
                // Random long-range coupling caps break the pure band
                // structure, exercising symbolic fill-in.
                for &(a, b, c) in &cross {
                    let (na, nb) = (nodes[a.min(stages - 1)], nodes[b.min(stages - 1)]);
                    if na != nb {
                        ckt.capacitor(na, nb, c).unwrap();
                    }
                }
                nodes
            },
            TransientOptions::new(0.0, 4e-9, 4e-12).unwrap(),
        );
        let _ = trial;
    }
}

#[test]
fn random_star_coupled_bundles_agree_across_backends() {
    let mut next = rng(0xdead_beef_1234_5678);
    for _trial in 0..4 {
        let aggressors = 1 + (next() * 3.0) as usize;
        let segments = 2 + (next() * 12.0) as usize;
        let victim_line =
            RcLineSpec::new(10.0 + 60.0 * next(), 10e-15 + 40e-15 * next(), segments).unwrap();
        let agg_specs: Vec<(RcLineSpec, f64)> = (0..aggressors)
            .map(|_| {
                (
                    RcLineSpec::new(
                        10.0 + 60.0 * next(),
                        10e-15 + 40e-15 * next(),
                        1 + (next() * 12.0) as usize,
                    )
                    .unwrap(),
                    20e-15 + 80e-15 * next(),
                )
            })
            .collect();
        let arrivals: Vec<(f64, f64)> = (0..aggressors)
            .map(|_| (0.2e-9 + 1e-9 * next(), 30e-12 + 150e-12 * next()))
            .collect();
        let load = 1e-15 + 10e-15 * next();
        assert_backend_parity(
            |ckt| {
                let v_in = ckt.node("v_in");
                ckt.thevenin_driver(v_in, ramp(0.5e-9, 80e-12, 1.2, 5e-9), 200.0)
                    .unwrap();
                let mut agg_ins = Vec::new();
                for &(t0, rise) in &arrivals {
                    let a_in = ckt.anon_node();
                    ckt.thevenin_driver(a_in, ramp(t0, rise, 1.2, 5e-9), 120.0)
                        .unwrap();
                    agg_ins.push(a_in);
                }
                let bundle = StarCoupledLines::new(victim_line, agg_specs.clone()).unwrap();
                let (far, mut agg_fars) = bundle.build(ckt, v_in, &agg_ins, "w").unwrap();
                ckt.capacitor(far, Circuit::GROUND, load).unwrap();
                let mut probes = vec![far, v_in];
                probes.append(&mut agg_fars);
                probes
            },
            TransientOptions::new(0.0, 5e-9, 2e-12).unwrap(),
        );
    }
}

#[test]
fn factored_system_reports_backend_and_nnz() {
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    let mut prev = inp;
    ckt.vsource(inp, ramp(0.0, 50e-12, 1.0, 2e-9)).unwrap();
    for k in 0..16 {
        let n = ckt.node(&format!("n{k}"));
        ckt.resistor(prev, n, 100.0).unwrap();
        ckt.capacitor(n, Circuit::GROUND, 5e-15).unwrap();
        prev = n;
    }
    let opts = TransientOptions::new(0.0, 2e-9, 2e-12).unwrap();
    let sparse = ckt.factor_transient(opts).unwrap();
    assert_eq!(sparse.backend(), SolverBackend::Sparse);
    // A 16-unknown tridiagonal chain: nnz ≈ 3n − 2, far below n².
    assert!(sparse.nnz() < 16 * 16 / 2, "nnz = {}", sparse.nnz());
    let dense = ckt
        .factor_transient(opts.with_backend(SolverBackend::Dense))
        .unwrap();
    assert_eq!(dense.backend(), SolverBackend::Dense);
    assert_eq!(dense.nnz(), 16 * 16);
}
