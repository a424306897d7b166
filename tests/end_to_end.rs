//! Cross-crate integration tests: the full pipeline from transistor-level
//! simulation through waveform reduction to STA, exercised end to end.

// Integration tests panic on failure by design; the workspace's
// library-only unwrap/expect denies do not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use noisy_sta::core::eval::evaluate_case;
use noisy_sta::core::gate::SpiceReceiverGate;
use noisy_sta::core::{MethodKind, PropagationContext};
use noisy_sta::spice::fig1::{self, Fig1Config};
use noisy_sta::waveform::Thresholds;

/// Faster settings for CI: coarser step, shorter tail.
fn test_cfg() -> Fig1Config {
    Fig1Config {
        dt: 2e-12,
        t_stop: 3.5e-9,
        ..Fig1Config::config_i()
    }
}

#[test]
fn config_i_accuracy_pipeline() {
    let cfg = test_cfg();
    let th = Thresholds::cmos(cfg.proc.vdd);
    let gate = SpiceReceiverGate::new(cfg);
    let quiet = fig1::run_noiseless(&cfg).expect("noiseless simulation");

    // Three representative alignments: before, at, and after the victim
    // transition.
    let mut sgdp_errors = Vec::new();
    for skew in [-0.3e-9, 0.0, 0.3e-9] {
        let noisy = fig1::run_case(&cfg, &[skew]).expect("noisy simulation");
        if noisy.out_u.crossings(th.mid()).len() > 1 {
            continue; // functional-noise case
        }
        let ctx = PropagationContext::new(
            quiet.in_u.clone(),
            noisy.in_u.clone(),
            Some(quiet.out_u.clone()),
            th,
        )
        .expect("context");
        let report =
            evaluate_case(&ctx, &gate, &noisy.out_u, &MethodKind::all()).expect("evaluation");
        // The golden delay is physically sensible.
        assert!(report.golden_delay.value() > 20e-12);
        assert!(report.golden_delay.value() < 500e-12);
        // SGDP succeeds on every delay-noise case.
        let err = report.error_of(MethodKind::Sgdp).expect("sgdp succeeds");
        assert!(
            err < 150e-12,
            "sgdp error {err:e} out of band at skew {skew:e}"
        );
        sgdp_errors.push(err);
    }
    assert!(!sgdp_errors.is_empty());
}

#[test]
fn sgdp_beats_the_field_on_average_at_tight_alignment() {
    // At alignments that distort the transition itself, the sensitivity
    // methods must beat the naive fits (LSF3) clearly.
    let cfg = test_cfg();
    let th = Thresholds::cmos(cfg.proc.vdd);
    let gate = SpiceReceiverGate::new(cfg);
    let quiet = fig1::run_noiseless(&cfg).expect("noiseless");
    let mut sum = std::collections::HashMap::new();
    let mut count = 0usize;
    for skew in [-0.1e-9, 0.0, 0.1e-9] {
        let noisy = fig1::run_case(&cfg, &[skew]).expect("case");
        let ctx = PropagationContext::new(
            quiet.in_u.clone(),
            noisy.in_u.clone(),
            Some(quiet.out_u.clone()),
            th,
        )
        .expect("context");
        let report =
            evaluate_case(&ctx, &gate, &noisy.out_u, &MethodKind::all()).expect("evaluation");
        for m in MethodKind::all() {
            if let Some(e) = report.error_of(m) {
                *sum.entry(m.name()).or_insert(0.0) += e;
            }
        }
        count += 1;
    }
    assert!(count > 0);
    let avg = |name: &str| sum.get(name).copied().unwrap_or(f64::INFINITY) / count as f64;
    assert!(
        avg("SGDP") < avg("LSF3"),
        "sgdp {:.1}ps must beat lsf3 {:.1}ps",
        avg("SGDP") * 1e12,
        avg("LSF3") * 1e12
    );
}

/// SGDP's and WLS5's `Γeff` on Fig. 1 configuration I (Table 1's bench)
/// at an early, an overlapping and a late aggressor skew, pinned bit for
/// bit. CI's Table 1 pin compares cells rounded to 0.1 ps, which a smaller
/// drift passes; a change meant to be bit-identical keeps these. A change
/// meant to move accuracy (ROADMAP item 1) re-pins them.
#[test]
fn gamma_eff_bits_are_pinned_on_config_i() {
    let cfg = Fig1Config::config_i();
    let th = Thresholds::cmos(cfg.proc.vdd);
    let quiet = fig1::run_noiseless(&cfg).expect("noiseless simulation");
    // Per skew: SGDP's arrival and slew, then WLS5's, as `f64::to_bits`.
    let pinned: [(f64, [u64; 4]); 3] = [
        // 2273.59 / 433.94 ps, 2296.00 / 285.59 ps.
        (
            -200e-12,
            [
                0x3e2387ade7dacf38,
                0x3dfdd1e050dd514d,
                0x3e23b8f6a05c0ac1,
                0x3df3a0380f694272,
            ],
        ),
        // 2326.53 / 577.55 ps, 2329.10 / 615.50 ps.
        (
            40e-12,
            [
                0x3e23fc168d7153b0,
                0x3e03d839a76a8e44,
                0x3e2401bf099c71a6,
                0x3e052606fe21b661,
            ],
        ),
        // 2174.23 / 13135.11 ps (SGDP's late-glitch slew, ROADMAP item
        // 1), 2123.78 / 520.15 ps.
        (
            250e-12,
            [
                0x3e22ad2ef5d0ecd1,
                0x3e4c3519cb456766,
                0x3e223e3d570a5d7e,
                0x3e01df499b80298b,
            ],
        ),
    ];
    for (skew, want) in pinned {
        let noisy = fig1::run_case(&cfg, &[skew]).expect("noisy simulation");
        let ctx = PropagationContext::new(
            quiet.in_u.clone(),
            noisy.in_u.clone(),
            Some(quiet.out_u.clone()),
            th,
        )
        .expect("context");
        let mut got = Vec::new();
        for method in [MethodKind::Sgdp, MethodKind::Wls5] {
            let gamma = method.equivalent(&ctx).expect("reduction");
            got.extend([gamma.arrival_mid().to_bits(), gamma.slew(th).to_bits()]);
        }
        let seconds: Vec<f64> = got.iter().map(|&b| f64::from_bits(b)).collect();
        assert_eq!(got, want, "skew {skew:e}: got {got:#x?} ({seconds:?} s)");
    }
}

#[test]
fn characterize_write_parse_sta_pipeline() {
    use noisy_sta::liberty::characterize::{inverter_family, Options};
    use noisy_sta::liberty::parse_library;
    use noisy_sta::spice::Process;
    use noisy_sta::sta::{verilog, Constraints, Sta};

    let lib = inverter_family(
        &Process::c013(),
        &[("INVX1", 1.0), ("INVX4", 4.0)],
        &Options::fast_test(),
    )
    .expect("characterization");
    // Serialize → parse → serialize: the text form must be idempotent
    // (struct equality can differ by 1 ULP from unit scaling).
    let text = lib.to_liberty();
    let parsed = parse_library(&text).expect("parse back");
    assert_eq!(parsed.to_liberty(), text);
    assert_eq!(parsed.cells().len(), lib.cells().len());

    let design = verilog::parse_design(
        "module m (a, y); input a; output y; wire w;\
         INVX1 u1 (.A(a), .Y(w)); INVX4 u2 (.A(w), .Y(y)); endmodule",
    )
    .expect("netlist");
    let sta = Sta::new(design, parsed).expect("sta");
    let report = sta.analyze(Constraints::default()).expect("analysis");
    // Two inverter stages: tens of picoseconds, positive, bounded.
    assert!(report.worst_arrival() > 10e-12);
    assert!(report.worst_arrival() < 1e-9);
    assert_eq!(report.critical_path().first().expect("path").name, "a");
    assert_eq!(report.critical_path().last().expect("path").name, "y");
}

#[test]
fn sta_crosstalk_uses_equivalent_waveforms() {
    use noisy_sta::circuit::RcLineSpec;
    use noisy_sta::liberty::characterize::{inverter_family, Options};
    use noisy_sta::spice::Process;
    use noisy_sta::sta::{verilog, Constraints, CouplingSpec, SiOptions, Sta};

    let lib = inverter_family(
        &Process::c013(),
        &[("INVX1", 1.0), ("INVX4", 4.0)],
        &Options::fast_test(),
    )
    .expect("characterization");
    let design = verilog::parse_design(
        "module m (a, b, y, z); input a, b; output y, z; wire v, g;\
         INVX1 u1 (.A(a), .Y(v)); INVX4 u2 (.A(v), .Y(y));\
         INVX1 u3 (.A(b), .Y(g)); INVX4 u4 (.A(g), .Y(z)); endmodule",
    )
    .expect("netlist");
    let sta = Sta::new(design, lib).expect("sta");
    let c = Constraints::default();
    let nominal = sta.analyze(c).expect("nominal");

    let spec = CouplingSpec::new(
        sta.design().find_net("v").expect("victim"),
        vec![sta.design().find_net("g").expect("aggressor")],
        100e-15,
        RcLineSpec::per_micron(1000.0).expect("line"),
    );
    let options = SiOptions {
        method: MethodKind::Sgdp,
        ..SiOptions::default()
    };
    let analysis = sta
        .analyze_with_crosstalk_windows(c, &[spec], &options)
        .expect("si analysis");
    let with_si = analysis.report;
    assert_eq!(analysis.adjustments.len(), 2);
    // Crosstalk cannot make the worst slack better.
    assert!(with_si.worst_slack() <= nominal.worst_slack() + 1e-15);
    // The victim's fanout arrives later than over an ideal wire.
    let y = sta.design().find_net("y").expect("net y");
    let nom = nominal
        .net(y)
        .expect("timing")
        .rise
        .as_ref()
        .expect("rise")
        .arrival;
    let si = with_si
        .net(y)
        .expect("timing")
        .rise
        .as_ref()
        .expect("rise")
        .arrival;
    assert!(si > nom);
}
