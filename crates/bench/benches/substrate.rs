//! Micro-benchmarks of the simulation substrate: linear and nonlinear
//! transient engines, LU kernels and the Liberty parser.
//!
//! Run with `cargo bench -p nsta-bench --bench substrate`.

use nsta_bench::microbench::bench;
use nsta_circuit::{Circuit, CoupledLines, NodeId, RcLineSpec, StarCoupledLines, TransientOptions};
use nsta_numeric::{DenseMatrix, LuFactors};
use nsta_spice::{cells, Netlist, Process, SimOptions};
use nsta_waveform::{SaturatedRamp, Thresholds, Waveform};
use std::iter::{once, repeat_n};

fn bench_lu() {
    for n in [8usize, 32, 64] {
        let mut a = DenseMatrix::zeros(n, n);
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for r in 0..n {
            for cc in 0..n {
                a.set(r, cc, next());
            }
            a.add(r, r, n as f64);
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        bench(&format!("lu/factor_solve_{n}"), || {
            let lu = LuFactors::factor(&a).expect("well conditioned");
            lu.solve(&b).expect("solve")
        });
    }
}

fn bench_linear_transient() {
    bench("linear_coupled_lines_2ns", || {
        let mut ckt = Circuit::new();
        let a_in = ckt.node("a");
        let v_in = ckt.node("v");
        let edge =
            Waveform::new(vec![0.0, 0.5e-9, 0.7e-9, 2e-9], vec![0.0, 0.0, 1.2, 1.2]).expect("edge");
        ckt.thevenin_driver(a_in, edge, 200.0).expect("driver");
        ckt.thevenin_driver(
            v_in,
            Waveform::constant(0.0, 0.0, 2e-9).expect("flat"),
            200.0,
        )
        .expect("driver");
        let bundle = CoupledLines::new(RcLineSpec::figure1(), 2, 100e-15).expect("bundle");
        let far = bundle.build(&mut ckt, &[a_in, v_in], "w").expect("build");
        let res = ckt
            .run_transient(TransientOptions::new(0.0, 2e-9, 2e-12).expect("opts"))
            .expect("run");
        res.voltage(far[1]).expect("trace")
    });
}

/// One four-set sweep against two two-set sweeps of the same factored
/// system: both transitions of a victim net, each with its noiseless and
/// noisy drive, as one block or as two, and as one block that stops once
/// each column has settled within 1e-6·Vdd, as the crosstalk flow runs
/// it. The stages are a 3-segment victim with one aggressor (the common
/// bus-clones stage) and a 48-segment victim with two (the largest
/// bus-varied stage), on the bus grid of 2 ps steps to 1.5 ns.
fn bench_block_width() {
    let (t_stop, dt) = (1.5e-9, 2e-12);
    let th = Thresholds::cmos(1.2);
    let wave = |arrival: f64, rising: bool| {
        SaturatedRamp::with_slew(arrival, 70e-12, th, rising)
            .and_then(|ramp| ramp.to_waveform(0.0, t_stop, dt))
            .expect("ramp")
    };
    let quiet = |level: f64| Waveform::constant(level, 0.0, t_stop).expect("quiet");
    for (segments, aggressors) in [(3usize, 1usize), (48, 2)] {
        let mut ckt = Circuit::new();
        let v_in = ckt.node("v_in");
        ckt.thevenin_driver(v_in, quiet(0.0), 300.0)
            .expect("driver");
        let agg_ins: Vec<NodeId> = (0..aggressors)
            .map(|_| {
                let a = ckt.anon_node();
                ckt.thevenin_driver(a, quiet(0.0), 300.0).expect("driver");
                a
            })
            .collect();
        let line = RcLineSpec::new(400.0, 60e-15, segments).expect("line");
        let bundle = StarCoupledLines::new(line, vec![(line, 20e-15); aggressors]).expect("bundle");
        let (far, _) = bundle.build(&mut ckt, v_in, &agg_ins, "w").expect("build");
        ckt.capacitor(far, Circuit::GROUND, 4e-15).expect("load");
        let opts = TransientOptions::new(0.0, t_stop, dt).expect("opts");
        let system = ckt.factor_transient(opts).expect("factor");
        let settled = ckt
            .factor_transient(opts.until_settled(1e-6 * th.vdd()))
            .expect("factor");

        // Aggressors switch against the victim: a rising victim's are
        // quiet high or falling, a falling victim's quiet low or rising.
        let (rise, fall) = (wave(50e-12, true), wave(45e-12, false));
        let (high, low) = (quiet(1.2), quiet(0.0));
        let agg_fall: Vec<Waveform> = (0..aggressors)
            .map(|i| wave(60e-12 + 30e-12 * i as f64, false))
            .collect();
        let agg_rise: Vec<Waveform> = (0..aggressors)
            .map(|i| wave(55e-12 + 30e-12 * i as f64, true))
            .collect();
        let sets: [Vec<&Waveform>; 4] = [
            once(&rise).chain(repeat_n(&high, aggressors)).collect(),
            once(&rise).chain(&agg_fall).collect(),
            once(&fall).chain(repeat_n(&low, aggressors)).collect(),
            once(&fall).chain(&agg_rise).collect(),
        ];
        let sets: Vec<&[&Waveform]> = sets.iter().map(Vec::as_slice).collect();
        let name = format!("{segments}seg_{aggressors}agg");
        bench(&format!("transient/sweep_4_sets_{name}"), || {
            system.run_node_sets(&sets, &[far]).expect("sweep")
        });
        bench(&format!("transient/sweep_2x2_sets_{name}"), || {
            let rise = system.run_node_sets(&sets[..2], &[far]).expect("sweep");
            let fall = system.run_node_sets(&sets[2..], &[far]).expect("sweep");
            (rise, fall)
        });
        bench(&format!("transient/sweep_4_sets_{name}_settled"), || {
            settled.run_node_sets(&sets, &[far]).expect("sweep")
        });
    }
}

fn bench_spice_inverter() {
    bench("spice_inverter_2ns", || {
        let proc = Process::c013();
        let mut net = Netlist::new(proc.vdd);
        let inp = net.node("in");
        let out = net.node("out");
        cells::add_inverter(&mut net, &proc, 4.0, inp, out, "u1").expect("cell");
        cells::add_load_cap(&mut net, out, 20e-15).expect("load");
        let ramp = Waveform::new(vec![0.0, 0.5e-9, 0.65e-9, 2e-9], vec![0.0, 0.0, 1.2, 1.2])
            .expect("ramp");
        net.vsource(inp, ramp).expect("source");
        let res = net
            .run_transient(SimOptions::new(0.0, 2e-9, 2e-12).expect("opts"))
            .expect("run");
        res.voltage(out).expect("trace")
    });
}

fn bench_liberty_parse() {
    // A realistic library text produced by the serializer (constructed
    // once, outside the timed loop).
    use nsta_liberty::{Cell, Direction, Library, NldmTable, Pin, TimingArc, TimingSense};
    let table = NldmTable::new(
        vec![30e-12, 60e-12, 120e-12, 240e-12, 480e-12],
        vec![2e-15, 5e-15, 10e-15, 20e-15, 40e-15],
        (0..25).map(|i| 20e-12 + i as f64 * 3e-12).collect(),
    )
    .expect("table");
    let arc = TimingArc {
        related_pin: "A".into(),
        sense: TimingSense::NegativeUnate,
        cell_rise: table.clone(),
        rise_transition: table.clone(),
        cell_fall: table.clone(),
        fall_transition: table,
    };
    let mut lib = Library::new("bench", 1.2);
    for i in 0..20 {
        lib.push_cell(Cell {
            name: format!("INVX{i}"),
            area: 1.0,
            pins: vec![
                Pin {
                    name: "A".into(),
                    direction: Direction::Input,
                    capacitance: 5e-15,
                    function: None,
                    timing: vec![],
                },
                Pin {
                    name: "Y".into(),
                    direction: Direction::Output,
                    capacitance: 0.0,
                    function: Some("!A".into()),
                    timing: vec![arc.clone()],
                },
            ],
        });
    }
    let text = lib.to_liberty();
    bench("liberty_parse_20_cells", || {
        nsta_liberty::parse_library(&text).expect("parse")
    });
}

fn main() {
    bench_lu();
    nsta_bench::microbench::bench_solver_backends();
    bench_linear_transient();
    bench_block_width();
    bench_spice_inverter();
    bench_liberty_parse();
}
