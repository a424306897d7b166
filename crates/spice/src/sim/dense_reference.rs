//! The dense assembly that the sparse Newton loops replaced, kept as the
//! oracle they must equal bit for bit.
//!
//! Every residual here reads the dense `G_UU`/`C_UU` (and `G_UK`/`C_UK`)
//! matrices, every MOSFET is evaluated twice per transient iteration (once
//! for the currents, once for the Jacobian), derivatives are stamped
//! through a binary search per entry, and sources are tabulated as one
//! vector per time point. The tests below run this engine and
//! [`Netlist::run_transient`] on the same netlists and require every
//! recorded voltage and the Newton iteration total to be equal.

use super::{SimOptions, SimResult, SparseJacobian, DV_CLAMP, GMIN, MAX_NEWTON, NEWTON_TOL};
use crate::netlist::{Netlist, NodeId};
use crate::SpiceError;
use nsta_numeric::{DenseMatrix, TripletMatrix};

/// A Jacobian stamp sink: `(r, c, v)` accumulation plus the scale applied
/// to device derivatives (1 for DC, ½ for the trapezoidal residual).
type JacStamp<'a> = Option<(&'a mut dyn FnMut(usize, usize, f64), f64)>;

struct Assembled {
    nf: usize,
    nd: usize,
    is_driven: Vec<bool>,
    position: Vec<usize>,
    driven_slot: Vec<usize>,
    g_uu: DenseMatrix,
    g_uk: DenseMatrix,
    c_uu: DenseMatrix,
    c_uk: DenseMatrix,
    g_trip: TripletMatrix,
    c_trip: TripletMatrix,
}

fn assemble(net: &Netlist, gmin: f64) -> Assembled {
    let n = net.node_count();
    let mut is_driven = vec![false; n];
    for (node, _) in &net.vsources {
        is_driven[*node] = true;
    }
    let mut position = vec![usize::MAX; n];
    let mut nf = 0;
    for i in 0..n {
        if !is_driven[i] {
            position[i] = nf;
            nf += 1;
        }
    }
    let nd = net.vsources.len();
    let mut driven_slot = vec![usize::MAX; n];
    for (k, (node, _)) in net.vsources.iter().enumerate() {
        driven_slot[*node] = k;
    }
    let mut g_uu = DenseMatrix::zeros(nf, nf);
    let mut g_uk = DenseMatrix::zeros(nf, nd.max(1));
    let mut c_uu = DenseMatrix::zeros(nf, nf);
    let mut c_uk = DenseMatrix::zeros(nf, nd.max(1));
    let mut g_trip = TripletMatrix::new(nf, nf);
    let mut c_trip = TripletMatrix::new(nf, nf);

    let ground = NodeId::GROUND_SENTINEL;
    let stamp = |uu: &mut DenseMatrix,
                 trip: &mut TripletMatrix,
                 uk: &mut DenseMatrix,
                 a: usize,
                 b: usize,
                 v: f64| {
        for node in [a, b] {
            if node == ground || is_driven[node] {
                continue;
            }
            let r = position[node];
            uu.add(r, r, v);
            trip.add(r, r, v);
            let other = if node == a { b } else { a };
            if other == ground {
                continue;
            }
            if is_driven[other] {
                uk.add(r, driven_slot[other], -v);
            } else {
                uu.add(r, position[other], -v);
                trip.add(r, position[other], -v);
            }
        }
    };
    for &(a, b, g) in &net.resistors {
        stamp(&mut g_uu, &mut g_trip, &mut g_uk, a, b, g);
    }
    for &(a, b, c) in &net.capacitors {
        stamp(&mut c_uu, &mut c_trip, &mut c_uk, a, b, c);
    }
    for r in 0..nf {
        g_uu.add(r, r, gmin);
        g_trip.add(r, r, gmin);
    }
    Assembled {
        nf,
        nd,
        is_driven,
        position,
        driven_slot,
        g_uu,
        g_uk,
        c_uu,
        c_uk,
        g_trip,
        c_trip,
    }
}

fn volt(asm: &Assembled, x: &[f64], w: &[f64], node: usize) -> f64 {
    if node == NodeId::GROUND_SENTINEL {
        0.0
    } else if asm.is_driven[node] {
        w[asm.driven_slot[node]]
    } else {
        x[asm.position[node]]
    }
}

fn device_currents(
    net: &Netlist,
    asm: &Assembled,
    x: &[f64],
    w: &[f64],
    f: &mut [f64],
    mut jac: JacStamp,
) {
    let ground = NodeId::GROUND_SENTINEL;
    for dev in &net.mosfets {
        let vg = volt(asm, x, w, dev.gate);
        let vd = volt(asm, x, w, dev.drain);
        let vs = volt(asm, x, w, dev.source);
        let e = dev.eval(vg, vd, vs);
        if dev.drain != ground && !asm.is_driven[dev.drain] {
            f[asm.position[dev.drain]] += e.i_drain;
        }
        if dev.source != ground && !asm.is_driven[dev.source] {
            f[asm.position[dev.source]] -= e.i_drain;
        }
        if let Some((a, scale)) = jac.as_mut() {
            let scale = *scale;
            let entries = [
                (dev.gate, e.di_dvg),
                (dev.drain, e.di_dvd),
                (dev.source, e.di_dvs),
            ];
            if dev.drain != ground && !asm.is_driven[dev.drain] {
                let r = asm.position[dev.drain];
                for (node, d) in entries {
                    if node != ground && !asm.is_driven[node] {
                        a(r, asm.position[node], scale * d);
                    }
                }
            }
            if dev.source != ground && !asm.is_driven[dev.source] {
                let r = asm.position[dev.source];
                for (node, d) in entries {
                    if node != ground && !asm.is_driven[node] {
                        a(r, asm.position[node], -scale * d);
                    }
                }
            }
        }
    }
}

fn device_pattern(net: &Netlist, asm: &Assembled, trip: &mut TripletMatrix) {
    let zeros_x = vec![0.0; asm.nf];
    let zeros_w = vec![0.0; asm.nd];
    let mut scratch = vec![0.0; asm.nf];
    device_currents(
        net,
        asm,
        &zeros_x,
        &zeros_w,
        &mut scratch,
        Some((&mut |r, c, _v| trip.add(r, c, 0.0), 1.0)),
    );
}

/// Adds `v` at `(r, c)` of the Jacobian's stored values.
fn stamp_at(jac: &mut SparseJacobian, r: usize, c: usize, v: f64) {
    let k = jac
        .csr
        .value_index(r, c)
        .unwrap_or_else(|| panic!("entry ({r}, {c}) outside the Jacobian pattern"));
    jac.csr.values_mut()[k] += v;
}

fn dc_solve(net: &Netlist, asm: &Assembled, at_time: f64) -> Result<(Vec<f64>, usize), SpiceError> {
    let nf = asm.nf;
    let w: Vec<f64> = net
        .vsources
        .iter()
        .map(|(_, wf)| wf.value_at(at_time))
        .collect();
    let mut inj = vec![0.0; nf];
    for (node, wf) in &net.isources {
        if !asm.is_driven[*node] {
            inj[asm.position[*node]] += wf.value_at(at_time);
        }
    }
    let mut x = vec![net.vdd() * 0.5; nf];
    let mut f = vec![0.0; nf];
    let mut delta = vec![0.0; nf];
    let mut jac_pattern = asm.g_trip.clone();
    device_pattern(net, asm, &mut jac_pattern);
    let mut jac = SparseJacobian::new(jac_pattern, &mut []);
    let max_iter = 200;
    let mut last_update = f64::INFINITY;
    for iter in 0..max_iter {
        f.iter_mut().for_each(|v| *v = 0.0);
        for r in 0..nf {
            let mut acc = 0.0;
            for c in 0..nf {
                acc += asm.g_uu.get(r, c) * x[c];
            }
            for k in 0..asm.nd {
                acc += asm.g_uk.get(r, k) * w[k];
            }
            f[r] = acc - inj[r];
        }
        jac.reset();
        device_currents(
            net,
            asm,
            &x,
            &w,
            &mut f,
            Some((&mut |r, c, v| stamp_at(&mut jac, r, c, v), 1.0)),
        );
        jac.solve_into(&f, &mut delta)?;
        let mut worst = 0.0f64;
        for i in 0..nf {
            let step = (-delta[i]).clamp(-0.25, 0.25);
            x[i] += step;
            worst = worst.max(step.abs());
        }
        last_update = worst;
        if worst < 1e-9 {
            return Ok((x, iter + 1));
        }
    }
    Err(SpiceError::NewtonDiverged {
        at_time: f64::NAN,
        iterations: max_iter,
        max_update: last_update,
    })
}

/// [`Netlist::dc_operating_point`] on the dense assembly.
pub(super) fn dc_operating_point(net: &Netlist, at_time: f64) -> Result<Vec<f64>, SpiceError> {
    let asm = assemble(net, 1e-9);
    let (x, _) = dc_solve(net, &asm, at_time)?;
    let w: Vec<f64> = net
        .vsources
        .iter()
        .map(|(_, wf)| wf.value_at(at_time))
        .collect();
    Ok((0..net.node_count())
        .map(|i| volt(&asm, &x, &w, i))
        .collect())
}

/// [`Netlist::run_transient`] on the dense assembly.
pub(super) fn run_transient(net: &Netlist, opts: SimOptions) -> Result<SimResult, SpiceError> {
    let asm = assemble(net, GMIN);
    let nf = asm.nf;
    let h = opts.dt;
    let steps = ((opts.t_stop - opts.t_start) / h).round() as usize;
    let times: Vec<f64> = (0..=steps).map(|k| opts.t_start + k as f64 * h).collect();

    let w_at: Vec<Vec<f64>> = times
        .iter()
        .map(|&t| net.vsources.iter().map(|(_, wf)| wf.value_at(t)).collect())
        .collect();
    let mut inj_at = vec![vec![0.0; nf]; times.len()];
    for (node, wf) in &net.isources {
        if asm.is_driven[*node] {
            continue;
        }
        let r = asm.position[*node];
        for (ti, &t) in times.iter().enumerate() {
            inj_at[ti][r] += wf.value_at(t);
        }
    }

    let (mut x, dc_iters) = dc_solve(net, &asm, opts.t_start)?;
    let mut newton_total = dc_iters;

    let eval_static = |x: &[f64], w: &[f64], inj: &[f64], out: &mut Vec<f64>| {
        out.iter_mut().for_each(|v| *v = 0.0);
        for r in 0..nf {
            let acc = nsta_numeric::dot(asm.g_uu.row(r), x)
                + nsta_numeric::dot(&asm.g_uk.row(r)[..asm.nd], w);
            out[r] = acc - inj[r];
        }
        device_currents(net, &asm, x, w, out, None);
    };

    let mut i_old = vec![0.0; nf];
    eval_static(&x, &w_at[0], &inj_at[0], &mut i_old);

    let mut voltages: Vec<Vec<f64>> = vec![Vec::with_capacity(times.len()); net.node_count()];
    let record = |voltages: &mut Vec<Vec<f64>>, x: &[f64], w: &[f64]| {
        for i in 0..net.node_count() {
            voltages[i].push(volt(&asm, x, w, i));
        }
    };
    record(&mut voltages, &x, &w_at[0]);

    let mut f = vec![0.0; nf];
    let mut x_new = x.clone();
    let mut i_new = vec![0.0; nf];
    let mut delta = vec![0.0; nf];
    let mut dev_scratch = vec![0.0; nf];
    let mut jac = {
        let mut pattern = TripletMatrix::new(nf, nf);
        pattern.extend_scaled(&asm.c_trip, 1.0 / h);
        pattern.extend_scaled(&asm.g_trip, 0.5);
        device_pattern(net, &asm, &mut pattern);
        SparseJacobian::new(pattern, &mut [])
    };

    for ti in 1..times.len() {
        let w_prev = &w_at[ti - 1];
        let w_now = &w_at[ti];
        x_new.copy_from_slice(&x);
        let mut converged = false;
        let mut worst = f64::INFINITY;
        let mut iters = 0;
        while iters < MAX_NEWTON {
            iters += 1;
            eval_static(&x_new, w_now, &inj_at[ti], &mut i_new);
            for r in 0..nf {
                let mut acc = 0.0;
                let row = asm.c_uu.row(r);
                for c in 0..nf {
                    acc += row[c] * (x_new[c] - x[c]);
                }
                let ck = &asm.c_uk.row(r)[..asm.nd];
                for k in 0..asm.nd {
                    acc += ck[k] * (w_now[k] - w_prev[k]);
                }
                f[r] = acc / h + 0.5 * (i_new[r] + i_old[r]);
            }
            jac.reset();
            dev_scratch.iter_mut().for_each(|v| *v = 0.0);
            device_currents(
                net,
                &asm,
                &x_new,
                w_now,
                &mut dev_scratch,
                Some((&mut |r, c, v| stamp_at(&mut jac, r, c, v), 0.5)),
            );
            jac.solve_into(&f, &mut delta)?;
            worst = 0.0;
            for i in 0..nf {
                let step = (-delta[i]).clamp(-DV_CLAMP, DV_CLAMP);
                x_new[i] += step;
                worst = worst.max(step.abs());
            }
            if worst < NEWTON_TOL {
                converged = true;
                break;
            }
        }
        newton_total += iters;
        if !converged {
            return Err(SpiceError::NewtonDiverged {
                at_time: times[ti],
                iterations: iters,
                max_update: worst,
            });
        }
        x.copy_from_slice(&x_new);
        eval_static(&x, w_now, &inj_at[ti], &mut i_old);
        record(&mut voltages, &x, w_now);
    }

    Ok(SimResult {
        times,
        voltages,
        newton_iterations: newton_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells;
    use crate::fig1::{self, Fig1Config};
    use crate::netlist::Process;
    use nsta_waveform::Waveform;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs both engines on `net` and requires every recorded voltage of
    /// every node and the Newton iteration total to be equal.
    fn assert_same_run(net: &Netlist, opts: SimOptions) {
        let sparse = net.run_transient(opts).unwrap();
        let dense = run_transient(net, opts).unwrap();
        assert_eq!(sparse.newton_iterations(), dense.newton_iterations());
        assert_eq!(bits(sparse.times()), bits(dense.times()));
        assert_eq!(sparse.voltages.len(), net.node_count());
        for (node, (s, d)) in sparse.voltages.iter().zip(&dense.voltages).enumerate() {
            assert_eq!(bits(s), bits(d), "node {node} differs");
        }
    }

    #[test]
    fn fig1_config_i_skewed_case_is_bit_identical() {
        let cfg = Fig1Config::config_i();
        let (net, _) = fig1::build(&cfg, &[Some(60e-12)]).unwrap();
        assert_same_run(&net, SimOptions::new(0.0, cfg.t_stop, cfg.dt).unwrap());
    }

    #[test]
    fn fig1_config_ii_skewed_case_is_bit_identical() {
        let cfg = Fig1Config::config_ii();
        let (net, _) = fig1::build(&cfg, &[Some(-40e-12), Some(90e-12)]).unwrap();
        assert_same_run(&net, SimOptions::new(0.0, cfg.t_stop, cfg.dt).unwrap());
    }

    /// One grid point of library characterization: a 1× inverter with a
    /// 10 fF load and a 150 ps rising input ramp on a 2 ps grid, built as
    /// `nsta_liberty`'s characterizer builds it.
    #[test]
    fn characterization_inverter_is_bit_identical() {
        let proc = Process::c013();
        let (slew, load, dt) = (150e-12, 10e-15, 2e-12);
        let full = slew / 0.8;
        let mid = 0.2e-9 + full / 2.0;
        let t_stop = mid + full / 2.0 + 2.0e-9;
        let mut net = Netlist::new(proc.vdd);
        let inp = net.node("in");
        let out = net.node("out");
        cells::add_inverter(&mut net, &proc, 1.0, inp, out, "dut").unwrap();
        cells::add_load_cap(&mut net, out, load).unwrap();
        let ramp = Waveform::new(
            vec![0.0, mid - full / 2.0, mid + full / 2.0, t_stop],
            vec![0.0, 0.0, proc.vdd, proc.vdd],
        )
        .unwrap();
        net.vsource(inp, ramp).unwrap();
        assert_same_run(&net, SimOptions::new(0.0, t_stop, dt).unwrap());
    }

    /// Current injections: two sources summed into one free node, one into
    /// another, and one into a driven node (which the engines ignore).
    fn injected_net() -> Netlist {
        let proc = Process::c013();
        let mut net = Netlist::new(proc.vdd);
        let inp = net.node("in");
        let out = net.node("out");
        let far = net.node("far");
        cells::add_inverter(&mut net, &proc, 2.0, inp, out, "u1").unwrap();
        net.resistor(out, far, 150.0).unwrap();
        net.capacitor(far, Netlist::GROUND, 6e-15).unwrap();
        let ramp = Waveform::new(vec![0.0, 0.4e-9, 0.55e-9, 2e-9], vec![0.0, 0.0, 1.2, 1.2]);
        net.vsource(inp, ramp.unwrap()).unwrap();
        let pulse = Waveform::new(
            vec![0.0, 0.8e-9, 0.9e-9, 1.0e-9, 2e-9],
            vec![0.0, 0.0, 40e-6, 0.0, 0.0],
        )
        .unwrap();
        let leak = Waveform::constant(-3e-6, 0.0, 2e-9).unwrap();
        net.isource(far, pulse.clone()).unwrap();
        net.isource(out, leak.clone()).unwrap();
        net.isource(far, leak).unwrap();
        net.isource(inp, pulse).unwrap();
        net
    }

    #[test]
    fn injections_are_bit_identical() {
        assert_same_run(&injected_net(), SimOptions::new(0.0, 2e-9, 1e-12).unwrap());
    }

    #[test]
    fn dc_operating_points_are_bit_identical() {
        let net = injected_net();
        for t in [0.0, 0.85e-9, 1.5e-9] {
            let sparse = net.dc_operating_point(t).unwrap();
            assert_eq!(bits(&sparse), bits(&dc_operating_point(&net, t).unwrap()));
        }
        let cfg = Fig1Config::config_ii();
        let (net, _) = fig1::build(&cfg, &[Some(0.0), None]).unwrap();
        let sparse = net.dc_operating_point(cfg.victim_mid_time).unwrap();
        let dense = dc_operating_point(&net, cfg.victim_mid_time).unwrap();
        assert_eq!(bits(&sparse), bits(&dense));
    }
}
