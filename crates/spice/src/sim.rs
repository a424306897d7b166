use crate::netlist::{Netlist, NodeId};
use crate::SpiceError;
use nsta_numeric::{CsrMatrix, DenseMatrix, LuFactors, NumericError, SparseLu, TripletMatrix};
use nsta_waveform::Waveform;

/// Node-to-ground leakage conductance of a transient run (S): 1 pS.
const GMIN: f64 = 1e-12;
/// Newton voltage tolerance of a transient step (V): 0.1 µV.
const NEWTON_TOL: f64 = 1e-7;
/// Newton iterations a transient step may take before it diverges.
const MAX_NEWTON: usize = 50;
/// Largest voltage update of one transient Newton iteration (V).
const DV_CLAMP: f64 = 0.4;

/// Options for a nonlinear transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    t_start: f64,
    t_stop: f64,
    dt: f64,
}

impl SimOptions {
    /// Creates options for a run over `[t_start, t_stop]` with step `dt`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidOptions`] for a degenerate window or step.
    pub fn new(t_start: f64, t_stop: f64, dt: f64) -> Result<Self, SpiceError> {
        if !(t_start.is_finite() && t_stop.is_finite() && dt.is_finite()) {
            return Err(SpiceError::InvalidOptions("times must be finite"));
        }
        if !(t_stop > t_start) {
            return Err(SpiceError::InvalidOptions("t_stop must exceed t_start"));
        }
        if !(dt > 0.0) || dt >= t_stop - t_start {
            return Err(SpiceError::InvalidOptions(
                "dt must be positive and smaller than span",
            ));
        }
        Ok(SimOptions {
            t_start,
            t_stop,
            dt,
        })
    }

    /// Start of the window (s).
    pub fn t_start(&self) -> f64 {
        self.t_start
    }

    /// End of the window (s).
    pub fn t_stop(&self) -> f64 {
        self.t_stop
    }

    /// Fixed timestep (s).
    pub fn dt(&self) -> f64 {
        self.dt
    }
}

/// Recorded node voltages from a nonlinear transient run.
#[derive(Debug, Clone)]
pub struct SimResult {
    times: Vec<f64>,
    voltages: Vec<Vec<f64>>,
    newton_iterations: usize,
}

impl SimResult {
    /// The simulation time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Total Newton iterations over the whole run (a convergence-health
    /// metric: healthy runs average 2–4 per step).
    pub fn newton_iterations(&self) -> usize {
        self.newton_iterations
    }

    /// The voltage trace of `node` as a [`Waveform`].
    ///
    /// # Errors
    ///
    /// [`SpiceError::NotRecorded`] for ground; [`SpiceError::UnknownNode`]
    /// for foreign ids.
    pub fn voltage(&self, node: NodeId) -> Result<Waveform, SpiceError> {
        if node.is_ground() {
            return Err(SpiceError::NotRecorded(
                "ground voltage is identically zero",
            ));
        }
        let trace = self
            .voltages
            .get(node.0)
            .ok_or(SpiceError::UnknownNode { index: node.0 })?;
        Ok(Waveform::new(self.times.clone(), trace.clone())?)
    }
}

/// A Jacobian stamp sink: `(r, c, v)` accumulation plus the scale applied
/// to device derivatives (1 for DC, ½ for the trapezoidal residual).
type JacStamp<'a> = Option<(&'a mut dyn FnMut(usize, usize, f64), f64)>;

/// Assembled linear portion of the MNA system, shared by DC and transient.
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
    /// The same UU stamps in assembly (triplet) form, kept so the Newton
    /// loops can build sparse Jacobian patterns without re-walking the
    /// element lists.
    g_trip: TripletMatrix,
    c_trip: TripletMatrix,
}

/// Reusable sparse Newton-system solver.
///
/// The Jacobian of every Newton iteration shares one sparsity pattern: the
/// linear `G`/`C` stamps plus each device's fixed terminal positions. The
/// pattern is analyzed (symbolic factorization) once; every iteration
/// resets the stored values to the precomputed linear base, stamps the
/// device derivatives on top, and re-eliminates **numerically only** with
/// zero allocation ([`SparseLu::refactor`]).
///
/// The no-pivot elimination is valid while the Jacobian stays diagonally
/// dominant — true near the CMOS operating points the damped Newton walks
/// through. If an iterate strays far enough that a natural-order pivot
/// vanishes, the solve transparently falls back to the dense
/// partial-pivoting factorization for that iteration, so robustness is
/// never traded for speed.
struct SparseJacobian {
    /// Union pattern with the current iteration's values.
    csr: CsrMatrix,
    /// Iteration-invariant values (linear stamps; zeros at device-only
    /// positions), aligned with `csr.values()`.
    base: Vec<f64>,
    /// Symbolic + numeric factors; `None` if even the linear base was not
    /// no-pivot factorable (every solve then takes the dense path).
    lu: Option<SparseLu>,
}

impl SparseJacobian {
    /// Builds the solver from the fully stamped assembly buffer (linear
    /// values plus zero-valued device positions).
    fn new(pattern: &TripletMatrix) -> Self {
        let csr = pattern.to_csr();
        let base = csr.values().to_vec();
        let lu = SparseLu::factor(&csr).ok();
        SparseJacobian { csr, base, lu }
    }

    /// Resets the stored values to the linear base; device stamps go on
    /// top via [`SparseJacobian::add`].
    fn reset(&mut self) {
        self.csr.values_mut().copy_from_slice(&self.base);
    }

    /// Adds `v` at `(r, c)` — must lie inside the analyzed pattern.
    #[inline]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        self.csr.add_at(r, c, v);
    }

    /// Factors the current values and solves `J·x = b`, preferring the
    /// sparse no-pivot path and falling back to dense partial pivoting on
    /// a vanishing pivot.
    fn solve_into(&mut self, b: &[f64], x: &mut [f64]) -> Result<(), SpiceError> {
        if let Some(lu) = self.lu.as_mut() {
            match lu.refactor(&self.csr) {
                Ok(()) => {
                    x.copy_from_slice(b);
                    lu.solve_in_place(x).map_err(SpiceError::from)?;
                    return Ok(());
                }
                // A lost pivot is recoverable — this iteration goes dense.
                Err(NumericError::SingularMatrix { .. }) => {}
                Err(e) => return Err(e.into()),
            }
        }
        let dense = LuFactors::factor(&self.csr.to_dense())?;
        dense.solve_into(b, x)?;
        Ok(())
    }
}

impl Netlist {
    fn assemble(&self, gmin: f64) -> Assembled {
        let n = self.node_count();
        let mut is_driven = vec![false; n];
        for (node, _) in &self.vsources {
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
        let nd = self.vsources.len();
        let mut driven_slot = vec![usize::MAX; n];
        for (k, (node, _)) in self.vsources.iter().enumerate() {
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
        for &(a, b, g) in &self.resistors {
            stamp(&mut g_uu, &mut g_trip, &mut g_uk, a, b, g);
        }
        for &(a, b, c) in &self.capacitors {
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

    /// Appends every `(row, col)` a device Jacobian can ever stamp (the
    /// positions are fixed by topology, not by the operating point) to
    /// `trip` with value zero, completing a Newton Jacobian pattern.
    fn device_pattern(&self, asm: &Assembled, trip: &mut TripletMatrix) {
        let zeros_x = vec![0.0; asm.nf];
        let zeros_w = vec![0.0; asm.nd];
        let mut scratch = vec![0.0; asm.nf];
        self.device_currents(
            asm,
            &zeros_x,
            &zeros_w,
            &mut scratch,
            Some((&mut |r, c, _v| trip.add(r, c, 0.0), 1.0)),
        );
    }

    /// Voltage of `node_index` given the free vector `x` and driven values
    /// `w`; ground reads zero.
    fn volt(asm: &Assembled, x: &[f64], w: &[f64], node: usize) -> f64 {
        if node == NodeId::GROUND_SENTINEL {
            0.0
        } else if asm.is_driven[node] {
            w[asm.driven_slot[node]]
        } else {
            x[asm.position[node]]
        }
    }

    /// Accumulates device currents into `f` (KCL: current leaving each free
    /// node) and, when `jac` is provided, the device Jacobian scaled by
    /// `jac_scale`.
    fn device_currents(
        &self,
        asm: &Assembled,
        x: &[f64],
        w: &[f64],
        f: &mut [f64],
        mut jac: JacStamp,
    ) {
        let ground = NodeId::GROUND_SENTINEL;
        for dev in &self.mosfets {
            let vg = Self::volt(asm, x, w, dev.gate);
            let vd = Self::volt(asm, x, w, dev.drain);
            let vs = Self::volt(asm, x, w, dev.source);
            let e = dev.eval(vg, vd, vs);
            // Current into the drain leaves the drain node; current into
            // the source is the negative.
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

    /// Solves the nonlinear DC operating point at time `at_time` (sources
    /// evaluated at that instant). Returns the full per-node voltage vector.
    ///
    /// Uses damped Newton–Raphson from a linear-only initial guess; voltage
    /// updates are clamped to keep the iteration inside the devices'
    /// well-behaved region.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::NewtonDiverged`] if the iteration stalls.
    /// * [`SpiceError::Numeric`] on a singular Jacobian.
    pub fn dc_operating_point(&self, at_time: f64) -> Result<Vec<f64>, SpiceError> {
        let asm = self.assemble(1e-9); // stronger gmin for the DC solve
        let (x, _) = self.dc_solve(&asm, at_time)?;
        let w: Vec<f64> = self
            .vsources
            .iter()
            .map(|(_, wf)| wf.value_at(at_time))
            .collect();
        let mut out = vec![0.0; self.node_count()];
        for i in 0..self.node_count() {
            out[i] = Self::volt(&asm, &x, &w, i);
        }
        Ok(out)
    }

    fn dc_solve(&self, asm: &Assembled, at_time: f64) -> Result<(Vec<f64>, usize), SpiceError> {
        let nf = asm.nf;
        let w: Vec<f64> = self
            .vsources
            .iter()
            .map(|(_, wf)| wf.value_at(at_time))
            .collect();
        let mut inj = vec![0.0; nf];
        for (node, wf) in &self.isources {
            if !asm.is_driven[*node] {
                inj[asm.position[*node]] += wf.value_at(at_time);
            }
        }
        // Initial guess: half-rail everywhere — a neutral start from which
        // damped Newton reliably falls into the unique static-CMOS solution.
        let mut x = vec![self.vdd() * 0.5; nf];
        let mut f = vec![0.0; nf];
        let mut delta = vec![0.0; nf];
        // Newton Jacobian G_UU + ∂I_dev/∂v on the union sparsity pattern:
        // symbolic factorization once, numeric refactor per iteration.
        let mut jac_pattern = asm.g_trip.clone();
        self.device_pattern(asm, &mut jac_pattern);
        let mut jac = SparseJacobian::new(&jac_pattern);
        let max_iter = 200;
        let mut last_update = f64::INFINITY;
        for iter in 0..max_iter {
            // Residual F = G_UU x + G_UK w + I_dev − inj.
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
            self.device_currents(
                asm,
                &x,
                &w,
                &mut f,
                Some((&mut |r, c, v| jac.add(r, c, v), 1.0)),
            );
            jac.solve_into(&f, &mut delta)?;
            // Newton step is x ← x − Δ with per-component damping.
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

    /// Runs a trapezoidal-rule nonlinear transient analysis.
    ///
    /// The initial state is the DC operating point with sources at
    /// `t_start`. Each step solves the trapezoidal residual with Newton
    /// iterations seeded from the previous accepted state.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::NewtonDiverged`] with the failing timestamp if a step
    ///   cannot converge (reduce `dt`).
    /// * [`SpiceError::Numeric`] on singular Jacobians.
    pub fn run_transient(&self, opts: SimOptions) -> Result<SimResult, SpiceError> {
        let asm = self.assemble(GMIN);
        let nf = asm.nf;
        let h = opts.dt;
        let steps = ((opts.t_stop - opts.t_start) / h).round() as usize;
        let times: Vec<f64> = (0..=steps).map(|k| opts.t_start + k as f64 * h).collect();

        // Precompute driven voltages and injections at each time point.
        let w_at: Vec<Vec<f64>> = times
            .iter()
            .map(|&t| self.vsources.iter().map(|(_, wf)| wf.value_at(t)).collect())
            .collect();
        let mut inj_at = vec![vec![0.0; nf]; times.len()];
        for (node, wf) in &self.isources {
            if asm.is_driven[*node] {
                continue;
            }
            let r = asm.position[*node];
            for (ti, &t) in times.iter().enumerate() {
                inj_at[ti][r] += wf.value_at(t);
            }
        }

        // Initial state: DC at t_start.
        let (mut x, dc_iters) = self.dc_solve(&asm, opts.t_start)?;
        let mut newton_total = dc_iters;

        // Device + conductive currents at the old time point:
        // i_old = G_UU x + G_UK w + I_dev(x, w) − inj.
        let eval_static = |x: &[f64], w: &[f64], inj: &[f64], out: &mut Vec<f64>| {
            out.iter_mut().for_each(|v| *v = 0.0);
            for r in 0..nf {
                let acc = nsta_numeric::dot(asm.g_uu.row(r), x)
                    + nsta_numeric::dot(&asm.g_uk.row(r)[..asm.nd], w);
                out[r] = acc - inj[r];
            }
            self.device_currents(&asm, x, w, out, None);
        };

        let mut i_old = vec![0.0; nf];
        eval_static(&x, &w_at[0], &inj_at[0], &mut i_old);

        let mut voltages: Vec<Vec<f64>> = vec![Vec::with_capacity(times.len()); self.node_count()];
        let record = |voltages: &mut Vec<Vec<f64>>, x: &[f64], w: &[f64]| {
            for i in 0..self.node_count() {
                voltages[i].push(Self::volt(&asm, x, w, i));
            }
        };
        record(&mut voltages, &x, &w_at[0]);

        let mut f = vec![0.0; nf];
        let mut x_new = x.clone();
        let mut i_new = vec![0.0; nf];
        let mut delta = vec![0.0; nf];
        let mut dev_scratch = vec![0.0; nf];
        // The linear part of the Jacobian, C_UU/h + ½ G_UU, never changes:
        // stamp it once (together with every device's fixed Jacobian
        // positions) into the union sparsity pattern, analyze the symbolic
        // factorization once, and per Newton iteration only reset the
        // values, stamp the device derivatives and refactor numerically.
        let mut jac = {
            let mut pattern = TripletMatrix::new(nf, nf);
            pattern.extend_scaled(&asm.c_trip, 1.0 / h);
            pattern.extend_scaled(&asm.g_trip, 0.5);
            self.device_pattern(&asm, &mut pattern);
            SparseJacobian::new(&pattern)
        };

        for ti in 1..times.len() {
            let w_prev = &w_at[ti - 1];
            let w_now = &w_at[ti];
            // Newton iterations for the trapezoidal residual:
            // F(x) = C_UU (x − x_n)/h + C_UK Δw/h + ½(i_static(x) + i_old).
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
                self.device_currents(
                    &asm,
                    &x_new,
                    w_now,
                    &mut dev_scratch,
                    Some((&mut |r, c, v| jac.add(r, c, v), 0.5)),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MosType;
    use crate::netlist::Process;

    fn inverter_net(size: f64, load: f64) -> (Netlist, NodeId, NodeId) {
        let p = Process::c013();
        let mut net = Netlist::new(p.vdd);
        let inp = net.node("in");
        let out = net.node("out");
        let vdd = net.vdd_node();
        net.mosfet(MosType::Pmos, p.wp_1x * size, p.pmos, out, inp, vdd)
            .unwrap();
        net.mosfet(
            MosType::Nmos,
            p.wn_1x * size,
            p.nmos,
            out,
            inp,
            Netlist::GROUND,
        )
        .unwrap();
        net.capacitor(out, Netlist::GROUND, load).unwrap();
        (net, inp, out)
    }

    #[test]
    fn sim_options_validate() {
        assert!(SimOptions::new(0.0, 1e-9, 1e-12).is_ok());
        assert!(SimOptions::new(0.0, 0.0, 1e-12).is_err());
        assert!(SimOptions::new(0.0, 1e-9, 0.0).is_err());
        assert!(SimOptions::new(0.0, 1e-9, 1e-8).is_err());
    }

    #[test]
    fn dc_inverter_transfer_is_inverting() {
        let (mut net, inp, out) = inverter_net(1.0, 5e-15);
        net.vsource(inp, Waveform::constant(0.0, -1.0, 1.0).unwrap())
            .unwrap();
        let v = net.dc_operating_point(0.0).unwrap();
        assert!(
            v[out.0] > 1.15,
            "input low ⇒ output at vdd, got {}",
            v[out.0]
        );

        let (mut net2, inp2, out2) = inverter_net(1.0, 5e-15);
        net2.vsource(inp2, Waveform::constant(1.2, -1.0, 1.0).unwrap())
            .unwrap();
        let v2 = net2.dc_operating_point(0.0).unwrap();
        assert!(
            v2[out2.0] < 0.05,
            "input high ⇒ output at ground, got {}",
            v2[out2.0]
        );
    }

    #[test]
    fn dc_transfer_curve_is_monotone_decreasing() {
        let mut prev = f64::INFINITY;
        for k in 0..=12 {
            let vin = 1.2 * k as f64 / 12.0;
            let (mut net, inp, out) = inverter_net(1.0, 5e-15);
            net.vsource(inp, Waveform::constant(vin, -1.0, 1.0).unwrap())
                .unwrap();
            let v = net.dc_operating_point(0.0).unwrap();
            assert!(v[out.0] <= prev + 1e-6, "vtc must fall: vin={vin}");
            prev = v[out.0];
        }
    }

    #[test]
    fn transient_inverter_switches_and_is_clean() {
        let (mut net, inp, out) = inverter_net(1.0, 8e-15);
        let ramp =
            Waveform::new(vec![0.0, 0.5e-9, 0.65e-9, 3e-9], vec![0.0, 0.0, 1.2, 1.2]).unwrap();
        net.vsource(inp, ramp).unwrap();
        let res = net
            .run_transient(SimOptions::new(0.0, 3e-9, 1e-12).unwrap())
            .unwrap();
        let v = res.voltage(out).unwrap();
        assert!(v.value_at(0.3e-9) > 1.15);
        assert!(v.value_at(2.5e-9) < 0.05);
        // Output falls monotonically (single clean transition).
        let fall = v.windowed(0.4e-9, 2.0e-9).unwrap();
        assert!(fall.is_monotonic(nsta_waveform::Polarity::Fall, 1e-3));
        // Healthy Newton: fewer than 8 iterations per step on average.
        assert!(res.newton_iterations() < res.times().len() * 8);
    }

    #[test]
    fn delay_grows_with_load() {
        let th = nsta_waveform::Thresholds::cmos(1.2);
        let mut delays = Vec::new();
        for load in [4e-15, 16e-15, 64e-15] {
            let (mut net, inp, out) = inverter_net(1.0, load);
            let ramp =
                Waveform::new(vec![0.0, 0.5e-9, 0.65e-9, 5e-9], vec![0.0, 0.0, 1.2, 1.2]).unwrap();
            net.vsource(inp, ramp).unwrap();
            let res = net
                .run_transient(SimOptions::new(0.0, 5e-9, 2e-12).unwrap())
                .unwrap();
            let v_out = res.voltage(out).unwrap();
            let t_in = 0.5e-9 + 0.075e-9; // mid of the input ramp
            let t_out = v_out.last_crossing(th.mid()).unwrap();
            delays.push(t_out - t_in);
        }
        assert!(
            delays[1] > delays[0] && delays[2] > delays[1],
            "delays: {delays:?}"
        );
        // 16× the load ⇒ several times the delay.
        assert!(delays[2] > 3.0 * delays[0]);
    }

    #[test]
    fn stronger_driver_is_faster() {
        let th = nsta_waveform::Thresholds::cmos(1.2);
        let mut delays = Vec::new();
        for size in [1.0, 4.0] {
            let (mut net, inp, out) = inverter_net(size, 20e-15);
            let ramp =
                Waveform::new(vec![0.0, 0.5e-9, 0.65e-9, 4e-9], vec![0.0, 0.0, 1.2, 1.2]).unwrap();
            net.vsource(inp, ramp).unwrap();
            let res = net
                .run_transient(SimOptions::new(0.0, 4e-9, 2e-12).unwrap())
                .unwrap();
            let t_out = res.voltage(out).unwrap().last_crossing(th.mid()).unwrap();
            delays.push(t_out);
        }
        assert!(delays[1] < delays[0]);
    }

    #[test]
    fn rc_only_netlist_matches_linear_engine() {
        // With no transistors the nonlinear engine must agree with
        // nsta-circuit on the same RC divider.
        let mut net = Netlist::new(1.2);
        let a = net.node("a");
        let b = net.node("b");
        let step = Waveform::new(vec![0.0, 1e-12, 5e-9], vec![0.0, 1.0, 1.0]).unwrap();
        net.vsource(a, step.clone()).unwrap();
        net.resistor(a, b, 1000.0).unwrap();
        net.capacitor(b, Netlist::GROUND, 1e-12).unwrap();
        let res = net
            .run_transient(SimOptions::new(0.0, 5e-9, 5e-12).unwrap())
            .unwrap();
        let v = res.voltage(b).unwrap();

        let mut ckt = nsta_circuit::Circuit::new();
        let ca = ckt.node("a");
        let cb = ckt.node("b");
        ckt.vsource(ca, step).unwrap();
        ckt.resistor(ca, cb, 1000.0).unwrap();
        ckt.capacitor(cb, nsta_circuit::Circuit::GROUND, 1e-12)
            .unwrap();
        let lin = ckt
            .run_transient(nsta_circuit::TransientOptions::new(0.0, 5e-9, 5e-12).unwrap())
            .unwrap();
        let vl = lin.voltage(cb).unwrap();
        for t in [0.5e-9, 1e-9, 2e-9, 4e-9] {
            assert!(
                (v.value_at(t) - vl.value_at(t)).abs() < 1e-6,
                "mismatch at {t:e}"
            );
        }
    }

    #[test]
    fn nand2_truth_table_dc() {
        let p = Process::c013();
        let hi = Waveform::constant(1.2, -1.0, 1.0).unwrap();
        let lo = Waveform::constant(0.0, -1.0, 1.0).unwrap();
        for (va, vb, expect_high) in [
            (lo.clone(), lo.clone(), true),
            (hi.clone(), lo.clone(), true),
            (lo.clone(), hi.clone(), true),
            (hi.clone(), hi.clone(), false),
        ] {
            let mut net = Netlist::new(p.vdd);
            let a = net.node("a");
            let b = net.node("b");
            let y = net.node("y");
            let mid = net.node("mid");
            let vdd = net.vdd_node();
            // Parallel PMOS pull-up, series NMOS pull-down.
            net.mosfet(MosType::Pmos, p.wp_1x, p.pmos, y, a, vdd)
                .unwrap();
            net.mosfet(MosType::Pmos, p.wp_1x, p.pmos, y, b, vdd)
                .unwrap();
            net.mosfet(MosType::Nmos, 2.0 * p.wn_1x, p.nmos, y, a, mid)
                .unwrap();
            net.mosfet(
                MosType::Nmos,
                2.0 * p.wn_1x,
                p.nmos,
                mid,
                b,
                Netlist::GROUND,
            )
            .unwrap();
            net.capacitor(y, Netlist::GROUND, 2e-15).unwrap();
            net.vsource(a, va.clone()).unwrap();
            net.vsource(b, vb.clone()).unwrap();
            let v = net.dc_operating_point(0.0).unwrap();
            if expect_high {
                assert!(v[y.0] > 1.1, "expected high, got {}", v[y.0]);
            } else {
                assert!(v[y.0] < 0.1, "expected low, got {}", v[y.0]);
            }
        }
    }
}
