use crate::device::{DeviceEval, Mosfet};
use crate::netlist::{Netlist, NodeId};
use crate::SpiceError;
use nsta_numeric::{ChunkedRows, CsrMatrix, LuFactors, NumericError, SparseLu, TripletMatrix};
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

/// Where a node's voltage lives in a solve.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    /// The reference node: 0 V.
    Ground,
    /// Pinned by voltage source `k`: `w[k]`.
    Driven(usize),
    /// Unknown `i` of the Newton system: `x[i]`.
    Free(usize),
}

impl Slot {
    /// The slot of `node` given every non-ground node's slot.
    #[inline]
    fn of(slots: &[Slot], node: usize) -> Slot {
        if node == NodeId::GROUND_SENTINEL {
            Slot::Ground
        } else {
            slots[node]
        }
    }

    #[inline]
    fn volt(self, x: &[f64], w: &[f64]) -> f64 {
        match self {
            Slot::Ground => 0.0,
            Slot::Driven(k) => w[k],
            Slot::Free(i) => x[i],
        }
    }

    fn free(self) -> Option<usize> {
        match self {
            Slot::Free(i) => Some(i),
            _ => None,
        }
    }
}

/// Assembled linear portion of the MNA system, shared by DC and transient.
///
/// Every stamp lives in CSR form only, so a residual costs the stored
/// entries of its rows. The CSR values are the sums of the triplet stamps
/// in element order, bit-identical to stamping the same sequence into
/// dense matrices (see `nsta_numeric::sparse`).
struct Assembled {
    nf: usize,
    /// Each node's slot; ground has none (see [`Slot::of`]).
    slots: Vec<Slot>,
    /// Conductances among free nodes, gmin on every diagonal (`nf × nf`).
    g_uu: CsrMatrix,
    /// Conductances from free to driven nodes (`nf × nd`).
    g_uk: CsrMatrix,
    /// The same two in four-column chunks: the transient's static
    /// currents sum them as `nsta_numeric::dot` sums a dense row.
    g_uu_chunks: ChunkedRows,
    g_uk_chunks: ChunkedRows,
    /// Capacitances among free nodes and from free to driven nodes.
    c_uu: CsrMatrix,
    c_uk: CsrMatrix,
    /// The UU stamps in assembly (triplet) form: the Newton loops combine
    /// them into their Jacobian patterns.
    g_trip: TripletMatrix,
    c_trip: TripletMatrix,
    /// Free rows that current sources inject into, in order of first
    /// injection.
    inj_rows: Vec<usize>,
}

/// Source values on one time grid, time-major: row `ti` holds every
/// driven voltage (one per voltage source, in netlist order) and every
/// injected row's summed current (aligned with [`Assembled::inj_rows`],
/// summed from `0.0` in netlist order). Each sample is
/// [`Waveform::sample_on_grid`]'s, which equals `value_at` bit for bit.
struct SourceTable {
    nd: usize,
    ni: usize,
    w: Vec<f64>,
    inj: Vec<f64>,
}

impl SourceTable {
    fn new(net: &Netlist, asm: &Assembled, grid: &[f64]) -> Self {
        let (nd, ni) = (net.vsources.len(), asm.inj_rows.len());
        let mut w = vec![0.0; grid.len() * nd];
        let mut inj = vec![0.0; grid.len() * ni];
        let mut samples = Vec::with_capacity(grid.len());
        for (k, (_, wf)) in net.vsources.iter().enumerate() {
            wf.sample_on_grid(grid, &mut samples);
            for (row, &v) in w.chunks_exact_mut(nd).zip(&samples) {
                row[k] = v;
            }
        }
        for (node, wf) in &net.isources {
            let Some(r) = asm.slots[*node].free() else {
                continue;
            };
            let Some(j) = asm.inj_rows.iter().position(|&i| i == r) else {
                continue;
            };
            wf.sample_on_grid(grid, &mut samples);
            for (row, &v) in inj.chunks_exact_mut(ni).zip(&samples) {
                row[j] += v;
            }
        }
        SourceTable { nd, ni, w, inj }
    }

    /// Driven voltages at grid point `ti`.
    fn w(&self, ti: usize) -> &[f64] {
        &self.w[ti * self.nd..(ti + 1) * self.nd]
    }

    /// Injected currents at grid point `ti`.
    fn inj(&self, ti: usize) -> &[f64] {
        &self.inj[ti * self.ni..(ti + 1) * self.ni]
    }
}

/// A MOSFET resolved against one assembly and one Jacobian pattern.
struct DeviceStamp<'a> {
    mos: &'a Mosfet,
    /// Gate, drain and source slots: the order of the derivative triple.
    terms: [Slot; 3],
    /// Free KCL rows of the drain (the current leaves it) and the source.
    drain_row: Option<usize>,
    source_row: Option<usize>,
    /// Jacobian value index of `(drain row, terms[j])` at `j` and of
    /// `(source row, terms[j])` at `3 + j`; `None` where the row or the
    /// column is not free.
    jac: [Option<usize>; 6],
    /// The last evaluation and the terminal voltages it was made at. The
    /// model is a pure function of those voltages, so a pass that finds
    /// them unchanged bit for bit reuses it: a transient step's first
    /// Newton iteration starts at the point the previous step's closing
    /// current pass evaluated, so every device whose driven terminals held
    /// still skips its model there.
    memo: Option<([f64; 3], DeviceEval)>,
}

impl<'a> DeviceStamp<'a> {
    fn new(mos: &'a Mosfet, asm: &Assembled) -> Self {
        let terms = [mos.gate, mos.drain, mos.source].map(|n| Slot::of(&asm.slots, n));
        DeviceStamp {
            mos,
            terms,
            drain_row: terms[1].free(),
            source_row: terms[2].free(),
            jac: [None; 6],
            memo: None,
        }
    }

    /// The `(row, column)` of each Jacobian entry the device stamps, in
    /// stamping order (the layout of [`DeviceStamp::jac`]). The positions
    /// are fixed by topology, not by the operating point.
    fn entries(&self) -> [Option<(usize, usize)>; 6] {
        let mut out = [None; 6];
        for (half, row) in [self.drain_row, self.source_row].into_iter().enumerate() {
            for (j, term) in self.terms.iter().enumerate() {
                out[3 * half + j] = row.zip(term.free());
            }
        }
        out
    }
}

/// One evaluation of every MOSFET at `(x, w)`, in netlist order. Adds
/// each drain current to `i` (leaving the drain row, entering the source
/// row) and, with `jac = (values, scale)`, `scale·∂I/∂v` to the drain
/// row's slots and `−scale·∂I/∂v` to the source row's.
fn device_pass(
    devices: &mut [DeviceStamp],
    x: &[f64],
    w: &[f64],
    i: &mut [f64],
    mut jac: Option<(&mut [f64], f64)>,
) {
    for dev in devices {
        let v = dev.terms.map(|t| t.volt(x, w));
        let e = match dev.memo {
            Some((at, e)) if at.map(f64::to_bits) == v.map(f64::to_bits) => e,
            _ => {
                let e = dev.mos.eval(v[0], v[1], v[2]);
                dev.memo = Some((v, e));
                e
            }
        };
        if let Some(r) = dev.drain_row {
            i[r] += e.i_drain;
        }
        if let Some(r) = dev.source_row {
            i[r] -= e.i_drain;
        }
        if let Some((values, scale)) = jac.as_mut() {
            let d = [e.di_dvg, e.di_dvd, e.di_dvs];
            for (j, slot) in dev.jac.iter().enumerate() {
                if let Some(k) = *slot {
                    values[k] += if j < 3 {
                        *scale * d[j]
                    } else {
                        -*scale * d[j - 3]
                    };
                }
            }
        }
    }
}

/// Reusable sparse Newton-system solver.
///
/// The Jacobian of every Newton iteration shares one sparsity pattern: the
/// linear `G`/`C` stamps plus each device's fixed terminal positions. The
/// pattern is analyzed (symbolic factorization) once, and each device's
/// value slots are resolved once. Every iteration resets the stored values
/// to the precomputed linear base, adds the device derivatives at their
/// slots ([`device_pass`]) and re-eliminates **numerically only** with
/// zero allocation ([`SparseLu::refactor_values`]: the solver owns the
/// analyzed matrix, so no pattern comparison): one iteration costs the
/// pattern's stored entries and the factor's, not `nf²`.
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
    /// Builds the solver from the linear stamps: appends every device's
    /// entries with value zero to complete the pattern, then resolves each
    /// device's value slots in it.
    fn new(mut pattern: TripletMatrix, devices: &mut [DeviceStamp]) -> Self {
        for dev in devices.iter() {
            for (r, c) in dev.entries().into_iter().flatten() {
                pattern.add(r, c, 0.0);
            }
        }
        let csr = pattern.to_csr();
        for dev in devices.iter_mut() {
            dev.jac = dev
                .entries()
                .map(|e| e.and_then(|(r, c)| csr.value_index(r, c)));
        }
        let base = csr.values().to_vec();
        let lu = SparseLu::factor(&csr).ok();
        SparseJacobian { csr, base, lu }
    }

    /// Resets the stored values to the linear base and returns them for
    /// the device stamps.
    fn reset(&mut self) -> &mut [f64] {
        let values = self.csr.values_mut();
        values.copy_from_slice(&self.base);
        values
    }

    /// Factors the current values and solves `J·x = b`, preferring the
    /// sparse no-pivot path and falling back to dense partial pivoting on
    /// a vanishing pivot.
    fn solve_into(&mut self, b: &[f64], x: &mut [f64]) -> Result<(), SpiceError> {
        if let Some(lu) = self.lu.as_mut() {
            match lu.refactor_values(self.csr.values()) {
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
        let mut slots = vec![None; self.node_count()];
        for (k, (node, _)) in self.vsources.iter().enumerate() {
            slots[*node] = Some(Slot::Driven(k));
        }
        let mut nf = 0;
        let slots: Vec<Slot> = slots
            .into_iter()
            .map(|s| {
                s.unwrap_or_else(|| {
                    nf += 1;
                    Slot::Free(nf - 1)
                })
            })
            .collect();
        let nd = self.vsources.len();
        let mut g_trip = TripletMatrix::new(nf, nf);
        let mut g_uk = TripletMatrix::new(nf, nd);
        let mut c_trip = TripletMatrix::new(nf, nf);
        let mut c_uk = TripletMatrix::new(nf, nd);

        let slot = |node: usize| Slot::of(&slots, node);
        let stamp = |uu: &mut TripletMatrix, uk: &mut TripletMatrix, a: usize, b: usize, v: f64| {
            for (node, other) in [(a, b), (b, a)] {
                let Slot::Free(r) = slot(node) else {
                    continue;
                };
                uu.add(r, r, v);
                match slot(other) {
                    Slot::Ground => {}
                    Slot::Driven(k) => uk.add(r, k, -v),
                    Slot::Free(c) => uu.add(r, c, -v),
                }
            }
        };
        for &(a, b, g) in &self.resistors {
            stamp(&mut g_trip, &mut g_uk, a, b, g);
        }
        for &(a, b, c) in &self.capacitors {
            stamp(&mut c_trip, &mut c_uk, a, b, c);
        }
        for r in 0..nf {
            g_trip.add(r, r, gmin);
        }
        let mut inj_rows = Vec::new();
        for (node, _) in &self.isources {
            if let Some(r) = slots[*node].free() {
                if !inj_rows.contains(&r) {
                    inj_rows.push(r);
                }
            }
        }
        let (g_uu, g_uk) = (g_trip.to_csr(), g_uk.to_csr());
        Assembled {
            nf,
            g_uu_chunks: ChunkedRows::new(&g_uu),
            g_uk_chunks: ChunkedRows::new(&g_uk),
            g_uu,
            g_uk,
            c_uu: c_trip.to_csr(),
            c_uk: c_uk.to_csr(),
            slots,
            g_trip,
            c_trip,
            inj_rows,
        }
    }

    /// Every MOSFET resolved against `asm`, slots not yet resolved.
    fn device_stamps(&self, asm: &Assembled) -> Vec<DeviceStamp<'_>> {
        self.mosfets
            .iter()
            .map(|m| DeviceStamp::new(m, asm))
            .collect()
    }

    /// Static currents leaving each free node at `(x, w)`:
    /// `G_UU·x + G_UK·w − inj + I_dev(x, w)`, given `gx = G_UU·x`. Both
    /// linear terms are summed as `nsta_numeric::dot` sums a dense row
    /// ([`ChunkedRows::dot_into`]). With `jac`, the same device pass
    /// stamps the Jacobian.
    #[allow(clippy::too_many_arguments)]
    fn static_currents(
        asm: &Assembled,
        devices: &mut [DeviceStamp],
        gx: &[f64],
        x: &[f64],
        w: &[f64],
        inj: &[f64],
        out: &mut [f64],
        jac: Option<(&mut [f64], f64)>,
    ) -> Result<(), SpiceError> {
        asm.g_uk_chunks.dot_into(w, out)?;
        for (o, &g) in out.iter_mut().zip(gx) {
            *o += g;
        }
        for (&r, &v) in asm.inj_rows.iter().zip(inj) {
            out[r] -= v;
        }
        device_pass(devices, x, w, out, jac);
        Ok(())
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
        let sources = SourceTable::new(self, &asm, &[at_time]);
        let (x, _) = self.dc_solve(&asm, sources.w(0), sources.inj(0))?;
        Ok(asm.slots.iter().map(|s| s.volt(&x, sources.w(0))).collect())
    }

    /// Damped Newton for `G_UU·x + G_UK·w − inj + I_dev = 0`; returns the
    /// free-node solution and the iterations it took. One iteration costs
    /// the stored entries of `G` and the Jacobian plus one device pass.
    fn dc_solve(
        &self,
        asm: &Assembled,
        w: &[f64],
        inj: &[f64],
    ) -> Result<(Vec<f64>, usize), SpiceError> {
        let nf = asm.nf;
        // Initial guess: half-rail everywhere — a neutral start from which
        // damped Newton reliably falls into the unique static-CMOS solution.
        let mut x = vec![self.vdd() * 0.5; nf];
        let mut f = vec![0.0; nf];
        let mut delta = vec![0.0; nf];
        // Newton Jacobian G_UU + ∂I_dev/∂v on the union sparsity pattern:
        // symbolic factorization once, numeric refactor per iteration.
        let mut devices = self.device_stamps(asm);
        let mut jac = SparseJacobian::new(asm.g_trip.clone(), &mut devices);
        let max_iter = 200;
        let mut last_update = f64::INFINITY;
        for iter in 0..max_iter {
            // Residual F = G_UU x + G_UK w − inj + I_dev, each row summed
            // in column order.
            for (r, fr) in f.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (g, c) in [(&asm.g_uu, &x[..]), (&asm.g_uk, w)] {
                    let (cols, vals) = g.row(r);
                    for (&k, &v) in cols.iter().zip(vals) {
                        acc += v * c[k];
                    }
                }
                *fr = acc;
            }
            for (&r, &v) in asm.inj_rows.iter().zip(inj) {
                f[r] -= v;
            }
            device_pass(&mut devices, &x, w, &mut f, Some((jac.reset(), 1.0)));
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
    /// One Newton iteration costs O(nnz + devices): the static and
    /// capacitive residuals read only the stored entries of the stamped
    /// CSR matrices, one device pass adds every MOSFET's current to the
    /// residual and its derivatives to the Jacobian at slots resolved once
    /// per run, and the sparse LU re-eliminates numerically in the pattern
    /// analyzed once. Source values are tabulated once per run, in one
    /// flat time-major table.
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
        let sources = SourceTable::new(self, &asm, &times);

        // Initial state: DC at t_start.
        let (mut x, dc_iters) = self.dc_solve(&asm, sources.w(0), sources.inj(0))?;
        let mut newton_total = dc_iters;

        // The linear part of the Jacobian, C_UU/h + ½ G_UU, never changes:
        // stamp it once (together with every device's fixed Jacobian
        // positions) into the union sparsity pattern, analyze the symbolic
        // factorization once, and per Newton iteration only reset the
        // values, stamp the device derivatives and refactor numerically.
        let mut devices = self.device_stamps(&asm);
        let mut jac = {
            let mut pattern = TripletMatrix::new(nf, nf);
            pattern.extend_scaled(&asm.c_trip, 1.0 / h);
            pattern.extend_scaled(&asm.g_trip, 0.5);
            SparseJacobian::new(pattern, &mut devices)
        };

        // Device + conductive currents at the old time point:
        // i_old = G_UU x + G_UK w − inj + I_dev(x, w). `gx` holds G_UU·x
        // for the point last evaluated.
        let mut gx = vec![0.0; nf];
        let mut i_old = vec![0.0; nf];
        asm.g_uu_chunks.dot_into(&x, &mut gx)?;
        Self::static_currents(
            &asm,
            &mut devices,
            &gx,
            &x,
            sources.w(0),
            sources.inj(0),
            &mut i_old,
            None,
        )?;

        let mut voltages: Vec<Vec<f64>> = vec![Vec::with_capacity(times.len()); self.node_count()];
        let record = |voltages: &mut Vec<Vec<f64>>, x: &[f64], w: &[f64]| {
            for (trace, s) in voltages.iter_mut().zip(&asm.slots) {
                trace.push(s.volt(x, w));
            }
        };
        record(&mut voltages, &x, sources.w(0));

        let mut f = vec![0.0; nf];
        let mut x_new = x.clone();
        let mut i_new = vec![0.0; nf];
        let mut delta = vec![0.0; nf];
        for ti in 1..times.len() {
            let (w_prev, w_now, inj_now) = (sources.w(ti - 1), sources.w(ti), sources.inj(ti));
            // Newton iterations for the trapezoidal residual:
            // F(x) = C_UU (x − x_n)/h + C_UK Δw/h + ½(i_static(x) + i_old).
            x_new.copy_from_slice(&x);
            let mut converged = false;
            let mut worst = f64::INFINITY;
            let mut iters = 0;
            while iters < MAX_NEWTON {
                iters += 1;
                // The first iteration starts at x, whose G_UU·x the closing
                // pass of the previous step left in `gx`.
                if iters > 1 {
                    asm.g_uu_chunks.dot_into(&x_new, &mut gx)?;
                }
                Self::static_currents(
                    &asm,
                    &mut devices,
                    &gx,
                    &x_new,
                    w_now,
                    inj_now,
                    &mut i_new,
                    Some((jac.reset(), 0.5)),
                )?;
                for (r, fr) in f.iter_mut().enumerate() {
                    // Each row summed in column order.
                    let mut acc = 0.0;
                    let (cols, vals) = asm.c_uu.row(r);
                    for (&c, &v) in cols.iter().zip(vals) {
                        acc += v * (x_new[c] - x[c]);
                    }
                    let (cols, vals) = asm.c_uk.row(r);
                    for (&k, &v) in cols.iter().zip(vals) {
                        acc += v * (w_now[k] - w_prev[k]);
                    }
                    *fr = acc / h + 0.5 * (i_new[r] + i_old[r]);
                }
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
            asm.g_uu_chunks.dot_into(&x, &mut gx)?;
            Self::static_currents(
                &asm,
                &mut devices,
                &gx,
                &x,
                w_now,
                inj_now,
                &mut i_old,
                None,
            )?;
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
mod dense_reference;

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
