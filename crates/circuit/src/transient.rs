use crate::builder::{Circuit, NodeId};
use crate::CircuitError;
use nsta_numeric::{CsrMatrix, DenseMatrix, LuFactors, SparseLu, TripletMatrix};
use nsta_waveform::Waveform;
use std::sync::Arc;

/// Linear-solver backend of the transient kernel.
///
/// The stamped MNA systems of star-coupled RC stages are nearly
/// tridiagonal and diagonally dominant, so the default
/// [`SolverBackend::Sparse`] factors and steps them in ~O(nnz) with the
/// no-pivot [`SparseLu`] kernels. [`SolverBackend::Dense`] keeps the
/// partial-pivoting dense path as a parity baseline and as the escape
/// hatch for systems that are not no-pivot factorable; both backends
/// integrate the exact same trapezoidal system, so their waveforms agree
/// to solver round-off (≪ 1 nV on realistic meshes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverBackend {
    /// CSR storage + no-pivot sparse LU (default): O(nnz) factor/step on
    /// banded RC meshes.
    #[default]
    Sparse,
    /// Row-major dense storage + partial-pivoting LU: O(n³)/O(n²), kept
    /// for parity gating and non-dominant systems.
    Dense,
}

impl SolverBackend {
    /// Stable lowercase name, used by bench reports.
    pub fn name(self) -> &'static str {
        match self {
            SolverBackend::Sparse => "sparse",
            SolverBackend::Dense => "dense",
        }
    }
}

/// Options for a transient run: `[t_start, t_stop]` with fixed step `dt`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    t_start: f64,
    t_stop: f64,
    dt: f64,
    gmin: f64,
    zero_initial_state: bool,
    backend: SolverBackend,
}

impl TransientOptions {
    /// Creates options for a run over `[t_start, t_stop]` with step `dt`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidOptions`] unless
    /// `t_stop > t_start`, `dt > 0`, and `dt < (t_stop − t_start)`.
    pub fn new(t_start: f64, t_stop: f64, dt: f64) -> Result<Self, CircuitError> {
        if !(t_stop.is_finite() && t_start.is_finite() && dt.is_finite()) {
            return Err(CircuitError::InvalidOptions("times must be finite"));
        }
        if !(t_stop > t_start) {
            return Err(CircuitError::InvalidOptions("t_stop must exceed t_start"));
        }
        if !(dt > 0.0) || dt >= t_stop - t_start {
            return Err(CircuitError::InvalidOptions(
                "dt must be positive and smaller than span",
            ));
        }
        Ok(TransientOptions {
            t_start,
            t_stop,
            dt,
            gmin: 1e-12,
            zero_initial_state: false,
            backend: SolverBackend::default(),
        })
    }

    /// Selects the linear-solver backend (default [`SolverBackend::Sparse`]).
    #[must_use]
    pub fn with_backend(mut self, backend: SolverBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Starts the run from all-zero node voltages instead of the DC
    /// operating point at `t_start`.
    ///
    /// Use this for charge-injection scenarios (pure current sources into
    /// capacitive meshes) where a resistive DC solution does not exist.
    #[must_use]
    pub fn with_zero_initial_state(mut self) -> Self {
        self.zero_initial_state = true;
        self
    }

    /// Overrides the leakage conductance added from every node to ground.
    ///
    /// The default of 1 pS regularizes meshes with capacitor-only nodes
    /// without measurably loading realistic RC interconnect.
    #[must_use]
    pub fn with_gmin(mut self, gmin: f64) -> Self {
        self.gmin = gmin;
        self
    }

    /// Start of the simulation window (seconds).
    pub fn t_start(&self) -> f64 {
        self.t_start
    }

    /// End of the simulation window (seconds).
    pub fn t_stop(&self) -> f64 {
        self.t_stop
    }

    /// Fixed timestep (seconds).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The selected linear-solver backend.
    pub fn backend(&self) -> SolverBackend {
        self.backend
    }
}

/// Voltages recorded by a transient run, queryable per node.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Shared with the [`FactoredSystem`] that produced the run — cache-hit
    /// victims reuse one grid allocation instead of cloning it per run.
    times: Arc<[f64]>,
    /// Time-major flat buffer: `data[ti * nodes + node]`. The step loop
    /// appends one contiguous row per timestep (instead of touching one
    /// cache line per node), and [`TransientResult::voltage`] pays the
    /// strided gather once per queried node.
    data: Vec<f64>,
    nodes: usize,
}

impl TransientResult {
    /// The simulation time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The voltage trace of `node` as a [`Waveform`].
    ///
    /// # Errors
    ///
    /// * [`CircuitError::NotRecorded`] for the ground node.
    /// * [`CircuitError::UnknownNode`] for foreign ids.
    pub fn voltage(&self, node: NodeId) -> Result<Waveform, CircuitError> {
        if node.is_ground() {
            return Err(CircuitError::NotRecorded(
                "ground voltage is identically zero",
            ));
        }
        if node.0 >= self.nodes {
            return Err(CircuitError::UnknownNode { index: node.0 });
        }
        let trace: Vec<f64> = self
            .data
            .chunks_exact(self.nodes)
            .map(|row| row[node.0])
            .collect();
        Ok(Waveform::new(self.times.to_vec(), trace)?)
    }
}

/// An assembled and factored trapezoidal integrator for one [`Circuit`]
/// topology at one fixed timestep — a self-contained **value**, owning
/// every matrix and index table the step loop needs.
///
/// [`Circuit::factor_transient`] splits the solver into two phases:
///
/// * **assemble/factor** (done once here): stamp `G`/`C`, eliminate driven
///   nodes, precompute the step matrix `C − (h/2)·G`, and LU-factor both
///   the trapezoidal left-hand side `C + (h/2)·G` and the DC operating
///   point system;
/// * **step** ([`FactoredSystem::run`], [`FactoredSystem::run_with_vsources`],
///   [`FactoredSystem::run_nodes`], [`FactoredSystem::run_node_pair`]):
///   sample the sources on the time grid and sweep the factored system
///   across it.
///
/// # The step loop
///
/// Each step computes `x_{n+1} = (C + (h/2)·G)⁻¹ ((C − (h/2)·G)·x_n + s_n)`
/// with the source term
/// `s_n = −C_UK Δvk − h G_UK v̄k + h (inj_n + inj_{n+1})/2`. Sources reach
/// few free rows — a Thevenin driver touches exactly one — so a sweep
/// tabulates `s_n` only for those *sourced rows*, from a compact per-row
/// list of the non-zero couplers, into an `nt × sourced-rows` table, and
/// adds it only there. Every other row's term is an exact `+0.0`, and the
/// mat-vec result it would be added to is never `-0.0` (its accumulator
/// starts at `+0.0`; see the `nsta_numeric::sparse` module docs), so the
/// skipped additions change no bit.
///
/// [`FactoredSystem::run_node_pair`] sweeps two source sets — a victim's
/// noiseless and noisy drive — at once. On the sparse backend they march
/// as one two-column block through the column-blocked mat-vec and
/// triangular solve, which keep each column's operations in the
/// one-column order, so the pair is bit-identical to two
/// [`FactoredSystem::run_nodes`] calls; a one-set sweep is the same loop
/// with one column. The dense backend runs the sets one after the other.
///
/// Because the factors depend only on topology, element values and `dt` —
/// never on source waveforms — a `FactoredSystem` is parameterized purely
/// by source vectors: it borrows nothing from the circuit it was factored
/// from, can be stored in caches, shared across threads, and reused for
/// **any structurally identical circuit** (same elements, same values, same
/// construction order — node ids then line up by construction). The
/// crosstalk flow exploits exactly that: one factorization serves a
/// victim's noisy/noiseless pair, every fixed-point iteration, and every
/// other victim whose reduced stage has the same topology signature.
#[derive(Debug)]
pub struct FactoredSystem {
    opts: TransientOptions,
    /// Shared time grid: handed to every [`TransientResult`] by refcount
    /// instead of by clone, so cache-hit runs stop allocating it per
    /// victim.
    times: Arc<[f64]>,
    /// Node count of the source topology (driven + free).
    n: usize,
    /// Free unknowns / driven (vsource) node counts.
    nf: usize,
    nd: usize,
    /// Node index -> free slot (`usize::MAX` for driven nodes).
    position: Vec<usize>,
    /// Node index -> vsource slot (`usize::MAX` for free nodes).
    driven_slot: Vec<usize>,
    is_driven: Vec<bool>,
    /// The free rows a source reaches — the layout of every sweep's
    /// compact source table.
    sourced: SourcedRows,
    /// The factored step matrices in the selected backend's storage.
    factors: StepFactors,
    /// The source circuit's own vsource waveforms (construction order,
    /// shared with the circuit by refcount), so [`FactoredSystem::run`]
    /// works without the circuit.
    default_sources: Vec<Arc<Waveform>>,
    /// Current injections captured at factor time:
    /// `(sourced slot, waveform)`. Injections into ideally driven nodes
    /// are absorbed and dropped here.
    injections: Vec<(usize, Arc<Waveform>)>,
}

/// The free rows that carry a source term, with their couplers to the
/// driven nodes — the compact replacement of the dense, almost-all-zero
/// `nf × nd` blocks `G_UK`/`C_UK` (a Thevenin driver reaches exactly one
/// free node). A sweep tabulates its source terms for these rows only,
/// `nt × rows.len()` instead of `nt × nf`.
#[derive(Debug)]
struct SourcedRows {
    /// Free row of each sourced slot, ascending: every row with a
    /// non-zero coupler or a current injection.
    rows: Vec<usize>,
    /// Slot `s`'s couplers are `terms[ptr[s]..ptr[s + 1]]`.
    ptr: Vec<usize>,
    /// `(k, G_UK[row][k], C_UK[row][k])`, ascending in the vsource slot
    /// `k`, for every `k` where either entry is non-zero.
    terms: Vec<(usize, f64, f64)>,
}

impl SourcedRows {
    /// Compacts the stamped `nf`-row coupler blocks, keeping every row that
    /// carries an injection, and rewrites each injection's free row into
    /// its sourced slot. Dropping an all-zero coupler changes no bit of any
    /// sweep: the source accumulators start at `+0.0` and so never hold
    /// `-0.0` (see the `nsta_numeric::sparse` module docs), and
    /// subtracting the exact zero such a coupler contributes leaves them
    /// unchanged.
    fn compact(
        g_uk: &DenseMatrix,
        c_uk: &DenseMatrix,
        nd: usize,
        injections: &mut [(usize, Arc<Waveform>)],
    ) -> Self {
        let nf = g_uk.rows();
        let mut injected = vec![false; nf];
        for &(r, _) in injections.iter() {
            injected[r] = true;
        }
        let mut slot_of = vec![0; nf];
        let mut rows = Vec::new();
        let mut ptr = vec![0];
        let mut terms = Vec::new();
        for r in 0..nf {
            let couplers = g_uk.row(r)[..nd].iter().zip(&c_uk.row(r)[..nd]);
            terms.extend(
                couplers
                    .enumerate()
                    .filter(|(_, (&g, &c))| g != 0.0 || c != 0.0)
                    .map(|(k, (&g, &c))| (k, g, c)),
            );
            if injected[r] || terms.len() > ptr[rows.len()] {
                slot_of[r] = rows.len();
                rows.push(r);
                ptr.push(terms.len());
            }
        }
        for (r, _) in injections.iter_mut() {
            *r = slot_of[*r];
        }
        SourcedRows { rows, ptr, terms }
    }

    fn terms(&self, s: usize) -> &[(usize, f64, f64)] {
        &self.terms[self.ptr[s]..self.ptr[s + 1]]
    }
}

/// Backend-specific storage of the step matrix `C − (h/2)·G`, the factored
/// trapezoidal LHS `C + (h/2)·G`, and the DC system `G` (absent when the
/// run starts from an all-zero state).
// One instance lives per factored system and both variants are dominated
// by their heap-side buffers, so boxing the larger variant would only add
// an indirection to the per-step hot loop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum StepFactors {
    Dense {
        rhs_mat: DenseMatrix,
        lhs_lu: LuFactors,
        dc_lu: Option<LuFactors>,
    },
    Sparse {
        rhs_mat: CsrMatrix,
        lhs_lu: SparseLu,
        dc_lu: Option<SparseLu>,
    },
}

impl Circuit {
    /// Runs a trapezoidal-rule transient analysis.
    ///
    /// Driven (voltage-source) nodes are eliminated from the unknowns; the
    /// remaining system `C·x' + G·x = b(t)` is integrated with the
    /// trapezoidal rule, which is exact for the piecewise-linear sources
    /// used across this workspace within each linear segment. The initial
    /// state is the DC solution at `t_start` (capacitors open).
    ///
    /// Equivalent to `self.factor_transient(opts)?.run()`; call
    /// [`Circuit::factor_transient`] directly to reuse the factorization
    /// across several source vectors.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::Numeric`] if the mesh is singular even with gmin
    ///   regularization.
    /// * Propagated construction errors for malformed options.
    pub fn run_transient(&self, opts: TransientOptions) -> Result<TransientResult, CircuitError> {
        self.factor_transient(opts)?.run()
    }

    /// Assembles and factors the trapezoidal system once, returning an
    /// owned [`FactoredSystem`] that can be run repeatedly against
    /// different source waveforms — and, because it borrows nothing from
    /// `self`, cached and shared across structurally identical circuits.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::Numeric`] if the mesh is singular even with gmin
    ///   regularization.
    pub fn factor_transient(&self, opts: TransientOptions) -> Result<FactoredSystem, CircuitError> {
        let n = self.node_count();
        // Partition nodes: driven nodes take known voltages, the rest are
        // unknowns. `position[i]` maps node -> unknown slot.
        let mut is_driven = vec![false; n];
        for s in &self.vsources {
            is_driven[s.node] = true;
        }
        let mut position = vec![usize::MAX; n];
        let mut nf = 0usize;
        for i in 0..n {
            if !is_driven[i] {
                position[i] = nf;
                nf += 1;
            }
        }

        // Full-system stamps split into UU (free-free) and UK (free-driven).
        // The UU blocks are assembled as triplets — the sparse backend
        // consumes them directly, the dense backend densifies them (the
        // conversion sums duplicates in stamp order, so the dense values
        // are bit-identical to stamping a dense matrix element by element).
        let mut g_uu = TripletMatrix::new(nf, nf);
        let mut c_uu = TripletMatrix::new(nf, nf);
        // Free×driven couplers, stamped dense (the driven count is tiny)
        // and compacted into `SourcedRows` below.
        let nd = self.vsources.len();
        let mut driven_slot = vec![usize::MAX; n];
        for (k, s) in self.vsources.iter().enumerate() {
            driven_slot[s.node] = k;
        }
        let mut g_uk = DenseMatrix::zeros(nf, nd.max(1));
        let mut c_uk = DenseMatrix::zeros(nf, nd.max(1));

        let stamp2 =
            |m_uu: &mut TripletMatrix, m_uk: &mut DenseMatrix, a: usize, b: usize, v: f64| {
                let terminals = [(a, 1.0), (b, 1.0)];
                for (row_node, _) in terminals {
                    if row_node == NodeId::GROUND_SENTINEL || is_driven[row_node] {
                        continue;
                    }
                    let r = position[row_node];
                    // Diagonal (self) term.
                    m_uu.add(r, r, v);
                    // Off-diagonal to the other terminal.
                    let other = if row_node == a { b } else { a };
                    if other == NodeId::GROUND_SENTINEL {
                        continue;
                    }
                    if is_driven[other] {
                        m_uk.add(r, driven_slot[other], -v);
                    } else {
                        m_uu.add(r, position[other], -v);
                    }
                }
            };

        for r in &self.resistors {
            stamp2(&mut g_uu, &mut g_uk, r.a, r.b, r.conductance);
        }
        for c in &self.capacitors {
            stamp2(&mut c_uu, &mut c_uk, c.a, c.b, c.farads);
        }
        for r in 0..nf {
            g_uu.add(r, r, opts.gmin);
        }
        let g_csr = g_uu.to_csr();
        let c_csr = c_uu.to_csr();

        let h = opts.dt;
        let steps = ((opts.t_stop - opts.t_start) / h).round() as usize;
        let times: Arc<[f64]> = (0..=steps)
            .map(|k| opts.t_start + k as f64 * h)
            .collect::<Vec<_>>()
            .into();

        // Trapezoidal system, scaled by h: (C + hG/2) x_{n+1} =
        //   (C − hG/2) x_n − C_UK Δvk − h G_UK v̄k + h (inj_n + inj_{n+1})/2.
        // Both backends combine the exact same stamped values; they differ
        // only in storage and elimination order.
        let factors = match opts.backend {
            SolverBackend::Sparse => {
                let lhs = c_csr.add_scaled(&g_csr, h / 2.0)?;
                let lhs_lu = SparseLu::factor(&lhs)?;
                let rhs_mat = c_csr.add_scaled(&g_csr, -h / 2.0)?;
                let dc_lu = if opts.zero_initial_state {
                    None
                } else {
                    Some(SparseLu::factor(&g_csr)?)
                };
                StepFactors::Sparse {
                    rhs_mat,
                    lhs_lu,
                    dc_lu,
                }
            }
            SolverBackend::Dense => {
                let g_dense = g_csr.to_dense();
                let c_dense = c_csr.to_dense();
                let lhs = c_dense.add_scaled(&g_dense, h / 2.0)?;
                let lhs_lu = LuFactors::factor(&lhs)?;
                let rhs_mat = c_dense.add_scaled(&g_dense, -h / 2.0)?;
                let dc_lu = if opts.zero_initial_state {
                    None
                } else {
                    Some(LuFactors::factor(&g_dense)?)
                };
                StepFactors::Dense {
                    rhs_mat,
                    lhs_lu,
                    dc_lu,
                }
            }
        };

        let default_sources: Vec<Arc<Waveform>> =
            self.vsources.iter().map(|s| s.waveform.clone()).collect();
        let mut injections: Vec<(usize, Arc<Waveform>)> = self
            .isources
            .iter()
            .filter(|s| !is_driven[s.node]) // current into an ideally driven node is absorbed
            .map(|s| (position[s.node], s.waveform.clone()))
            .collect();
        let sourced = SourcedRows::compact(&g_uk, &c_uk, nd, &mut injections);

        let system = FactoredSystem {
            opts,
            times,
            n,
            nf,
            nd,
            position,
            driven_slot,
            is_driven,
            sourced,
            factors,
            default_sources,
            injections,
        };
        nsta_obs::count!("circuit.transient.factorizations");
        nsta_obs::recorder().gauge_max("circuit.transient.max_nnz", system.nnz() as f64);
        Ok(system)
    }
}

impl FactoredSystem {
    /// The simulation time points the system integrates over.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of voltage sources — `run_with_vsources`/`run_nodes` expect
    /// exactly this many replacement waveforms.
    pub fn source_count(&self) -> usize {
        self.nd
    }

    /// The linear-solver backend this system was factored with.
    pub fn backend(&self) -> SolverBackend {
        self.opts.backend
    }

    /// Stored entries of the factored trapezoidal left-hand side — the
    /// per-step solve cost. The dense backend reports the full `nf²`
    /// triangle pair it actually touches.
    pub fn nnz(&self) -> usize {
        match &self.factors {
            StepFactors::Sparse { lhs_lu, .. } => lhs_lu.factor_nnz(),
            StepFactors::Dense { .. } => self.nf * self.nf,
        }
    }

    /// Runs the integration with the waveforms of the circuit this system
    /// was factored from.
    ///
    /// # Errors
    ///
    /// Propagates numeric failures from the factored solves.
    pub fn run(&self) -> Result<TransientResult, CircuitError> {
        let waves: Vec<&Waveform> = self.default_sources.iter().map(|w| w.as_ref()).collect();
        self.run_with_vsources(&waves)
    }

    /// Runs the integration with replacement voltage-source waveforms,
    /// reusing the factorization. `sources[k]` drives the node pinned by
    /// the `k`-th [`Circuit::vsource`] call (Thevenin drivers register
    /// their source in construction order).
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidOptions`] if `sources.len()` differs from
    ///   the circuit's voltage-source count.
    /// * [`CircuitError::Numeric`] if the initial state is not finite.
    /// * Propagates numeric failures from the factored solves.
    pub fn run_with_vsources(
        &self,
        sources: &[&Waveform],
    ) -> Result<TransientResult, CircuitError> {
        let slots: Vec<Slot> = (0..self.n).map(|i| self.slot_of(i)).collect();
        let [data] = self.sweep([sources], &slots)?;
        Ok(TransientResult {
            times: self.times.clone(),
            data,
            nodes: self.n,
        })
    }

    /// Runs the integration recording **only** the requested nodes and
    /// returns their voltage traces in request order.
    ///
    /// The arithmetic is identical to [`FactoredSystem::run_with_vsources`]
    /// — only the recording differs — so the returned waveforms are
    /// bit-identical to a full run followed by
    /// [`TransientResult::voltage`]. Hot callers that probe one node (the
    /// crosstalk flow reads a victim's far end out of a ~20-node mesh)
    /// skip both the full per-step record and the strided gather.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidOptions`] on a source-count mismatch.
    /// * [`CircuitError::NotRecorded`] if `nodes` names ground.
    /// * [`CircuitError::UnknownNode`] for foreign node ids.
    /// * [`CircuitError::Numeric`] if a recorded voltage is not finite.
    /// * Propagates numeric failures from the factored solves.
    pub fn run_nodes(
        &self,
        sources: &[&Waveform],
        nodes: &[NodeId],
    ) -> Result<Vec<Waveform>, CircuitError> {
        let slots = self.slots(nodes)?;
        let [data] = self.sweep([sources], &slots)?;
        self.traces(&data, slots.len())
    }

    /// Runs the integration for two source sets at once — a victim's
    /// noiseless and noisy drive — recording only the requested nodes.
    /// Returns each set's traces in request order.
    ///
    /// The result is bit-identical to two [`FactoredSystem::run_nodes`]
    /// calls, one per set, and fails where they would fail first. On the
    /// sparse backend both sets march as one two-column block: each step
    /// makes one pass over the step matrix and the factors for both
    /// columns, with each column's operations in the one-column order (see
    /// the `nsta_numeric::sparse` module docs). The dense backend runs the
    /// two sets one after the other.
    ///
    /// # Errors
    ///
    /// As [`FactoredSystem::run_nodes`], for either source set; the first
    /// set's errors take precedence.
    pub fn run_node_pair(
        &self,
        sources: [&[&Waveform]; 2],
        nodes: &[NodeId],
    ) -> Result<[Vec<Waveform>; 2], CircuitError> {
        let slots = self.slots(nodes)?;
        let [first, second] = self.sweep(sources, &slots)?;
        Ok([
            self.traces(&first, slots.len())?,
            self.traces(&second, slots.len())?,
        ])
    }

    /// Where node `i` lives during a sweep.
    fn slot_of(&self, i: usize) -> Slot {
        if self.is_driven[i] {
            Slot::Driven(self.driven_slot[i])
        } else {
            Slot::Free(self.position[i])
        }
    }

    /// Resolves requested nodes to their storage slots.
    fn slots(&self, nodes: &[NodeId]) -> Result<Vec<Slot>, CircuitError> {
        nodes
            .iter()
            .map(|&node| {
                if node.is_ground() {
                    return Err(CircuitError::NotRecorded(
                        "ground voltage is identically zero",
                    ));
                }
                if node.0 >= self.n {
                    return Err(CircuitError::UnknownNode { index: node.0 });
                }
                Ok(self.slot_of(node.0))
            })
            .collect()
    }

    /// Splits a sweep's time-major record (`width` values per time point)
    /// into one waveform per recorded node.
    fn traces(&self, data: &[f64], width: usize) -> Result<Vec<Waveform>, CircuitError> {
        (0..width)
            .map(|j| {
                let trace: Vec<f64> = data.chunks_exact(width).map(|row| row[j]).collect();
                // A solve that went NaN/inf is a *numeric* failure — the
                // class the STA fallback chain retries on another backend —
                // not a waveform validation error.
                if trace.iter().any(|v| !v.is_finite()) {
                    return Err(non_finite());
                }
                Ok(Waveform::new(self.times.to_vec(), trace)?)
            })
            .collect()
    }

    /// Samples one source set and prepares its column of a sweep: the
    /// driven-node table, the compact source table and the initial state.
    fn column(&self, sources: &[&Waveform]) -> Result<Column, CircuitError> {
        if sources.len() != self.nd {
            return Err(CircuitError::InvalidOptions(
                "one waveform required per voltage source",
            ));
        }
        let (nf, nd) = (self.nf, self.nd);
        let ns = self.sourced.rows.len();
        let nt = self.times.len();
        // One bump per source set, not per step — the disabled path stays
        // a single branch outside the integration loop.
        nsta_obs::count!("circuit.transient.sweeps");
        nsta_obs::count!("circuit.transient.steps", nt);
        let h = self.opts.dt;

        // Known node voltages at every time point (time-major: one row of
        // `nd` values per time point).
        let mut vk = vec![0.0; nt * nd];
        let mut scratch = Vec::new();
        for (k, w) in sources.iter().enumerate() {
            w.sample_on_grid(&self.times, &mut scratch);
            for (ti, &v) in scratch.iter().enumerate() {
                vk[ti * nd + k] = v;
            }
        }
        // Injected currents on the sourced rows (time-major, `ns` wide);
        // left empty when the system has no current injections, which
        // skips both the table fill and the per-step reads.
        let mut inj = Vec::new();
        if !self.injections.is_empty() {
            inj.resize(nt * ns, 0.0);
            for (s, waveform) in &self.injections {
                waveform.sample_on_grid(&self.times, &mut scratch);
                for (ti, &v) in scratch.iter().enumerate() {
                    inj[ti * ns + s] += v;
                }
            }
        }

        // DC initial condition: G_UU x = inj(t0) − G_UK·vK(t0).
        let dc_rhs = || -> Vec<f64> {
            let mut rhs = vec![0.0; nf];
            for (s, &r) in self.sourced.rows.iter().enumerate() {
                if !inj.is_empty() {
                    rhs[r] = inj[s];
                }
                for &(k, g, _) in self.sourced.terms(s) {
                    rhs[r] -= g * vk[k];
                }
            }
            rhs
        };
        let mut x0 = match &self.factors {
            StepFactors::Dense {
                dc_lu: Some(dc), ..
            } => dc.solve(&dc_rhs())?,
            StepFactors::Sparse {
                dc_lu: Some(dc), ..
            } => dc.solve(&dc_rhs())?,
            _ => vec![0.0; nf],
        };
        // Fault-injection site: poison the initial-condition state with
        // NaN, as a corrupted solve would. Inert (one relaxed load) unless
        // a plan is armed.
        if nsta_obs::fault::should_fire(nsta_obs::fault::NAN_SOLVE) {
            x0.fill(f64::NAN);
        }
        // A non-finite initial state poisons every step after it, so the
        // sweep fails here — before a later source set of the same sweep
        // consults the fault site, exactly where separate one-set runs
        // would have stopped.
        if x0.iter().any(|v| !v.is_finite()) {
            return Err(non_finite());
        }

        // Source terms of every step on the sourced rows, tabulated up
        // front so the step loop reads one short contiguous row:
        //   src[ti][s] = −C_UK Δvk − h G_UK v̄k + h (inj_n + inj_{n+1})/2
        // for free row `sourced.rows[s]`. Every other row's term is an
        // exact +0.0 and is skipped (see `SourcedRows::compact`).
        let mut src = vec![0.0; nt * ns];
        for ti in 1..nt {
            let vk_prev = &vk[(ti - 1) * nd..ti * nd];
            let vk_now = &vk[ti * nd..(ti + 1) * nd];
            let row = &mut src[ti * ns..(ti + 1) * ns];
            for (s, out) in row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for &(k, g, c) in self.sourced.terms(s) {
                    let dv = vk_now[k] - vk_prev[k];
                    let vbar = 0.5 * (vk_now[k] + vk_prev[k]);
                    acc -= c * dv + h * g * vbar;
                }
                *out = acc;
            }
            if !inj.is_empty() {
                let inj_prev = &inj[(ti - 1) * ns..ti * ns];
                let inj_now = &inj[ti * ns..(ti + 1) * ns];
                for s in 0..ns {
                    row[s] += h * 0.5 * (inj_now[s] + inj_prev[s]);
                }
            }
        }
        Ok(Column { vk, src, x0 })
    }

    /// The shared step loop: prepares one [`Column`] per source set (in
    /// order, each failing before the next is sampled), then marches the
    /// factored trapezoidal system across the grid. Returns, per source
    /// set, the recorded `slots` at every time point (including
    /// `t_start`), time-major.
    ///
    /// The sparse backend marches all `W` sets as one block through the
    /// column-blocked kernels; `W = 1` is the plain one-set sweep. The
    /// dense backend marches the sets one after the other.
    fn sweep<const W: usize>(
        &self,
        sources: [&[&Waveform]; W],
        slots: &[Slot],
    ) -> Result<[Vec<f64>; W], CircuitError> {
        let mut cols = Vec::with_capacity(W);
        for set in sources {
            cols.push(self.column(set)?);
        }
        let (nf, nd) = (self.nf, self.nd);
        let ns = self.sourced.rows.len();
        let nt = self.times.len();
        let mut data: [Vec<f64>; W] = std::array::from_fn(|_| Vec::with_capacity(slots.len() * nt));

        match &self.factors {
            // Dense: the right-hand side is assembled row by row anyway,
            // so write it directly in the LU's permuted row order and skip
            // the permutation copy inside the solve.
            StepFactors::Dense {
                rhs_mat, lhs_lu, ..
            } => {
                let perm = lhs_lu.perm();
                let mut s_row = vec![0.0; nf];
                let mut x_next = vec![0.0; nf];
                for (col, out) in cols.into_iter().zip(&mut data) {
                    let mut x = col.x0;
                    record(out, slots, &col.vk[..nd], |i| x[i]);
                    for ti in 1..nt {
                        for (s, &r) in self.sourced.rows.iter().enumerate() {
                            s_row[r] = col.src[ti * ns + s];
                        }
                        for (i, &r) in perm.iter().enumerate() {
                            // rhs = (C − hG/2)·x_n + src, off the precomputed matrices.
                            x_next[i] = nsta_numeric::dot(rhs_mat.row(r), &x) + s_row[r];
                        }
                        lhs_lu.solve_prepermuted_in_place(&mut x_next)?;
                        std::mem::swap(&mut x, &mut x_next);
                        record(out, slots, &col.vk[ti * nd..(ti + 1) * nd], |i| x[i]);
                    }
                }
            }
            // Sparse: CSR mat-vec touches only stored entries and the
            // no-pivot factors eliminate in natural order, so the step is
            // O(nnz) with no permutation copy at all — and one pass over
            // them serves every column of the block.
            StepFactors::Sparse {
                rhs_mat, lhs_lu, ..
            } => {
                let mut x: Vec<[f64; W]> = (0..nf)
                    .map(|i| std::array::from_fn(|j| cols[j].x0[i]))
                    .collect();
                let mut x_next = vec![[0.0; W]; nf];
                for (j, (col, out)) in cols.iter().zip(&mut data).enumerate() {
                    record(out, slots, &col.vk[..nd], |i| x[i][j]);
                }
                for ti in 1..nt {
                    rhs_mat.mul_block_into(&x, &mut x_next)?;
                    for (s, &r) in self.sourced.rows.iter().enumerate() {
                        for (xj, col) in x_next[r].iter_mut().zip(&cols) {
                            *xj += col.src[ti * ns + s];
                        }
                    }
                    lhs_lu.solve_block_in_place(&mut x_next)?;
                    std::mem::swap(&mut x, &mut x_next);
                    for (j, (col, out)) in cols.iter().zip(&mut data).enumerate() {
                        record(out, slots, &col.vk[ti * nd..(ti + 1) * nd], |i| x[i][j]);
                    }
                }
            }
        }
        Ok(data)
    }
}

/// Where one recorded node's voltage lives during a sweep.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// A free unknown: its index in the state vector.
    Free(usize),
    /// A driven node: its voltage-source index.
    Driven(usize),
}

/// One source set's share of a sweep.
struct Column {
    /// Driven-node voltages, time-major `nt × nd`.
    vk: Vec<f64>,
    /// Compact source table, time-major `nt × sourced rows` (row 0
    /// unused).
    src: Vec<f64>,
    /// Initial state over the free unknowns.
    x0: Vec<f64>,
}

/// Appends one time point of `slots` to a sweep's record: free unknowns
/// through `free`, driven nodes from that time point's `vk` row.
fn record(out: &mut Vec<f64>, slots: &[Slot], vk: &[f64], free: impl Fn(usize) -> f64) {
    out.extend(slots.iter().map(|slot| match *slot {
        Slot::Free(i) => free(i),
        Slot::Driven(k) => vk[k],
    }));
}

fn non_finite() -> CircuitError {
    CircuitError::Numeric(nsta_numeric::NumericError::NonFinite(
        "transient node voltages",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RcLineSpec, StarCoupledLines};

    fn step_at(t0: f64, rise: f64, v: f64, t_end: f64) -> Waveform {
        // Boundary values are held outside the record, so starting the
        // record at t0 still models "low until t0".
        Waveform::new(vec![t0, t0 + rise, t_end], vec![0.0, v, v]).unwrap()
    }

    #[test]
    fn options_validate() {
        assert!(TransientOptions::new(0.0, 1.0, 0.01).is_ok());
        assert!(TransientOptions::new(1.0, 1.0, 0.01).is_err());
        assert!(TransientOptions::new(0.0, 1.0, 0.0).is_err());
        assert!(TransientOptions::new(0.0, 1.0, 2.0).is_err());
        assert!(TransientOptions::new(0.0, f64::NAN, 0.1).is_err());
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        let (r, c) = (1_000.0, 1e-12); // τ = 1 ns
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.resistor(inp, out, r).unwrap();
        ckt.capacitor(out, Circuit::GROUND, c).unwrap();
        ckt.vsource(inp, step_at(0.0, 1e-15, 1.0, 10e-9)).unwrap();
        let res = ckt
            .run_transient(TransientOptions::new(0.0, 8e-9, 2e-12).unwrap())
            .unwrap();
        let v = res.voltage(out).unwrap();
        let tau = r * c;
        for t in [0.5e-9, 1e-9, 2e-9, 5e-9] {
            let expect = 1.0 - (-t / tau).exp();
            assert!(
                (v.value_at(t) - expect).abs() < 2e-3,
                "t={t:e}: got {} want {expect}",
                v.value_at(t)
            );
        }
    }

    #[test]
    fn trapezoidal_is_second_order() {
        // Halving dt should cut the error by ~4× for smooth drives.
        let (r, c) = (1_000.0, 1e-12);
        let drive = Waveform::from_fn(0.0, 10e-9, 5e-12, |t| {
            0.5 * (1.0 - (std::f64::consts::PI * t / 5e-9).cos())
        })
        .unwrap();
        let run = |dt: f64| {
            let mut ckt = Circuit::new();
            let inp = ckt.node("in");
            let out = ckt.node("out");
            ckt.resistor(inp, out, r).unwrap();
            ckt.capacitor(out, Circuit::GROUND, c).unwrap();
            ckt.vsource(inp, drive.clone()).unwrap();
            let res = ckt
                .run_transient(TransientOptions::new(0.0, 5e-9, dt).unwrap())
                .unwrap();
            res.voltage(out).unwrap().value_at(2.5e-9)
        };
        let fine = run(2.5e-12);
        let coarse = run(40e-12);
        let mid = run(20e-12);
        let err_coarse = (coarse - fine).abs();
        let err_mid = (mid - fine).abs();
        assert!(
            err_mid < err_coarse / 2.5,
            "expected ~4x reduction: {err_coarse} vs {err_mid}"
        );
    }

    #[test]
    fn dc_init_starts_settled() {
        // Source already at 1 V before t=0: no spurious transient.
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.resistor(inp, out, 500.0).unwrap();
        ckt.capacitor(out, Circuit::GROUND, 2e-12).unwrap();
        ckt.vsource(inp, Waveform::constant(1.0, 0.0, 1e-9).unwrap())
            .unwrap();
        let res = ckt
            .run_transient(TransientOptions::new(0.0, 1e-9, 1e-12).unwrap())
            .unwrap();
        let v = res.voltage(out).unwrap();
        assert!((v.value_at(0.0) - 1.0).abs() < 1e-9);
        assert!((v.value_at(0.9e-9) - 1.0).abs() < 1e-9);

        // A steady injection enters the DC point too: 2 µA into `far`,
        // which reaches the 1 V source only through 500 Ω + 300 Ω, settles
        // it 1.6 mV above the source (less ~1 nV of gmin leakage) and holds
        // it there.
        let far = ckt.node("far");
        ckt.resistor(out, far, 300.0).unwrap();
        ckt.capacitor(far, Circuit::GROUND, 1e-12).unwrap();
        ckt.isource(far, Waveform::constant(2e-6, 0.0, 1e-9).unwrap())
            .unwrap();
        let res = ckt
            .run_transient(TransientOptions::new(0.0, 1e-9, 1e-12).unwrap())
            .unwrap();
        let v = res.voltage(far).unwrap();
        assert!((v.value_at(0.0) - 1.0016).abs() < 1e-8);
        assert!((v.value_at(0.9e-9) - 1.0016).abs() < 1e-8);
    }

    #[test]
    fn coupling_cap_injects_noise_into_quiet_line() {
        // Victim held by a resistive driver at 0; aggressor steps. The
        // coupling cap must kick the victim, which then decays back.
        let mut ckt = Circuit::new();
        let agg_src = ckt.node("agg_src");
        let agg = ckt.node("agg");
        let vic = ckt.node("vic");
        ckt.vsource(agg_src, step_at(1e-9, 50e-12, 1.0, 10e-9))
            .unwrap();
        ckt.resistor(agg_src, agg, 100.0).unwrap();
        ckt.capacitor(agg, Circuit::GROUND, 5e-15).unwrap();
        // Victim driver: Thevenin holding low.
        ckt.thevenin_driver(vic, Waveform::constant(0.0, 0.0, 10e-9).unwrap(), 200.0)
            .unwrap();
        ckt.capacitor(vic, Circuit::GROUND, 5e-15).unwrap();
        ckt.capacitor(agg, vic, 20e-15).unwrap();
        let res = ckt
            .run_transient(TransientOptions::new(0.0, 6e-9, 1e-12).unwrap())
            .unwrap();
        let v = res.voltage(vic).unwrap();
        let peak = v.v_max();
        assert!(peak > 0.05, "expected visible coupling noise, peak={peak}");
        assert!(peak < 1.0, "noise cannot exceed the aggressor swing");
        // Noise decays away by the end of the window.
        assert!(v.value_at(5.9e-9).abs() < 0.01);
        // Quiet before the aggressor moves.
        assert!(v.value_at(0.9e-9).abs() < 1e-6);
    }

    #[test]
    fn isource_charges_capacitor_linearly() {
        // 1 µA into 1 pF: dv/dt = 1 V/µs → 1 mV/ns.
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        ckt.capacitor(n1, Circuit::GROUND, 1e-12).unwrap();
        ckt.isource(n1, Waveform::constant(1e-6, 0.0, 10e-9).unwrap())
            .unwrap();
        let res = ckt
            .run_transient(
                TransientOptions::new(0.0, 10e-9, 10e-12)
                    .unwrap()
                    .with_gmin(1e-15)
                    .with_zero_initial_state(),
            )
            .unwrap();
        let v = res.voltage(n1).unwrap();
        assert!((v.value_at(10e-9) - 0.01).abs() < 1e-4);
    }

    #[test]
    fn ladder_elmore_delay_is_sane() {
        // 5-stage RC ladder; Elmore ≈ Σ R_i C_downstream. 50% point of the
        // step response should land within ~[0.5, 1.4]× Elmore (log 2 ≈ 0.69
        // for 1 pole; distributed lines sit near 0.7–0.9).
        let mut ckt = Circuit::new();
        let mut prev = ckt.node("in");
        ckt.vsource(prev, step_at(0.0, 1e-15, 1.0, 50e-9)).unwrap();
        let (r, c) = (200.0, 50e-15);
        let mut nodes = Vec::new();
        for i in 0..5 {
            let n = ckt.node(&format!("n{i}"));
            ckt.resistor(prev, n, r).unwrap();
            ckt.capacitor(n, Circuit::GROUND, c).unwrap();
            nodes.push(n);
            prev = n;
        }
        let elmore: f64 = (1..=5).map(|i| r * c * (5 - i + 1) as f64).sum();
        let res = ckt
            .run_transient(TransientOptions::new(0.0, 10e-9, 1e-12).unwrap())
            .unwrap();
        let far = res.voltage(*nodes.last().unwrap()).unwrap();
        let t50 = far.first_crossing(0.5).unwrap();
        assert!(
            t50 > 0.4 * elmore && t50 < 1.4 * elmore,
            "t50={t50:e}, elmore={elmore:e}"
        );
    }

    /// The noisy/noiseless victim stage of the SI flow: two Thevenin
    /// drivers into a coupled pair of caps.
    fn coupled_pair(agg_wave: Waveform) -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let agg = ckt.node("agg");
        let vic = ckt.node("vic");
        ckt.thevenin_driver(agg, agg_wave, 100.0).unwrap();
        ckt.thevenin_driver(vic, Waveform::constant(0.0, 0.0, 6e-9).unwrap(), 200.0)
            .unwrap();
        ckt.capacitor(agg, Circuit::GROUND, 5e-15).unwrap();
        ckt.capacitor(vic, Circuit::GROUND, 5e-15).unwrap();
        ckt.capacitor(agg, vic, 20e-15).unwrap();
        (ckt, vic)
    }

    #[test]
    fn factored_reuse_is_bit_identical_to_fresh_runs() {
        // Same topology, two source vectors: one factored system must
        // reproduce separately assembled runs exactly.
        let quiet = Waveform::constant(0.0, 0.0, 6e-9).unwrap();
        let noisy_wave = step_at(1e-9, 50e-12, 1.0, 10e-9);
        let opts = TransientOptions::new(0.0, 6e-9, 2e-12).unwrap();

        let (ckt, vic) = coupled_pair(noisy_wave.clone());
        let system = ckt.factor_transient(opts).unwrap();
        let via_run = system.run().unwrap().voltage(vic).unwrap();
        let via_runtransient = ckt.run_transient(opts).unwrap().voltage(vic).unwrap();
        assert_eq!(via_run, via_runtransient);

        // Swap the aggressor quiet through the same factorization.
        let vic_hold = Waveform::constant(0.0, 0.0, 6e-9).unwrap();
        let overridden = system
            .run_with_vsources(&[&quiet, &vic_hold])
            .unwrap()
            .voltage(vic)
            .unwrap();
        let (fresh, vic2) = coupled_pair(quiet.clone());
        let rebuilt = fresh.run_transient(opts).unwrap().voltage(vic2).unwrap();
        assert_eq!(overridden, rebuilt);

        // Source-count mismatch is rejected.
        assert!(matches!(
            system.run_with_vsources(&[&quiet]),
            Err(CircuitError::InvalidOptions(_))
        ));
        assert_eq!(system.source_count(), 2);
    }

    #[test]
    fn factored_system_shared_across_identical_circuits() {
        // Two *separately built* circuits with identical structure: the
        // system factored from the first must reproduce the second's run
        // bit for bit when fed the second's sources — the contract the
        // SI pass relies on to share factorizations.
        let opts = TransientOptions::new(0.0, 6e-9, 2e-12).unwrap();
        let wave_a = step_at(1e-9, 50e-12, 1.0, 10e-9);
        let wave_b = step_at(2e-9, 80e-12, 1.0, 10e-9); // different timing, same topology

        let (ckt_a, vic_a) = coupled_pair(wave_a);
        let (ckt_b, vic_b) = coupled_pair(wave_b.clone());
        assert_eq!(vic_a, vic_b, "construction order fixes node ids");

        let shared = ckt_a.factor_transient(opts).unwrap();
        let vic_hold = Waveform::constant(0.0, 0.0, 6e-9).unwrap();
        let via_shared = shared
            .run_with_vsources(&[&wave_b, &vic_hold])
            .unwrap()
            .voltage(vic_b)
            .unwrap();
        let via_own = ckt_b.run_transient(opts).unwrap().voltage(vic_b).unwrap();
        assert_eq!(via_shared, via_own);

        // The factored system outlives the circuit it came from: it is an
        // owned value, not a borrow.
        drop(ckt_a);
        let again = shared
            .run_with_vsources(&[&wave_b, &vic_hold])
            .unwrap()
            .voltage(vic_b)
            .unwrap();
        assert_eq!(again, via_own);
    }

    #[test]
    fn run_nodes_matches_full_record() {
        let noisy_wave = step_at(1e-9, 50e-12, 1.0, 10e-9);
        let opts = TransientOptions::new(0.0, 6e-9, 2e-12).unwrap();
        let (ckt, vic) = coupled_pair(noisy_wave);
        let agg = NodeId(0); // first created node
        let system = ckt.factor_transient(opts).unwrap();
        let full = system.run().unwrap();
        let subset = system
            .run_with_vsources(&[&system.default_sources[0], &system.default_sources[1]])
            .unwrap();
        assert_eq!(full.voltage(vic).unwrap(), subset.voltage(vic).unwrap());
        // Subset recording: victim + a driven node, in request order.
        let waves: Vec<&Waveform> = system.default_sources.iter().map(|w| w.as_ref()).collect();
        let recorded = system.run_nodes(&waves, &[vic, agg]).unwrap();
        assert_eq!(recorded.len(), 2);
        assert_eq!(recorded[0], full.voltage(vic).unwrap());
        assert_eq!(recorded[1], full.voltage(agg).unwrap());
        // Ground and foreign nodes are rejected.
        assert!(matches!(
            system.run_nodes(&waves, &[Circuit::GROUND]),
            Err(CircuitError::NotRecorded(_))
        ));
        assert!(matches!(
            system.run_nodes(&waves, &[NodeId(99)]),
            Err(CircuitError::UnknownNode { .. })
        ));
    }

    fn bits(waves: &[Waveform]) -> Vec<Vec<u64>> {
        waves
            .iter()
            .map(|w| w.values().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// The fused pair must reproduce two one-set runs bit for bit.
    fn assert_pair_matches_runs(
        system: &FactoredSystem,
        sets: [&[&Waveform]; 2],
        nodes: &[NodeId],
    ) {
        let [first, second] = system.run_node_pair(sets, nodes).unwrap();
        assert_eq!(
            bits(&first),
            bits(&system.run_nodes(sets[0], nodes).unwrap())
        );
        assert_eq!(
            bits(&second),
            bits(&system.run_nodes(sets[1], nodes).unwrap())
        );
        assert_eq!(first[0].times(), system.times());
    }

    #[test]
    fn run_node_pair_is_bit_identical_to_two_runs() {
        let opts = TransientOptions::new(0.0, 6e-9, 2e-12).unwrap();
        let noisy_wave = step_at(1e-9, 50e-12, 1.0, 10e-9);
        let quiet = Waveform::constant(0.0, 0.0, 6e-9).unwrap();
        let victim = step_at(0.8e-9, 80e-12, 1.0, 10e-9);
        let (ckt, vic) = coupled_pair(noisy_wave.clone());
        let agg = NodeId(0); // driven probe: the aggressor's source node
        for backend in [SolverBackend::Sparse, SolverBackend::Dense] {
            let system = ckt.factor_transient(opts.with_backend(backend)).unwrap();
            assert_pair_matches_runs(
                &system,
                [&[&quiet, &victim], &[&noisy_wave, &victim]],
                &[vic, agg],
            );
        }

        // A 48-segment victim star-coupled to two aggressors: a large,
        // filled-in factorization with three sourced rows.
        let mut ckt = Circuit::new();
        let v_in = ckt.node("v_in");
        let hold = Waveform::constant(0.0, 0.0, 6e-9).unwrap();
        ckt.thevenin_driver(v_in, hold.clone(), 300.0).unwrap();
        let agg_ins: Vec<NodeId> = (0..2)
            .map(|_| {
                let a = ckt.anon_node();
                ckt.thevenin_driver(a, hold.clone(), 300.0).unwrap();
                a
            })
            .collect();
        let line = RcLineSpec::new(400.0, 60e-15, 48).unwrap();
        let bundle = StarCoupledLines::new(line, vec![(line, 20e-15), (line, 35e-15)]).unwrap();
        let (far, _) = bundle.build(&mut ckt, v_in, &agg_ins, "w").unwrap();
        ckt.capacitor(far, Circuit::GROUND, 4e-15).unwrap();
        let system = ckt.factor_transient(opts).unwrap();
        assert!(system.nf > 100 && system.sourced.rows.len() == 3);
        let late = step_at(1.3e-9, 120e-12, 1.0, 10e-9);
        assert_pair_matches_runs(
            &system,
            [&[&victim, &quiet, &quiet], &[&victim, &noisy_wave, &late]],
            &[far, v_in, agg_ins[1]],
        );
    }

    #[test]
    fn run_node_pair_carries_current_injections() {
        // Injections from a zero initial state: row `q` has no coupler to
        // the driven node, so only its injection puts it in the compact
        // table; two injections into `q` sum; the one into the driven node
        // is absorbed.
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let p = ckt.node("p");
        let q = ckt.node("q");
        ckt.vsource(d, step_at(0.5e-9, 40e-12, 1.0, 10e-9)).unwrap();
        ckt.resistor(d, p, 500.0).unwrap();
        ckt.resistor(p, q, 800.0).unwrap();
        ckt.capacitor(p, Circuit::GROUND, 10e-15).unwrap();
        ckt.capacitor(q, Circuit::GROUND, 15e-15).unwrap();
        let pulse =
            Waveform::new(vec![0.0, 1e-9, 1.2e-9, 1.4e-9], vec![0.0, 0.0, 2e-5, 0.0]).unwrap();
        ckt.isource(q, pulse.clone()).unwrap();
        ckt.isource(q, Waveform::constant(-3e-6, 0.0, 4e-9).unwrap())
            .unwrap();
        ckt.isource(d, pulse).unwrap();
        let opts = TransientOptions::new(0.0, 4e-9, 5e-12)
            .unwrap()
            .with_zero_initial_state();
        let system = ckt.factor_transient(opts).unwrap();
        assert_eq!(system.sourced.rows.len(), 2);
        assert_eq!(system.injections.len(), 2);
        let other = step_at(1e-9, 200e-12, 0.7, 10e-9);
        let default = system.default_sources[0].as_ref();
        assert_pair_matches_runs(&system, [&[default], &[&other]], &[q, p, d]);
        // The injections are felt: `q` moves without any coupler to `d`.
        let full = system.run().unwrap().voltage(q).unwrap();
        assert!(full.v_min() < -1e-3, "the steady -3 µA must pull q down");
    }

    #[test]
    fn run_node_pair_rejects_what_run_nodes_rejects() {
        let opts = TransientOptions::new(0.0, 6e-9, 2e-12).unwrap();
        let (ckt, vic) = coupled_pair(step_at(1e-9, 50e-12, 1.0, 10e-9));
        let system = ckt.factor_transient(opts).unwrap();
        let hold = Waveform::constant(0.0, 0.0, 6e-9).unwrap();
        let good: &[&Waveform] = &[&hold, &hold];
        let short: &[&Waveform] = &[&hold];
        for sets in [[short, good], [good, short]] {
            assert!(matches!(
                system.run_node_pair(sets, &[vic]),
                Err(CircuitError::InvalidOptions(_))
            ));
        }
        assert!(matches!(
            system.run_node_pair([good, good], &[vic, Circuit::GROUND]),
            Err(CircuitError::NotRecorded(_))
        ));
        assert!(matches!(
            system.run_node_pair([good, good], &[NodeId(99)]),
            Err(CircuitError::UnknownNode { index: 99 })
        ));
    }

    #[test]
    fn ground_voltage_not_recorded() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, step_at(0.0, 1e-12, 1.0, 1e-9)).unwrap();
        ckt.resistor(a, b, 100.0).unwrap();
        ckt.capacitor(b, Circuit::GROUND, 1e-15).unwrap();
        let res = ckt
            .run_transient(TransientOptions::new(0.0, 1e-9, 1e-12).unwrap())
            .unwrap();
        assert!(matches!(
            res.voltage(Circuit::GROUND),
            Err(CircuitError::NotRecorded(_))
        ));
        assert!(res.voltage(NodeId(42)).is_err());
        // Driven node is recorded and equals its source.
        let va = res.voltage(a).unwrap();
        assert!((va.value_at(0.5e-9) - 1.0).abs() < 1e-12);
    }
}
