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

/// Options for a transient run: `[t_start, t_stop]` with fixed step `dt`,
/// optionally cut short once the circuit has settled
/// ([`TransientOptions::until_settled`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    t_start: f64,
    t_stop: f64,
    dt: f64,
    gmin: f64,
    zero_initial_state: bool,
    backend: SolverBackend,
    /// Settle tolerance ε (V) of the early stop; `None` runs every source
    /// set to `t_stop`.
    settle: Option<f64>,
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
            settle: None,
        })
    }

    /// Stops each source set's run once it has settled, within `eps`
    /// volts; `t_stop` then only caps the run.
    ///
    /// A source set (one *column* of a sweep) settles at the first step
    /// `k ≥ 1` at or after its sources' final step — the first grid point
    /// at or after the last change of value of every one of its voltage
    /// sources and of every current injection, from which each holds its
    /// last sample — at which every free node lies within `eps` of the DC
    /// operating point of those final source values. Its record then ends with that step: the trace is exactly
    /// the first `k + 1` samples of the same run taken to `t_stop`, bit
    /// for bit, on the prefix `times()[..=k]` of the grid. After it every
    /// source is constant, so the circuit only decays toward that DC point.
    ///
    /// Each column stops on its own test, so its trace depends only on its
    /// own sources: [`FactoredSystem::run_node_sets`] stays bit-identical
    /// to one [`FactoredSystem::run_nodes`] call per set, lengths
    /// included. A column that never settles runs to `t_stop`. A run
    /// [`with_zero_initial_state`](Self::with_zero_initial_state) has no
    /// DC system to settle toward and never stops early; nor does one
    /// whose `eps` is negative or NaN.
    #[must_use]
    pub fn until_settled(mut self, eps: f64) -> Self {
        self.settle = Some(eps);
        self
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
    /// The run recorded its first `points` entries.
    times: Arc<[f64]>,
    points: usize,
    /// Time-major flat buffer: `data[ti * nodes + node]`. The step loop
    /// appends one contiguous row per timestep (instead of touching one
    /// cache line per node), and [`TransientResult::voltage`] pays the
    /// strided gather once per queried node.
    data: Vec<f64>,
    nodes: usize,
}

impl TransientResult {
    /// The simulation time points: the whole grid, or its prefix up to the
    /// settle step of a run [`until_settled`](TransientOptions::until_settled).
    pub fn times(&self) -> &[f64] {
        &self.times[..self.points]
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
        Ok(Waveform::new(self.times().to_vec(), trace)?)
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
///   [`FactoredSystem::run_nodes`], [`FactoredSystem::run_node_sets`]):
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
/// [`FactoredSystem::run_node_sets`] sweeps up to four source sets at
/// once — the crosstalk flow passes the noiseless and noisy drive of both
/// transitions of a victim. On the sparse backend they march as one block
/// of up to four columns through the column-blocked mat-vec and
/// triangular solve, which keep each column's operations in the
/// one-column order, so the block is bit-identical to one
/// [`FactoredSystem::run_nodes`] call per set; a one-set sweep is the same
/// loop with one column. The dense backend runs the sets one after the
/// other. Sets share waveforms (a victim's ramp drives both of its sets;
/// a noiseless set repeats one quiet waveform for every aggressor), so a
/// sweep samples each distinct waveform once, and the current injections
/// once for all sets.
///
/// # The settle stop
///
/// A system factored with [`TransientOptions::until_settled`] stops each
/// column at its settle step instead of the grid's end, in every run
/// method. The test reads only the column's own state, its own sources
/// and the DC point of their final values (one more solve with the
/// factored DC system per column), so it never changes a computed bit:
/// each column records a prefix of the trace it would record to the cap.
/// The dense backend stops each column's march on its own; the sparse
/// block keeps marching until its last column has stopped, and a stopped
/// column records nothing more. The step counter
/// `circuit.transient.steps` adds the time points each column recorded,
/// and `circuit.transient.settled` counts the columns that met the test
/// — a column that runs out of grid unsettled is the one whose record
/// the cap cut.
///
/// Because the factors depend only on topology, element values and `dt` —
/// never on source waveforms — a `FactoredSystem` is parameterized purely
/// by source vectors: it borrows nothing from the circuit it was factored
/// from, can be stored in caches, shared across threads, and reused for
/// **any structurally identical circuit** (same elements, same values, same
/// construction order — node ids then line up by construction). The
/// crosstalk flow exploits exactly that: one factorization and one sweep
/// serve both transitions of a victim whose rise and fall share a grid,
/// and one factorization serves every fixed-point iteration and every
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
    /// * [`CircuitError::InvalidOptions`] if the time grid has too many
    ///   points to count or allocate.
    /// * [`CircuitError::Numeric`] if the mesh is singular even with gmin
    ///   regularization.
    pub fn factor_transient(&self, opts: TransientOptions) -> Result<FactoredSystem, CircuitError> {
        let times = time_grid(&opts)?;
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
    /// The simulation time points the system integrates over — the cap of
    /// a run [`until_settled`](TransientOptions::until_settled), which
    /// records a prefix of them.
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
        let [record] = self.sweep([sources], &slots)?;
        Ok(TransientResult {
            times: self.times.clone(),
            points: record.points,
            data: record.data,
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
        let [record] = self.sweep([sources], &slots)?;
        self.traces(&record, slots.len())
    }

    /// Runs the integration for one to four source sets at once — such as
    /// the noiseless and noisy drive of both transitions of a victim —
    /// recording only the requested nodes. Returns each set's traces in
    /// request order.
    ///
    /// The result is bit-identical to one [`FactoredSystem::run_nodes`]
    /// call per set, and fails where they would fail first. On the sparse
    /// backend the sets march as one block of up to four columns: each
    /// step makes one pass over the step matrix and the factors for all of
    /// them, with each column's operations in the one-column order (see
    /// the `nsta_numeric::sparse` module docs). The dense backend runs the
    /// sets one after the other.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidOptions`] unless there are one to four
    ///   sets.
    /// * As [`FactoredSystem::run_nodes`], for any source set; an earlier
    ///   set's errors take precedence.
    pub fn run_node_sets(
        &self,
        sets: &[&[&Waveform]],
        nodes: &[NodeId],
    ) -> Result<Vec<Vec<Waveform>>, CircuitError> {
        let slots = self.slots(nodes)?;
        let records = match *sets {
            [a] => Vec::from(self.sweep([a], &slots)?),
            [a, b] => Vec::from(self.sweep([a, b], &slots)?),
            [a, b, c] => Vec::from(self.sweep([a, b, c], &slots)?),
            [a, b, c, d] => Vec::from(self.sweep([a, b, c, d], &slots)?),
            _ => {
                return Err(CircuitError::InvalidOptions(
                    "one to four source sets per sweep",
                ))
            }
        };
        records
            .iter()
            .map(|r| self.traces(r, slots.len()))
            .collect()
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

    /// Splits one column's time-major record (`width` values per time
    /// point) into one waveform per recorded node, on the prefix of the
    /// grid the column recorded.
    fn traces(&self, record: &Record, width: usize) -> Result<Vec<Waveform>, CircuitError> {
        let times = &self.times[..record.points];
        (0..width)
            .map(|j| {
                let trace: Vec<f64> = record.data.chunks_exact(width).map(|row| row[j]).collect();
                // A solve that went NaN/inf is a *numeric* failure — the
                // class the STA fallback chain retries on another backend —
                // not a waveform validation error.
                if trace.iter().any(|v| !v.is_finite()) {
                    return Err(non_finite());
                }
                Ok(Waveform::new(times.to_vec(), trace)?)
            })
            .collect()
    }

    /// Injected currents on the sourced rows (time-major, `sourced rows`
    /// wide), and the grid point from which every injection holds its
    /// last sample. The injections are captured at factor time, so one
    /// table serves every set of a sweep; it is left empty when the system
    /// has no current injections, which skips both the table fill and the
    /// per-step reads.
    fn injection_table(&self) -> (Vec<f64>, usize) {
        let ns = self.sourced.rows.len();
        let mut inj = Vec::new();
        let mut hold = 0;
        if !self.injections.is_empty() {
            inj.resize(self.times.len() * ns, 0.0);
            let mut scratch = Vec::new();
            for (s, waveform) in &self.injections {
                waveform.sample_on_grid(&self.times, &mut scratch);
                for (ti, &v) in scratch.iter().enumerate() {
                    inj[ti * ns + s] += v;
                }
                hold = hold.max(hold_point(waveform, &self.times));
            }
        }
        (inj, hold)
    }

    /// The DC operating point of source values `vk` (source `k` at time
    /// point `ti`) and injections `inj` at `ti` —
    /// `G_UU x = inj(ti) − G_UK·vK(ti)` — or `None` when the system was
    /// factored without a DC system.
    fn dc_point(
        &self,
        vk: impl Fn(usize) -> f64,
        inj: &[f64],
        ti: usize,
    ) -> Result<Option<Vec<f64>>, CircuitError> {
        let ns = self.sourced.rows.len();
        let rhs = || -> Vec<f64> {
            let mut rhs = vec![0.0; self.nf];
            for (s, &r) in self.sourced.rows.iter().enumerate() {
                if !inj.is_empty() {
                    rhs[r] = inj[ti * ns + s];
                }
                for &(k, g, _) in self.sourced.terms(s) {
                    rhs[r] -= g * vk(k);
                }
            }
            rhs
        };
        Ok(match &self.factors {
            StepFactors::Dense {
                dc_lu: Some(dc), ..
            } => Some(dc.solve(&rhs())?),
            StepFactors::Sparse {
                dc_lu: Some(dc), ..
            } => Some(dc.solve(&rhs())?),
            _ => None,
        })
    }

    /// Prepares one source set's column of a sweep: finds each source's
    /// samples in the sweep's `samples` (sampling a waveform the sweep
    /// has not met yet), then builds the compact source table, the
    /// initial state and, for a run until settled, the column's settle
    /// test. `inj` is the sweep's injection table, whose every row from
    /// `inj_hold` on equals its last.
    fn column<'w>(
        &self,
        sources: &[&'w Waveform],
        samples: &mut Samples<'w>,
        inj: &[f64],
        inj_hold: usize,
    ) -> Result<Column, CircuitError> {
        if sources.len() != self.nd {
            return Err(CircuitError::InvalidOptions(
                "one waveform required per voltage source",
            ));
        }
        let ns = self.sourced.rows.len();
        let nt = self.times.len();
        // One bump per source set, not per step — the disabled path stays
        // a single branch outside the integration loop.
        nsta_obs::count!("circuit.transient.sweeps");
        let h = self.opts.dt;

        // Known node voltages: `vk(k, ti)` is source `k` at time point `ti`.
        let driven: Vec<usize> = sources
            .iter()
            .map(|w| samples.index(w, &self.times))
            .collect();
        let vk = |k: usize, ti: usize| samples.at(driven[k], ti);
        // From `steady` on, every source of the column holds its last
        // sample, so the source terms of every step after `steady + 1`
        // repeat that step's.
        let steady = driven
            .iter()
            .map(|&i| samples.hold(i))
            .fold(inj_hold, usize::max);

        // DC initial condition (all zero without a DC system).
        let mut x0 = self
            .dc_point(|k| vk(k, 0), inj, 0)?
            .unwrap_or_else(|| vec![0.0; self.nf]);
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

        // The settle test: the DC point of the final source values.
        let settle = match self.opts.settle {
            Some(eps) => self
                .dc_point(|k| vk(k, nt - 1), inj, nt - 1)?
                .map(|x_inf| Settle {
                    x_inf,
                    eps,
                    outside: 0,
                }),
            None => None,
        };

        // Source terms of every step on the sourced rows, tabulated up
        // front so the step loop reads one short contiguous row:
        //   src[ti][s] = −C_UK Δvk − h G_UK v̄k + h (inj_n + inj_{n+1})/2
        // for free row `sourced.rows[s]`. Every other row's term is an
        // exact +0.0 and is skipped (see `SourcedRows::compact`). Rows
        // stop at `steady + 1`: every later row repeats it bit for bit.
        let rows = (steady + 2).min(nt);
        let mut src = vec![0.0; rows * ns];
        for ti in 1..rows {
            let row = &mut src[ti * ns..(ti + 1) * ns];
            for (s, out) in row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for &(k, g, c) in self.sourced.terms(s) {
                    let (now, prev) = (vk(k, ti), vk(k, ti - 1));
                    let dv = now - prev;
                    let vbar = 0.5 * (now + prev);
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
        Ok(Column {
            driven,
            steady,
            src,
            x0,
            settle,
        })
    }

    /// The shared step loop: prepares one [`Column`] per source set (in
    /// order, each failing before the next is prepared), then marches the
    /// factored trapezoidal system across the grid. Returns, per source
    /// set, the recorded `slots` at every time point from `t_start` up to
    /// the column's settle step, or to the grid's end (see
    /// [`TransientOptions::until_settled`]).
    ///
    /// The sparse backend marches all `W` sets as one block through the
    /// column-blocked kernels until the last of them has settled; `W = 1`
    /// is the plain one-set sweep. The dense backend marches the sets one
    /// after the other, each up to its own settle step.
    fn sweep<const W: usize>(
        &self,
        sources: [&[&Waveform]; W],
        slots: &[Slot],
    ) -> Result<[Record; W], CircuitError> {
        let mut samples = Samples::default();
        let (inj, inj_hold) = self.injection_table();
        let mut cols = Vec::with_capacity(W);
        for set in sources {
            cols.push(self.column(set, &mut samples, &inj, inj_hold)?);
        }
        let nf = self.nf;
        let ns = self.sourced.rows.len();
        let nt = self.times.len();
        let mut records: [Record; W] = std::array::from_fn(|_| Record {
            data: Vec::with_capacity(slots.len() * nt),
            points: 0,
            settled: false,
        });
        // Source `k` of column `col` at time point `ti`.
        let vk = |col: &Column, k: usize, ti: usize| samples.at(col.driven[k], ti);

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
                for (col, out) in cols.iter_mut().zip(&mut records) {
                    let mut x = col.x0.clone();
                    out.push(slots, |k| vk(col, k, 0), |i| x[i]);
                    for ti in 1..nt {
                        let src = col.src_row(ti, ns);
                        for (&r, &v) in self.sourced.rows.iter().zip(src) {
                            s_row[r] = v;
                        }
                        for (i, &r) in perm.iter().enumerate() {
                            // rhs = (C − hG/2)·x_n + src, off the precomputed matrices.
                            x_next[i] = nsta_numeric::dot(rhs_mat.row(r), &x) + s_row[r];
                        }
                        lhs_lu.solve_prepermuted_in_place(&mut x_next)?;
                        std::mem::swap(&mut x, &mut x_next);
                        out.push(slots, |k| vk(col, k, ti), |i| x[i]);
                        if col.settled(ti, |i| x[i]) {
                            out.settled = true;
                            break;
                        }
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
                for (j, (col, out)) in cols.iter().zip(&mut records).enumerate() {
                    out.push(slots, |k| vk(col, k, 0), |i| x[i][j]);
                }
                for ti in 1..nt {
                    if records.iter().all(|r| r.settled) {
                        break;
                    }
                    rhs_mat.mul_block_into(&x, &mut x_next)?;
                    for (j, col) in cols.iter().enumerate() {
                        for (&r, &v) in self.sourced.rows.iter().zip(col.src_row(ti, ns)) {
                            x_next[r][j] += v;
                        }
                    }
                    lhs_lu.solve_block_in_place(&mut x_next)?;
                    std::mem::swap(&mut x, &mut x_next);
                    for (j, (col, out)) in cols.iter_mut().zip(&mut records).enumerate() {
                        if !out.settled {
                            out.push(slots, |k| vk(col, k, ti), |i| x[i][j]);
                            out.settled = col.settled(ti, |i| x[i][j]);
                        }
                    }
                }
            }
        }
        for record in &records {
            nsta_obs::count!("circuit.transient.steps", record.points);
            if record.settled {
                nsta_obs::count!("circuit.transient.settled");
            }
        }
        Ok(records)
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

/// The grid samples of every distinct source waveform of one sweep. The
/// sets of a sweep share waveforms — a victim's ramp drives both its
/// noiseless and its noisy set, and a noiseless set repeats one quiet
/// waveform for every aggressor — so each waveform, told apart by
/// address, is sampled once, and only up to its [`hold_point`]: the rest
/// of the grid repeats its last sample.
#[derive(Default)]
struct Samples<'w> {
    waves: Vec<&'w Waveform>,
    /// `values[i]`: `waves[i]` sampled on the sweep's time grid up to and
    /// including its hold point; every later grid point repeats the last
    /// entry bit for bit.
    values: Vec<Vec<f64>>,
}

impl<'w> Samples<'w> {
    /// The index of `w`'s samples on `grid`, sampling it on first sight.
    fn index(&mut self, w: &'w Waveform, grid: &[f64]) -> usize {
        if let Some(i) = self.waves.iter().position(|&seen| std::ptr::eq(seen, w)) {
            return i;
        }
        let mut values = Vec::new();
        w.sample_on_grid(&grid[..=hold_point(w, grid)], &mut values);
        self.waves.push(w);
        self.values.push(values);
        self.values.len() - 1
    }

    /// Waveform `i` at grid point `ti`.
    fn at(&self, i: usize, ti: usize) -> f64 {
        let values = &self.values[i];
        values[ti.min(values.len() - 1)]
    }

    /// The grid point from which waveform `i` holds its last sample.
    fn hold(&self, i: usize) -> usize {
        self.values[i].len() - 1
    }
}

/// The first point of `grid` from which `w`'s samples all equal its last
/// value bit for bit — the first at or after its last change of value —
/// or the grid's last point if `w` changes later.
///
/// A grid sample between two equal record values is that value plus an
/// interpolated `+0.0`, which leaves every value but `-0.0` unchanged, so
/// a record ending on `-0.0` holds only from its last time on.
fn hold_point(w: &Waveform, grid: &[f64]) -> usize {
    let (ts, vs) = (w.times(), w.values());
    let last = vs[vs.len() - 1];
    let from = if last == 0.0 && last.is_sign_negative() {
        ts[ts.len() - 1]
    } else {
        vs.iter()
            .rposition(|v| v.to_bits() != last.to_bits())
            .map_or(f64::NEG_INFINITY, |m| ts[m + 1])
    };
    grid.partition_point(|&t| t < from).min(grid.len() - 1)
}

/// One source set's share of a sweep.
struct Column {
    /// Per voltage source, the index of its waveform's samples in the
    /// sweep's [`Samples`].
    driven: Vec<usize>,
    /// The grid point from which every source of the column (current
    /// injections included) holds its last sample.
    steady: usize,
    /// Compact source table, time-major, `sourced rows` wide, up to row
    /// `steady + 1` (row 0 unused): every later row equals that one.
    src: Vec<f64>,
    /// Initial state over the free unknowns.
    x0: Vec<f64>,
    /// The settle test of a run until settled; `None` runs to the grid's
    /// end.
    settle: Option<Settle>,
}

impl Column {
    /// The source terms of step `ti`, `ns` sourced rows wide.
    fn src_row(&self, ti: usize, ns: usize) -> &[f64] {
        let ti = ti.min(self.steady + 1);
        &self.src[ti * ns..(ti + 1) * ns]
    }

    /// Whether the column has settled at step `ti`, its free unknowns read
    /// through `x` (see [`TransientOptions::until_settled`]).
    fn settled(&mut self, ti: usize, x: impl Fn(usize) -> f64) -> bool {
        let Some(s) = self.settle.as_mut().filter(|_| ti >= self.steady) else {
            return false;
        };
        // Start at the unknown that was out of tolerance last time: it
        // usually still is, so an unsettled step costs one comparison. A
        // NaN is never within tolerance.
        let n = s.x_inf.len();
        let outside = (s.outside..n)
            .chain(0..s.outside)
            .find(|&i| !((x(i) - s.x_inf[i]).abs() <= s.eps));
        s.outside = outside.unwrap_or(0);
        outside.is_none()
    }
}

/// A column's settle test: from its steady point on, every free unknown
/// within `eps` of `x_inf`.
struct Settle {
    /// The DC operating point of the column's last source samples.
    x_inf: Vec<f64>,
    eps: f64,
    /// The unknown found outside the tolerance at the last test.
    outside: usize,
}

/// One column's record of a sweep: the recorded slots at each of its
/// first `points` time points, time-major.
struct Record {
    data: Vec<f64>,
    points: usize,
    /// Set once the column has met its settle test; it records no more.
    settled: bool,
}

impl Record {
    /// Appends one time point of `slots`: free unknowns through `free`,
    /// driven nodes through `driven` (by voltage-source index).
    fn push(&mut self, slots: &[Slot], driven: impl Fn(usize) -> f64, free: impl Fn(usize) -> f64) {
        self.data.extend(slots.iter().map(|slot| match *slot {
            Slot::Free(i) => free(i),
            Slot::Driven(k) => driven(k),
        }));
        self.points += 1;
    }
}

fn non_finite() -> CircuitError {
    CircuitError::Numeric(nsta_numeric::NumericError::NonFinite(
        "transient node voltages",
    ))
}

/// The time points `t_start + k·dt`, `k = 0..=steps`, of a run, or an
/// error instead of a panic or an aborted allocation when there are too
/// many of them.
fn time_grid(opts: &TransientOptions) -> Result<Arc<[f64]>, CircuitError> {
    // The cast saturates, so a grid too fine to count overflows the
    // checked `+ 1`.
    let steps = ((opts.t_stop - opts.t_start) / opts.dt).round() as usize;
    let points = steps.checked_add(1).ok_or(CircuitError::InvalidOptions(
        "time grid has too many points to count",
    ))?;
    let mut times = Vec::new();
    times
        .try_reserve_exact(points)
        .map_err(|_| CircuitError::InvalidOptions("time grid too large to allocate"))?;
    times.extend((0..=steps).map(|k| opts.t_start + k as f64 * opts.dt));
    Ok(times.into())
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

    /// A sweep of several sets must reproduce one one-set run per set, bit
    /// for bit and on the same prefix of the grid. Returns each set's
    /// recorded point count.
    fn assert_sets_match_runs(
        system: &FactoredSystem,
        sets: &[&[&Waveform]],
        nodes: &[NodeId],
    ) -> Vec<usize> {
        let swept = system.run_node_sets(sets, nodes).unwrap();
        assert_eq!(swept.len(), sets.len());
        let mut points = Vec::new();
        for (traces, set) in swept.iter().zip(sets) {
            let alone = system.run_nodes(set, nodes).unwrap();
            assert_eq!(bits(traces), bits(&alone));
            let times = traces[0].times();
            assert_eq!(times, alone[0].times());
            assert_eq!(times, &system.times()[..times.len()]);
            points.push(times.len());
        }
        points
    }

    /// A falling step: `v` until `t0`, down to 0 V over `fall` — the
    /// falling transitions of the four-set fixtures.
    fn fall_at(t0: f64, fall: f64, v: f64, t_end: f64) -> Waveform {
        Waveform::new(vec![t0, t0 + fall, t_end], vec![v, 0.0, 0.0]).unwrap()
    }

    /// Runs `check` on the two four-set fixtures, each with its four sets
    /// shaped like a victim's two transitions (the noiseless and noisy
    /// drive of each) and the nodes to record: the coupled pair, where
    /// the victim ramp appears in both sets of its transition and the
    /// quiet level once per aggressor, and a 48-segment victim
    /// star-coupled to two aggressors — a large, filled-in factorization
    /// with three sourced rows. The sources end by 1.51 ns of a 6 ns grid.
    fn four_set_fixtures(mut check: impl FnMut(&Circuit, [&[&Waveform]; 4], &[NodeId])) {
        let noisy_wave = step_at(1e-9, 50e-12, 1.0, 10e-9);
        let noisy_fall = fall_at(1.1e-9, 60e-12, 1.0, 10e-9);
        let quiet = Waveform::constant(0.0, 0.0, 6e-9).unwrap();
        let quiet_high = Waveform::constant(1.0, 0.0, 6e-9).unwrap();
        let victim = step_at(0.8e-9, 80e-12, 1.0, 10e-9);
        let victim_fall = fall_at(0.9e-9, 70e-12, 1.0, 10e-9);
        let (ckt, vic) = coupled_pair(noisy_wave.clone());
        let agg = NodeId(0); // driven probe: the aggressor's source node
        let sets: [&[&Waveform]; 4] = [
            &[&quiet, &victim],
            &[&noisy_wave, &victim],
            &[&quiet_high, &victim_fall],
            &[&noisy_fall, &victim_fall],
        ];
        check(&ckt, sets, &[vic, agg]);

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
        let late = step_at(1.3e-9, 120e-12, 1.0, 10e-9);
        let late_fall = fall_at(1.4e-9, 110e-12, 1.0, 10e-9);
        let sets: [&[&Waveform]; 4] = [
            &[&victim, &quiet, &quiet],
            &[&victim, &noisy_wave, &late],
            &[&victim_fall, &quiet_high, &quiet_high],
            &[&victim_fall, &noisy_fall, &late_fall],
        ];
        let system = ckt.factor_transient(fixture_opts()).unwrap();
        assert!(system.nf > 100 && system.sourced.rows.len() == 3);
        check(&ckt, sets, &[far, v_in, agg_ins[1]]);
    }

    /// The grid of the four-set fixtures: 2 ps steps to 6 ns.
    fn fixture_opts() -> TransientOptions {
        TransientOptions::new(0.0, 6e-9, 2e-12).unwrap()
    }

    #[test]
    fn run_node_sets_is_bit_identical_to_separate_runs() {
        four_set_fixtures(|ckt, sets, nodes| {
            for backend in [SolverBackend::Sparse, SolverBackend::Dense] {
                let system = ckt
                    .factor_transient(fixture_opts().with_backend(backend))
                    .unwrap();
                for width in 1..=4 {
                    let points = assert_sets_match_runs(&system, &sets[..width], nodes);
                    assert!(points.iter().all(|&p| p == system.times().len()));
                }
            }
        });
    }

    #[test]
    fn held_samples_equal_full_grid_samples() {
        // A sweep samples each source only up to its hold point; every
        // grid sample, read through `Samples::at`, must equal sampling the
        // whole grid bit for bit — for ramps, constants, a record ending
        // on -0.0 and one still changing past the grid.
        let grid: Vec<f64> = (0..=500).map(|k| k as f64 * 2e-12).collect();
        let waves = [
            step_at(0.2e-9, 50e-12, 1.0, 2e-9),
            fall_at(0.3e-9, 37e-12, 1.2, 2e-9),
            Waveform::constant(0.7, 0.0, 1e-9).unwrap(),
            Waveform::new(vec![0.1e-9, 0.2e-9, 0.5e-9], vec![0.4, -0.0, -0.0]).unwrap(),
            step_at(0.9e-9, 400e-12, 1.0, 2e-9),
        ];
        let mut samples = Samples::default();
        for w in &waves {
            let i = samples.index(w, &grid);
            let mut full = Vec::new();
            w.sample_on_grid(&grid, &mut full);
            for (ti, v) in full.iter().enumerate() {
                assert_eq!(
                    samples.at(i, ti).to_bits(),
                    v.to_bits(),
                    "wave {i}, point {ti}"
                );
            }
            assert!(samples.hold(i) < grid.len() - 1 || i == 4);
        }
        // The constant holds from the first point; the ramp from its end.
        assert_eq!(samples.hold(2), 0);
        assert_eq!(samples.hold(0), 125);
    }

    /// The settle tolerance of the settle-stop tests (V).
    const EPS: f64 = 1e-6;

    #[test]
    fn settled_column_is_a_prefix_of_the_full_run() {
        // A column run until settled records exactly the first k + 1
        // samples of the same column run to the cap; after them, the full
        // run stays within the tolerance of the held last value (the
        // largest excursion on these fixtures measures 9.8e-7 V; the
        // stop step is 479–1167 of 3001).
        let mut worst = 0.0f64;
        four_set_fixtures(|ckt, sets, nodes| {
            for backend in [SolverBackend::Sparse, SolverBackend::Dense] {
                let opts = fixture_opts().with_backend(backend);
                let full = ckt.factor_transient(opts).unwrap();
                let settled = ckt.factor_transient(opts.until_settled(EPS)).unwrap();
                for set in sets {
                    let cap = full.run_nodes(set, nodes).unwrap();
                    let stopped = settled.run_nodes(set, nodes).unwrap();
                    for (cap, stopped) in cap.iter().zip(&stopped) {
                        let k = stopped.len() - 1;
                        assert!(k < cap.len() / 2, "{backend:?}: stopped at {k}");
                        assert_eq!(stopped.times(), &cap.times()[..=k]);
                        assert_eq!(
                            bits(std::slice::from_ref(stopped))[0],
                            bits(std::slice::from_ref(cap))[0][..=k]
                        );
                        let held = stopped.values()[k];
                        for &v in &cap.values()[k..] {
                            worst = worst.max((v - held).abs());
                        }
                    }
                }
                // `run` honours the stop too, on the same prefix.
                let waves: Vec<&Waveform> =
                    settled.default_sources.iter().map(|w| w.as_ref()).collect();
                let recorded = settled.run_nodes(&waves, &nodes[..1]).unwrap();
                let result = settled.run().unwrap();
                assert_eq!(result.times(), recorded[0].times());
                assert_eq!(result.voltage(nodes[0]).unwrap(), recorded[0]);
            }
        });
        assert!(
            worst > 0.0 && worst <= EPS,
            "excursion after the stop: {worst:e} V"
        );
    }

    #[test]
    fn settle_stop_waits_for_a_late_source() {
        // The aggressor ramp ends 100 ps before the cap, long after the
        // victim has settled: the stop comes at or after its final step,
        // and still before the cap.
        let (t_stop, dt): (f64, f64) = (3e-9, 2e-12);
        let late = step_at(2.85e-9, 50e-12, 1.0, 10e-9);
        let (ckt, vic) = coupled_pair(late.clone());
        let k_final = (2.9e-9 / dt).round() as usize;
        for backend in [SolverBackend::Sparse, SolverBackend::Dense] {
            let opts = TransientOptions::new(0.0, t_stop, dt)
                .unwrap()
                .with_backend(backend);
            let system = ckt.factor_transient(opts.until_settled(EPS)).unwrap();
            let hold = Waveform::constant(0.0, 0.0, t_stop).unwrap();
            let trace = system.run_nodes(&[&late, &hold], &[vic]).unwrap().remove(0);
            let k = trace.len() - 1;
            assert!(
                k >= k_final && k < system.times().len() - 1,
                "{backend:?}: {k}"
            );
            // The kick of the late aggressor is in the record.
            assert!(trace.v_max() > 0.05);
        }
    }

    #[test]
    fn run_node_sets_until_settled_matches_separate_runs() {
        // Each column stops on its own test, so a sweep of one to four
        // sets reproduces one run per set, record lengths included, and a
        // set's record does not depend on the sets it shares a block with.
        four_set_fixtures(|ckt, sets, nodes| {
            for backend in [SolverBackend::Sparse, SolverBackend::Dense] {
                let opts = fixture_opts().with_backend(backend).until_settled(EPS);
                let system = ckt.factor_transient(opts).unwrap();
                let all = assert_sets_match_runs(&system, &sets, nodes);
                for width in 1..=4 {
                    for first in 0..=4 - width {
                        let block = &sets[first..first + width];
                        let points = assert_sets_match_runs(&system, block, nodes);
                        assert_eq!(points, all[first..first + width]);
                    }
                }
                // The sets settle at different steps, all before the cap.
                assert!(all.iter().all(|&p| p < system.times().len()));
                assert!(all.windows(2).any(|w| w[0] != w[1]), "{all:?}");
            }
        });
    }

    #[test]
    fn unsettled_column_runs_to_the_cap() {
        // τ = 1 ns against a 2 ns cap: the output is still ~10 mV from
        // its final value at the cap, so the column never settles and
        // records the whole grid, bit-identical to a run without the stop.
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.resistor(inp, out, 1_000.0).unwrap();
        ckt.capacitor(out, Circuit::GROUND, 1e-12).unwrap();
        ckt.vsource(inp, step_at(0.1e-9, 20e-12, 1.0, 10e-9))
            .unwrap();
        for backend in [SolverBackend::Sparse, SolverBackend::Dense] {
            let opts = TransientOptions::new(0.0, 2e-9, 2e-12)
                .unwrap()
                .with_backend(backend);
            let full = ckt.run_transient(opts).unwrap();
            let settled = ckt.run_transient(opts.until_settled(EPS)).unwrap();
            assert_eq!(settled.times().len(), full.times().len());
            assert_eq!(settled.voltage(out).unwrap(), full.voltage(out).unwrap());
        }
    }

    #[test]
    fn zero_initial_state_never_stops_early() {
        // Without a DC system there is no final point to settle toward: a
        // quiet RC that never moves from 0 V still runs to the cap.
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.resistor(inp, out, 100.0).unwrap();
        ckt.capacitor(out, Circuit::GROUND, 1e-15).unwrap();
        ckt.vsource(inp, Waveform::constant(0.0, 0.0, 1e-9).unwrap())
            .unwrap();
        let opts = TransientOptions::new(0.0, 1e-9, 1e-12).unwrap();
        for backend in [SolverBackend::Sparse, SolverBackend::Dense] {
            let opts = opts.with_backend(backend);
            // With a DC start the same circuit stops after one step.
            let dc = ckt.run_transient(opts.until_settled(EPS)).unwrap();
            assert_eq!(dc.times().len(), 2);
            let zero = opts.with_zero_initial_state();
            let full = ckt.run_transient(zero).unwrap();
            let settled = ckt.run_transient(zero.until_settled(EPS)).unwrap();
            assert_eq!(settled.times(), full.times());
            assert_eq!(settled.voltage(out).unwrap(), full.voltage(out).unwrap());
        }
    }

    #[test]
    fn run_node_sets_carries_current_injections() {
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
        for backend in [SolverBackend::Sparse, SolverBackend::Dense] {
            let system = ckt.factor_transient(opts.with_backend(backend)).unwrap();
            assert_eq!(system.sourced.rows.len(), 2);
            assert_eq!(system.injections.len(), 2);
            let other = step_at(1e-9, 200e-12, 0.7, 10e-9);
            let falling = fall_at(1.5e-9, 150e-12, 0.9, 10e-9);
            let default = system.default_sources[0].as_ref();
            let sets: [&[&Waveform]; 4] = [&[default], &[&other], &[&falling], &[default]];
            assert_sets_match_runs(&system, &sets, &[q, p, d]);
        }
        // The injections are felt: `q` moves without any coupler to `d`.
        let system = ckt.factor_transient(opts).unwrap();
        let full = system.run().unwrap().voltage(q).unwrap();
        assert!(full.v_min() < -1e-3, "the steady -3 µA must pull q down");
    }

    #[test]
    fn run_node_sets_rejects_what_run_nodes_rejects() {
        let opts = TransientOptions::new(0.0, 6e-9, 2e-12).unwrap();
        let (ckt, vic) = coupled_pair(step_at(1e-9, 50e-12, 1.0, 10e-9));
        let system = ckt.factor_transient(opts).unwrap();
        let hold = Waveform::constant(0.0, 0.0, 6e-9).unwrap();
        let good: &[&Waveform] = &[&hold, &hold];
        let short: &[&Waveform] = &[&hold];
        // A set with the wrong source count, in each of four positions.
        for bad in 0..4 {
            let mut sets = [good; 4];
            sets[bad] = short;
            assert!(matches!(
                system.run_node_sets(&sets, &[vic]),
                Err(CircuitError::InvalidOptions(_))
            ));
        }
        // No set, or more than four.
        for count in [0, 5] {
            assert!(matches!(
                system.run_node_sets(&vec![good; count], &[vic]),
                Err(CircuitError::InvalidOptions(_))
            ));
        }
        assert!(matches!(
            system.run_node_sets(&[good, good], &[vic, Circuit::GROUND]),
            Err(CircuitError::NotRecorded(_))
        ));
        assert!(matches!(
            system.run_node_sets(&[good, good, good, good], &[NodeId(99)]),
            Err(CircuitError::UnknownNode { index: 99 })
        ));
    }

    #[test]
    fn grids_too_fine_to_count_or_allocate_are_rejected() {
        // A 100 Ω / 1 fF RC driven by a 1 V source, over one second: at
        // 1e-300 s the step count saturates; at 1 fs its 1e15 + 1 time
        // points (8 PB) cannot be allocated. Both are errors, not a panic
        // or an aborted process.
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.resistor(inp, out, 100.0).unwrap();
        ckt.capacitor(out, Circuit::GROUND, 1e-15).unwrap();
        ckt.vsource(inp, Waveform::constant(1.0, 0.0, 1.0).unwrap())
            .unwrap();
        for dt in [1e-300, 1e-15] {
            let opts = TransientOptions::new(0.0, 1.0, dt).unwrap();
            assert!(
                matches!(
                    ckt.factor_transient(opts),
                    Err(CircuitError::InvalidOptions(_))
                ),
                "dt = {dt:e}"
            );
            assert!(matches!(
                ckt.run_transient(opts),
                Err(CircuitError::InvalidOptions(_))
            ));
        }
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
