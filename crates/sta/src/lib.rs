//! Crosstalk-aware static timing analysis.
//!
//! This crate is the *consumer* of the paper's contribution: a gate-level
//! static timing engine whose noisy-net propagation is pluggable across the
//! six equivalent-waveform techniques (P1, P2, LSF3, E4, WLS5, SGDP).
//!
//! * [`Design`] — gate-level netlist, built programmatically or parsed from
//!   a structural-Verilog subset ([`verilog::parse_design`]),
//! * [`TimingGraph`] — net graph with cycle detection, split into
//!   independent fanout cones,
//! * [`Sta`] — rise/fall arrival, slew, required-time and slack
//!   propagation over NLDM libraries, with critical-path extraction,
//! * [`BoundaryConditions`] — per-pin run boundaries: input arrival
//!   *windows* `{min, max}` with per-port slews, per-output required
//!   times and loads, and false-path exemptions. Every analysis accepts
//!   `impl Into<BoundaryConditions>`, so the legacy uniform
//!   [`Constraints`] keeps working while SDC-bound sets
//!   (`nsta-constraints`) drive genuine per-pin windows,
//! * [`CouplingSpec`]/[`SiOptions`]/[`Sta::analyze_with_crosstalk_windows`]
//!   — victim nets with capacitive aggressors: the noisy waveform at the
//!   receiver is computed on the linear RC substrate, reduced to an
//!   equivalent ramp `Γeff` by the chosen [`MethodKind`](sgdp::MethodKind),
//!   and propagated downstream — exactly how the paper proposes commercial
//!   STA adopt SGDP. A timing-window filter prunes aggressors whose
//!   switching windows cannot overlap the victim's before any circuit
//!   simulation (their coupling caps stay as quiet grounded load), and the
//!   filter + analysis iterate to a fixed point because crosstalk push-out
//!   moves the windows. Coupling specs can be hand-written or derived from
//!   extracted parasitics by `nsta-parasitics`.
//!
//! ```
//! use nsta_sta::{verilog, Constraints, Sta};
//! use nsta_liberty::characterize::{self, Options};
//! use nsta_spice::Process;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = characterize::inverter_family(
//!     &Process::c013(),
//!     &[("INVX1", 1.0), ("INVX4", 4.0)],
//!     &Options::fast_test(),
//! )?;
//! let design = verilog::parse_design(r#"
//!     module chain (a, y);
//!       input a; output y;
//!       wire w;
//!       INVX1 u1 (.A(a), .Y(w));
//!       INVX4 u2 (.A(w), .Y(y));
//!     endmodule
//! "#)?;
//! let sta = Sta::new(design, lib)?;
//! let report = sta.analyze(&Constraints::default())?;
//! assert!(report.worst_arrival() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod boundary;
mod engine;
mod error;
mod graph;
mod netlist;
mod par;
mod report;
pub mod session;
pub mod si;
pub mod verilog;

pub use boundary::{BoundaryConditions, FalsePath, InputBoundary, OutputBoundary};
pub use engine::{Constraints, Sta};
pub use error::StaError;
pub use graph::{Edge, TimingGraph};
pub use netlist::{Design, Instance, NetId};
pub use nsta_circuit::SolverBackend;
pub use nsta_obs::{Deadline, FakeClock};
pub use report::{NetTiming, TimingReport};
pub use session::{ConePatch, EditScope, RetainedAnalysis};
pub use si::{
    ArrivalWindow, ConvergenceAction, CouplingSpec, DegradeAction, DegradeEvent, FaultPolicy,
    PrunedAggressor, SiAdjustment, SiAnalysis, SiDiagnostics, SiIteration, SiOptions,
};

/// Serializes tests that enable the process-wide [`nsta_obs`] recorder
/// with every test that starts a pool: the crate's tests share one test
/// binary, and cargo runs them on concurrent threads, so the pool loops
/// of one test — spawned workers, or the coordinator running the loop
/// itself — would count into another test's enabled recorder without
/// this lock.
#[cfg(test)]
pub(crate) fn obs_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}
