//! SPEF parasitic extraction for crosstalk-aware STA.
//!
//! Commercial STA flows do not receive hand-written coupling descriptions:
//! they read extracted parasitics (SPEF, IEEE 1481) and derive the
//! victim/aggressor structure from the coupling capacitances in each net's
//! RC section. This crate closes that gap for the `noisy-sta` workspace,
//! making the paper's noisy-waveform propagation drivable end-to-end from a
//! netlist + SPEF pair:
//!
//! * [`parse_spef`] — lexer/parser for the SPEF subset that matters to
//!   timing: header + units, the name map, `*PORTS`, and `*D_NET` RC
//!   sections with `*CONN`, ground/coupling `*CAP` and `*RES` entries. All
//!   values are scaled to SI at parse time.
//! * [`write_spef`] — canonical serializer; `parse ∘ write` is the
//!   identity on the model (golden-file round trips).
//! * [`ReducedNet`]/[`reduce_spef`] — collapses each extracted net into
//!   the lumped model the STA substrate consumes: an
//!   [`RcLineSpec`](nsta_circuit::RcLineSpec) plus per-partner coupling
//!   totals.
//! * [`bind_couplings`] — matches SPEF nets to a timing
//!   [`Design`](nsta_sta::Design) by name and emits the
//!   [`CouplingSpec`](nsta_sta::CouplingSpec)s that
//!   `Sta::analyze_with_crosstalk_windows` accepts, reporting every
//!   unmatched net and pruned coupling instead of silently dropping them.
//! * [`rebind_net`] — the single-net rebind of an incremental ECO flow:
//!   one replaced `*D_NET` section updates a bound spec list by
//!   reducing only that section and rebuilding only the specs naming
//!   its net.
//!
//! ```
//! use nsta_parasitics::{bind_couplings, parse_spef, BindOptions};
//! use nsta_sta::verilog::parse_design;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = parse_design(
//!     "module m (a, b, y, z); input a, b; output y, z; wire v, g;\
//!      INVX1 u1 (.A(a), .Y(v)); INVX4 u2 (.A(v), .Y(y));\
//!      INVX1 u3 (.A(b), .Y(g)); INVX4 u4 (.A(g), .Y(z)); endmodule",
//! )?;
//! let spef = parse_spef(
//!     "*DESIGN \"m\"\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n\
//!      *NAME_MAP\n*1 v\n*2 g\n\
//!      *D_NET *1 128.8\n*CAP\n1 *1:1 14.4 \n2 *1:2 14.4\n\
//!      3 *1:1 *2:1 50.0\n4 *1:2 *2:2 50.0\n\
//!      *RES\n1 *1 *1:1 12.75\n2 *1:1 *1:2 12.75\n*END\n\
//!      *D_NET *2 28.8\n*CAP\n1 *2:1 28.8\n*RES\n1 *2 *2:1 25.5\n*END\n",
//! )?;
//! let bound = bind_couplings(&spef, &design, &BindOptions::default())?;
//! assert_eq!(bound.specs.len(), 1);
//! let spec = bound.spec_for(&design, "v").expect("victim bound");
//! assert_eq!(spec.aggressors.len(), 1);
//! assert!((spec.cm_per_aggressor[0] - 100e-15).abs() < 1e-24);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod ast;
mod bind;
mod error;
pub mod lexer;
mod parser;
mod reduce;
mod writer;

pub use ast::{CapElem, Conn, ConnDirection, ConnKind, DNet, ResElem, SpefFile, SpefNode, Units};
pub use bind::{bind_couplings, rebind_net, BindOptions, BoundCouplings, DropReason, Rebind};
pub use error::SpefError;
pub use parser::parse_spef;
pub use reduce::{reduce_spef, ReducedNet};
pub use writer::write_spef;
