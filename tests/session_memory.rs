//! Retained memory per committed edit of a long-lived session.
//!
//! A session keeps every committed edit in its journal for replay, so
//! its footprint grows with the edits it absorbs. This binary installs a
//! counting global allocator and measures the live heap bytes each edit
//! adds on the 8-group bus (its victim sections are the same 3-segment,
//! 8-element sections as the 64-group benchmark bus's), one thread.

// Integration tests panic on failure by design; the workspace's
// library-only unwrap/expect denies do not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use noisy_sta::liberty::characterize::{inverter_family, Options};
use noisy_sta::parasitics::BindOptions;
use noisy_sta::session::{Edit, SessionOptions, TimingSession};
use noisy_sta::spice::Process;
use noisy_sta::sta::{verilog, BoundaryConditions, Constraints, SiOptions, Sta};
use nsta_bench::busgen;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, keeping a running total of live bytes (a
/// statistic only: the counter publishes no other data, so `Relaxed`).
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees for `GlobalAlloc` carry over to `System`'s
// methods; the only extra work is an atomic add.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const GROUPS: usize = 8;
/// Edits per measured window. The journal allocates in 4 KiB blocks, so
/// a window's reading is exact to within 4 KiB / `EDITS` = 8 B per edit.
const EDITS: usize = 512;

/// The `i`-th edit of one kind, cycling through the groups; a
/// re-annotation rescales the victim's seed section, like the benchmark's
/// edit stream.
fn edit(kind: usize, i: usize, seed: &noisy_sta::parasitics::SpefFile) -> Edit {
    let g = i % GROUPS;
    let scale = 0.85 + 0.3 * (i % 10) as f64 / 10.0;
    match kind {
        0 => Edit::SetLoad {
            port: format!("y{g}"),
            farads: (5 + i % 50) as f64 * 1e-15,
        },
        1 => Edit::SetDriveResistance {
            net: format!("v{g}"),
            ohms: (120 + i % 240) as f64,
        },
        _ => {
            let mut dnet = seed.net(&format!("v{g}")).unwrap().clone();
            for cap in &mut dnet.caps {
                cap.value *= scale;
            }
            dnet.total_cap *= scale;
            Edit::ReannotateNet { dnet }
        }
    }
}

#[test]
fn journal_retains_a_few_bytes_per_edit() {
    let lib = inverter_family(
        &Process::c013(),
        &[("INVX1", 1.0), ("INVX4", 4.0)],
        &Options::fast_test(),
    )
    .unwrap();
    let design = verilog::parse_design(&busgen::netlist(GROUPS)).unwrap();
    let seed = busgen::spef(GROUPS, 3);
    let mut session = TimingSession::open(
        Sta::new(design, lib).unwrap(),
        seed.clone(),
        BindOptions::default(),
        BoundaryConditions::uniform(&Constraints::default()),
        SessionOptions {
            si: SiOptions {
                threads: 1,
                ..SiOptions::default()
            },
            audit_every_n: None,
        },
    )
    .unwrap();
    // Warm up: every group once per kind, so one-time growth (interned
    // names, first-use buffers) is not charged to the measured edits.
    for kind in 0..3 {
        for i in 0..GROUPS {
            assert!(session.apply(edit(kind, i, &seed)).is_committed());
        }
    }
    // Net live bytes per edit, and the bound each kind must stay within.
    for (kind, name, bound) in [
        (0, "set_load", 64),
        (1, "set_drive_resistance", 64),
        (2, "reannotate_net", 512),
    ] {
        // Each edit is built inside the window: `apply` consumes it, so
        // its own allocations net out.
        let before = LIVE.load(Ordering::Relaxed);
        for i in 0..EDITS {
            assert!(session.apply(edit(kind, i, &seed)).is_committed());
        }
        let per_edit = (LIVE.load(Ordering::Relaxed) - before) / EDITS as isize;
        println!("{name}: {per_edit} B retained per edit");
        assert!(
            per_edit <= bound,
            "{name} retains {per_edit} B per edit (bound {bound} B)"
        );
    }
}
