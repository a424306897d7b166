//! Library characterization round trip: build NLDM tables by transistor-
//! level simulation, serialize them to Liberty text, parse the text back
//! and verify the tables survived.
//!
//! Run with `cargo run --release --example characterize_lib -- [out.lib]`.

use noisy_sta::liberty::characterize::{inverter_family, Options};
use noisy_sta::liberty::parse_library;
use noisy_sta::spice::Process;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "nsta013.lib".to_string());
    let proc = Process::c013();
    eprintln!("characterizing INVX1/INVX2/INVX4/INVX8 on a 5x5 grid...");
    let opts = Options::standard();
    let lib = inverter_family(
        &proc,
        &[
            ("INVX1", 1.0),
            ("INVX2", 2.0),
            ("INVX4", 4.0),
            ("INVX8", 8.0),
        ],
        &opts,
    )?;

    let text = lib.to_liberty();
    std::fs::write(&out_path, &text)?;
    println!("wrote {} ({} bytes)", out_path, text.len());

    let parsed = parse_library(&text)?;
    assert_eq!(
        parsed.to_liberty(),
        text,
        "serialization must be idempotent"
    );
    println!("round trip parse OK: {} cells", parsed.cells().len());

    // Show the classic NLDM landscape for one cell.
    let cell = parsed.cell("INVX4").ok_or("INVX4 missing")?;
    let arc = &cell.output().ok_or("output pin")?.timing[0];
    println!("\nINVX4 cell_fall delay (ps) over slew x load:");
    print!("{:>10}", "slew\\load");
    for &load in arc.cell_fall.loads() {
        print!("{:>9.1}fF", load * 1e15);
    }
    println!();
    for &slew in arc.cell_fall.slews() {
        print!("{:>8.0}ps", slew * 1e12);
        for &load in arc.cell_fall.loads() {
            print!("{:>11.1}", arc.cell_fall.lookup(slew, load) * 1e12);
        }
        println!();
    }
    Ok(())
}
