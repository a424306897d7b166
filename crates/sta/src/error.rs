use std::fmt;

/// Error type for netlist construction, parsing and timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum StaError {
    /// Verilog-subset parse error with a 1-based line number.
    Parse {
        /// Line of the offending token.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The netlist references something that does not exist.
    Unresolved(String),
    /// Structural rule violation (multiple drivers, undriven net…).
    Structure(String),
    /// The design contains a combinational cycle.
    CombinationalCycle {
        /// Name of a net on the cycle.
        net: String,
    },
    /// The library lacks a timing arc an instance needs.
    Library(String),
    /// A coupled victim's extracted parasitics are electrically
    /// degenerate (zero capacitance, disconnected node…): the mesh has
    /// no meaningful transient solution, so the reduction refuses to run
    /// rather than analyze a floored stand-in. Under
    /// [`FaultPolicy::Isolate`](crate::si::FaultPolicy::Isolate) the
    /// victim is dropped and marked degraded instead of failing the run.
    DegenerateMesh {
        /// Name of the defective victim net.
        net: String,
        /// What the extraction defect is.
        reason: String,
    },
    /// Crosstalk analysis failed in the circuit substrate.
    Circuit(nsta_circuit::CircuitError),
    /// Equivalent-waveform reduction failed.
    Sgdp(sgdp::SgdpError),
    /// Waveform processing failed.
    Waveform(nsta_waveform::WaveformError),
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            StaError::Unresolved(m) => write!(f, "unresolved reference: {m}"),
            StaError::Structure(m) => write!(f, "structural error: {m}"),
            StaError::CombinationalCycle { net } => {
                write!(f, "combinational cycle through net {net}")
            }
            StaError::Library(m) => write!(f, "library error: {m}"),
            StaError::DegenerateMesh { net, reason } => {
                write!(f, "degenerate coupled mesh on net {net}: {reason}")
            }
            StaError::Circuit(e) => write!(f, "circuit failure: {e}"),
            StaError::Sgdp(e) => write!(f, "equivalent-waveform failure: {e}"),
            StaError::Waveform(e) => write!(f, "waveform failure: {e}"),
        }
    }
}

impl std::error::Error for StaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StaError::Circuit(e) => Some(e),
            StaError::Sgdp(e) => Some(e),
            StaError::Waveform(e) => Some(e),
            _ => None,
        }
    }
}

impl From<nsta_circuit::CircuitError> for StaError {
    fn from(e: nsta_circuit::CircuitError) -> Self {
        StaError::Circuit(e)
    }
}

impl From<sgdp::SgdpError> for StaError {
    fn from(e: sgdp::SgdpError) -> Self {
        StaError::Sgdp(e)
    }
}

impl From<nsta_waveform::WaveformError> for StaError {
    fn from(e: nsta_waveform::WaveformError) -> Self {
        StaError::Waveform(e)
    }
}
