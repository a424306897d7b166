//! Flag parsing shared by the paper-experiment binaries (`table1`,
//! `psweep`, `aggressors`, `nonoverlap`, `runtime` and `figure2`) and the
//! `spefbus` workload.
//!
//! A missing or unparsable value, a value out of range and an unknown
//! flag are all usage errors: the binary prints the message and its usage
//! line to stderr and exits with status 2 before any simulation runs. No
//! bad value falls back to a default.

use std::str::FromStr;

/// The command line of one bench binary.
pub struct Cli {
    usage: &'static str,
    args: std::iter::Skip<std::env::Args>,
}

impl Cli {
    /// The process's arguments, program name skipped. `usage` is the
    /// binary's usage line, printed with every error.
    pub fn from_env(usage: &'static str) -> Self {
        Cli {
            usage,
            args: std::env::args().skip(1),
        }
    }

    /// The next flag, or `None` once the arguments are used up.
    pub fn next_flag(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The operand of `flag`, parsed as a `T`.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T {
        let Some(raw) = self.args.next() else {
            self.fail(&format!("missing value for {flag}"));
        };
        raw.parse()
            .unwrap_or_else(|_| self.fail(&format!("invalid value {raw:?} for {flag}")))
    }

    /// The operand of `flag` as a count of at least `min`.
    pub fn count(&mut self, flag: &str, min: usize) -> usize {
        let n: usize = self.value(flag);
        if n < min {
            self.fail(&format!("{flag} must be at least {min}, got {n}"));
        }
        n
    }

    /// The operand of `flag` as a finite number.
    pub fn finite(&mut self, flag: &str) -> f64 {
        let x: f64 = self.value(flag);
        if !x.is_finite() {
            self.fail(&format!("{flag} must be finite, got {x}"));
        }
        x
    }

    /// Rejects a flag the binary does not know.
    pub fn unknown(&self, flag: &str) -> ! {
        self.fail(&format!("unknown argument {flag}"))
    }

    /// Prints `message` and the usage line to stderr and exits with
    /// status 2.
    pub fn fail(&self, message: &str) -> ! {
        eprintln!("error: {message}");
        eprintln!("usage: {}", self.usage);
        std::process::exit(2);
    }
}
