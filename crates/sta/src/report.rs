//! Timing reports: per-net results and the critical path.

use crate::netlist::NetId;
use nsta_waveform::Polarity;
use std::fmt;

/// Timing of one transition on one net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointTiming {
    /// Worst arrival time (s).
    pub arrival: f64,
    /// Transition time associated with the worst arrival (s).
    pub slew: f64,
    /// Required time (s); `+inf` when no constraint reaches this net.
    pub required: f64,
    /// `required − arrival` (s); `+inf` when unconstrained.
    pub slack: f64,
}

/// Rise/fall timing of one net.
#[derive(Debug, Clone, PartialEq)]
pub struct NetTiming {
    /// The net.
    pub net: NetId,
    /// Its name.
    pub name: String,
    /// Rising-edge timing, when reachable.
    pub rise: Option<PointTiming>,
    /// Falling-edge timing, when reachable.
    pub fall: Option<PointTiming>,
}

/// One step of the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathPoint {
    /// The net.
    pub net: NetId,
    /// Its name.
    pub name: String,
    /// Transition direction at this point.
    pub polarity: Polarity,
    /// Arrival time (s).
    pub arrival: f64,
    /// Slew (s).
    pub slew: f64,
}

/// Complete result of a timing run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    nets: Vec<NetTiming>,
    critical: Vec<PathPoint>,
    worst_slack: f64,
    worst_arrival: f64,
}

impl TimingReport {
    pub(crate) fn new(
        nets: Vec<NetTiming>,
        critical: Vec<PathPoint>,
        worst_slack: f64,
        worst_arrival: f64,
    ) -> Self {
        TimingReport {
            nets,
            critical,
            worst_slack,
            worst_arrival,
        }
    }

    /// Timing of a specific net.
    pub fn net(&self, net: NetId) -> Option<&NetTiming> {
        self.nets.iter().find(|n| n.net == net)
    }

    /// Timing of a net looked up by name.
    pub fn net_by_name(&self, name: &str) -> Option<&NetTiming> {
        self.nets.iter().find(|n| n.name == name)
    }

    /// All net timings.
    pub fn nets(&self) -> &[NetTiming] {
        &self.nets
    }

    /// Moves the per-net rows out, leaving the report without rows (for
    /// splicing rows between reports without copying them).
    pub(crate) fn take_rows(&mut self) -> Vec<NetTiming> {
        std::mem::take(&mut self.nets)
    }

    /// The worst (smallest) slack in the design.
    ///
    /// **Contract:** the value is `+inf` exactly when no constraint
    /// reaches any analyzed point — an output-free design, unconstrained
    /// outputs (`required = +inf`), or every path declared false. It is
    /// never NaN, so `worst_slack() < 0.0` is always a well-defined
    /// violation test and `worst_slack().is_finite()` distinguishes a
    /// constrained run. [`TimingReport`]'s `Display` renders the infinite
    /// case as `unconstrained` rather than printing `inf ps`.
    pub fn worst_slack(&self) -> f64 {
        self.worst_slack
    }

    /// The latest arrival anywhere in the design.
    pub fn worst_arrival(&self) -> f64 {
        self.worst_arrival
    }

    /// The critical path, startpoint first.
    pub fn critical_path(&self) -> &[PathPoint] {
        &self.critical
    }
}

impl fmt::Display for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.worst_slack.is_finite() {
            writeln!(
                f,
                "worst arrival {:.1} ps, worst slack {:.1} ps",
                self.worst_arrival * 1e12,
                self.worst_slack * 1e12
            )?;
        } else {
            writeln!(
                f,
                "worst arrival {:.1} ps, worst slack unconstrained",
                self.worst_arrival * 1e12
            )?;
        }
        writeln!(f, "critical path:")?;
        let mut prev = None;
        for p in &self.critical {
            let incr = prev.map_or(0.0, |t| p.arrival - t);
            writeln!(
                f,
                "  {:<12} {:>4}  arrival {:>8.1} ps  (+{:>6.1} ps)  slew {:>7.1} ps",
                p.name,
                p.polarity.to_string(),
                p.arrival * 1e12,
                incr * 1e12,
                p.slew * 1e12
            )?;
            prev = Some(p.arrival);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_path_and_summary() {
        let report = TimingReport::new(
            vec![],
            vec![
                PathPoint {
                    net: NetId(0),
                    name: "a".into(),
                    polarity: Polarity::Rise,
                    arrival: 0.0,
                    slew: 50e-12,
                },
                PathPoint {
                    net: NetId(1),
                    name: "y".into(),
                    polarity: Polarity::Fall,
                    arrival: 80e-12,
                    slew: 60e-12,
                },
            ],
            120e-12,
            80e-12,
        );
        let text = report.to_string();
        assert!(text.contains("worst arrival 80.0 ps"));
        assert!(text.contains("worst slack 120.0 ps"));
        assert!(text.contains('a'));
        assert!(text.contains("+  80.0 ps") || text.contains("+80.0") || text.contains("80.0"));
        assert!(report.net(NetId(3)).is_none());
    }

    #[test]
    fn unconstrained_slack_renders_as_words_not_inf() {
        // Regression: output-free / unconstrained designs used to print
        // "worst slack inf ps".
        let report = TimingReport::new(vec![], vec![], f64::INFINITY, 80e-12);
        assert!(report.worst_slack().is_infinite());
        let text = report.to_string();
        assert!(text.contains("worst slack unconstrained"), "got: {text}");
        assert!(!text.contains("inf"), "got: {text}");
    }
}
