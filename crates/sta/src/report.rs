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

impl NetTiming {
    /// The timing of one transition, when reachable.
    pub(crate) fn point(&self, polarity: Polarity) -> Option<&PointTiming> {
        match polarity {
            Polarity::Rise => self.rise.as_ref(),
            Polarity::Fall => self.fall.as_ref(),
        }
    }

    /// The reachable transitions, rise first: the order the worst-point
    /// fold visits them in.
    pub(crate) fn points(&self) -> impl Iterator<Item = (Polarity, &PointTiming)> {
        [Polarity::Rise, Polarity::Fall]
            .into_iter()
            .filter_map(|pol| Some((pol, self.point(pol)?)))
    }
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
///
/// **Row invariant:** the report holds one row per net of the design, in
/// net-id order: `nets()[i].net == NetId(i)`. Every analysis builds its
/// rows that way, a session merge splices rows by net id, and
/// [`TimingReport::net`] looks a row up by index.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    nets: Vec<NetTiming>,
    critical: Vec<PathPoint>,
    worst_slack: f64,
    worst_arrival: f64,
}

impl TimingReport {
    /// Assembles a report from its parts: the per-net rows (which must
    /// keep the row invariant above), the critical path, and the worst
    /// slack and arrival. The analyses derive the last three from the
    /// rows; this constructor also lets a consumer such as a session's
    /// shadow audit be exercised on a doctored report.
    pub fn new(
        nets: Vec<NetTiming>,
        critical: Vec<PathPoint>,
        worst_slack: f64,
        worst_arrival: f64,
    ) -> Self {
        debug_assert!(
            nets.iter().enumerate().all(|(i, row)| row.net == NetId(i)),
            "report rows must be one per net, in net-id order"
        );
        TimingReport {
            nets,
            critical,
            worst_slack,
            worst_arrival,
        }
    }

    /// Timing of a specific net: its row, read by index (the row
    /// invariant). `None` for a net the report holds no row for.
    pub fn net(&self, net: NetId) -> Option<&NetTiming> {
        self.nets.get(net.0).filter(|row| row.net == net)
    }

    /// Timing of a net looked up by name.
    pub fn net_by_name(&self, name: &str) -> Option<&NetTiming> {
        self.nets.iter().find(|n| n.name == name)
    }

    /// All net timings.
    pub fn nets(&self) -> &[NetTiming] {
        &self.nets
    }

    /// Moves the rows and the critical path out, leaving the report
    /// without them (for splicing rows between reports and reusing the
    /// path without copying them).
    pub(crate) fn take_parts(&mut self) -> (Vec<NetTiming>, Vec<PathPoint>) {
        (
            std::mem::take(&mut self.nets),
            std::mem::take(&mut self.critical),
        )
    }

    /// The worst slack, as the report's worst-point fold settles it.
    ///
    /// **Contract:** the fold visits every analyzed point in net-id
    /// order, rise first, and compares slacks with a 1e-15 s tie
    /// tolerance. A point becomes the worst point when its slack lies
    /// more than the tolerance below the running value, or within the
    /// tolerance and it arrives later, so the critical path is reported
    /// from its endpoint rather than from an intermediate net sharing the
    /// same slack. The running value is the smallest slack among the
    /// points that became the worst point. It therefore lies within the
    /// tolerance (up to rounding) above the smallest slack in the design,
    /// not always on it: a row A (slack 0, arrival 5 ps) followed by a row
    /// B (slack −0.5 fs, arrival 1 ps) reports 0.0, with A the worst
    /// point; B before A reports −0.5 fs, still with A the worst point.
    /// So `worst_slack() < 0.0` can miss a violation smaller than
    /// 1e-15 s.
    ///
    /// The value is `+inf` exactly when no constraint reaches any
    /// analyzed point — an output-free design, unconstrained outputs
    /// (`required = +inf`), or every path declared false. It is never
    /// NaN, and `worst_slack().is_finite()` distinguishes a constrained
    /// run. [`TimingReport`]'s `Display` renders the infinite case as
    /// `unconstrained` rather than printing `inf ps`.
    pub fn worst_slack(&self) -> f64 {
        self.worst_slack
    }

    /// The latest arrival anywhere in the design (+0.0 when the latest
    /// is a zero of either sign).
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
