//! Timing graph over nets, partitioned into fanout cones.
//!
//! Vertices are nets; each cell arc contributes an edge from its input net
//! to its output net. The graph is validated (single driver per net, no
//! combinational cycles), ordered topologically, and split into
//! weakly-connected components: the cones the forward sweeps schedule.

use crate::netlist::{Design, NetId};
use crate::StaError;
use nsta_liberty::{Direction, Library};

/// A timing edge: one cell arc from an input net to an output net.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Source net (cell input).
    pub from: NetId,
    /// Destination net (cell output).
    pub to: NetId,
    /// Index of the driving instance in the design.
    pub instance: usize,
    /// Related input pin name on the cell.
    pub input_pin: String,
    /// Output pin name on the cell.
    pub output_pin: String,
}

/// Net-level timing graph, partitioned into independent fanout cones.
#[derive(Debug, Clone)]
pub struct TimingGraph {
    edges: Vec<Edge>,
    /// Edge indices grouped by destination net.
    fanin: Vec<Vec<usize>>,
    /// Edge indices grouped by source net.
    fanout: Vec<Vec<usize>>,
    /// Nets in topological order (inputs first).
    order: Vec<NetId>,
    /// Nets grouped by weakly-connected component ("cone"), each component
    /// in topological (level-major, then net-id) order, where a net's level
    /// is its longest fanin path in stages. Two nets share a component iff
    /// an undirected edge path connects them, so distinct components have
    /// no timing dependency in either direction — the unit of parallelism
    /// of every sweep.
    components: Vec<Vec<NetId>>,
    /// Net id -> position of the net inside its component, so cone tasks
    /// can serve state reads from a compact per-cone buffer.
    cone_slot: Vec<usize>,
    /// Capacitive load on each net: Σ input-pin capacitances of fanout.
    loads: Vec<f64>,
}

impl TimingGraph {
    /// Builds and validates the graph for `design` against `library`.
    ///
    /// # Errors
    ///
    /// * [`StaError::Unresolved`] for unknown cells or unconnected arcs.
    /// * [`StaError::Structure`] for nets with multiple drivers.
    /// * [`StaError::CombinationalCycle`] if the nets admit no
    ///   topological order.
    pub fn build(design: &Design, library: &Library) -> Result<Self, StaError> {
        let n = design.net_count();
        let mut edges = Vec::new();
        let mut loads = vec![0.0; n];
        let mut driver_of: Vec<Option<usize>> = vec![None; n];

        for (idx, inst) in design.instances().iter().enumerate() {
            let cell = library.cell(&inst.cell).ok_or_else(|| {
                StaError::Unresolved(format!("cell {} not in library", inst.cell))
            })?;
            for pin in &cell.pins {
                let net = inst.net_on(&pin.name).ok_or_else(|| {
                    StaError::Unresolved(format!(
                        "instance {}: pin {} unconnected",
                        inst.name, pin.name
                    ))
                })?;
                match pin.direction {
                    Direction::Input => loads[net.0] += pin.capacitance,
                    Direction::Output => {
                        if let Some(previous) = driver_of[net.0] {
                            let prev_name = &design.instances()[previous].name;
                            return Err(StaError::Structure(format!(
                                "net {} driven by both {} and {}",
                                design.net_name(net),
                                prev_name,
                                inst.name
                            )));
                        }
                        driver_of[net.0] = Some(idx);
                        for arc in &pin.timing {
                            let from = inst.net_on(&arc.related_pin).ok_or_else(|| {
                                StaError::Unresolved(format!(
                                    "instance {}: arc pin {} unconnected",
                                    inst.name, arc.related_pin
                                ))
                            })?;
                            edges.push(Edge {
                                from,
                                to: net,
                                instance: idx,
                                input_pin: arc.related_pin.clone(),
                                output_pin: pin.name.clone(),
                            });
                        }
                    }
                }
            }
        }

        let mut fanin: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut fanout: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (k, e) in edges.iter().enumerate() {
            fanin[e.to.0].push(k);
            fanout[e.from.0].push(k);
        }

        // Kahn topological ordering over nets.
        let mut indegree: Vec<usize> = fanin.iter().map(Vec::len).collect();
        let mut queue: Vec<NetId> = (0..n).filter(|&i| indegree[i] == 0).map(NetId).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(net) = queue.pop() {
            order.push(net);
            for &k in &fanout[net.0] {
                let to = edges[k].to.0;
                indegree[to] -= 1;
                if indegree[to] == 0 {
                    queue.push(NetId(to));
                }
            }
        }
        if order.len() != n {
            // Kahn's algorithm left nets unordered, so at least one sits on
            // a cycle with positive residual indegree.
            let stuck = (0..n).find(|&i| indegree[i] > 0).unwrap_or(0);
            return Err(StaError::CombinationalCycle {
                net: design.net_name(NetId(stuck)).to_string(),
            });
        }

        // level(net) = longest fanin path in stages. Walking the
        // topological order makes every predecessor's level final before
        // its successors read it.
        let mut level = vec![0usize; n];
        for &net in &order {
            for &k in &fanin[net.0] {
                level[net.0] = level[net.0].max(level[edges[k].from.0] + 1);
            }
        }

        // Weakly-connected components via union-find with path halving.
        // Every edge joins its endpoints, so each resulting group is a
        // self-contained cone: all fanin and fanout of its nets stay inside
        // the group.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]]; // path halving
                i = parent[i];
            }
            i
        }
        for e in &edges {
            let (a, b) = (find(&mut parent, e.from.0), find(&mut parent, e.to.0));
            if a != b {
                parent[a.max(b)] = a.min(b);
            }
        }
        // Group nets by root. Scanning ids in ascending order makes both
        // the component order (by smallest member id) and the membership
        // order deterministic.
        let mut comp_index = vec![usize::MAX; n];
        let mut components: Vec<Vec<NetId>> = Vec::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            let c = if comp_index[root] == usize::MAX {
                comp_index[root] = components.len();
                components.push(Vec::new());
                components.len() - 1
            } else {
                comp_index[root]
            };
            components[c].push(NetId(i));
        }
        // Level-major order inside each component keeps every net after all
        // of its fanin (the stable sort preserves net-id order within a
        // level).
        for c in &mut components {
            c.sort_by_key(|net| level[net.0]);
        }
        let mut cone_slot = vec![0usize; n];
        for c in &components {
            for (j, &net) in c.iter().enumerate() {
                cone_slot[net.0] = j;
            }
        }

        Ok(TimingGraph {
            edges,
            fanin,
            fanout,
            order,
            components,
            cone_slot,
            loads,
        })
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Nets in topological order.
    pub fn topological_order(&self) -> &[NetId] {
        &self.order
    }

    /// Nets grouped by weakly-connected component ("fanout cone"), each in
    /// topological order. Components are mutually independent — no edge
    /// crosses between two of them — so whole components can be swept
    /// concurrently end to end, with no barrier between them. Components
    /// are ordered by their smallest net id; within a component, nets are
    /// in level-major (then net-id) order, so a sequential walk sees every
    /// fanin before its consumer.
    pub fn components(&self) -> &[Vec<NetId>] {
        &self.components
    }

    /// The components a sweep visits, in component order: all of them, or
    /// those a per-component `scope` mask marks (indices past its end read
    /// as unmarked).
    pub(crate) fn scoped_components(&self, scope: Option<&[bool]>) -> Vec<&[NetId]> {
        self.components
            .iter()
            .enumerate()
            .filter(|(ci, _)| scope.is_none_or(|s| s.get(*ci).copied().unwrap_or(false)))
            .map(|(_, cone)| cone.as_slice())
            .collect()
    }

    /// Position of `net` inside its component (see
    /// [`TimingGraph::components`]): `components()[c][cone_slot(net)] ==
    /// net` for the component `c` containing it.
    pub fn cone_slot(&self, net: NetId) -> usize {
        self.cone_slot[net.0]
    }

    /// Indices of edges terminating at `net`.
    pub fn fanin_edges(&self, net: NetId) -> &[usize] {
        &self.fanin[net.0]
    }

    /// Indices of edges departing from `net`.
    pub fn fanout_edges(&self, net: NetId) -> &[usize] {
        &self.fanout[net.0]
    }

    /// Capacitive load on `net` (farads).
    pub fn load(&self, net: NetId) -> f64 {
        self.loads[net.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verilog::parse_design;
    use nsta_liberty::characterize::{inverter_family, Options};
    use nsta_spice::Process;
    use std::sync::OnceLock;

    fn lib() -> &'static Library {
        static LIB: OnceLock<Library> = OnceLock::new();
        LIB.get_or_init(|| {
            inverter_family(
                &Process::c013(),
                &[("INVX1", 1.0), ("INVX4", 4.0)],
                &Options::fast_test(),
            )
            .unwrap()
        })
    }

    #[test]
    fn chain_graph_levels_and_loads() {
        let d = parse_design(
            "module m (a, y); input a; output y; wire w;\
             INVX1 u1 (.A(a), .Y(w)); INVX4 u2 (.A(w), .Y(y)); endmodule",
        )
        .unwrap();
        let g = TimingGraph::build(&d, lib()).unwrap();
        assert_eq!(g.edges().len(), 2);
        let a = d.find_net("a").unwrap();
        let w = d.find_net("w").unwrap();
        let y = d.find_net("y").unwrap();
        // Topological order respects dependencies.
        let pos = |n: NetId| g.topological_order().iter().position(|&x| x == n).unwrap();
        assert!(pos(a) < pos(w));
        assert!(pos(w) < pos(y));
        // Load on 'w' is the 4x input capacitance.
        let c4 = lib().cell("INVX4").unwrap().pin("A").unwrap().capacitance;
        assert!((g.load(w) - c4).abs() < 1e-20);
        assert_eq!(g.load(y), 0.0);
        assert_eq!(g.fanin_edges(y).len(), 1);
        assert_eq!(g.fanout_edges(a).len(), 1);
    }

    #[test]
    fn components_partition_into_independent_cones() {
        // Two disjoint cones: a→w1→y (chain) and b→w2→z, plus an isolated
        // port net c that forms its own singleton component.
        let d = parse_design(
            "module m (a, b, c, y, z); input a, b, c; output y, z; wire w1, w2;\
             INVX1 u1 (.A(a), .Y(w1)); INVX4 u2 (.A(w1), .Y(y));\
             INVX1 u3 (.A(b), .Y(w2)); INVX4 u4 (.A(w2), .Y(z)); endmodule",
        )
        .unwrap();
        let g = TimingGraph::build(&d, lib()).unwrap();
        let comps = g.components();
        assert_eq!(comps.len(), 3);
        // Every net appears in exactly one component.
        let total: usize = comps.iter().map(Vec::len).sum();
        assert_eq!(total, d.net_count());
        let mut seen: Vec<NetId> = comps.iter().flatten().copied().collect();
        seen.sort_unstable_by_key(|n| n.0);
        seen.dedup();
        assert_eq!(seen.len(), d.net_count());
        // No edge crosses components.
        let comp_of = |n: NetId| comps.iter().position(|c| c.contains(&n)).unwrap();
        for e in g.edges() {
            assert_eq!(comp_of(e.from), comp_of(e.to));
        }
        // Connected nets share a component; disjoint cones do not.
        let net = |s: &str| d.find_net(s).unwrap();
        assert_eq!(comp_of(net("a")), comp_of(net("y")));
        assert_eq!(comp_of(net("b")), comp_of(net("z")));
        assert_ne!(comp_of(net("a")), comp_of(net("b")));
        assert_eq!(comps[comp_of(net("c"))].len(), 1);
        // Topological order inside each component: every fanin precedes
        // its consumer.
        for c in comps {
            let pos = |n: NetId| c.iter().position(|&x| x == n).unwrap();
            for &net in c {
                for &k in g.fanin_edges(net) {
                    assert!(pos(g.edges()[k].from) < pos(net));
                }
            }
        }
        // Components are ordered by smallest member id.
        let mins: Vec<usize> = comps
            .iter()
            .map(|c| c.iter().map(|n| n.0).min().unwrap())
            .collect();
        assert!(mins.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let d = parse_design(
            "module m (a, y); input a; output y;\
             INVX1 u1 (.A(a), .Y(y)); INVX1 u2 (.A(a), .Y(y)); endmodule",
        )
        .unwrap();
        assert!(matches!(
            TimingGraph::build(&d, lib()),
            Err(StaError::Structure(_))
        ));
    }

    #[test]
    fn unknown_cell_rejected() {
        let d =
            parse_design("module m (a, y); input a; output y; NAND9 u1 (.A(a), .Y(y)); endmodule")
                .unwrap();
        assert!(matches!(
            TimingGraph::build(&d, lib()),
            Err(StaError::Unresolved(_))
        ));
    }

    #[test]
    fn cycles_detected() {
        let d = parse_design(
            "module m (y); output y; wire w1, w2;\
             INVX1 u1 (.A(w2), .Y(w1)); INVX1 u2 (.A(w1), .Y(w2)); endmodule",
        )
        .unwrap();
        assert!(matches!(
            TimingGraph::build(&d, lib()),
            Err(StaError::CombinationalCycle { .. })
        ));
    }
}
