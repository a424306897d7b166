use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::StaError;

/// Handle to a net within a [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) usize);

impl NetId {
    /// The net's dense index within its design (also the index of its
    /// entry in `TimingReport::nets` and other per-net vectors) — for
    /// external consumers that maintain per-net side tables.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One cell instance with named pin connections.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Instance name (unique within the design).
    pub name: String,
    /// Library cell name.
    pub cell: String,
    /// `(pin name, net)` pairs.
    pub connections: Vec<(String, NetId)>,
}

impl Instance {
    /// The net connected to `pin`, if any.
    pub fn net_on(&self, pin: &str) -> Option<NetId> {
        self.connections
            .iter()
            .find(|(p, _)| p == pin)
            .map(|&(_, n)| n)
    }
}

/// A gate-level netlist: nets, primary inputs/outputs and cell instances.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Design {
    /// Design (module) name.
    pub name: String,
    nets: Vec<Arc<str>>,
    /// Name → id over `nets`, sharing their strings: keeps
    /// [`Design::net`] and [`Design::find_net`] constant-time, so building
    /// a design is linear in its net count.
    by_name: HashMap<Arc<str>, NetId>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    /// Per net id, whether `outputs` holds it: [`Design::is_output`] in
    /// constant time.
    output_flags: Vec<bool>,
    instances: Vec<Instance>,
    /// Hashes of the instance names: a miss proves a new name unique
    /// without scanning `instances` (a hit is confirmed by a scan).
    instance_hashes: HashSet<u64>,
}

impl Design {
    /// Creates an empty design.
    pub fn new(name: &str) -> Self {
        Design {
            name: name.into(),
            ..Design::default()
        }
    }

    /// Creates (or looks up) a named net.
    pub fn net(&mut self, name: &str) -> NetId {
        if let Some(id) = self.find_net(name) {
            return id;
        }
        let id = NetId(self.nets.len());
        let name: Arc<str> = name.into();
        self.by_name.insert(Arc::clone(&name), id);
        self.nets.push(name);
        self.output_flags.push(false);
        id
    }

    /// Looks up an existing net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.by_name.get(name).copied()
    }

    /// Name of a net.
    ///
    /// # Panics
    ///
    /// Panics if the id is from another design.
    pub fn net_name(&self, id: NetId) -> &str {
        &self.nets[id.0]
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// All nets, in creation order.
    pub fn nets(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len()).map(NetId)
    }

    /// Declares a net as a primary input.
    pub fn mark_input(&mut self, net: NetId) {
        if !self.inputs.contains(&net) {
            self.inputs.push(net);
        }
    }

    /// Declares a net of this design as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        if let Some(flag) = self.output_flags.get_mut(net.0).filter(|flag| !**flag) {
            *flag = true;
            self.outputs.push(net);
        }
    }

    /// Primary inputs.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Whether `net` is a primary output, in constant time (`false` for a
    /// net the design lacks).
    pub fn is_output(&self, net: NetId) -> bool {
        self.output_flags.get(net.0).copied().unwrap_or(false)
    }

    /// Adds a cell instance.
    ///
    /// # Errors
    ///
    /// [`StaError::Structure`] on duplicate instance names.
    pub fn add_instance(
        &mut self,
        name: &str,
        cell: &str,
        connections: Vec<(String, NetId)>,
    ) -> Result<(), StaError> {
        let mut hasher = DefaultHasher::new();
        name.hash(&mut hasher);
        if !self.instance_hashes.insert(hasher.finish())
            && self.instances.iter().any(|i| i.name == name)
        {
            return Err(StaError::Structure(format!(
                "duplicate instance name {name}"
            )));
        }
        self.instances.push(Instance {
            name: name.into(),
            cell: cell.into(),
            connections,
        });
        Ok(())
    }

    /// All instances in declaration order.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nets_are_interned_by_name() {
        let mut d = Design::new("top");
        let a = d.net("a");
        assert_eq!(d.net("a"), a);
        assert_eq!(d.find_net("a"), Some(a));
        assert_eq!(d.find_net("zzz"), None);
        assert_eq!(d.net_name(a), "a");
        assert_eq!(d.net_count(), 1);
    }

    #[test]
    fn thousands_of_nets_map_back_to_their_ids() {
        let mut d = Design::new("top");
        let names: Vec<String> = (0..6000).map(|k| format!("n{k}")).collect();
        let ids: Vec<NetId> = names.iter().map(|n| d.net(n)).collect();
        assert_eq!(d.net_count(), names.len());
        for (name, &id) in names.iter().zip(&ids) {
            assert_eq!(d.find_net(name), Some(id));
            assert_eq!(d.net_name(id), name);
            // Re-creating an existing name returns the first-created id.
            assert_eq!(d.net(name), id);
        }
        assert_eq!(d.net_count(), names.len());
        assert_eq!(d.find_net("n6000"), None);
    }

    #[test]
    fn io_marking_is_idempotent() {
        let mut d = Design::new("top");
        let a = d.net("a");
        d.mark_input(a);
        d.mark_input(a);
        assert_eq!(d.inputs(), &[a]);
        let y = d.net("y");
        d.mark_output(y);
        d.mark_output(y);
        assert_eq!(d.outputs(), &[y]);
        assert!(d.is_output(y));
        assert!(!d.is_output(a));
        assert!(!d.is_output(NetId(usize::MAX)));
    }

    #[test]
    fn duplicate_instances_rejected() {
        let mut d = Design::new("top");
        let a = d.net("a");
        let y = d.net("y");
        d.add_instance("u1", "INVX1", vec![("A".into(), a), ("Y".into(), y)])
            .unwrap();
        assert!(d.add_instance("u1", "INVX1", vec![]).is_err());
        assert_eq!(d.instances().len(), 1);
        for k in 2..3000 {
            d.add_instance(&format!("u{k}"), "INVX1", vec![]).unwrap();
        }
        assert!(d.add_instance("u2999", "INVX1", vec![]).is_err());
        assert_eq!(d.instances().len(), 2999);
        assert_eq!(d.instances()[0].net_on("A"), Some(a));
        assert_eq!(d.instances()[0].net_on("Z"), None);
    }
}
