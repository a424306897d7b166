//! The session's append-only edit journal, stored compactly.
//!
//! A long-lived session keeps every committed edit so that
//! [`crate::TimingSession::replay`] can rebuild its state, which makes the
//! journal the one part of a session that grows without bound. Stored as
//! [`Edit`] values, a load or drive edit costs a heap string and a
//! re-annotation about two dozen (one per node name). Here a load or drive
//! edit is a [`NetId`] and an `f64` inside a fixed-size entry. A
//! re-annotation is a fixed-size section record plus its values (each
//! `*CAP` and `*RES` value and each `*CONN` load); everything else about
//! the section — its connections and each element's id and nodes, its
//! *shape* — is interned once per session, like every node and cell name,
//! since a session re-annotates a net with the same shape again and again.
//! Decoding gives back the exact edits: names, ids and values (bit
//! patterns included) are stored as given.

use std::collections::HashMap;
use std::hash::Hash;

use nsta_parasitics::{CapElem, Conn, ConnDirection, ConnKind, DNet, ResElem, SpefNode};
use nsta_sta::{Design, NetId};

use crate::Edit;

/// Marks an absent optional name ([`CapElem::b`], [`Conn::driver_cell`]).
const NONE: u32 = u32::MAX;

/// One committed edit.
#[derive(Debug, Clone, Copy)]
enum Entry {
    SetLoad(NetId, f64),
    SetDriveResistance(NetId, f64),
    /// Index into [`Journal::sections`].
    ReannotateNet(u32),
}

/// A re-annotated `*D_NET` section. Its values are those between the
/// previous section's `values_end` and its own.
#[derive(Debug, Clone, Copy)]
struct SectionRecord {
    name: u32,
    shape: u32,
    total_cap: f64,
    values_end: u32,
}

/// A section without its values: its `*CONN` entries and the
/// `(id, a, b)` of each `*CAP` and `*RES` element, nodes interned (`b` is
/// [`NONE`] for a ground cap). Its values follow it in the journal in
/// this order: every cap, every resistor, then the load of each
/// connection that has one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Shape {
    conns: Vec<ConnShape>,
    caps: Vec<(u64, u32, u32)>,
    ress: Vec<(u64, u32, u32)>,
}

/// One `*CONN` entry without its load; `driver_cell` is [`NONE`] when
/// absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ConnShape {
    node: u32,
    driver_cell: u32,
    has_load: bool,
    kind: ConnKind,
    direction: ConnDirection,
}

/// Each distinct value stored once, addressed by a dense `u32` id.
#[derive(Debug)]
struct Interner<T> {
    values: Vec<T>,
    ids: HashMap<T, u32>,
}

impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner {
            values: Vec::new(),
            ids: HashMap::new(),
        }
    }
}

impl<T: Clone + Eq + Hash> Interner<T> {
    /// The id of `value`, interning it if new. The caller keeps the count
    /// below `u32::MAX` ([`Journal::fits`]).
    fn intern(&mut self, value: &T) -> u32 {
        if let Some(&id) = self.ids.get(value) {
            return id;
        }
        let id = self.values.len() as u32;
        self.values.push(value.clone());
        self.ids.insert(value.clone(), id);
        id
    }

    fn get(&self, id: u32) -> &T {
        &self.values[id as usize]
    }
}

/// The compact journal; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    entries: Vec<Entry>,
    sections: Vec<SectionRecord>,
    values: Vec<f64>,
    shapes: Interner<Shape>,
    nodes: Interner<SpefNode>,
    names: Interner<String>,
}

impl Journal {
    /// Whether a re-annotation with section `dnet` fits the `u32` ids and
    /// offsets of the records (`NONE` stays reserved). Every record id
    /// [`Journal::push_reannotation`] stores is below these bounds.
    pub(crate) fn fits(&self, dnet: &DNet) -> bool {
        let elements = dnet.conns.len() + dnet.caps.len() + dnet.ress.len();
        // Each element names at most two nodes not interned yet, and each
        // connection one cell.
        [
            self.sections.len() + 1,
            self.values.len() + elements,
            self.shapes.values.len() + 1,
            self.nodes.values.len() + 2 * elements,
            self.names.values.len() + 1 + dnet.conns.len(),
        ]
        .iter()
        .all(|&count| count < NONE as usize)
    }

    /// Records a committed load edit on output `net`.
    pub(crate) fn push_load(&mut self, net: NetId, farads: f64) {
        self.entries.push(Entry::SetLoad(net, farads));
    }

    /// Records a committed drive-resistance edit on victim `net`.
    pub(crate) fn push_drive(&mut self, net: NetId, ohms: f64) {
        self.entries.push(Entry::SetDriveResistance(net, ohms));
    }

    /// Records a committed re-annotation with replacement section `dnet`,
    /// which must [`Journal::fits`].
    pub(crate) fn push_reannotation(&mut self, dnet: &DNet) {
        let mut shape = Shape {
            conns: Vec::with_capacity(dnet.conns.len()),
            caps: Vec::with_capacity(dnet.caps.len()),
            ress: Vec::with_capacity(dnet.ress.len()),
        };
        for conn in &dnet.conns {
            shape.conns.push(ConnShape {
                node: self.nodes.intern(&conn.node),
                driver_cell: conn
                    .driver_cell
                    .as_ref()
                    .map_or(NONE, |cell| self.names.intern(cell)),
                has_load: conn.load.is_some(),
                kind: conn.kind,
                direction: conn.direction,
            });
        }
        for cap in &dnet.caps {
            let a = self.nodes.intern(&cap.a);
            let b = cap.b.as_ref().map_or(NONE, |b| self.nodes.intern(b));
            shape.caps.push((cap.id, a, b));
        }
        for res in &dnet.ress {
            let a = self.nodes.intern(&res.a);
            shape.ress.push((res.id, a, self.nodes.intern(&res.b)));
        }
        self.values.extend(dnet.caps.iter().map(|cap| cap.value));
        self.values.extend(dnet.ress.iter().map(|res| res.value));
        self.values
            .extend(dnet.conns.iter().filter_map(|conn| conn.load));
        self.entries
            .push(Entry::ReannotateNet(self.sections.len() as u32));
        let record = SectionRecord {
            name: self.names.intern(&dnet.name),
            shape: self.shapes.intern(&shape),
            total_cap: dnet.total_cap,
            values_end: self.values.len() as u32,
        };
        self.sections.push(record);
    }

    /// The committed edits, oldest first, decoded against the session's
    /// design (which maps each stored [`NetId`] back to its name).
    pub(crate) fn edits<'a>(&'a self, design: &'a Design) -> impl Iterator<Item = Edit> + 'a {
        self.entries.iter().map(move |entry| match *entry {
            Entry::SetLoad(net, farads) => Edit::SetLoad {
                port: design.net_name(net).to_string(),
                farads,
            },
            Entry::SetDriveResistance(net, ohms) => Edit::SetDriveResistance {
                net: design.net_name(net).to_string(),
                ohms,
            },
            Entry::ReannotateNet(section) => Edit::ReannotateNet {
                dnet: self.section(section as usize),
            },
        })
    }

    fn section(&self, index: usize) -> DNet {
        let record = &self.sections[index];
        let start = index
            .checked_sub(1)
            .map_or(0, |previous| self.sections[previous].values_end);
        let values = &self.values[start as usize..record.values_end as usize];
        let shape = self.shapes.get(record.shape);
        let (caps, rest) = values.split_at(shape.caps.len());
        let (ress, loads) = rest.split_at(shape.ress.len());
        let mut loads = loads.iter().copied();
        let node = |id: u32| self.nodes.get(id).clone();
        DNet {
            name: self.names.get(record.name).clone(),
            total_cap: record.total_cap,
            conns: shape
                .conns
                .iter()
                .map(|c| Conn {
                    kind: c.kind,
                    node: node(c.node),
                    direction: c.direction,
                    load: if c.has_load { loads.next() } else { None },
                    driver_cell: (c.driver_cell != NONE)
                        .then(|| self.names.get(c.driver_cell).clone()),
                })
                .collect(),
            caps: shape
                .caps
                .iter()
                .zip(caps)
                .map(|(&(id, a, b), &value)| CapElem {
                    id,
                    a: node(a),
                    b: (b != NONE).then(|| node(b)),
                    value,
                })
                .collect(),
            ress: shape
                .ress
                .iter()
                .zip(ress)
                .map(|(&(id, a, b), &value)| ResElem {
                    id,
                    a: node(a),
                    b: node(b),
                    value,
                })
                .collect(),
        }
    }
}
