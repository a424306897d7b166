//! The session's append-only edit journal, stored compactly.
//!
//! A long-lived session keeps every committed edit so that
//! [`crate::TimingSession::replay`] can rebuild its state, which makes the
//! journal the one part of a session that grows without bound. Stored as
//! [`Edit`] values, a load or drive edit costs a heap string and a
//! re-annotation about two dozen (one per node name). Here a load or drive
//! edit is a [`NetId`] and an `f64` inside a fixed-size entry, and a
//! re-annotation is a fixed-size section record plus one fixed-size record
//! per `*CONN`, `*CAP` and `*RES` element, with every node and cell name
//! interned once per session. Decoding gives back the exact edits:
//! names, ids and values (bit patterns included) are stored as given.

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

/// A re-annotated `*D_NET` section. Its elements are the records between
/// the previous section's end offsets and these.
#[derive(Debug, Clone, Copy)]
struct SectionRecord {
    name: u32,
    total_cap: f64,
    conns_end: u32,
    caps_end: u32,
    ress_end: u32,
}

/// One `*CAP` or `*RES` element; `b` is [`NONE`] for a ground cap.
#[derive(Debug, Clone, Copy)]
struct ElementRecord {
    id: u64,
    a: u32,
    b: u32,
    value: f64,
}

/// One `*CONN` entry; `driver_cell` is [`NONE`] when absent.
#[derive(Debug, Clone, Copy)]
struct ConnRecord {
    node: u32,
    driver_cell: u32,
    load: Option<f64>,
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
    conns: Vec<ConnRecord>,
    caps: Vec<ElementRecord>,
    ress: Vec<ElementRecord>,
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
            self.conns.len() + dnet.conns.len(),
            self.caps.len() + dnet.caps.len(),
            self.ress.len() + dnet.ress.len(),
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
        for conn in &dnet.conns {
            let record = ConnRecord {
                node: self.nodes.intern(&conn.node),
                driver_cell: conn
                    .driver_cell
                    .as_ref()
                    .map_or(NONE, |cell| self.names.intern(cell)),
                load: conn.load,
                kind: conn.kind,
                direction: conn.direction,
            };
            self.conns.push(record);
        }
        for cap in &dnet.caps {
            let record = ElementRecord {
                id: cap.id,
                a: self.nodes.intern(&cap.a),
                b: cap.b.as_ref().map_or(NONE, |b| self.nodes.intern(b)),
                value: cap.value,
            };
            self.caps.push(record);
        }
        for res in &dnet.ress {
            let record = ElementRecord {
                id: res.id,
                a: self.nodes.intern(&res.a),
                b: self.nodes.intern(&res.b),
                value: res.value,
            };
            self.ress.push(record);
        }
        self.entries
            .push(Entry::ReannotateNet(self.sections.len() as u32));
        let record = SectionRecord {
            name: self.names.intern(&dnet.name),
            total_cap: dnet.total_cap,
            conns_end: self.conns.len() as u32,
            caps_end: self.caps.len() as u32,
            ress_end: self.ress.len() as u32,
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
        let start = match index.checked_sub(1) {
            Some(previous) => self.sections[previous],
            None => SectionRecord {
                name: NONE,
                total_cap: 0.0,
                conns_end: 0,
                caps_end: 0,
                ress_end: 0,
            },
        };
        let node = |id: u32| self.nodes.get(id).clone();
        let range = |start: u32, end: u32| start as usize..end as usize;
        DNet {
            name: self.names.get(record.name).clone(),
            total_cap: record.total_cap,
            conns: self.conns[range(start.conns_end, record.conns_end)]
                .iter()
                .map(|c| Conn {
                    kind: c.kind,
                    node: node(c.node),
                    direction: c.direction,
                    load: c.load,
                    driver_cell: (c.driver_cell != NONE)
                        .then(|| self.names.get(c.driver_cell).clone()),
                })
                .collect(),
            caps: self.caps[range(start.caps_end, record.caps_end)]
                .iter()
                .map(|c| CapElem {
                    id: c.id,
                    a: node(c.a),
                    b: (c.b != NONE).then(|| node(c.b)),
                    value: c.value,
                })
                .collect(),
            ress: self.ress[range(start.ress_end, record.ress_end)]
                .iter()
                .map(|r| ResElem {
                    id: r.id,
                    a: node(r.a),
                    b: node(r.b),
                    value: r.value,
                })
                .collect(),
        }
    }
}
