//! The session's append-only edit journal, stored compactly.
//!
//! A long-lived session keeps every committed edit so that
//! [`crate::TimingSession::replay`] can rebuild its state, which makes the
//! journal the one part of a session that grows without bound. Stored as
//! [`Edit`] values, a load or drive edit costs a heap string and a
//! re-annotation about two dozen (one per node name). Here every edit is
//! an 8-byte [`Entry`] naming an interned id plus its values in one
//! shared stream: a load or drive edit its net's name and one `f64`, a
//! re-annotation its section's *shape* (its name, its connections and
//! each element's id and nodes) and the section's values (its total cap,
//! each `*CAP` and `*RES` value and each `*CONN` load). Names, nodes and
//! shapes are interned once per session, since a session edits the same
//! nets, and re-annotates a net with the same shape, again and again.
//! Decoding gives back the exact edits: names, ids and values (bit
//! patterns included) are stored as given.
//!
//! Entries and values are stored in [`Blocks`], which are never
//! reallocated, so the journal's resident size grows with its edit count
//! without steps.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

use nsta_parasitics::{CapElem, Conn, ConnDirection, ConnKind, DNet, ResElem, SpefNode};

use crate::Edit;

/// Marks an absent optional name ([`CapElem::b`], [`Conn::driver_cell`]).
const NONE: u32 = u32::MAX;

/// One committed edit. Its values are the next ones in
/// [`Journal::values`]: one for a load or drive edit, the shape's
/// [`Shape::value_count`] for a re-annotation.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// The output's name in [`Journal::names`]; the load follows.
    SetLoad(u32),
    /// The victim's name in [`Journal::names`]; the resistance follows.
    SetDriveResistance(u32),
    /// The section's shape in [`Journal::shapes`].
    ReannotateNet(u32),
}

/// A section without its values: its name, its `*CONN` entries and the
/// `(id, a, b)` of each `*CAP` and `*RES` element, names and nodes
/// interned (`b` is [`NONE`] for a ground cap). Its values follow its
/// entry in this order: the total cap, every cap, every resistor, then
/// the load of each connection that has one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Shape {
    name: u32,
    conns: Vec<ConnShape>,
    caps: Vec<(u64, u32, u32)>,
    ress: Vec<(u64, u32, u32)>,
}

impl Shape {
    /// How many values a section of this shape stores.
    fn value_count(&self) -> usize {
        let loads = self.conns.iter().filter(|c| c.has_load).count();
        1 + self.caps.len() + self.ress.len() + loads
    }
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

/// An append-only sequence stored in blocks of [`Blocks::BLOCK_BYTES`],
/// each allocated once at full capacity.
///
/// A `Vec` grows by doubling, and each doubling copies it into a new
/// buffer while the old one stays resident in the heap. A journal so
/// stored jumped by its whole size whenever its length crossed a power of
/// two: on the 64-group bus a session's peak resident set rose 1.5 MB
/// between its 61 440th and 65 536th edit, against 0.2 MB per 4 096 edits
/// elsewhere. Blocks are never moved, so the journal grows by its edits
/// alone, with at most one block of slack per sequence.
#[derive(Debug)]
struct Blocks<T> {
    blocks: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for Blocks<T> {
    fn default() -> Self {
        Blocks {
            blocks: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Copy> Blocks<T> {
    /// Bytes per block: one page.
    const BLOCK_BYTES: usize = 4096;
    /// Elements per block.
    const BLOCK: usize = Self::BLOCK_BYTES / std::mem::size_of::<T>();

    fn push(&mut self, value: T) {
        if self.len.is_multiple_of(Self::BLOCK) {
            self.blocks.push(Vec::with_capacity(Self::BLOCK));
        }
        self.blocks[self.len / Self::BLOCK].push(value);
        self.len += 1;
    }

    fn extend(&mut self, values: impl IntoIterator<Item = T>) {
        for value in values {
            self.push(value);
        }
    }

    fn get(&self, index: usize) -> T {
        self.blocks[index / Self::BLOCK][index % Self::BLOCK]
    }

    fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.blocks.iter().flatten().copied()
    }
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
    fn intern<Q>(&mut self, value: &Q) -> u32
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ToOwned<Owned = T> + ?Sized,
    {
        if let Some(&id) = self.ids.get(value) {
            return id;
        }
        let id = self.values.len() as u32;
        self.values.push(value.to_owned());
        self.ids.insert(value.to_owned(), id);
        id
    }

    fn get(&self, id: u32) -> &T {
        &self.values[id as usize]
    }
}

/// The compact journal; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    entries: Blocks<Entry>,
    values: Blocks<f64>,
    shapes: Interner<Shape>,
    nodes: Interner<SpefNode>,
    names: Interner<String>,
}

impl Journal {
    /// Whether `edit` fits the `u32` ids of the journal (`NONE` stays
    /// reserved). Every id the `push_*` methods store for an edit that
    /// fits is below these bounds.
    pub(crate) fn fits(&self, edit: &Edit) -> bool {
        let Edit::ReannotateNet { dnet } = edit else {
            return self.names.values.len() + 1 < NONE as usize;
        };
        let elements = dnet.conns.len() + dnet.caps.len() + dnet.ress.len();
        // Each element names at most two nodes not interned yet, and each
        // connection one cell.
        [
            self.shapes.values.len() + 1,
            self.nodes.values.len() + 2 * elements,
            self.names.values.len() + 1 + dnet.conns.len(),
        ]
        .iter()
        .all(|&count| count < NONE as usize)
    }

    /// Records a committed load edit on output `net`.
    pub(crate) fn push_load(&mut self, net: &str, farads: f64) {
        let name = self.names.intern(net);
        self.entries.push(Entry::SetLoad(name));
        self.values.push(farads);
    }

    /// Records a committed drive-resistance edit on victim `net`.
    pub(crate) fn push_drive(&mut self, net: &str, ohms: f64) {
        let name = self.names.intern(net);
        self.entries.push(Entry::SetDriveResistance(name));
        self.values.push(ohms);
    }

    /// Records a committed re-annotation with replacement section `dnet`.
    pub(crate) fn push_reannotation(&mut self, dnet: &DNet) {
        let mut shape = Shape {
            name: self.names.intern(&dnet.name),
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
        let shape = self.shapes.intern(&shape);
        self.entries.push(Entry::ReannotateNet(shape));
        self.values.push(dnet.total_cap);
        self.values.extend(dnet.caps.iter().map(|cap| cap.value));
        self.values.extend(dnet.ress.iter().map(|res| res.value));
        self.values
            .extend(dnet.conns.iter().filter_map(|conn| conn.load));
    }

    /// The committed edits, oldest first.
    pub(crate) fn edits(&self) -> impl Iterator<Item = Edit> + '_ {
        // The first value of the entry being decoded.
        let mut start = 0;
        self.entries.iter().map(move |entry| {
            let name = |id: u32| self.names.get(id).clone();
            let (edit, values) = match entry {
                Entry::SetLoad(net) => {
                    let farads = self.values.get(start);
                    (
                        Edit::SetLoad {
                            port: name(net),
                            farads,
                        },
                        1,
                    )
                }
                Entry::SetDriveResistance(net) => {
                    let ohms = self.values.get(start);
                    (
                        Edit::SetDriveResistance {
                            net: name(net),
                            ohms,
                        },
                        1,
                    )
                }
                Entry::ReannotateNet(shape) => {
                    let shape = self.shapes.get(shape);
                    let dnet = self.section(shape, start);
                    (Edit::ReannotateNet { dnet }, shape.value_count())
                }
            };
            start += values;
            edit
        })
    }

    /// The section of `shape` whose values start at `start`.
    fn section(&self, shape: &Shape, start: usize) -> DNet {
        let caps = start + 1;
        let ress = caps + shape.caps.len();
        let value = |i: usize| self.values.get(i);
        let mut loads = (ress + shape.ress.len()..).map(value);
        let node = |id: u32| self.nodes.get(id).clone();
        DNet {
            name: self.names.get(shape.name).clone(),
            total_cap: value(start),
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
                .zip(caps..)
                .map(|(&(id, a, b), i)| CapElem {
                    id,
                    a: node(a),
                    b: (b != NONE).then(|| node(b)),
                    value: value(i),
                })
                .collect(),
            ress: shape
                .ress
                .iter()
                .zip(ress..)
                .map(|(&(id, a, b), i)| ResElem {
                    id,
                    a: node(a),
                    b: node(b),
                    value: value(i),
                })
                .collect(),
        }
    }
}
