//! Semantic library model over the generic AST, with NLDM lookup.

use crate::ast::{Group, Value};
use crate::parser::parse_group;
use crate::writer::write_group;
use crate::LibertyError;
use nsta_numeric::interp;

/// Pin direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Input pin.
    Input,
    /// Output pin.
    Output,
}

/// Unateness of a timing arc (only the unate senses appear in this
/// workspace's cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingSense {
    /// Output falls when the related input rises (inverter-like).
    NegativeUnate,
    /// Output rises when the related input rises (buffer-like).
    PositiveUnate,
}

impl TimingSense {
    fn as_liberty(self) -> &'static str {
        match self {
            TimingSense::NegativeUnate => "negative_unate",
            TimingSense::PositiveUnate => "positive_unate",
        }
    }
}

/// A 2-D NLDM table: values over input slew (`index_1`) × output load
/// (`index_2`). All quantities SI (seconds, farads).
#[derive(Debug, Clone, PartialEq)]
pub struct NldmTable {
    index1: Vec<f64>,
    index2: Vec<f64>,
    /// Row-major: `values[i1 * index2.len() + i2]`, seconds.
    values: Vec<f64>,
}

impl NldmTable {
    /// Builds a table, validating axes and shape.
    ///
    /// # Errors
    ///
    /// [`LibertyError::Table`] for non-monotone axes or shape mismatch.
    pub fn new(index1: Vec<f64>, index2: Vec<f64>, values: Vec<f64>) -> Result<Self, LibertyError> {
        interp::validate_grid(&index1, 2)?;
        interp::validate_grid(&index2, 2)?;
        if values.len() != index1.len() * index2.len() {
            return Err(LibertyError::Semantic(format!(
                "table needs {} values, got {}",
                index1.len() * index2.len(),
                values.len()
            )));
        }
        Ok(NldmTable {
            index1,
            index2,
            values,
        })
    }

    /// Input-slew axis (seconds).
    pub fn slews(&self) -> &[f64] {
        &self.index1
    }

    /// Load axis (farads).
    pub fn loads(&self) -> &[f64] {
        &self.index2
    }

    /// Bilinear lookup with linear extrapolation outside the grid — the
    /// conventional NLDM behaviour. [`NldmTable::new`] validated the axes
    /// and the shape, so a lookup only interpolates.
    pub fn lookup(&self, slew: f64, load: f64) -> f64 {
        interp::bilinear(&self.index1, &self.index2, &self.values, slew, load)
    }
}

/// A timing arc from a related input pin to the owning output pin.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingArc {
    /// The input pin this arc responds to.
    pub related_pin: String,
    /// Arc unateness.
    pub sense: TimingSense,
    /// Output-rise delay table.
    pub cell_rise: NldmTable,
    /// Output-rise transition (slew) table.
    pub rise_transition: NldmTable,
    /// Output-fall delay table.
    pub cell_fall: NldmTable,
    /// Output-fall transition (slew) table.
    pub fall_transition: NldmTable,
}

/// A library pin.
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    /// Pin name.
    pub name: String,
    /// Direction.
    pub direction: Direction,
    /// Input capacitance (farads); zero for outputs.
    pub capacitance: f64,
    /// Logic function of an output pin (e.g. `"!A"`).
    pub function: Option<String>,
    /// Timing arcs (outputs only).
    pub timing: Vec<TimingArc>,
}

/// A library cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Cell name.
    pub name: String,
    /// Area in library units.
    pub area: f64,
    /// Pins in declaration order.
    pub pins: Vec<Pin>,
}

impl Cell {
    /// Looks up a pin by name.
    pub fn pin(&self, name: &str) -> Option<&Pin> {
        self.pins.iter().find(|p| p.name == name)
    }

    /// The first output pin, if any.
    pub fn output(&self) -> Option<&Pin> {
        self.pins.iter().find(|p| p.direction == Direction::Output)
    }

    /// Input pins in declaration order.
    pub fn inputs(&self) -> impl Iterator<Item = &Pin> {
        self.pins.iter().filter(|p| p.direction == Direction::Input)
    }
}

/// A characterized cell library.
#[derive(Debug, Clone, PartialEq)]
pub struct Library {
    /// Library name.
    pub name: String,
    /// Nominal supply voltage (volts).
    pub voltage: f64,
    cells: Vec<Cell>,
}

/// Liberty time unit used on output: nanoseconds.
const TIME_SCALE: f64 = 1e-9;
/// Liberty capacitance unit used on output: picofarads.
const CAP_SCALE: f64 = 1e-12;

impl Library {
    /// Creates an empty library.
    pub fn new(name: &str, voltage: f64) -> Self {
        Library {
            name: name.into(),
            voltage,
            cells: Vec::new(),
        }
    }

    /// Adds a cell.
    pub fn push_cell(&mut self, cell: Cell) {
        self.cells.push(cell);
    }

    /// All cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Looks up a cell by name.
    pub fn cell(&self, name: &str) -> Option<&Cell> {
        self.cells.iter().find(|c| c.name == name)
    }

    /// Serializes to Liberty text (ns / pF units).
    pub fn to_liberty(&self) -> String {
        let mut lib = Group::named("library", &self.name);
        lib.set("time_unit", Value::Str("1ns".into()));
        lib.set("voltage_unit", Value::Str("1V".into()));
        lib.set("nom_voltage", Value::Number(self.voltage));
        lib.set_complex(
            "capacitive_load_unit",
            vec![Value::Number(1.0), Value::Ident("pf".into())],
        );
        for cell in &self.cells {
            let mut cg = Group::named("cell", &cell.name);
            cg.set("area", Value::Number(cell.area));
            for pin in &cell.pins {
                let mut pg = Group::named("pin", &pin.name);
                let dir = match pin.direction {
                    Direction::Input => "input",
                    Direction::Output => "output",
                };
                pg.set("direction", Value::Ident(dir.into()));
                if pin.direction == Direction::Input {
                    pg.set("capacitance", Value::Number(pin.capacitance / CAP_SCALE));
                }
                if let Some(f) = &pin.function {
                    pg.set("function", Value::Str(f.clone()));
                }
                for arc in &pin.timing {
                    let mut tg = Group {
                        name: "timing".into(),
                        ..Group::default()
                    };
                    tg.set("related_pin", Value::Str(arc.related_pin.clone()));
                    tg.set("timing_sense", Value::Ident(arc.sense.as_liberty().into()));
                    for (name, table) in [
                        ("cell_rise", &arc.cell_rise),
                        ("rise_transition", &arc.rise_transition),
                        ("cell_fall", &arc.cell_fall),
                        ("fall_transition", &arc.fall_transition),
                    ] {
                        tg.groups.push(table_to_ast(name, table));
                    }
                    pg.groups.push(tg);
                }
                cg.groups.push(pg);
            }
            lib.groups.push(cg);
        }
        write_group(&lib)
    }
}

fn number_list(values: &[f64], scale: f64) -> String {
    values
        .iter()
        .map(|v| format!("{}", v / scale))
        .collect::<Vec<_>>()
        .join(", ")
}

fn table_to_ast(name: &str, table: &NldmTable) -> Group {
    let mut g = Group::named(name, "delay_template");
    g.set_complex(
        "index_1",
        vec![Value::Str(number_list(table.slews(), TIME_SCALE))],
    );
    g.set_complex(
        "index_2",
        vec![Value::Str(number_list(table.loads(), CAP_SCALE))],
    );
    let rows: Vec<Value> = table
        .index1
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let row = &table.values[i * table.index2.len()..(i + 1) * table.index2.len()];
            Value::Str(number_list(row, TIME_SCALE))
        })
        .collect();
    g.set_complex("values", rows);
    g
}

fn parse_number_list(text: &str, scale: f64) -> Result<Vec<f64>, LibertyError> {
    text.split(',')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map(|v| v * scale)
                .map_err(|_| LibertyError::Semantic(format!("bad number {s:?} in list")))
        })
        .collect()
}

fn table_from_ast(g: &Group) -> Result<NldmTable, LibertyError> {
    let index1 = g
        .complex_attr("index_1")
        .and_then(|a| a.values.first())
        .and_then(Value::as_text)
        .ok_or_else(|| LibertyError::Semantic(format!("{} missing index_1", g.name)))?;
    let index2 = g
        .complex_attr("index_2")
        .and_then(|a| a.values.first())
        .and_then(Value::as_text)
        .ok_or_else(|| LibertyError::Semantic(format!("{} missing index_2", g.name)))?;
    let index1 = parse_number_list(index1, TIME_SCALE)?;
    let index2 = parse_number_list(index2, CAP_SCALE)?;
    let rows = g
        .complex_attr("values")
        .ok_or_else(|| LibertyError::Semantic(format!("{} missing values", g.name)))?;
    let mut values = Vec::with_capacity(index1.len() * index2.len());
    for row in &rows.values {
        let text = row
            .as_text()
            .ok_or_else(|| LibertyError::Semantic("values rows must be strings".into()))?;
        values.extend(parse_number_list(text, TIME_SCALE)?);
    }
    NldmTable::new(index1, index2, values)
}

/// Parses Liberty text into the semantic [`Library`] model.
///
/// # Errors
///
/// Lex/parse errors with positions, or [`LibertyError::Semantic`] for
/// structurally valid but meaningless input.
pub fn parse_library(source: &str) -> Result<Library, LibertyError> {
    let root = parse_group(source)?;
    if root.name != "library" {
        return Err(LibertyError::Semantic(format!(
            "expected a library group, found {}",
            root.name
        )));
    }
    let name = root.arg_text().unwrap_or("unnamed").to_string();
    let voltage = root
        .simple_attr("nom_voltage")
        .and_then(Value::as_number)
        .unwrap_or(1.2);
    let mut lib = Library::new(&name, voltage);
    for cg in root.groups_named("cell") {
        let cell_name = cg
            .arg_text()
            .ok_or_else(|| LibertyError::Semantic("cell without a name".into()))?
            .to_string();
        let area = cg
            .simple_attr("area")
            .and_then(Value::as_number)
            .unwrap_or(0.0);
        let mut pins = Vec::new();
        for pg in cg.groups_named("pin") {
            let pin_name = pg
                .arg_text()
                .ok_or_else(|| LibertyError::Semantic("pin without a name".into()))?
                .to_string();
            let direction = match pg.simple_attr("direction").and_then(Value::as_text) {
                Some("input") => Direction::Input,
                Some("output") => Direction::Output,
                other => {
                    return Err(LibertyError::Semantic(format!(
                        "pin {pin_name}: unsupported direction {other:?}"
                    )))
                }
            };
            let capacitance = pg
                .simple_attr("capacitance")
                .and_then(Value::as_number)
                .map(|v| v * CAP_SCALE)
                .unwrap_or(0.0);
            let function = pg
                .simple_attr("function")
                .and_then(Value::as_text)
                .map(str::to_string);
            let mut timing = Vec::new();
            for tg in pg.groups_named("timing") {
                let related_pin = tg
                    .simple_attr("related_pin")
                    .and_then(Value::as_text)
                    .ok_or_else(|| {
                        LibertyError::Semantic(format!(
                            "pin {pin_name}: timing without related_pin"
                        ))
                    })?
                    .to_string();
                let sense = match tg.simple_attr("timing_sense").and_then(Value::as_text) {
                    Some("negative_unate") | None => TimingSense::NegativeUnate,
                    Some("positive_unate") => TimingSense::PositiveUnate,
                    Some(other) => {
                        return Err(LibertyError::Semantic(format!(
                            "unsupported timing_sense {other}"
                        )))
                    }
                };
                let table = |kind: &str| -> Result<NldmTable, LibertyError> {
                    tg.groups_named(kind)
                        .next()
                        .map(table_from_ast)
                        .transpose()?
                        .ok_or_else(|| {
                            LibertyError::Semantic(format!("pin {pin_name}: missing {kind}"))
                        })
                };
                timing.push(TimingArc {
                    related_pin,
                    sense,
                    cell_rise: table("cell_rise")?,
                    rise_transition: table("rise_transition")?,
                    cell_fall: table("cell_fall")?,
                    fall_transition: table("fall_transition")?,
                });
            }
            pins.push(Pin {
                name: pin_name,
                direction,
                capacitance,
                function,
                timing,
            });
        }
        lib.push_cell(Cell {
            name: cell_name,
            area,
            pins,
        });
    }
    Ok(lib)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_table() -> NldmTable {
        NldmTable::new(
            vec![10e-12, 100e-12],
            vec![1e-15, 10e-15],
            vec![20e-12, 40e-12, 30e-12, 60e-12],
        )
        .unwrap()
    }

    fn demo_library() -> Library {
        let arc = TimingArc {
            related_pin: "A".into(),
            sense: TimingSense::NegativeUnate,
            cell_rise: demo_table(),
            rise_transition: demo_table(),
            cell_fall: demo_table(),
            fall_transition: demo_table(),
        };
        let mut lib = Library::new("demo", 1.2);
        lib.push_cell(Cell {
            name: "INVX1".into(),
            area: 1.6,
            pins: vec![
                Pin {
                    name: "A".into(),
                    direction: Direction::Input,
                    capacitance: 5.4e-15,
                    function: None,
                    timing: vec![],
                },
                Pin {
                    name: "Y".into(),
                    direction: Direction::Output,
                    capacitance: 0.0,
                    function: Some("!A".into()),
                    timing: vec![arc],
                },
            ],
        });
        lib
    }

    #[test]
    fn table_validation_and_lookup() {
        let t = demo_table();
        // Exact corners.
        assert!((t.lookup(10e-12, 1e-15) - 20e-12).abs() < 1e-18);
        assert!((t.lookup(100e-12, 10e-15) - 60e-12).abs() < 1e-18);
        // Center: bilinear average.
        let mid = t.lookup(55e-12, 5.5e-15);
        assert!((mid - 37.5e-12).abs() < 1e-15);
        // Bad shapes rejected.
        assert!(NldmTable::new(vec![1.0], vec![1.0, 2.0], vec![0.0, 0.0]).is_err());
        assert!(NldmTable::new(vec![1.0, 2.0], vec![1.0, 2.0], vec![0.0]).is_err());
        assert!(NldmTable::new(vec![2.0, 1.0], vec![1.0, 2.0], vec![0.0; 4]).is_err());
    }

    #[test]
    fn library_round_trips_through_text() {
        let lib = demo_library();
        let text = lib.to_liberty();
        let parsed = parse_library(&text).unwrap();
        assert_eq!(lib, parsed);
    }

    #[test]
    fn semantic_accessors() {
        let lib = demo_library();
        let cell = lib.cell("INVX1").unwrap();
        assert_eq!(cell.inputs().count(), 1);
        let out = cell.output().unwrap();
        assert_eq!(out.function.as_deref(), Some("!A"));
        assert_eq!(out.timing.len(), 1);
        assert!(lib.cell("NAND2").is_none());
        assert!(cell.pin("A").is_some());
    }

    #[test]
    fn parse_rejects_non_library_roots() {
        assert!(matches!(
            parse_library("cell(x) { }"),
            Err(LibertyError::Semantic(_))
        ));
    }

    #[test]
    fn parse_rejects_incomplete_arcs() {
        let text = r#"
            library(x) {
                cell(c) {
                    pin(Y) {
                        direction : output;
                        timing() { related_pin : "A"; }
                    }
                }
            }
        "#;
        assert!(matches!(
            parse_library(text),
            Err(LibertyError::Semantic(_))
        ));
    }
}
