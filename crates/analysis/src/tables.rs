//! Tables 1–9 and the §4 event rates, measured beside the paper's values.
//!
//! Each table is computed once into a [`Table`]: rows of cells, each
//! a measured value, the paper's value where it publishes one, and the
//! cell's member name in `tables.json`. Two renderers read that value:
//! [`Table::text`] writes the text report and [`Table::json`] the table's
//! member of `tables.json`. The two do not show the same rows (Table 4's
//! text groups the modes as percentages while its JSON lists each mode's
//! counts, for one), so each row says how each renderer shows it.

use std::fmt::Write as _;
use upc_monitor::{Activity, CycleClass};
use vax_arch::{AddressingMode, BranchKind, OpcodeGroup};
use vax_cpu::store::group_activity;

use crate::analysis::{Analysis, SpecModeCounts};
use crate::json::Json;
use crate::paper;

/// A measured quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Value {
    /// A rate, a ratio or a percentage.
    Num(f64),
    /// A raw event count.
    Count(u64),
    /// No value: its event never occurred (`—` in the text, `null` in JSON).
    Missing,
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Count(n)
    }
}

impl From<Option<f64>> for Value {
    fn from(v: Option<f64>) -> Value {
        v.map_or(Value::Missing, Value::Num)
    }
}

impl Value {
    fn json(self) -> Json {
        match self {
            Value::Num(v) => Json::from(v),
            Value::Count(n) => Json::from(n),
            Value::Missing => Json::Null,
        }
    }

    /// Right-aligned in `width` columns, a number to `precision` decimals.
    fn write(self, out: &mut String, (width, precision): (usize, usize)) {
        let _ = match self {
            Value::Num(v) => write!(out, "{v:>width$.precision$}"),
            Value::Count(n) => write!(out, "{n:>width$}"),
            Value::Missing => write!(out, "{:>width$}", "—"),
        };
    }
}

/// One measured value beside the paper's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Cell {
    /// The cell's member name in `tables.json` (unread in rows it hides).
    pub(crate) key: &'static str,
    /// The reproduction's value.
    pub(crate) measured: Value,
    /// The paper's value, where it publishes a legible one.
    pub(crate) paper: Option<f64>,
}

impl Cell {
    /// The member `key: measured`, or `key: {measured, paper}`.
    fn member(&self) -> (String, Json) {
        let value = match self.paper {
            Some(p) => Json::obj([("measured", self.measured.json()), ("paper", Json::from(p))]),
            None => self.measured.json(),
        };
        (self.key.to_string(), value)
    }
}

/// How the text report shows a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TextForm {
    /// Not at all.
    Hidden,
    /// The label, then each cell in its column's `Column` format.
    Columns,
    /// As [`TextForm::Columns`], then a `(paper)` line of the paper values.
    PaperLine,
    /// The label, then this sentence, whose `{}`s take the measured values
    /// and then the paper values in (width, decimals) formats.
    Sentence(&'static str, &'static [(usize, usize)]),
}

/// How `tables.json` shows a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum JsonForm {
    /// Not at all.
    Hidden,
    /// One object of the table's records: the label, then each cell.
    Record,
    /// Each cell a member of the table's object.
    Members,
    /// A totals row: the cells but the last as members of an object under
    /// this key, then the last, the grand total, as a member.
    Totals(&'static str),
}

/// A labelled row of cells.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Row {
    /// The row label (a record's label member in the JSON).
    pub(crate) label: String,
    /// The values, in column order.
    pub(crate) cells: Vec<Cell>,
    /// How the text report shows the row.
    pub(crate) text: TextForm,
    /// How `tables.json` shows the row.
    pub(crate) json: JsonForm,
}

impl Row {
    fn cell(&mut self, key: &'static str, measured: impl Into<Value>) -> &mut Row {
        let measured = measured.into();
        self.cells.push(Cell {
            key,
            measured,
            paper: None,
        });
        self
    }

    /// Set the paper's value of the last cell.
    fn paper(&mut self, paper: impl Into<Option<f64>>) -> &mut Row {
        if let Some(cell) = self.cells.last_mut() {
            cell.paper = paper.into();
        }
        self
    }

    /// Set how each renderer shows the row.
    fn show(&mut self, text: TextForm, json: JsonForm) -> &mut Row {
        self.text = text;
        self.json = json;
        self
    }
}

/// A column's text format: the measured value right-aligned in `width`
/// columns to `precision` decimals, then, where `paper` gives a width, the
/// paper's value to the same precision, or `(—)` where it has none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Column {
    /// Measured value width.
    pub(crate) width: usize,
    /// Decimals of both values.
    pub(crate) precision: usize,
    /// Paper value width, if the column shows the paper's value.
    pub(crate) paper: Option<usize>,
}

fn col(width: usize, precision: usize, paper: Option<usize>) -> Column {
    Column {
        width,
        precision,
        paper,
    }
}

/// A table's shape in `tables.json`. A table of records names the
/// records' label member and the member that holds a record's paper value
/// after its cell (`None` nests it as `{measured, paper}`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) enum Shape {
    /// An object of the rows' cells.
    #[default]
    Object,
    /// An array of records: (label, paper) member names.
    Array(&'static str, Option<&'static str>),
    /// An object: the records under a key, then the other rows' cells:
    /// (key, label, paper) member names.
    Rows(&'static str, &'static str, Option<&'static str>),
}

/// One of the paper's tables, measured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// The `reproduce --experiment` name.
    pub name: &'static str,
    /// The table's member name in `tables.json`.
    pub key: &'static str,
    /// The text report's first line.
    pub title: &'static str,
    /// The text report's column header line.
    pub(crate) header: Option<&'static str>,
    /// The text width of the row labels.
    pub(crate) label_width: usize,
    /// The text format of each cell position.
    pub(crate) columns: Vec<Column>,
    /// The table's shape in `tables.json`.
    pub(crate) shape: Shape,
    /// The rows, in text order.
    pub(crate) rows: Vec<Row>,
}

impl Table {
    /// Append a row, a record of the table or, in an object, its members.
    fn row(&mut self, label: impl Into<String>) -> &mut Row {
        let json = match self.shape {
            Shape::Object => JsonForm::Members,
            _ => JsonForm::Record,
        };
        self.rows.push(Row {
            label: label.into(),
            cells: Vec::new(),
            text: TextForm::Columns,
            json,
        });
        self.rows.last_mut().expect("just pushed")
    }

    /// The table as the text report prints it.
    pub fn text(&self) -> String {
        let mut out = format!("{}\n", self.title);
        if let Some(header) = self.header {
            out.push_str(header);
            out.push('\n');
        }
        for row in self.rows.iter().filter(|r| r.text != TextForm::Hidden) {
            self.write_row(&mut out, row);
            out.push('\n');
        }
        out
    }

    fn write_row(&self, out: &mut String, row: &Row) {
        let width = self.label_width;
        let _ = write!(out, "{:<width$}", row.label);
        let papers = row.cells.iter().filter_map(|c| c.paper.map(Value::Num));
        match row.text {
            TextForm::Hidden => {}
            TextForm::Sentence(sentence, formats) => {
                let values = row.cells.iter().map(|c| c.measured).chain(papers);
                let mut parts = sentence.split("{}");
                out.push_str(parts.next().unwrap_or_default());
                for ((v, &format), part) in values.zip(formats).zip(parts) {
                    v.write(out, format);
                    out.push_str(part);
                }
            }
            TextForm::Columns | TextForm::PaperLine => {
                for (cell, c) in row.cells.iter().zip(&self.columns) {
                    out.push(' ');
                    cell.measured.write(out, (c.width, c.precision));
                    if let Some(w) = c.paper {
                        out.push(' ');
                        match cell.paper {
                            Some(p) => Value::Num(p).write(out, (w, c.precision)),
                            None => {
                                let _ = write!(out, "{:>w$}", "(—)");
                            }
                        }
                    }
                }
                if row.text == TextForm::PaperLine {
                    let _ = write!(out, "\n{:<width$}", "(paper)");
                    for (p, c) in papers.zip(&self.columns) {
                        out.push(' ');
                        p.write(out, (c.width, c.precision));
                    }
                }
            }
        }
    }

    /// The table as `tables.json` holds it.
    pub fn json(&self) -> Json {
        let mut members = Vec::new();
        for row in &self.rows {
            match (row.json, row.cells.split_last()) {
                (JsonForm::Members, _) => members.extend(row.cells.iter().map(Cell::member)),
                (JsonForm::Totals(key), Some((total, columns))) => {
                    let columns = columns.iter().map(Cell::member).collect();
                    members.push((key.to_string(), Json::Obj(columns)));
                    members.push(total.member());
                }
                _ => {}
            }
        }
        let records = |label: &str, paper: Option<&str>| {
            let records = self.rows.iter().filter(|r| r.json == JsonForm::Record);
            Json::arr(records.map(|row| {
                let mut record = vec![(label.to_string(), Json::from(row.label.as_str()))];
                for cell in &row.cells {
                    match (cell.paper, paper) {
                        (Some(p), Some(paper)) => {
                            record.push((cell.key.to_string(), cell.measured.json()));
                            record.push((paper.to_string(), Json::from(p)));
                        }
                        _ => record.push(cell.member()),
                    }
                }
                Json::Obj(record)
            }))
        };
        match self.shape {
            Shape::Object => Json::Obj(members),
            Shape::Array(label, paper) => records(label, paper),
            Shape::Rows(key, label, paper) => {
                members.insert(0, (key.to_string(), records(label, paper)));
                Json::Obj(members)
            }
        }
    }
}

/// `num / den`, or 0 unless `den` is positive.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Table 1: opcode group frequency.
pub fn table1(a: &Analysis) -> Table {
    let mut t = Table {
        name: "table1",
        key: "table1_opcode_groups",
        title: "Table 1 — Opcode Group Frequency (percent)",
        header: Some("group        measured    paper"),
        label_width: 12,
        columns: vec![col(8, 2, Some(8))],
        shape: Shape::Array("group", Some("paper_percent")),
        ..Table::default()
    };
    let measured = a.group_percent();
    for (i, g) in OpcodeGroup::ALL.iter().enumerate() {
        t.row(g.name())
            .cell("measured_percent", measured[i])
            .paper(paper::TABLE1_GROUP_PERCENT[i]);
    }
    t
}

/// Table 2: PC-changing instructions.
pub fn table2(a: &Analysis) -> Table {
    let mut t = Table {
        name: "table2",
        key: "table2_pc_changing",
        title: "Table 2 — PC-Changing Instructions",
        header: Some(
            "class                            exec%   (paper)  taken%  (paper)  taken/all%  (paper)",
        ),
        label_width: 30,
        columns: vec![col(7, 1, Some(9)), col(7, 1, Some(8)), col(9, 1, Some(9))],
        shape: Shape::Array("class", None),
        ..Table::default()
    };
    let n = a.instructions.max(1) as f64;
    let row = |t: &mut Table, label: &str, execd: u64, taken: u64, p: (f64, f64, f64)| {
        t.row(label)
            .cell("executed_percent", 100.0 * execd as f64 / n)
            .paper(p.0)
            .cell("taken_percent", ratio(100.0 * taken as f64, execd as f64))
            .paper(p.1)
            .cell("taken_of_all_percent", 100.0 * taken as f64 / n)
            .paper(p.2);
    };
    let (mut tot_exec, mut tot_taken) = (0, 0);
    for (i, k) in BranchKind::TABLE2_ROWS.iter().enumerate() {
        let execd = a.m.cpu_stats.branch_executed_of(*k);
        let taken = a.m.cpu_stats.branch_taken_of(*k);
        tot_exec += execd;
        tot_taken += taken;
        row(&mut t, k.name(), execd, taken, paper::TABLE2[i]);
    }
    row(&mut t, "TOTAL", tot_exec, tot_taken, paper::TABLE2_TOTAL);
    t
}

/// Table 3: specifiers and branch displacements per instruction.
pub fn table3(a: &Analysis) -> Table {
    let mut t = Table {
        name: "table3",
        key: "table3_specifiers",
        title: "Table 3 — Specifiers per Average Instruction",
        header: Some("item                   measured   paper"),
        label_width: 22,
        columns: vec![col(8, 3, Some(7))],
        ..Table::default()
    };
    let n = a.instructions.max(1) as f64;
    t.row("First specifiers")
        .cell("first_specifiers_per_instr", a.spec1.total() as f64 / n)
        .paper(paper::TABLE3_SPEC1);
    t.row("Other specifiers")
        .cell("other_specifiers_per_instr", a.spec26.total() as f64 / n)
        .paper(paper::TABLE3_SPEC26);
    let bdisp = a.m.cpu_stats.branch_disps as f64 / n;
    t.row("Branch displacements")
        .cell("branch_displacements_per_instr", bdisp)
        .paper(paper::TABLE3_BDISP);
    t
}

/// Table 4: operand specifier mode distribution. The text groups the
/// displacement modes for comparability and shows percentages; the JSON
/// lists each mode's raw counts.
pub fn table4(a: &Analysis) -> Table {
    use AddressingMode as M;
    let mut t = Table {
        name: "table4",
        key: "table4_specifier_modes",
        title: "Table 4 — Operand Specifier Distribution (percent)",
        header: Some(
            "mode                    SPEC1  SPEC2-6    total    (paper total where legible)",
        ),
        label_width: 22,
        columns: vec![col(6, 1, None), col(8, 1, None), col(8, 1, Some(8))],
        shape: Shape::Rows("by_mode", "mode", None),
        ..Table::default()
    };
    let (s1, s2) = (&a.spec1, &a.spec26);
    let t1 = s1.total().max(1) as f64;
    let t2 = s2.total().max(1) as f64;
    let tt = (s1.total() + s2.total()).max(1) as f64;
    let percents = |t: &mut Table, label: &str, c1: u64, c2: u64, paper: Option<f64>| {
        t.row(label)
            .show(TextForm::Columns, JsonForm::Hidden)
            .cell("", 100.0 * c1 as f64 / t1)
            .cell("", 100.0 * c2 as f64 / t2)
            .cell("", 100.0 * (c1 + c2) as f64 / tt)
            .paper(paper);
    };
    let groups: [(&str, &[M]); 9] = [
        ("Register", &[M::Register]),
        ("Short literal", &[M::Literal]),
        ("Immediate", &[M::Immediate]),
        ("Displacement", &[M::ByteDisp, M::WordDisp, M::LongDisp]),
        ("Register deferred", &[M::RegisterDeferred]),
        ("Autoincrement", &[M::Autoincrement]),
        ("Autodecrement", &[M::Autodecrement]),
        (
            "Disp. deferred",
            &[
                M::ByteDispDeferred,
                M::WordDispDeferred,
                M::LongDispDeferred,
            ],
        ),
        ("Absolute", &[M::Absolute]),
    ];
    // The paper's totals are legible for the first three groups only.
    let legible = [
        paper::TABLE4_REGISTER.2,
        paper::TABLE4_LITERAL.2,
        paper::TABLE4_IMMEDIATE.2,
    ];
    for (i, (label, modes)) in groups.into_iter().enumerate() {
        let count = |s: &SpecModeCounts| modes.iter().map(|m| s.by_mode[m.index()]).sum();
        let p = legible.get(i).copied();
        percents(&mut t, label, count(s1), count(s2), p);
    }
    let indexed = Some(paper::TABLE4_INDEXED.2);
    percents(&mut t, "Percent indexed", s1.indexed, s2.indexed, indexed);
    for (i, m) in M::ALL.iter().enumerate() {
        t.row(format!("{m:?}"))
            .show(TextForm::Hidden, JsonForm::Record)
            .cell("spec1_count", s1.by_mode[i])
            .cell("spec26_count", s2.by_mode[i]);
    }
    // The JSON carries the paper's indexed percentage beside the raw
    // counts, not beside a measured percentage.
    t.row("Totals")
        .show(TextForm::Hidden, JsonForm::Members)
        .cell("spec1_total", s1.total())
        .cell("spec26_total", s2.total())
        .cell("spec1_indexed", s1.indexed)
        .cell("spec26_indexed", s2.indexed)
        .cell("indexed_percent_paper", paper::TABLE4_INDEXED.2);
    t
}

/// Table 5: D-stream reads and writes per instruction, by source row.
pub fn table5(a: &Analysis) -> Table {
    use Activity as A;
    let mut t = Table {
        name: "table5",
        key: "table5_dstream_refs",
        title: "Table 5 — D-stream Reads and Writes per Instruction",
        header: Some("source          reads   writes"),
        label_width: 14,
        columns: vec![col(6, 3, None), col(8, 3, None)],
        shape: Shape::Rows("rows", "source", None),
        ..Table::default()
    };
    // Each source row sums its activities' cells (one, but for "Other").
    let sources: [(&str, &[A]); 10] = [
        ("Spec1", &[A::Spec1]),
        ("Spec2-6", &[A::Spec26]),
        ("Simple", &[A::ExecSimple]),
        ("Field", &[A::ExecField]),
        ("Float", &[A::ExecFloat]),
        ("Call/Ret", &[A::ExecCallRet]),
        ("System", &[A::ExecSystem]),
        ("Character", &[A::ExecCharacter]),
        ("Decimal", &[A::ExecDecimal]),
        (
            "Other",
            &[A::Decode, A::BDisp, A::IntExcept, A::MemMgmt, A::Abort],
        ),
    ];
    let mut reads = 0.0;
    let mut writes = 0.0;
    for (label, acts) in sources {
        let r: f64 = acts.iter().map(|&x| a.cell(x, CycleClass::Read)).sum();
        let w: f64 = acts.iter().map(|&x| a.cell(x, CycleClass::Write)).sum();
        reads += r;
        writes += w;
        t.row(label)
            .cell("reads_per_instr", r)
            .cell("writes_per_instr", w);
    }
    let total = TextForm::Sentence(
        " {} {}   (paper: {} / {})",
        &[(6, 3), (8, 3), (0, 3), (0, 3)],
    );
    t.row("TOTAL")
        .show(total, JsonForm::Members)
        .cell("total_reads_per_instr", reads)
        .paper(paper::TABLE5_READS_TOTAL)
        .cell("total_writes_per_instr", writes)
        .paper(paper::TABLE5_WRITES_TOTAL);
    let unaligned = a.m.mem_stats.unaligned_refs as f64 / a.instructions.max(1) as f64;
    let sentence = TextForm::Sentence(": {}   (paper: {})", &[(0, 4), (0, 3)]);
    t.row("Unaligned refs/instr")
        .show(sentence, JsonForm::Members)
        .cell("unaligned_refs_per_instr", unaligned)
        .paper(paper::UNALIGNED_PER_INSTR);
    t
}

/// Table 6: average instruction size. The specifier count and size are in
/// the text only.
pub fn table6(a: &Analysis) -> Table {
    let mut t = Table {
        name: "table6",
        key: "table6_instruction_size",
        title: "Table 6 — Estimated Size of Average Instruction",
        ..Table::default()
    };
    let n = a.instructions.max(1) as f64;
    let avg = a.m.cpu_stats.avg_instruction_bytes();
    let specs = (a.spec1.total() + a.spec26.total()) as f64 / n;
    let bdisp = a.m.cpu_stats.branch_disps as f64 / n;
    let spec_bytes = (avg - 1.0 - bdisp * 1.1).max(0.0) / specs.max(1e-9);
    let sizes = " {}, avg specifier size {} B (paper {} B)";
    t.row("specifiers/instr")
        .show(TextForm::Sentence(sizes, &[(0, 2); 3]), JsonForm::Hidden)
        .cell("", specs)
        .cell("", spec_bytes)
        .paper(paper::TABLE6_AVG_SPEC_BYTES);
    let size = TextForm::Sentence(": {} bytes   (paper: {})", &[(0, 2), (0, 1)]);
    t.row("average instruction size")
        .show(size, JsonForm::Members)
        .cell("avg_instruction_bytes", avg)
        .paper(paper::TABLE6_AVG_INSTR_BYTES);
    t
}

/// Table 7: interrupt and context-switch headway.
pub fn table7(a: &Analysis) -> Table {
    let mut t = Table {
        name: "table7",
        key: "table7_headways",
        title: "Table 7 — Interrupt and Context-Switch Headway (instructions)",
        label_width: 28,
        columns: vec![col(8, 0, Some(8))],
        ..Table::default()
    };
    let cs = &a.m.cpu_stats;
    let soft = a.headway(cs.sw_interrupt_requests);
    t.row("Software interrupt requests")
        .cell("sw_interrupt_request_headway", soft)
        .paper(paper::TABLE7_SOFT_REQ_HEADWAY);
    t.row("HW and SW interrupts")
        .cell("interrupt_headway", a.headway(cs.total_interrupts()))
        .paper(paper::TABLE7_INTERRUPT_HEADWAY);
    t.row("Context switches")
        .cell("context_switch_headway", a.headway(cs.context_switches))
        .paper(paper::TABLE7_CONTEXT_SWITCH_HEADWAY);
    t
}

/// §4 implementation events. The TB misses by stream are in the text
/// only. The service time is per service (the service routine's entries,
/// as the paper reduced it), not per counted miss.
pub fn events(a: &Analysis) -> Table {
    let mut t = Table {
        name: "events",
        key: "section4_events",
        title: "§4 — Implementation Events (per instruction)",
        header: Some("event                        measured    paper"),
        label_width: 28,
        columns: vec![col(8, 3, Some(8))],
        ..Table::default()
    };
    let n = a.instructions.max(1) as f64;
    let ms = &a.m.mem_stats;
    let ib_refs = ms.i_reads as f64 / n;
    let avg_bytes = a.m.cpu_stats.avg_instruction_bytes();
    let (cache, tb) = (paper::CACHE_MISSES_PER_INSTR, paper::TB_MISSES_PER_INSTR);
    let misses = ms.total_read_misses() as f64 / n;
    let i_misses = ms.i_read_misses as f64 / n;
    let d_misses = (ms.d_read_misses + ms.pte_read_misses) as f64 / n;
    let tb_misses = ms.total_tb_misses() as f64;
    let tb_service = ratio(a.tb_miss_cycles as f64, a.tb_miss_services as f64);
    t.row("IB refs/instr")
        .cell("ib_refs_per_instr", ib_refs)
        .paper(paper::IB_REFS_PER_INSTR);
    t.row("IB bytes/ref")
        .cell("ib_bytes_per_ref", ratio(avg_bytes, ib_refs))
        .paper(paper::IB_BYTES_PER_REF);
    t.row("Cache read misses (total)")
        .cell("cache_read_misses_per_instr", misses)
        .paper(cache.0);
    t.row("  I-stream")
        .cell("cache_read_misses_istream_per_instr", i_misses)
        .paper(cache.1);
    t.row("  D-stream")
        .cell("cache_read_misses_dstream_per_instr", d_misses)
        .paper(cache.2);
    t.row("TB misses (total)")
        .cell("tb_misses_per_instr", tb_misses / n)
        .paper(tb.0);
    t.row("  D-stream")
        .show(TextForm::Columns, JsonForm::Hidden)
        .cell("", ms.tb_miss_d as f64 / n)
        .paper(tb.1);
    t.row("  I-stream")
        .show(TextForm::Columns, JsonForm::Hidden)
        .cell("", ms.tb_miss_i as f64 / n)
        .paper(tb.2);
    t.row("TB miss service cycles")
        .cell("tb_miss_service_cycles", tb_service)
        .paper(paper::TB_MISS_SERVICE_CYCLES);
    t
}

/// Table 8: the full time decomposition.
pub fn table8(a: &Analysis) -> Table {
    let mut t = Table {
        name: "table8",
        key: "table8_instruction_timing",
        title: "Table 8 — Average VAX Instruction Timing (cycles per instruction)",
        header: Some(
            "row          Compute     Read  R-Stall    Write  W-Stall IB-Stall    Total  (paper)",
        ),
        label_width: 12,
        columns: [vec![col(8, 3, None); 6], vec![col(8, 3, Some(8))]].concat(),
        shape: Shape::Rows("rows", "activity", Some("paper_total")),
        ..Table::default()
    };
    for (i, &act) in Activity::ALL.iter().enumerate() {
        let row = t.row(act.name());
        for class in CycleClass::ALL {
            row.cell(class.key(), a.cell(act, class));
        }
        row.cell("total", a.row_total(act))
            .paper(paper::TABLE8_ROW_TOTALS[i]);
    }
    let total = t.row("TOTAL");
    total.show(TextForm::PaperLine, JsonForm::Totals("column_totals"));
    for (i, class) in CycleClass::ALL.into_iter().enumerate() {
        total
            .cell(class.key(), a.col_total(class))
            .paper(paper::TABLE8_COLUMN_TOTALS[i]);
    }
    total.cell("cpi", a.cpi()).paper(paper::TABLE8_CPI);
    t
}

/// Table 9: cycles per instruction within each group (execute phase). A
/// group that did not occur is noted in the text and left out of the
/// JSON.
pub fn table9(a: &Analysis) -> Table {
    let mut t = Table {
        name: "table9",
        key: "table9_group_timing",
        title: "Table 9 — Cycles per Instruction Within Each Group (execute phase)",
        header: Some("group        Compute     Read  R-Stall    Write  W-Stall    Total  (paper)"),
        label_width: 12,
        columns: [vec![col(8, 2, None); 5], vec![col(8, 2, Some(8))]].concat(),
        shape: Shape::Array("group", Some("paper_total")),
        ..Table::default()
    };
    let groups = a.group_percent();
    for (i, g) in OpcodeGroup::ALL.iter().enumerate() {
        let freq = groups[i] / 100.0;
        let row = t.row(g.name());
        if freq <= 0.0 {
            let absent = TextForm::Sentence(" (group did not occur)", &[]);
            row.show(absent, JsonForm::Hidden);
            continue;
        }
        let act = group_activity(*g);
        let mut total = 0.0;
        // Every class but IB-Stall, which no execute phase is charged.
        for class in &CycleClass::ALL[..5] {
            let v = a.cell(act, *class) / freq;
            total += v;
            row.cell(class.key(), v);
        }
        row.cell("total", total)
            .paper(paper::TABLE9_GROUP_TOTALS[i]);
    }
    t
}

/// Every table, in report order: Tables 1–7, §4, Tables 8 and 9.
pub const TABLES: [fn(&Analysis) -> Table; 10] = [
    table1, table2, table3, table4, table5, table6, table7, events, table8, table9,
];

/// The table an `--experiment` name selects.
pub fn by_name(a: &Analysis, name: &str) -> Option<Table> {
    TABLES.iter().map(|table| table(a)).find(|t| t.name == name)
}

/// Render every table and the §4 events in paper order.
pub fn print_all_tables(a: &Analysis) -> String {
    let mut out = String::new();
    for table in TABLES {
        out.push_str(&table(a).text());
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "Instructions: {}   Cycles: {}   CPI: {:.2} (paper {:.2})",
        a.instructions,
        a.cycles,
        a.cpi(),
        paper::TABLE8_CPI
    );
    out
}

/// Serialize Tables 1–9 plus the §4 implementation events.
pub fn tables_json(a: &Analysis) -> Json {
    let cpi = Cell {
        key: "cpi",
        measured: Value::Num(a.cpi()),
        paper: Some(paper::TABLE8_CPI),
    };
    let mut members = vec![
        ("instructions".to_string(), Json::from(a.instructions)),
        ("cycles".to_string(), Json::from(a.cycles)),
        cpi.member(),
    ];
    for table in TABLES {
        let t = table(a);
        members.push((t.key.to_string(), t.json()));
    }
    Json::Obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax780::{ProcessSpec, SystemBuilder, SystemConfig};
    use vax_arch::{Opcode, Reg};
    use vax_asm::{Asm, Operand};

    fn analysis() -> Analysis {
        let mut asm = Asm::new(0x200);
        asm.label("entry");
        asm.label("loop");
        asm.insn(
            Opcode::Addl2,
            &[Operand::Lit(1), Operand::Reg(Reg::new(3))],
            None,
        );
        asm.insn(Opcode::Brb, &[], Some("loop"));
        let mut b = SystemBuilder::new(SystemConfig::default());
        b.add_process(ProcessSpec::new(asm.assemble().unwrap(), "entry"));
        let mut sys = b.build();
        let m = sys.measure(500, 5_000);
        Analysis::new(sys.cpu.cs, &m)
    }

    #[test]
    fn renders_all_tables() {
        let text = print_all_tables(&analysis());
        assert!(text.contains("Table 1"));
        assert!(text.contains("Table 8"));
        assert!(text.contains("TOTAL"));
        assert!(text.contains("CPI"));
    }

    #[test]
    fn tables_json_matches_analysis() {
        let a = analysis();
        let t = tables_json(&a);
        let cpi = t
            .get("cpi")
            .and_then(|v| v.get("measured"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((cpi - a.cpi()).abs() < 1e-12);
        let rows = t
            .get("table8_instruction_timing")
            .and_then(|v| v.get("rows"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(rows.len(), 14);
        let t1 = t
            .get("table1_opcode_groups")
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(t1.len(), 7);
    }
}
