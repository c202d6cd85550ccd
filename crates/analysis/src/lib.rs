//! # vax-analysis
//!
//! Data reduction: from a µPC histogram (plus the control-store map and the
//! auxiliary counters) to the paper's Tables 1–9 and §4 event rates.
//!
//! The reduction mirrors the paper's method: the histogram is interpreted
//! *by address* against the control-store map — each location's activity
//! (Table 8 row) and microinstruction kind, combined with the counter plane,
//! yield the six cycle classes (Table 8 columns). Routine entry-point counts
//! yield event frequencies (specifier modes, TB misses).

pub mod analysis;
pub mod characterize;
pub mod checkpoint;
pub mod diffrun;
pub mod export;
pub mod json;
pub mod paper;
pub mod profile;
pub mod refute;
pub mod tables;
pub mod validate;

pub use analysis::Analysis;
pub use characterize::{
    attribute, costs_from_json, costs_json, costs_markdown, run_probe, select_grid, CostRecord,
    CostTable, ProbeError, ProbeRun, SkipRecord,
};
pub use checkpoint::{cell_from_json, cell_to_json, CheckpointCell};
pub use diffrun::{diff_json, DeltaKind, DiffReport, MetricDelta, Tolerance};
pub use export::{
    measurement_json, run_artifacts, timeseries_from_json, timeseries_json, RunManifest,
};
pub use json::Json;
pub use profile::{Profile, ProfileNode, RoutineProfile};
pub use refute::{check_cell, minimize, refutation_json, Refutation, RefuteCheck, RefuteTolerance};
pub use tables::{print_all_tables, tables_json};
pub use validate::{validate, ValidationCheck, ValidationReport};
