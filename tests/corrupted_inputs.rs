//! Corrupted-input suite: every import path must reject damaged data with
//! a typed error naming the defect — never panic, never silently accept.
//!
//! The paths under test are the ones a crash or a truncated download can
//! actually feed garbage into: the JSON parser behind every artifact
//! import, the time-series CSV importer, the checkpoint cell codec, and
//! the run-directory diff engine.

use std::path::{Path, PathBuf};

use upc_monitor::ControlStoreMap;
use vax780::{ProcessSpec, SystemBuilder, SystemConfig, TimeSeries};
use vax_analysis::{
    cell_from_json, cell_to_json, timeseries_from_json, CheckpointCell, Json, Tolerance,
};
use vax_arch::{Opcode, Reg};
use vax_asm::{Asm, Operand};
use vax_bench::diffcmd;
use vax_cpu::{ControlStore, CpuConfig};

#[test]
fn json_parser_rejects_truncated_and_garbage_documents() {
    for bad in [
        "",
        "{",
        "{\"a\": ",
        "{\"a\": 1,}",
        "[1, 2",
        "\"unterminated",
        "nul",
        "{\"a\" 1}",
        "{\"a\": 1} trailing",
        "{\"n\": 1e}",
    ] {
        assert!(Json::parse(bad).is_err(), "accepted '{bad}'");
    }
    // Nested far past the parser's depth cap: refused, not a stack overflow.
    let deep_array = "[".repeat(100_000) + &"]".repeat(100_000);
    let deep_object = "{\"a\":".repeat(100_000) + "1" + &"}".repeat(100_000);
    for deep in [deep_array, deep_object] {
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("deeper than 128 levels at byte"), "{err}");
    }
}

#[test]
fn json_parser_rejects_duplicate_keys_with_position() {
    let err = Json::parse("{\"cycles\": 1, \"cycles\": 2}").unwrap_err();
    assert!(err.contains("duplicate key 'cycles'"), "{err}");
    assert!(err.contains("byte"), "carries the offset: {err}");
    // Nested duplicates are caught too.
    assert!(Json::parse("{\"a\": {\"b\": 1, \"b\": 2}}").is_err());
    // So is one after 50,000 distinct keys, without comparing every pair.
    let members: String = (0..50_000).map(|i| format!("\"k{i}\": 0, ")).collect();
    let err = Json::parse(&format!("{{{members}\"k7\": 1}}")).unwrap_err();
    assert_eq!(
        err,
        format!("duplicate key 'k7' at byte {}", members.len() + 1)
    );
}

#[test]
fn timeseries_csv_importer_names_the_offending_line() {
    let header = TimeSeries::default().to_csv();
    let header = header.trim_end();

    for (body, expect) in [
        ("1,2,3", "expected 13 fields"),
        ("0,100,100,x,0.0,0,0,0,0,0,0,0,0", "bad integer"),
        ("0,100,99,9,0.0,0,0,0,0,0,0,0,0", "cycles column disagrees"),
        (
            "100,50,0,9,0.0,0,0,0,0,0,0,0,0",
            "end_cycle precedes start_cycle",
        ),
    ] {
        let text = format!("{header}\n{body}\n");
        let err = TimeSeries::from_csv(&text).unwrap_err();
        assert!(err.contains(expect), "'{body}' -> {err}");
        assert!(err.contains("line 2"), "'{body}' -> {err}");
    }
    assert!(TimeSeries::from_csv("not,a,header\n")
        .unwrap_err()
        .contains("header"));
    assert!(TimeSeries::from_csv("").is_err());
}

#[test]
fn timeseries_json_importer_rejects_wrong_shapes() {
    for bad in [
        "null",
        "[]",
        "{\"samples\": 3}",
        "{\"samples\": [{\"start_cycle\": 0}]}",
        "{\"intervals\": 1, \"samples\": [{\"start_cycle\": 9, \"end_cycle\": 5, \"cycles\": 0}]}",
    ] {
        let j = Json::parse(bad).unwrap();
        assert!(timeseries_from_json(&j).is_err(), "accepted '{bad}'");
    }
}

/// The control store every run reduces against.
fn control_store() -> ControlStoreMap {
    ControlStore::new(&CpuConfig::default()).map
}

/// A measured cell as the run journals it.
fn journaled_cell() -> Json {
    let mut asm = Asm::new(0x200);
    asm.label("entry");
    asm.insn(
        Opcode::Addl2,
        &[Operand::Lit(1), Operand::Reg(Reg::new(3))],
        None,
    );
    asm.insn(Opcode::Brb, &[], Some("entry"));
    let mut b = SystemBuilder::new(SystemConfig::default());
    b.add_process(ProcessSpec::new(asm.assemble().unwrap(), "entry"));
    let (m, series) = b.build().measure_sampled(500, 4_000, 2_000);
    cell_to_json(&CheckpointCell {
        workload: 0,
        shard: 0,
        m,
        series,
    })
}

/// An edit of a cell's histogram triples, each `[µPC, plane, count]`.
type Edit = fn(&mut Vec<[i64; 3]>);

/// `cell` with `edit` applied to its histogram triples.
fn edit_histogram(cell: &Json, edit: Edit) -> Json {
    let mut cell = cell.clone();
    let Json::Obj(members) = &mut cell else {
        panic!("a cell is an object")
    };
    let (_, hist) = members.iter_mut().find(|(k, _)| k == "histogram").unwrap();
    let mut triples: Vec<[i64; 3]> = hist
        .as_arr()
        .unwrap()
        .iter()
        .map(|t| [0, 1, 2].map(|i| t.as_arr().unwrap()[i].as_i64().unwrap()))
        .collect();
    edit(&mut triples);
    *hist = Json::arr(
        triples
            .into_iter()
            .map(|t| Json::arr(t.into_iter().map(Json::Int))),
    );
    cell
}

#[test]
fn checkpoint_codec_rejects_structural_damage() {
    let map = control_store();
    for bad in [
        "{}",
        "{\"format_version\": 1}",
        "{\"format_version\": 2, \"workload\": 0}",
    ] {
        let j = Json::parse(bad).unwrap();
        assert!(cell_from_json(&j, &map).is_err(), "accepted '{bad}'");
    }

    let good = journaled_cell();
    assert!(cell_from_json(&good, &map).is_ok());
    // Each edit keeps every other field, and the first four keep the
    // counts' sum equal to the cell's cycles, so each damage is alone.
    let damaged: [(&str, Edit); 6] = [
        // Past the 16 K board: this used to panic in the board's record.
        ("outside the", |h| h[0][0] = 20_000),
        // On the board but past the control store: this used to import,
        // then panic the reduction.
        ("outside the", |h| h[0][0] = 10_000),
        ("outside the", |h| h[0][0] = control_store().len() as i64),
        // One bucket's count split over two triples for the same pair.
        ("listed twice", |h| {
            let i = h.iter().position(|t| t[2] >= 2).unwrap();
            h[i][2] -= 1;
            let [upc, plane, _] = h[i];
            h.push([upc, plane, 1]);
        }),
        ("sum to", |h| h[0][2] += 1),
        ("overflow", |h| {
            for t in h.iter_mut().take(3) {
                t[2] = i64::MAX;
            }
        }),
    ];
    for (expect, edit) in damaged {
        let bad = edit_histogram(&good, edit);
        let err = cell_from_json(&bad, &map).expect_err(expect);
        assert!(err.contains(expect), "expected '{expect}': {err}");
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("corrupt-inputs-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden-small")
}

fn copy_fixture_to(dir: &Path) {
    for entry in std::fs::read_dir(fixture_dir()).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
}

/// The per-file verdict for `name`, which must be present in the diff.
fn report_for<'a>(diffs: &'a [diffcmd::FileDiff], name: &str) -> &'a diffcmd::FileDiff {
    diffs.iter().find(|d| d.file == name).unwrap()
}

#[test]
fn diff_engine_reports_truncated_artifacts_instead_of_panicking() {
    let dir = scratch("truncated");
    copy_fixture_to(&dir);
    let manifest = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    std::fs::write(&manifest, &text[..text.len() / 2]).unwrap();

    let diffs = diffcmd::diff_run_dirs(&fixture_dir(), &dir, &Tolerance::exact()).unwrap();
    let d = report_for(&diffs, "manifest.json");
    let err = d.report.as_ref().unwrap_err();
    assert!(err.contains("manifest.json"), "{err}");
    assert!(!d.is_clean(), "a torn artifact must fail the gate");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn diff_engine_reports_missing_artifacts_instead_of_panicking() {
    let dir = scratch("missing");
    copy_fixture_to(&dir);
    std::fs::remove_file(dir.join("measurement.json")).unwrap();

    let diffs = diffcmd::diff_run_dirs(&fixture_dir(), &dir, &Tolerance::exact()).unwrap();
    let d = report_for(&diffs, "measurement.json");
    let err = d.report.as_ref().unwrap_err();
    assert!(err.contains("missing in candidate"), "{err}");
    assert!(!d.is_clean(), "a missing artifact must fail the gate");
    std::fs::remove_dir_all(&dir).unwrap();
}
