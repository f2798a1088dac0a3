//! Verilog emit → parse round trips for every generator circuit, golden
//! snapshots of the emitted text, and malformed-input coverage for every
//! parse-error variant of both external front-ends.
//!
//! Regenerate the `tests/golden/*.v` snapshots after an intentional
//! emitter change with:
//!
//! ```text
//! HLPOWER_BLESS=1 cargo test -q --offline -p hlpower --test verilog_roundtrip
//! ```

use std::path::PathBuf;

use hlpower::netlist::{
    emit_verilog, gen, parse_edif, parse_verilog, streams, structurally_equivalent, Activity,
    Netlist, NetlistError, SourceFormat, WideSim, Word,
};
use hlpower_rng::Rng;

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

/// Every generator under test, as `(snapshot name, netlist)` — the same
/// six circuits the `.nl` golden suite covers.
fn generators() -> Vec<(&'static str, Netlist)> {
    let ripple = {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", 8);
        let b = nl.input_bus("b", 8);
        let c0 = nl.constant(false);
        let s = gen::ripple_adder(&mut nl, &a, &b, c0);
        nl.output_bus("sum", &s);
        nl
    };
    let multiplier = {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", 4);
        let b = nl.input_bus("b", 4);
        let p = gen::array_multiplier(&mut nl, &a, &b);
        nl.output_bus("p", &p);
        nl
    };
    let alu = {
        let mut nl = Netlist::new();
        let op0 = nl.input("op0");
        let op1 = nl.input("op1");
        let a = nl.input_bus("a", 4);
        let b = nl.input_bus("b", 4);
        let y = gen::alu(&mut nl, [op0, op1], &a, &b);
        nl.output_bus("y", &y);
        nl
    };
    let comparator = {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", 6);
        let b = nl.input_bus("b", 6);
        let eq = gen::equality(&mut nl, &a, &b);
        let lt = gen::less_than(&mut nl, &a, &b);
        nl.set_output("eq", eq);
        nl.set_output("lt", lt);
        nl
    };
    let fir = {
        let mut nl = Netlist::new();
        let x = nl.input_bus("x", 8);
        let y = gen::fir_filter(&mut nl, &x, &[7, 13, 7], true);
        nl.output_bus("y", &y);
        nl
    };
    let random = {
        let mut nl = Netlist::new();
        gen::random_logic(&mut nl, 2024, 6, 24, 3);
        nl
    };
    vec![
        ("ripple_adder", ripple),
        ("array_multiplier", multiplier),
        ("alu", alu),
        ("comparator", comparator),
        ("fir_shift_add", fir),
        ("random_logic", random),
    ]
}

/// 64-lane packed activity under the standard split-stream stimulus.
fn packed_activity(nl: &Netlist) -> Activity {
    const CYCLES: usize = 128;
    const SEED: u64 = 0x0DAC_1997;
    let width = nl.input_count();
    let mut sim = WideSim::<u64>::new(nl).expect("generator circuits are acyclic");
    let root = Rng::seed_from_u64(SEED);
    let mut lanes: Vec<_> =
        (0..u64::LANES as u64).map(|l| streams::random_rng(root.split(l), width)).collect();
    let mut words = vec![0u64; width];
    for _ in 0..CYCLES {
        words.iter_mut().for_each(|w| *w = 0);
        for (l, lane) in lanes.iter_mut().enumerate() {
            let vector = lane.next().expect("infinite stream");
            for (i, &bit) in vector.iter().enumerate() {
                if bit {
                    words[i] |= 1u64 << l;
                }
            }
        }
        sim.step(&words).expect("width matches");
    }
    sim.take_activity()
}

/// Every generator circuit survives `parse(emit_verilog(nl))` with full
/// structural equality and bit-identical packed-kernel activity.
#[test]
fn every_generator_round_trips_through_verilog() {
    for (name, nl) in generators() {
        let text = emit_verilog(&nl, name);
        let back =
            parse_verilog(&text).unwrap_or_else(|e| panic!("{name}: re-parse failed: {e}\n{text}"));
        structurally_equivalent(&nl, &back)
            .unwrap_or_else(|e| panic!("{name}: structural mismatch: {e}"));
        let a = packed_activity(&nl);
        let b = packed_activity(&back);
        assert_eq!(a.toggles, b.toggles, "{name}: packed toggle counts diverged");
        assert_eq!(a.cycles, b.cycles, "{name}: packed cycle counts diverged");
    }
}

/// `emit(parse(emit(nl)))` is a fixed point: the second emission is
/// byte-identical to the first.
#[test]
fn verilog_emission_is_a_fixed_point() {
    for (name, nl) in generators() {
        let text1 = emit_verilog(&nl, name);
        let back = parse_verilog(&text1).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        let text2 = emit_verilog(&back, name);
        assert_eq!(text1, text2, "{name}: emit(parse(emit(nl))) differs from emit(nl)");
    }
}

/// Emitted Verilog matches the golden snapshots (`HLPOWER_BLESS=1`
/// regenerates them after an intentional emitter change).
#[test]
fn emitted_verilog_matches_golden_snapshots() {
    let bless = std::env::var_os("HLPOWER_BLESS").is_some();
    for (name, nl) in generators() {
        let text = emit_verilog(&nl, name);
        let path = golden_dir().join(format!("{name}.v"));
        if bless {
            std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
            std::fs::write(&path, &text).expect("write golden file");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{name}: missing golden file {} ({e}); run with HLPOWER_BLESS=1", path.display())
        });
        assert_eq!(
            text,
            golden,
            "{name}: emitted Verilog differs from {}; bless with HLPOWER_BLESS=1 if intended",
            path.display()
        );
    }
}

// ---------------------------------------------------------------------
// Malformed-input coverage: every parse-error variant of both external
// front-ends must fire with an accurate line/column position.
// ---------------------------------------------------------------------

/// Asserts `err` is the expected variant at the expected position.
macro_rules! expect_err {
    ($err:expr, $variant:ident, $fmt:expr, $line:expr, $col:expr) => {{
        match &$err {
            NetlistError::$variant { format, at, .. } => {
                assert_eq!(*format, $fmt, "wrong source format");
                assert_eq!((at.line, at.col), ($line, $col), "wrong position: {at}");
                assert!(!at.snippet.is_empty(), "empty snippet");
            }
            other => panic!(concat!("expected ", stringify!($variant), ", got {:?}"), other),
        }
    }};
}

#[test]
fn verilog_parse_syntax_reports_position() {
    // Missing semicolon: the parser trips on `endmodule` at line 3.
    let err = parse_verilog("module m (a, y);\n  input a\nendmodule\n").unwrap_err();
    expect_err!(err, ParseSyntax, SourceFormat::Verilog, 3, 1);
}

#[test]
fn verilog_unknown_name_reports_position() {
    let src = "module m (a, y);\n  input a;\n  output y;\n  not g0 (y, ghost);\nendmodule\n";
    let err = parse_verilog(src).unwrap_err();
    expect_err!(err, ParseUnknownName, SourceFormat::Verilog, 4, 14);
    assert!(err.to_string().contains("ghost"), "{err}");
}

#[test]
fn verilog_unknown_cell_reports_position() {
    let src =
        "module m (a, y);\n  input a;\n  output y;\n  FROBNICATE g0 (.Y(y), .A(a));\nendmodule\n";
    let err = parse_verilog(src).unwrap_err();
    expect_err!(err, ParseUnknownCell, SourceFormat::Verilog, 4, 3);
    assert!(err.to_string().contains("FROBNICATE"), "{err}");
}

#[test]
fn verilog_unsupported_reports_position() {
    let src = "module m (a, y);\n  input a;\n  output y;\n  initial y = a;\nendmodule\n";
    let err = parse_verilog(src).unwrap_err();
    expect_err!(err, ParseUnsupported, SourceFormat::Verilog, 4, 3);
}

#[test]
fn verilog_multiple_drivers_reports_position() {
    let src = "module m (a, y);\n  input a;\n  output y;\n  buf g0 (y, a);\n  not g1 (y, a);\nendmodule\n";
    let err = parse_verilog(src).unwrap_err();
    expect_err!(err, ParseMultipleDrivers, SourceFormat::Verilog, 5, 11);
    assert!(err.to_string().contains('y'), "{err}");
}

#[test]
fn verilog_undriven_reports_position() {
    let src = "module m (a, y);\n  input a;\n  output y;\nendmodule\n";
    let err = parse_verilog(src).unwrap_err();
    expect_err!(err, ParseUndriven, SourceFormat::Verilog, 3, 10);
    assert!(err.to_string().contains('y'), "{err}");
}

const EDIF_AND: &str = r#"(edif demo (edifVersion 2 0 0)
  (library work
    (cell AND2 (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port A (direction INPUT))
                   (port B (direction INPUT))
                   (port Y (direction OUTPUT)))))
    (cell top (cellType GENERIC)
      (view netlist (viewType NETLIST)
        (interface (port a (direction INPUT))
                   (port b (direction INPUT))
                   (port y (direction OUTPUT)))
        (contents
          (instance g1 (viewRef netlist (cellRef AND2)))
          (net na (joined (portRef a) (portRef A (instanceRef g1))))
          (net nb (joined (portRef b) (portRef B (instanceRef g1))))
          (net ny (joined (portRef Y (instanceRef g1)) (portRef y)))))))
  (design demo (cellRef top)))
"#;

#[test]
fn edif_fixture_parses() {
    let nl = parse_edif(EDIF_AND).expect("fixture parses");
    assert_eq!(nl.input_count(), 2);
    assert_eq!(nl.gate_count(), 1);
}

#[test]
fn edif_parse_syntax_reports_position() {
    // Drop the final closer: the outermost `(edif` never closes.
    let src = EDIF_AND.trim_end().strip_suffix(')').unwrap().to_string();
    let err = parse_edif(&src).unwrap_err();
    expect_err!(err, ParseSyntax, SourceFormat::Edif, 1, 1);
}

#[test]
fn edif_unknown_name_reports_position() {
    let src = EDIF_AND.replace("(cellRef top))", "(cellRef missing))");
    let err = parse_edif(&src).unwrap_err();
    match err {
        NetlistError::ParseUnknownName { format, ref name, ref at, .. } => {
            assert_eq!(format, SourceFormat::Edif);
            assert_eq!(name, "missing");
            assert_eq!(at.line, 18, "{at}");
        }
        other => panic!("expected ParseUnknownName, got {other:?}"),
    }
}

#[test]
fn edif_unknown_cell_reports_position() {
    let src = EDIF_AND.replace("(cellRef AND2)", "(cellRef MYSTERY)");
    let err = parse_edif(&src).unwrap_err();
    match err {
        NetlistError::ParseUnknownCell { format, ref cell, ref at, .. } => {
            assert_eq!(format, SourceFormat::Edif);
            assert_eq!(cell, "MYSTERY");
            assert_eq!(at.line, 14, "{at}");
        }
        other => panic!("expected ParseUnknownCell, got {other:?}"),
    }
}

#[test]
fn edif_unsupported_reports_position() {
    let src = EDIF_AND.replace("(port b (direction INPUT))", "(port b (direction INOUT))");
    let err = parse_edif(&src).unwrap_err();
    match err {
        NetlistError::ParseUnsupported { format, ref at, .. } => {
            assert_eq!(format, SourceFormat::Edif);
            assert_eq!(at.line, 11, "{at}");
        }
        other => panic!("expected ParseUnsupported, got {other:?}"),
    }
}

#[test]
fn edif_multiple_drivers_reports_position() {
    // Join the interface input `a` onto the already-driven net ny.
    let src = EDIF_AND.replace(
        "(net ny (joined (portRef Y (instanceRef g1)) (portRef y))",
        "(net ny (joined (portRef Y (instanceRef g1)) (portRef a) (portRef y))",
    );
    let err = parse_edif(&src).unwrap_err();
    match err {
        NetlistError::ParseMultipleDrivers { format, ref name, ref at, .. } => {
            assert_eq!(format, SourceFormat::Edif);
            assert_eq!(name, "ny");
            assert_eq!(at.line, 17, "{at}");
        }
        other => panic!("expected ParseMultipleDrivers, got {other:?}"),
    }
}

#[test]
fn edif_undriven_reports_position() {
    // The output port y is never fed (its portRef disappears), though
    // the instance output still joins net ny.
    let src = EDIF_AND.replace(" (portRef y)", "");
    let err = parse_edif(&src).unwrap_err();
    match err {
        NetlistError::ParseUndriven { format, ref name, .. } => {
            assert_eq!(format, SourceFormat::Edif);
            assert_eq!(name, "y");
        }
        other => panic!("expected ParseUndriven, got {other:?}"),
    }
}
