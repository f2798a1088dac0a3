//! Seeded mutation fuzzing of the netlist front-ends: random byte- and
//! token-level corruptions of the golden Verilog netlists and both
//! worked example files must never panic the parsers — every outcome is
//! either a successfully ingested netlist or a structured `Parse*`
//! [`NetlistError`] whose source location lies inside the corrupted
//! input.
//!
//! The corruption schedule is driven by the in-tree [`Check`] harness, so
//! `--features proptest` multiplies the case count 16x.

use hlpower::netlist::{ingest_auto, ingest_str, NetlistError, SourceFormat, SrcLoc};
use hlpower_rng::check::Check;
use hlpower_rng::Rng;

/// The fuzz corpus: every golden structural-Verilog snapshot plus both
/// ingest examples (one Verilog, one EDIF).
const CORPUS: &[(&str, &str, SourceFormat)] = &[
    ("alu.v", include_str!("golden/alu.v"), SourceFormat::Verilog),
    ("array_multiplier.v", include_str!("golden/array_multiplier.v"), SourceFormat::Verilog),
    ("comparator.v", include_str!("golden/comparator.v"), SourceFormat::Verilog),
    ("fir_shift_add.v", include_str!("golden/fir_shift_add.v"), SourceFormat::Verilog),
    ("random_logic.v", include_str!("golden/random_logic.v"), SourceFormat::Verilog),
    ("ripple_adder.v", include_str!("golden/ripple_adder.v"), SourceFormat::Verilog),
    ("gray_counter4.v", include_str!("../examples/gray_counter4.v"), SourceFormat::Verilog),
    ("majority.edf", include_str!("../examples/majority.edf"), SourceFormat::Edif),
];

/// Replacement tokens biased toward the grammars' own keywords and
/// punctuation, so corruptions hit deep parser states rather than dying
/// in the lexer every time.
const TOKENS: &[&str] = &[
    "module",
    "endmodule",
    "input",
    "output",
    "wire",
    "assign",
    "(",
    ")",
    ";",
    ",",
    ".",
    "=",
    "1'b0",
    "1'b1",
    "(*",
    "*)",
    "edif",
    "cell",
    "net",
    "joined",
    "portRef",
    "instanceRef",
    "contents",
    "instance",
    "viewRef",
    "cellRef",
    "rename",
    "0",
    "42",
    "x",
    "DFF",
    "NAND2",
    "\"",
];

/// Applies one random byte-level corruption, staying valid UTF-8 by
/// operating on char boundaries.
fn corrupt_bytes(rng: &mut Rng, src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let mut out = chars.clone();
    let printable: Vec<char> = (' '..='~').chain(['\n', '\t', '\u{fffd}', 'é']).collect();
    // An earlier stacked corruption may have emptied the text; then only
    // an insert applies.
    let edit = if out.is_empty() { 1 } else { rng.gen_range(0u32..5) };
    match edit {
        // Replace one character.
        0 => {
            let i = rng.gen_range(0..out.len());
            out[i] = printable[rng.gen_range(0..printable.len())];
        }
        // Insert one character.
        1 => {
            let i = rng.gen_range(0..=out.len());
            out.insert(i, printable[rng.gen_range(0..printable.len())]);
        }
        // Delete a short range.
        2 => {
            let i = rng.gen_range(0..out.len());
            let n = rng.gen_range(1..=16usize.min(out.len() - i));
            out.drain(i..i + n);
        }
        // Duplicate a short range in place.
        3 => {
            let i = rng.gen_range(0..out.len());
            let n = rng.gen_range(1..=16usize.min(out.len() - i));
            let dup: Vec<char> = out[i..i + n].to_vec();
            for (k, c) in dup.into_iter().enumerate() {
                out.insert(i + k, c);
            }
        }
        // Truncate (mid-construct EOF).
        _ => {
            let i = rng.gen_range(0..out.len());
            out.truncate(i);
        }
    }
    out.into_iter().collect()
}

/// Applies one random token-level corruption: the source is split on
/// whitespace and a token is replaced, deleted, duplicated, or swapped.
fn corrupt_tokens(rng: &mut Rng, src: &str) -> String {
    let mut toks: Vec<&str> = src.split_whitespace().collect();
    if toks.is_empty() {
        return String::new();
    }
    match rng.gen_range(0u32..4) {
        0 => {
            let i = rng.gen_range(0..toks.len());
            toks[i] = TOKENS[rng.gen_range(0..TOKENS.len())];
        }
        1 => {
            let i = rng.gen_range(0..toks.len());
            toks.remove(i);
        }
        2 => {
            let i = rng.gen_range(0..toks.len());
            toks.insert(i, TOKENS[rng.gen_range(0..TOKENS.len())]);
        }
        _ => {
            let i = rng.gen_range(0..toks.len());
            let j = rng.gen_range(0..toks.len());
            toks.swap(i, j);
        }
    }
    toks.join(" ")
}

/// Destructures any `Parse*` variant into its format and location; panics
/// on every other variant (the front-ends must map *all* failures —
/// lexical, syntactic, structural, even constructed cycles — onto
/// located parse errors).
fn parse_location(err: &NetlistError) -> (SourceFormat, &SrcLoc) {
    match err {
        NetlistError::ParseSyntax { format, at, .. }
        | NetlistError::ParseUnknownName { format, at, .. }
        | NetlistError::ParseUnknownCell { format, at, .. }
        | NetlistError::ParseUnsupported { format, at, .. }
        | NetlistError::ParseMultipleDrivers { format, at, .. }
        | NetlistError::ParseUndriven { format, at, .. } => (*format, at),
        other => panic!("front-end surfaced a non-parse error: {other:?}"),
    }
}

/// The error location must point inside the corrupted source: a 1-based
/// line no further than one past the last line (EOF errors), and a
/// 1-based column no further than one past that line's end.
fn assert_loc_in_bounds(name: &str, src: &str, err: &NetlistError) {
    let (_, at) = parse_location(err);
    let n_lines = src.lines().count();
    assert!(
        at.line >= 1 && at.line <= n_lines.max(1) + 1,
        "{name}: line {} out of bounds (source has {n_lines} lines)\nerror: {err}",
        at.line
    );
    let line = src.lines().nth(at.line - 1).unwrap_or("");
    assert!(
        at.col >= 1 && at.col <= line.chars().count() + 1,
        "{name}: column {} out of bounds on line {} ({} chars)\nerror: {err}",
        at.col,
        at.line,
        line.chars().count()
    );
}

/// Feeds one corrupted source through the explicit front-end and the
/// auto-sniffing entry point; a panic anywhere fails the whole test.
fn check_one(name: &str, src: &str, format: SourceFormat) {
    if let Err(err) = ingest_str(src, format) {
        assert_loc_in_bounds(name, src, &err);
    }
    // The sniffer may route the corrupted text to a different front-end;
    // whichever one runs must still fail with a located parse error.
    if let Err(err) = ingest_auto(None, src) {
        assert_loc_in_bounds(name, src, &err);
    }
}

#[test]
fn byte_corruptions_never_panic_and_errors_stay_located() {
    Check::new("byte_corruptions_never_panic").cases(96).run(|rng| {
        for (name, src, format) in CORPUS {
            let mut s = src.to_string();
            // Stack up to three corruptions so errors surface in states a
            // single edit cannot reach.
            for _ in 0..rng.gen_range(1u32..=3) {
                s = corrupt_bytes(rng, &s);
            }
            check_one(name, &s, *format);
        }
    });
}

#[test]
fn token_corruptions_never_panic_and_errors_stay_located() {
    Check::new("token_corruptions_never_panic").cases(96).run(|rng| {
        for (name, src, format) in CORPUS {
            let mut s = src.to_string();
            for _ in 0..rng.gen_range(1u32..=2) {
                s = corrupt_tokens(rng, &s);
            }
            check_one(name, &s, *format);
        }
    });
}

/// The uncorrupted corpus still parses — guards against the fuzz fixture
/// set silently rotting.
#[test]
fn pristine_corpus_parses() {
    for (name, src, format) in CORPUS {
        ingest_str(src, *format).unwrap_or_else(|e| panic!("{name} no longer parses: {e}"));
    }
}

/// Degenerate inputs every lexer must survive.
#[test]
fn degenerate_inputs_are_rejected_gracefully() {
    for src in ["", " ", "\n\n\n", "(", ")", "module", "(edif", "\u{fffd}", "((((((((("] {
        for format in [SourceFormat::Verilog, SourceFormat::Edif, SourceFormat::NativeNl] {
            if let Err(err) = ingest_str(src, format) {
                assert_loc_in_bounds("degenerate", src, &err);
            }
        }
    }
}
