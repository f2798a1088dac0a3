//! Textual netlist interchange: a small BLIF-inspired structural format.
//!
//! One declaration per line:
//!
//! ```text
//! # comment
//! input a
//! const c0 0
//! gate  g1 and a b c0
//! dff   q1 g1 0
//! output y g1
//! group g1 control_logic
//! ```
//!
//! Node names are arbitrary identifiers; gates reference previously
//! declared nodes, with forward references allowed only for flip-flop
//! data inputs (matching the builder's feedback rule).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::error::{NetlistError, SourceFormat, SrcLoc};
use crate::ingest::lex::{self, Loc, Source, Word};
use crate::library::GateKind;
use crate::netlist::{Netlist, NodeId, NodeKind};

/// Errors from parsing the textual netlist format.
///
/// Every variant carries the 1-based line *and column* of the offending
/// token plus the source line it sits on, matching the positions the
/// Verilog/EDIF front-ends report (the `.nl` lexer is the same
/// [`crate::ingest::lex`] machinery). Convertible into the corresponding
/// [`NetlistError`] parse variants via `From`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseNetlistError {
    /// A line could not be parsed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the offending token.
        col: usize,
        /// The offending source line.
        snippet: String,
        /// Explanation.
        reason: String,
    },
    /// A referenced node name was never declared.
    UnknownName {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the undeclared name.
        col: usize,
        /// The offending source line.
        snippet: String,
        /// The undeclared name.
        name: String,
    },
}

impl fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseNetlistError::Malformed { line, col, snippet, reason } => {
                write!(f, "netlist line {line}, column {col}: {reason} (`{snippet}`)")
            }
            ParseNetlistError::UnknownName { line, col, snippet, name } => {
                write!(f, "netlist line {line}, column {col}: unknown node '{name}' (`{snippet}`)")
            }
        }
    }
}

impl Error for ParseNetlistError {}

impl From<ParseNetlistError> for NetlistError {
    fn from(e: ParseNetlistError) -> NetlistError {
        match e {
            ParseNetlistError::Malformed { line, col, snippet, reason } => {
                NetlistError::ParseSyntax {
                    format: SourceFormat::NativeNl,
                    at: SrcLoc { line, col, snippet },
                    message: reason,
                }
            }
            ParseNetlistError::UnknownName { line, col, snippet, name } => {
                NetlistError::ParseUnknownName {
                    format: SourceFormat::NativeNl,
                    at: SrcLoc { line, col, snippet },
                    name,
                }
            }
        }
    }
}

fn gate_kind_by_name(name: &str) -> Option<GateKind> {
    GateKind::all().into_iter().find(|k| k.name() == name)
}

/// Serializes a netlist to the textual format. Node names are synthesized
/// as `n<index>` unless the node carries a name.
pub fn write_netlist(nl: &Netlist) -> String {
    let name_of = |id: NodeId| -> String {
        match nl.name(id) {
            // Escape whitespace-unsafe names by index fallback.
            Some(n) if !n.contains(char::is_whitespace) => n.to_string(),
            _ => format!("n{}", id.index()),
        }
    };
    let mut out = String::new();
    for id in nl.node_ids() {
        match nl.kind(id) {
            NodeKind::Input => out.push_str(&format!("input {}\n", name_of(id))),
            NodeKind::Const(v) => out.push_str(&format!("const {} {}\n", name_of(id), *v as u8)),
            NodeKind::Gate { kind, inputs } => {
                out.push_str(&format!("gate {} {}", name_of(id), kind.name()));
                for i in inputs {
                    out.push_str(&format!(" {}", name_of(*i)));
                }
                out.push('\n');
            }
            NodeKind::Dff { d, init } => {
                out.push_str(&format!("dff {} {} {}\n", name_of(id), name_of(*d), *init as u8))
            }
        }
        if let Some(g) = nl.node_group(id) {
            out.push_str(&format!(
                "group {} {}\n",
                name_of(id),
                nl.group_name(g).replace(char::is_whitespace, "_")
            ));
        }
    }
    for (name, node) in nl.outputs() {
        out.push_str(&format!(
            "output {} {}\n",
            name.replace(char::is_whitespace, "_"),
            name_of(*node)
        ));
    }
    out
}

/// Parses the textual format back into a [`Netlist`].
///
/// # Errors
///
/// Returns [`ParseNetlistError`] on any syntax or reference problem,
/// pointing at the offending token (line, column, and source line).
pub fn parse_netlist(text: &str) -> Result<Netlist, ParseNetlistError> {
    let mut nl = Netlist::new();
    let mut names: HashMap<&str, NodeId> = HashMap::new();
    let src = Source::new(text);
    let malformed = |loc: Loc, reason: String| {
        let SrcLoc { line, col, snippet } = src.locate(loc);
        ParseNetlistError::Malformed { line, col, snippet, reason }
    };
    let unknown = |w: &Word| {
        let SrcLoc { line, col, snippet } = src.locate(w.loc);
        ParseNetlistError::UnknownName { line, col, snippet, name: w.text.to_string() }
    };
    // Flip-flops may reference nodes declared later: collect fixups.
    let mut dff_fixups: Vec<(Word, NodeId)> = Vec::new();
    for (_lineno, words) in lex::lines_of_words(text) {
        let head = &words[0];
        match head.text {
            "input" => {
                let name = words
                    .get(1)
                    .ok_or_else(|| malformed(head.loc, "input needs a name".to_string()))?;
                nl.check_port(name.text, true).map_err(|m| malformed(name.loc, m))?;
                let id = nl.input(name.text);
                names.insert(name.text, id);
            }
            "const" => {
                if words.len() != 3 {
                    return Err(malformed(head.loc, "const needs a name and 0/1".to_string()));
                }
                let v = match words[2].text {
                    "0" => false,
                    "1" => true,
                    _ => {
                        return Err(malformed(
                            words[2].loc,
                            "const value must be 0 or 1".to_string(),
                        ))
                    }
                };
                let id = nl.constant(v);
                names.insert(words[1].text, id);
            }
            "gate" => {
                if words.len() < 4 {
                    return Err(malformed(head.loc, "gate needs name, kind, inputs".to_string()));
                }
                let kind = gate_kind_by_name(words[2].text).ok_or_else(|| {
                    malformed(words[2].loc, format!("unknown gate kind '{}'", words[2].text))
                })?;
                let mut inputs = Vec::new();
                for w in &words[3..] {
                    inputs.push(*names.get(w.text).ok_or_else(|| unknown(w))?);
                }
                let id = nl.gate(kind, inputs).map_err(|e| malformed(head.loc, e.to_string()))?;
                nl.set_name(id, words[1].text);
                names.insert(words[1].text, id);
            }
            "dff" => {
                if words.len() != 4 {
                    return Err(malformed(
                        head.loc,
                        "dff needs name, data input, init".to_string(),
                    ));
                }
                let init = match words[3].text {
                    "0" => false,
                    "1" => true,
                    _ => {
                        return Err(malformed(words[3].loc, "dff init must be 0 or 1".to_string()))
                    }
                };
                let q = nl.dff_placeholder(init);
                nl.set_name(q, words[1].text);
                names.insert(words[1].text, q);
                dff_fixups.push((words[2], q));
            }
            "output" => {
                if words.len() != 3 {
                    return Err(malformed(head.loc, "output needs a name and a node".to_string()));
                }
                let id = *names.get(words[2].text).ok_or_else(|| unknown(&words[2]))?;
                nl.check_port(words[1].text, false).map_err(|m| malformed(words[1].loc, m))?;
                nl.set_output(words[1].text, id);
            }
            "group" => {
                if words.len() != 3 {
                    return Err(malformed(
                        head.loc,
                        "group needs a node and a group name".to_string(),
                    ));
                }
                let id = *names.get(words[1].text).ok_or_else(|| unknown(&words[1]))?;
                let g = nl.group(words[2].text);
                nl.set_node_group(id, g);
            }
            other => return Err(malformed(head.loc, format!("unknown declaration '{other}'"))),
        }
    }
    for (w, q) in dff_fixups {
        let d = *names.get(w.text).ok_or_else(|| unknown(&w))?;
        nl.connect_dff_d(q, d);
    }
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::streams;
    use crate::ZeroDelaySim;

    #[test]
    fn round_trip_combinational() {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", 4);
        let b = nl.input_bus("b", 4);
        let zero = nl.constant(false);
        let s = gen::ripple_adder(&mut nl, &a, &b, zero);
        nl.output_bus("s", &s);
        let text = write_netlist(&nl);
        let back = parse_netlist(&text).expect("well-formed");
        assert_eq!(back.input_count(), nl.input_count());
        assert_eq!(back.gate_count(), nl.gate_count());
        let vecs: Vec<Vec<bool>> = streams::random(1, 8).take(200).collect();
        let mut s1 = ZeroDelaySim::new(&nl).expect("acyclic");
        let mut s2 = ZeroDelaySim::new(&back).expect("acyclic");
        for v in &vecs {
            assert_eq!(
                s1.eval_combinational(v).expect("width"),
                s2.eval_combinational(v).expect("width")
            );
        }
    }

    #[test]
    fn round_trip_sequential_with_feedback() {
        // q = dff(xor(q, en)): a toggle register with feedback.
        let mut nl = Netlist::new();
        let en = nl.input("en");
        let q = nl.dff_placeholder(false);
        let d = nl.xor([q, en]);
        nl.connect_dff_d(q, d);
        nl.set_output("q", q);
        let text = write_netlist(&nl);
        let back = parse_netlist(&text).expect("well-formed");
        let mut s1 = ZeroDelaySim::new(&nl).expect("ok");
        let mut s2 = ZeroDelaySim::new(&back).expect("ok");
        for v in [true, false, true, true, false, true] {
            s1.step(&[v]).expect("width");
            s2.step(&[v]).expect("width");
            assert_eq!(s1.output_values(), s2.output_values());
        }
    }

    #[test]
    fn groups_survive_round_trip() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let y = nl.with_group("control logic", |nl| nl.and([a, b]));
        nl.set_output("y", y);
        let back = parse_netlist(&write_netlist(&nl)).expect("well-formed");
        let yid = back.outputs()[0].1;
        assert_eq!(back.group_name(back.node_group(yid).expect("grouped")), "control_logic");
    }

    #[test]
    fn parse_errors_carry_lines() {
        assert!(matches!(
            parse_netlist("input a\nfrobnicate x\n"),
            Err(ParseNetlistError::Malformed { line: 2, .. })
        ));
        assert!(matches!(
            parse_netlist("gate g and x y\n"),
            Err(ParseNetlistError::UnknownName { line: 1, .. })
        ));
        assert!(matches!(
            parse_netlist("input a\ngate g frob a a\n"),
            Err(ParseNetlistError::Malformed { line: 2, .. })
        ));
    }

    #[test]
    fn parse_errors_carry_columns_and_snippets() {
        // The undeclared name is the fifth word: column 14 of line 2.
        match parse_netlist("input a\ngate g and a ghost\n").unwrap_err() {
            ParseNetlistError::UnknownName { line, col, snippet, name } => {
                assert_eq!((line, col), (2, 14));
                assert_eq!(snippet, "gate g and a ghost");
                assert_eq!(name, "ghost");
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // The bad gate kind points at the kind word, not the line start.
        match parse_netlist("input a\n  gate g frob a a\n").unwrap_err() {
            ParseNetlistError::Malformed { line, col, snippet, .. } => {
                assert_eq!((line, col), (2, 10));
                assert_eq!(snippet, "  gate g frob a a");
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // Conversion into the shared error type preserves the position.
        let e: crate::NetlistError = parse_netlist("const c0 2\n").unwrap_err().into();
        match e {
            crate::NetlistError::ParseSyntax { format, at, .. } => {
                assert_eq!(format, crate::SourceFormat::NativeNl);
                assert_eq!((at.line, at.col), (1, 10));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn duplicate_port_names_are_malformed() {
        // A second input of one name points at the repeated name.
        match parse_netlist("input a\ninput a\n").unwrap_err() {
            ParseNetlistError::Malformed { line, col, .. } => assert_eq!((line, col), (2, 7)),
            other => panic!("wrong variant: {other:?}"),
        }
        // An output may not take an input's name, nor a bus bit of it.
        match parse_netlist("input a\noutput a a\n").unwrap_err() {
            ParseNetlistError::Malformed { line, col, .. } => assert_eq!((line, col), (2, 8)),
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(matches!(
            parse_netlist("input a[0]\noutput a[1] a[0]\n"),
            Err(ParseNetlistError::Malformed { line: 2, .. })
        ));
        // Sniffed source text (the server's path) gets the same error.
        assert!(matches!(
            crate::ingest_auto(None, "input a\ninput a\n"),
            Err(crate::NetlistError::ParseSyntax { .. })
        ));
        // Distinct bits of one bus, one direction, are fine.
        let nl = parse_netlist("input a[0]\ninput a[1]\noutput y a[1]\n").expect("well-formed");
        assert_eq!((nl.input_count(), nl.outputs().len()), (2, 1));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\ninput a\n  # indented comment\noutput y a\n";
        let nl = parse_netlist(text).expect("well-formed");
        assert_eq!(nl.input_count(), 1);
        assert_eq!(nl.outputs().len(), 1);
    }
}
