//! Structural-Verilog emitter: the inverse of [`super::verilog`].
//!
//! [`emit_verilog`] prints any [`Netlist`] as a single structural module
//! in the subset `docs/FORMATS.md` specifies, such that re-parsing the
//! emitted text reproduces the netlist: same node kinds and fanins at
//! the same arena indices (for netlists whose primary inputs precede all
//! other nodes, which every front-end and generator in this workspace
//! guarantees), identical input/output names, groups, and flip-flop init
//! values. Internal net names are preserved when they are printable and
//! unique; otherwise they are normalized to `_n<index>`.

use std::collections::{HashMap, HashSet};

use crate::library::GateKind;
use crate::netlist::{Netlist, NodeId, NodeKind};

/// Verilog keywords that cannot be used as plain identifiers.
const KEYWORDS: &[&str] = &[
    "module",
    "macromodule",
    "endmodule",
    "input",
    "output",
    "inout",
    "wire",
    "reg",
    "assign",
    "and",
    "or",
    "nand",
    "nor",
    "xor",
    "xnor",
    "not",
    "buf",
    "always",
    "always_ff",
    "always_comb",
    "initial",
    "parameter",
    "localparam",
    "defparam",
    "specify",
    "primitive",
    "task",
    "function",
    "generate",
];

fn is_plain_ident(s: &str) -> bool {
    let mut chars = s.chars();
    let Some(head) = chars.next() else { return false };
    (head.is_ascii_alphabetic() || head == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$')
        && !KEYWORDS.contains(&s)
}

/// Splits `base[bit]` names (the shape `input_bus`/`output_bus` produce).
pub(crate) fn split_bus_bit(s: &str) -> Option<(&str, u64)> {
    let open = s.find('[')?;
    let (base, rest) = s.split_at(open);
    let digits = rest.strip_prefix('[')?.strip_suffix(']')?;
    if !is_plain_ident(base) || digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((base, digits.parse().ok()?))
}

/// `true` for names the emitter reserves for normalized nets.
fn is_reserved(s: &str) -> bool {
    s.strip_prefix("_n").is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
}

/// How a net is written at its references (must match its declaration).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ref {
    /// A plain identifier.
    Plain(String),
    /// A bit-select of a declared vector.
    Select(String, u64),
    /// An escaped identifier (`\name ` — the trailing space is part of
    /// the token).
    Escaped(String),
}

impl Ref {
    fn scalar(name: &str) -> Ref {
        if is_plain_ident(name) {
            Ref::Plain(name.to_string())
        } else {
            // Escaped identifiers end at whitespace, so embedded
            // whitespace cannot survive; normalize it away.
            Ref::Escaped(name.replace(char::is_whitespace, "_"))
        }
    }

    fn render(&self) -> String {
        match self {
            Ref::Plain(s) => s.clone(),
            Ref::Select(b, i) => format!("{b}[{i}]"),
            Ref::Escaped(s) => format!("\\{s} "),
        }
    }
}

/// The net name [`emit_verilog`] uses for every node, indexed by arena
/// position.
///
/// A node keeps its own [`Netlist::name`] when it is present, printable
/// (no embedded whitespace problems once escaped), unique, and not of
/// the reserved `_n<digits>` shape; every other node is named
/// `_n<index>`. Tests use this to map original node ids onto the
/// re-parsed netlist by name.
pub fn emitted_net_names(nl: &Netlist) -> Vec<String> {
    let mut used: HashSet<String> = HashSet::new();
    let mut names: Vec<String> = Vec::with_capacity(nl.node_count());
    for id in nl.node_ids() {
        let fallback = format!("_n{}", id.index());
        let name = match nl.name(id) {
            Some(n)
                if !n.is_empty()
                    && !n.contains(char::is_whitespace)
                    && !is_reserved(n)
                    && !used.contains(n) =>
            {
                n.to_string()
            }
            _ => fallback,
        };
        used.insert(name.clone());
        names.push(name);
    }
    // An alias output (`assign y = net;`) declares `y` at module scope;
    // an unrelated net with the same name would collide, so normalize it.
    let mut reserved_decls: HashSet<String> = HashSet::new();
    for (oname, onode) in nl.outputs() {
        if &names[onode.index()] != oname {
            match split_bus_bit(oname) {
                Some((base, _)) => reserved_decls.insert(base.to_string()),
                None => reserved_decls.insert(oname.clone()),
            };
        }
    }
    for id in nl.node_ids() {
        let i = id.index();
        let is_input = matches!(nl.kind(id), NodeKind::Input);
        if !is_input && reserved_decls.contains(&names[i]) {
            names[i] = format!("_n{i}");
        }
    }
    names
}

/// One planned port declaration.
enum PortDecl {
    Scalar { name: Ref, group: Option<String> },
    Vector { base: String, lo: u64, hi: u64, group: Option<String> },
}

impl PortDecl {
    fn header_name(&self) -> String {
        match self {
            PortDecl::Scalar { name, .. } => name.render(),
            PortDecl::Vector { base, .. } => base.clone(),
        }
    }

    fn render(&self, dir: &str) -> String {
        let attr = |g: &Option<String>| match g {
            Some(g) => format!("(* group = \"{g}\" *) "),
            None => String::new(),
        };
        match self {
            PortDecl::Scalar { name, group } => {
                // No trimming: an escaped identifier's trailing space is
                // part of the token and must separate it from the `;`.
                format!("  {}{dir} {};", attr(group), name.render())
            }
            PortDecl::Vector { base, lo, hi, group } => {
                format!("  {}{dir} [{hi}:{lo}] {base};", attr(group))
            }
        }
    }
}

/// Emits `nl` as one structural-Verilog module named `module_name`.
///
/// The body lists instances in arena order, which is what makes an
/// emit→parse round trip reproduce node indices (see the module docs).
/// Vector ports are reconstructed from `base[i]` name runs; everything
/// else is declared scalar, escaping identifiers where needed.
pub fn emit_verilog(nl: &Netlist, module_name: &str) -> String {
    let names = emitted_net_names(nl);
    let group_of = |id: NodeId| nl.node_group(id).map(|g| nl.group_name(g).to_string());

    // Plan input declarations: maximal runs of `base[k]` names that are
    // consecutive in input order, contiguous and ascending in k, and
    // share one group, become vector declarations.
    let mut input_decls: Vec<PortDecl> = Vec::new();
    let mut styles: HashMap<usize, Ref> = HashMap::new();
    let ins = nl.inputs();
    let mut i = 0;
    while i < ins.len() {
        let id = ins[i];
        let name = &names[id.index()];
        let group = group_of(id);
        match split_bus_bit(name) {
            Some((base, lo)) => {
                let mut hi = lo;
                let mut run = vec![id];
                while i + run.len() < ins.len() {
                    let next = ins[i + run.len()];
                    match split_bus_bit(&names[next.index()]) {
                        Some((b, k)) if b == base && k == hi + 1 && group_of(next) == group => {
                            hi = k;
                            run.push(next);
                        }
                        _ => break,
                    }
                }
                for (off, &rid) in run.iter().enumerate() {
                    styles.insert(rid.index(), Ref::Select(base.to_string(), lo + off as u64));
                }
                input_decls.push(PortDecl::Vector { base: base.to_string(), lo, hi, group });
                i += run.len();
            }
            None => {
                styles.insert(id.index(), Ref::scalar(name));
                input_decls.push(PortDecl::Scalar { name: Ref::scalar(name), group });
                i += 1;
            }
        }
    }

    // Plan output declarations the same way over the outputs list. An
    // output whose name matches its driver's net name (and whose driver
    // is not a primary input) is driven directly; others get an alias
    // `assign` after the body.
    let mut output_decls: Vec<PortDecl> = Vec::new();
    let mut aliases: Vec<(Ref, NodeId)> = Vec::new();
    let outs = nl.outputs();
    let mut direct: HashSet<usize> = HashSet::new();
    let mut o = 0;
    while o < outs.len() {
        let (oname, _) = &outs[o];
        match split_bus_bit(oname) {
            Some((base, lo)) => {
                let mut hi = lo;
                let mut count = 1;
                while o + count < outs.len() {
                    match split_bus_bit(&outs[o + count].0) {
                        Some((b, k)) if b == base && k == hi + 1 => {
                            hi = k;
                            count += 1;
                        }
                        _ => break,
                    }
                }
                for (bit, (on, onode)) in (lo..=hi).zip(&outs[o..o + count]) {
                    let r = Ref::Select(base.to_string(), bit);
                    let idx = onode.index();
                    if &names[idx] == on
                        && !matches!(nl.kind(*onode), NodeKind::Input)
                        && !direct.contains(&idx)
                    {
                        direct.insert(idx);
                        styles.insert(idx, r);
                    } else {
                        aliases.push((r, *onode));
                    }
                }
                output_decls.push(PortDecl::Vector { base: base.to_string(), lo, hi, group: None });
                o += count;
            }
            None => {
                let (on, onode) = &outs[o];
                let r = Ref::scalar(on);
                let idx = onode.index();
                if &names[idx] == on
                    && !matches!(nl.kind(*onode), NodeKind::Input)
                    && !direct.contains(&idx)
                {
                    direct.insert(idx);
                    styles.insert(idx, r.clone());
                } else {
                    aliases.push((r.clone(), *onode));
                }
                output_decls.push(PortDecl::Scalar { name: r, group: None });
                o += 1;
            }
        }
    }

    // Everything else is a scalar wire.
    let mut wires: Vec<Ref> = Vec::new();
    for id in nl.node_ids() {
        let idx = id.index();
        if matches!(nl.kind(id), NodeKind::Input) || styles.contains_key(&idx) {
            continue;
        }
        let r = Ref::scalar(&names[idx]);
        styles.insert(idx, r.clone());
        wires.push(r);
    }
    let net = |id: NodeId| styles[&id.index()].render();

    let mut out = String::new();
    let ports: Vec<String> =
        input_decls.iter().chain(output_decls.iter()).map(PortDecl::header_name).collect();
    out.push_str(&format!("module {module_name} ({});\n", ports.join(", ")));
    for d in &input_decls {
        out.push_str(&d.render("input"));
        out.push('\n');
    }
    for d in &output_decls {
        out.push_str(&d.render("output"));
        out.push('\n');
    }
    for w in &wires {
        out.push_str(&format!("  wire {};\n", w.render()));
    }
    out.push('\n');

    for id in nl.node_ids() {
        let idx = id.index();
        let attr = {
            let mut parts: Vec<String> = Vec::new();
            if let Some(g) = group_of(id) {
                if !matches!(nl.kind(id), NodeKind::Input) {
                    parts.push(format!("group = \"{g}\""));
                }
            }
            if let NodeKind::Dff { init: true, .. } = nl.kind(id) {
                parts.push("init = 1'b1".to_string());
            }
            if parts.is_empty() {
                String::new()
            } else {
                format!("(* {} *) ", parts.join(", "))
            }
        };
        match nl.kind(id) {
            NodeKind::Input => {}
            NodeKind::Const(v) => {
                // Plain constants are assigns; grouped ones must be tie
                // cells, because `assign` cannot carry attributes.
                if attr.is_empty() {
                    out.push_str(&format!("  assign {}= 1'b{};\n", net(id), u8::from(*v)));
                } else {
                    out.push_str(&format!(
                        "  {attr}TIE{} g{idx} (.Y({}));\n",
                        u8::from(*v),
                        net(id)
                    ));
                }
            }
            NodeKind::Gate { kind: GateKind::Mux, inputs } => {
                out.push_str(&format!(
                    "  {attr}MUX2 g{idx} (.Y({}), .S({}), .A({}), .B({}));\n",
                    net(id),
                    net(inputs[0]),
                    net(inputs[1]),
                    net(inputs[2])
                ));
            }
            NodeKind::Gate { kind, inputs } => {
                let pins: Vec<String> =
                    std::iter::once(net(id)).chain(inputs.iter().map(|&n| net(n))).collect();
                out.push_str(&format!("  {attr}{} g{idx} ({});\n", kind.name(), pins.join(", ")));
            }
            NodeKind::Dff { d, .. } => {
                out.push_str(&format!("  {attr}DFF g{idx} (.Q({}), .D({}));\n", net(id), net(*d)));
            }
        }
    }
    for (r, node) in &aliases {
        out.push_str(&format!("  assign {}= {};\n", r.render(), net(*node)));
    }
    out.push_str("endmodule\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_preserved_or_normalized() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let g = nl.and([a, b]);
        nl.set_name(g, "and"); // a keyword: usable only escaped
        let h = nl.or([g, b]);
        let names = emitted_net_names(&nl);
        assert_eq!(names[a.index()], "a");
        assert_eq!(names[g.index()], "and");
        assert_eq!(names[h.index()], format!("_n{}", h.index()));
    }

    #[test]
    fn vector_runs_become_vector_ports() {
        let mut nl = Netlist::new();
        let bus = nl.input_bus("x", 3);
        let g = nl.xor([bus[0], bus[2]]);
        nl.set_output("y", g);
        let v = emit_verilog(&nl, "t");
        assert!(v.contains("input [2:0] x;"), "{v}");
        assert!(v.contains("x[0]"), "{v}");
        assert!(v.contains("output y;"), "{v}");
    }

    #[test]
    fn escaped_identifiers_round_trip_odd_names() {
        let mut nl = Netlist::new();
        let a = nl.input("data.0"); // not a plain identifier
        let g = nl.not(a);
        nl.set_output("q", g);
        let v = emit_verilog(&nl, "t");
        assert!(v.contains("\\data.0 "), "{v}");
        let back = crate::ingest::parse_verilog(&v).expect("parses");
        assert_eq!(back.name(back.inputs()[0]), Some("data.0"));
    }
}
