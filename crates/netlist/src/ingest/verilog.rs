//! Structural-Verilog front-end.
//!
//! Parses the gate-level subset specified in `docs/FORMATS.md`: one
//! `module` with scalar/vector `input`/`output`/`wire` declarations,
//! gate-primitive instantiations (`and`, `or`, `nand`, `nor`, `xor`,
//! `xnor`, `not`, `buf`), library-cell instantiations resolved through
//! [`super::cells::cell_func`] (including `DFF` and `MUX2` with named
//! ports), alias/constant `assign`s, and `(* group = "..." *)` /
//! `(* init = 1'b1 *)` attributes. Everything else is rejected with a
//! structured [`NetlistError`] carrying line, column, and a snippet.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::error::{NetlistError, SourceFormat};
use crate::ingest::build::{self, BuildInput, BuildItem, SlotRef};
use crate::ingest::cells::{cell_func, port_role, CellFunc, PortRole};
use crate::ingest::lex::{tokenize_verilog, Loc, Source, Tok, Token};
use crate::netlist::Netlist;

const FORMAT: SourceFormat = SourceFormat::Verilog;

/// Parses the structural-Verilog subset into a [`Netlist`].
///
/// # Errors
///
/// Every rejection is a structured [`NetlistError`] parse variant with
/// line/column and a source snippet; `docs/FORMATS.md` specifies which
/// violation raises which variant.
pub fn parse_verilog(src: &str) -> Result<Netlist, NetlistError> {
    let src = Source::new(src);
    build::build(FORMAT, &src, build_input(&src)?)
}

/// Parses `src` into the intermediate form [`build::build`] lowers.
pub(crate) fn build_input<'a>(src: &Source<'a>) -> Result<BuildInput<'a>, NetlistError> {
    let toks = tokenize_verilog(src)?;
    let mut p = Parser { src, toks, pos: 0 };
    let ast = p.parse_module()?;
    lower(src, ast)
}

/// A net reference: a scalar name or one bit of a vector.
#[derive(Debug, Clone, Copy)]
struct NetRef<'a> {
    base: &'a str,
    bit: Option<u64>,
    loc: Loc,
}

/// A pin/assign connection.
#[derive(Debug, Clone, Copy)]
enum Conn<'a> {
    Net(NetRef<'a>),
    Const(bool, Loc),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Input,
    Output,
    Wire,
}

/// Attributes collected from `(* ... *)` before an item.
#[derive(Debug, Clone, Copy, Default)]
struct Attrs<'a> {
    group: Option<&'a str>,
    init: Option<bool>,
}

#[derive(Debug, Clone)]
enum Item<'a> {
    Decl { dir: Dir, range: Option<(u64, u64)>, names: Vec<(&'a str, Loc)>, attrs: Attrs<'a> },
    Assign { lhs: NetRef<'a>, rhs: Conn<'a> },
    Inst { cell: &'a str, cell_loc: Loc, conns: Conns<'a>, attrs: Attrs<'a> },
}

#[derive(Debug, Clone)]
enum Conns<'a> {
    Positional(Vec<Conn<'a>>),
    Named(Vec<(&'a str, Loc, Conn<'a>)>),
}

struct Parser<'s, 'a> {
    src: &'s Source<'a>,
    toks: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'_, 'a> {
    fn peek(&self) -> Token<'a> {
        self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn bump(&mut self) -> Token<'a> {
        let t = self.peek();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn syntax(&self, loc: Loc, message: String) -> NetlistError {
        syntax(self.src, loc, message)
    }

    fn unsupported(&self, loc: Loc, construct: &str) -> NetlistError {
        NetlistError::ParseUnsupported {
            format: FORMAT,
            at: self.src.locate(loc),
            construct: construct.to_string(),
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<Loc, NetlistError> {
        let t = self.bump();
        if t.tok == Tok::Punct(c) {
            Ok(t.loc)
        } else {
            Err(self.syntax(t.loc, format!("expected `{c}`, found {}", t.tok.describe())))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(&'a str, Loc), NetlistError> {
        let t = self.bump();
        match t.tok {
            Tok::Ident(s) => Ok((s, t.loc)),
            other => {
                Err(self.syntax(t.loc, format!("expected {what}, found {}", other.describe())))
            }
        }
    }

    fn expect_num(&mut self, what: &str) -> Result<(u64, Loc), NetlistError> {
        let t = self.bump();
        match t.tok {
            Tok::Num(n) => Ok((n, t.loc)),
            other => {
                Err(self.syntax(t.loc, format!("expected {what}, found {}", other.describe())))
            }
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek().tok == Tok::Punct(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Parses `(* name = value, ... *)` groups into an [`Attrs`].
    fn parse_attrs(&mut self) -> Result<Attrs<'a>, NetlistError> {
        let mut attrs = Attrs::default();
        while self.peek().tok == Tok::AttrOpen {
            self.bump();
            loop {
                let (name, nloc) = self.expect_ident("attribute name")?;
                let value = if self.eat_punct('=') {
                    let t = self.bump();
                    match t.tok {
                        Tok::Str(s) => AttrValue::Str(s),
                        Tok::Num(n) => AttrValue::Bit(n != 0),
                        Tok::Based(b) => AttrValue::Bit(parse_based_bit(b).ok_or_else(|| {
                            self.syntax(t.loc, format!("attribute literal `{b}` is not 1'b0/1'b1"))
                        })?),
                        other => {
                            return Err(self.syntax(
                                t.loc,
                                format!("expected attribute value, found {}", other.describe()),
                            ))
                        }
                    }
                } else {
                    AttrValue::Bit(true)
                };
                match (name, value) {
                    ("group", AttrValue::Str(s)) => attrs.group = Some(s),
                    ("group", AttrValue::Bit(_)) => {
                        return Err(self.syntax(
                            nloc,
                            "the `group` attribute takes a string value".to_string(),
                        ))
                    }
                    ("init", AttrValue::Bit(b)) => attrs.init = Some(b),
                    ("init", AttrValue::Str(_)) => {
                        return Err(self
                            .syntax(nloc, "the `init` attribute takes 1'b0 or 1'b1".to_string()))
                    }
                    // Unknown attributes are accepted and ignored.
                    _ => {}
                }
                if !self.eat_punct(',') {
                    break;
                }
            }
            let t = self.bump();
            if t.tok != Tok::AttrClose {
                return Err(
                    self.syntax(t.loc, format!("expected `*)`, found {}", t.tok.describe()))
                );
            }
        }
        Ok(attrs)
    }

    fn parse_net_ref(&mut self) -> Result<NetRef<'a>, NetlistError> {
        let (base, loc) = self.expect_ident("a net name")?;
        let bit = if self.eat_punct('[') {
            let (n, _) = self.expect_num("a bit index")?;
            self.expect_punct(']')?;
            Some(n)
        } else {
            None
        };
        Ok(NetRef { base, bit, loc })
    }

    fn parse_conn(&mut self) -> Result<Conn<'a>, NetlistError> {
        let t = self.peek();
        match t.tok {
            Tok::Based(b) => {
                let bit = parse_based_bit(b).ok_or_else(|| {
                    self.syntax(
                        t.loc,
                        format!("literal `{b}` is not supported; only 1'b0 and 1'b1 connect"),
                    )
                })?;
                self.bump();
                Ok(Conn::Const(bit, t.loc))
            }
            Tok::Ident(_) => Ok(Conn::Net(self.parse_net_ref()?)),
            other => {
                Err(self
                    .syntax(t.loc, format!("expected a connection, found {}", other.describe())))
            }
        }
    }

    fn parse_module(&mut self) -> Result<Vec<Item<'a>>, NetlistError> {
        // Attributes on the module itself are accepted and ignored.
        self.parse_attrs()?;
        let (kw, kloc) = self.expect_ident("`module`")?;
        if kw != "module" {
            return Err(self.syntax(kloc, format!("expected `module`, found `{kw}`")));
        }
        let _ = self.expect_ident("the module name")?;
        // The header port list only repeats names that must be declared
        // with `input`/`output` in the body; it is parsed and discarded.
        if self.eat_punct('(') {
            if self.peek().tok != Tok::Punct(')') {
                loop {
                    self.expect_ident("a port name")?;
                    if !self.eat_punct(',') {
                        break;
                    }
                }
            }
            self.expect_punct(')')?;
        }
        self.expect_punct(';')?;

        let mut items = Vec::new();
        loop {
            let attrs = self.parse_attrs()?;
            let t = self.peek();
            let (word, loc) = match t.tok {
                Tok::Ident(s) => (s, t.loc),
                Tok::Eof => {
                    return Err(
                        self.syntax(t.loc, "expected `endmodule`, found end of input".into())
                    )
                }
                other => {
                    return Err(self.syntax(
                        t.loc,
                        format!("expected a statement, found {}", other.describe()),
                    ))
                }
            };
            match word {
                "endmodule" => {
                    self.bump();
                    break;
                }
                "input" | "output" | "wire" | "reg" => {
                    self.bump();
                    let dir = match word {
                        "input" => Dir::Input,
                        "output" => Dir::Output,
                        _ => Dir::Wire,
                    };
                    let range = if self.eat_punct('[') {
                        let (msb, _) = self.expect_num("the range msb")?;
                        self.expect_punct(':')?;
                        let (lsb, _) = self.expect_num("the range lsb")?;
                        self.expect_punct(']')?;
                        Some((msb.min(lsb), msb.max(lsb)))
                    } else {
                        None
                    };
                    let mut names = Vec::new();
                    loop {
                        let (n, nloc) = self.expect_ident("a net name")?;
                        names.push((n, nloc));
                        if !self.eat_punct(',') {
                            break;
                        }
                    }
                    self.expect_punct(';')?;
                    items.push(Item::Decl { dir, range, names, attrs });
                }
                "inout" => return Err(self.unsupported(loc, "inout ports")),
                "assign" => {
                    self.bump();
                    let lhs = self.parse_net_ref()?;
                    self.expect_punct('=')?;
                    let rhs = self.parse_conn()?;
                    // Any operator after the rhs means an expression.
                    if self.peek().tok != Tok::Punct(';') {
                        let t = self.peek();
                        return Err(self.unsupported(
                            t.loc,
                            "expressions in assign (only aliases and 1'b0/1'b1 constants)",
                        ));
                    }
                    self.expect_punct(';')?;
                    items.push(Item::Assign { lhs, rhs });
                }
                "always" | "initial" | "always_ff" | "always_comb" => {
                    return Err(self.unsupported(loc, "behavioral blocks (always/initial)"))
                }
                "specify" | "primitive" | "task" | "function" | "generate" => {
                    return Err(self.unsupported(loc, "non-structural module items"))
                }
                "parameter" | "localparam" | "defparam" => {
                    return Err(self.unsupported(loc, "parameter declarations"))
                }
                "module" | "macromodule" => {
                    return Err(self.unsupported(loc, "more than one module per file"))
                }
                _ => {
                    // A gate-primitive or library-cell instantiation.
                    self.bump();
                    if self.peek().tok == Tok::Punct('#') {
                        let t = self.peek();
                        return Err(self.unsupported(t.loc, "parameter/delay lists (`#`)"));
                    }
                    // Optional instance name (required in real netlists,
                    // optional on primitives).
                    if let Tok::Ident(_) = self.peek().tok {
                        self.bump();
                    }
                    self.expect_punct('(')?;
                    let conns = if self.peek().tok == Tok::Punct('.') {
                        let mut named = Vec::new();
                        loop {
                            self.expect_punct('.')?;
                            let (port, ploc) = self.expect_ident("a port name")?;
                            self.expect_punct('(')?;
                            if self.peek().tok == Tok::Punct(')') {
                                let t = self.peek();
                                return Err(self.unsupported(t.loc, "unconnected pins"));
                            }
                            let conn = self.parse_conn()?;
                            self.expect_punct(')')?;
                            named.push((port, ploc, conn));
                            if !self.eat_punct(',') {
                                break;
                            }
                        }
                        Conns::Named(named)
                    } else {
                        let mut conns = Vec::new();
                        loop {
                            conns.push(self.parse_conn()?);
                            if !self.eat_punct(',') {
                                break;
                            }
                        }
                        Conns::Positional(conns)
                    };
                    self.expect_punct(')')?;
                    self.expect_punct(';')?;
                    items.push(Item::Inst { cell: word, cell_loc: loc, conns, attrs });
                }
            }
        }
        let t = self.peek();
        if t.tok != Tok::Eof {
            return Err(self.unsupported(t.loc, "more than one module per file"));
        }
        Ok(items)
    }
}

enum AttrValue<'a> {
    Str(&'a str),
    Bit(bool),
}

fn parse_based_bit(b: &str) -> Option<bool> {
    match b {
        "1'b0" | "1'B0" | "1'h0" | "1'd0" => Some(false),
        "1'b1" | "1'B1" | "1'h1" | "1'd1" => Some(true),
        _ => None,
    }
}

fn syntax(src: &Source, loc: Loc, message: String) -> NetlistError {
    NetlistError::ParseSyntax { format: FORMAT, at: src.locate(loc), message }
}

/// A declared net in the symbol table.
struct Decl {
    dir: Dir,
    range: Option<(u64, u64)>,
    /// Slot ids: `slots[i]` is bit `range.0 + i` (or the scalar slot).
    slots: Vec<usize>,
}

/// Resolves a net reference to its slot.
fn resolve(src: &Source, decls: &HashMap<&str, Decl>, r: &NetRef) -> Result<usize, NetlistError> {
    let decl = decls.get(r.base).ok_or_else(|| NetlistError::ParseUnknownName {
        format: FORMAT,
        at: src.locate(r.loc),
        name: r.base.to_string(),
    })?;
    match (r.bit, decl.range) {
        (None, None) => Ok(decl.slots[0]),
        (Some(b), Some((lo, hi))) => {
            if b < lo || b > hi {
                Err(syntax(
                    src,
                    r.loc,
                    format!("bit-select {}[{b}] is outside the declared range [{hi}:{lo}]", r.base),
                ))
            } else {
                Ok(decl.slots[(b - lo) as usize])
            }
        }
        (Some(b), None) => Err(syntax(
            src,
            r.loc,
            format!("bit-select {}[{b}] on scalar net '{}'", r.base, r.base),
        )),
        (None, Some(_)) => Err(NetlistError::ParseUnsupported {
            format: FORMAT,
            at: src.locate(r.loc),
            construct: format!("whole-vector reference to '{}' (connect individual bits)", r.base),
        }),
    }
}

/// Records `loc` as the driver of `slot`.
///
/// # Errors
///
/// [`NetlistError::ParseMultipleDrivers`] if the slot already has one.
fn claim(
    src: &Source,
    driver: &mut [Option<Loc>],
    slot_names: &[Cow<str>],
    slot: usize,
    loc: Loc,
) -> Result<(), NetlistError> {
    if driver[slot].is_some() {
        return Err(NetlistError::ParseMultipleDrivers {
            format: FORMAT,
            at: src.locate(loc),
            name: slot_names[slot].to_string(),
        });
    }
    driver[slot] = Some(loc);
    Ok(())
}

/// Semantic lowering: declarations + instances -> [`BuildInput`].
fn lower<'a>(src: &Source<'a>, items: Vec<Item<'a>>) -> Result<BuildInput<'a>, NetlistError> {
    let mut input = BuildInput::default();
    let mut decls: HashMap<&'a str, Decl> = HashMap::new();
    let mut decl_order: Vec<(&'a str, Loc)> = Vec::new();

    // Pass 1: register every declaration (declarations may legally follow
    // the instances that use them).
    for item in &items {
        let Item::Decl { dir, range, names, attrs: _ } = item else { continue };
        for &(name, nloc) in names {
            if decls.contains_key(name) {
                return Err(syntax(src, nloc, format!("net '{name}' is declared twice")));
            }
            let slot_names = &mut input.slot_names;
            let slots: Vec<usize> = match range {
                None => {
                    slot_names.push(Cow::Borrowed(name));
                    vec![slot_names.len() - 1]
                }
                Some((lo, hi)) => (*lo..=*hi)
                    .map(|i| {
                        slot_names.push(Cow::Owned(format!("{name}[{i}]")));
                        slot_names.len() - 1
                    })
                    .collect(),
            };
            decls.insert(name, Decl { dir: *dir, range: *range, slots });
            decl_order.push((name, nloc));
        }
    }

    // Driver bookkeeping for ParseMultipleDrivers.
    let mut driver: Vec<Option<Loc>> = vec![None; input.slot_names.len()];

    // Inputs, in declaration order (this fixes the primary-input order).
    for item in &items {
        let Item::Decl { dir: Dir::Input, names, attrs, .. } = item else { continue };
        for (name, nloc) in names {
            for &slot in &decls[name].slots {
                claim(src, &mut driver, &input.slot_names, slot, *nloc)?;
                input.inputs.push((slot, attrs.group));
            }
        }
    }

    // Inline 1'b0/1'b1 connections share one hidden slot per value,
    // created at first use so arena order tracks textual order.
    let mut const_slots: [Option<usize>; 2] = [None, None];

    // Pass 2: instances and assigns, in textual order.
    for item in &items {
        match item {
            Item::Decl { .. } => {}
            Item::Assign { lhs, rhs } => {
                let slot = resolve(src, &decls, lhs)?;
                claim(src, &mut driver, &input.slot_names, slot, lhs.loc)?;
                match rhs {
                    Conn::Const(v, _) => {
                        input.items.push(BuildItem::Const { slot, value: *v, group: None })
                    }
                    Conn::Net(r) => {
                        let sref = SlotRef { slot: resolve(src, &decls, r)?, at: r.loc };
                        input.items.push(BuildItem::Alias { slot, src: sref });
                    }
                }
            }
            Item::Inst { cell, cell_loc, conns, attrs } => {
                let func = cell_func(cell).ok_or_else(|| NetlistError::ParseUnknownCell {
                    format: FORMAT,
                    at: src.locate(*cell_loc),
                    cell: cell.to_string(),
                })?;
                let pins = resolve_pins(src, func, cell, *cell_loc, conns)?;
                // An inline-constant fanin materializes the hidden slot.
                let mut ins = Vec::with_capacity(pins.ins.len());
                for conn in pins.ins {
                    match conn {
                        Conn::Net(r) => {
                            ins.push(SlotRef { slot: resolve(src, &decls, &r)?, at: r.loc })
                        }
                        Conn::Const(v, loc) => {
                            let idx = v as usize;
                            let slot = match const_slots[idx] {
                                Some(s) => s,
                                None => {
                                    input.slot_names.push(Cow::Owned(format!("1'b{}", idx)));
                                    let s = input.slot_names.len() - 1;
                                    const_slots[idx] = Some(s);
                                    input.items.push(BuildItem::Const {
                                        slot: s,
                                        value: v,
                                        group: None,
                                    });
                                    s
                                }
                            };
                            ins.push(SlotRef { slot, at: loc });
                        }
                    }
                }
                let out = resolve(src, &decls, &pins.out)?;
                claim(src, &mut driver, &input.slot_names, out, pins.out.loc)?;
                match func {
                    CellFunc::Gate(kind) => input.items.push(BuildItem::Gate {
                        slot: out,
                        kind,
                        ins,
                        group: attrs.group,
                        at: *cell_loc,
                    }),
                    CellFunc::Dff => input.items.push(BuildItem::Dff {
                        slot: out,
                        d: ins.into_iter().next().expect("resolve_pins guarantees a D pin"),
                        init: attrs.init.unwrap_or(false),
                        group: attrs.group,
                    }),
                    CellFunc::Const(v) => input.items.push(BuildItem::Const {
                        slot: out,
                        value: v,
                        group: attrs.group,
                    }),
                }
            }
        }
    }

    // Outputs, in declaration order, vectors LSB-first.
    for &(name, nloc) in &decl_order {
        let decl = &decls[name];
        if decl.dir != Dir::Output {
            continue;
        }
        match decl.range {
            None => {
                input.outputs.push((Cow::Borrowed(name), SlotRef { slot: decl.slots[0], at: nloc }))
            }
            Some((lo, _)) => {
                for (i, &slot) in decl.slots.iter().enumerate() {
                    let bit = lo + i as u64;
                    input
                        .outputs
                        .push((Cow::Owned(format!("{name}[{bit}]")), SlotRef { slot, at: nloc }));
                }
            }
        }
    }

    Ok(input)
}

/// The resolved pins of one instance: the output reference and the fanin
/// connections in pin order (for flip-flops: `[D]`, clock dropped).
struct Pins<'a> {
    out: NetRef<'a>,
    ins: Vec<Conn<'a>>,
}

fn resolve_pins<'a>(
    src: &Source,
    func: CellFunc,
    cell: &str,
    cell_loc: Loc,
    conns: &Conns<'a>,
) -> Result<Pins<'a>, NetlistError> {
    let syntax = |loc: Loc, message: String| self::syntax(src, loc, message);
    let out_of = |conn: &Conn<'a>, loc: Loc| -> Result<NetRef<'a>, NetlistError> {
        match conn {
            Conn::Net(r) => Ok(*r),
            Conn::Const(..) => {
                Err(syntax(loc, "an instance output must connect to a net".to_string()))
            }
        }
    };
    match conns {
        Conns::Positional(list) => {
            if list.is_empty() {
                return Err(syntax(cell_loc, format!("instance of `{cell}` has no connections")));
            }
            let out = out_of(&list[0], cell_loc)?;
            let ins: Vec<Conn> = list[1..].to_vec();
            if func == CellFunc::Dff && ins.len() != 1 {
                return Err(syntax(
                    cell_loc,
                    "positional flip-flops take exactly (Q, D); use named ports for a clock pin"
                        .to_string(),
                ));
            }
            if matches!(func, CellFunc::Const(_)) && !ins.is_empty() {
                return Err(syntax(
                    cell_loc,
                    format!("tie cell `{cell}` takes a single output pin"),
                ));
            }
            Ok(Pins { out, ins })
        }
        Conns::Named(named) => {
            let mut out: Option<NetRef> = None;
            let mut d: Option<Conn> = None;
            let mut sel: Option<Conn> = None;
            let mut indexed: Vec<(usize, Conn)> = Vec::new();
            for (port, ploc, conn) in named {
                let role = port_role(func, port).ok_or_else(|| {
                    syntax(*ploc, format!("cell `{cell}` has no port named `{port}`"))
                })?;
                match role {
                    PortRole::Output | PortRole::DffQ => {
                        if out.is_some() {
                            return Err(syntax(
                                *ploc,
                                format!("output pin `{port}` connected twice"),
                            ));
                        }
                        out = Some(out_of(conn, *ploc)?);
                    }
                    PortRole::DffD => {
                        if d.is_some() {
                            return Err(syntax(*ploc, "pin `D` connected twice".to_string()));
                        }
                        d = Some(*conn);
                    }
                    PortRole::Select => {
                        if sel.is_some() {
                            return Err(syntax(*ploc, "select pin connected twice".to_string()));
                        }
                        sel = Some(*conn);
                    }
                    PortRole::Input(i) => {
                        if indexed.iter().any(|(j, _)| *j == i) {
                            return Err(syntax(*ploc, format!("pin `{port}` connected twice")));
                        }
                        indexed.push((i, *conn));
                    }
                    PortRole::Clock => {} // single implicit clock domain
                }
            }
            let out = out.ok_or_else(|| {
                syntax(cell_loc, format!("instance of `{cell}` never connects its output pin"))
            })?;
            let ins = match func {
                CellFunc::Dff => {
                    vec![d.ok_or_else(|| {
                        syntax(cell_loc, "flip-flop instance never connects pin `D`".to_string())
                    })?]
                }
                CellFunc::Const(_) => Vec::new(),
                CellFunc::Gate(kind) => {
                    indexed.sort_by_key(|(i, _)| *i);
                    for (want, (got, _)) in indexed.iter().enumerate() {
                        if *got != want {
                            return Err(syntax(
                                cell_loc,
                                format!("instance of `{cell}` is missing input pin {want}"),
                            ));
                        }
                    }
                    let mut ins: Vec<Conn> = Vec::new();
                    if kind == crate::library::GateKind::Mux {
                        ins.push(sel.ok_or_else(|| {
                            syntax(
                                cell_loc,
                                "mux instance never connects its select pin".to_string(),
                            )
                        })?);
                    } else if sel.is_some() {
                        return Err(syntax(cell_loc, format!("cell `{cell}` has no select pin")));
                    }
                    ins.extend(indexed.into_iter().map(|(_, c)| c));
                    ins
                }
            };
            Ok(Pins { out, ins })
        }
    }
}
