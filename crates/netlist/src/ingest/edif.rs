//! EDIF 2.0.0 front-end.
//!
//! Interprets the flat gate-level EDIF subset specified in
//! `docs/FORMATS.md`: one `(edif ...)` form holding `(library ...)`
//! definitions, a top cell with an `(interface ...)` of scalar ports and
//! a `(contents ...)` of `(instance ...)` and `(net ... (joined ...))`
//! forms, and optionally a `(design ...)` form naming the top cell.
//! Instance cell functions are resolved from the *cell name* via
//! [`super::cells::cell_func`] — library cell definitions are treated as
//! opaque. Hierarchical designs (an instance of another cell that has
//! `contents`) are rejected with [`NetlistError::ParseUnsupported`].

use std::borrow::Cow;
use std::collections::HashMap;

use crate::error::{NetlistError, SourceFormat};
use crate::ingest::build::{self, BuildInput, BuildItem, SlotRef};
use crate::ingest::cells::{cell_func, port_role, CellFunc, PortRole};
use crate::ingest::lex::{Loc, Source};
use crate::ingest::sexpr::{parse_sexpr, Sexpr};
use crate::netlist::Netlist;

const FORMAT: SourceFormat = SourceFormat::Edif;

/// Parses the EDIF 2.0.0 subset into a [`Netlist`].
///
/// # Errors
///
/// Every rejection is a structured [`NetlistError`] parse variant with
/// line/column and a source snippet; `docs/FORMATS.md` specifies which
/// violation raises which variant.
pub fn parse_edif(src: &str) -> Result<Netlist, NetlistError> {
    let src = Source::new(src);
    build::build(FORMAT, &src, build_input(&src)?)
}

/// Parses `src` into the intermediate form [`build::build`] lowers.
pub(crate) fn build_input<'a>(src: &Source<'a>) -> Result<BuildInput<'a>, NetlistError> {
    let root = parse_sexpr(src)?;
    Interp { src }.run(&root)
}

struct Interp<'s, 'a> {
    src: &'s Source<'a>,
}

/// One parsed `(port ...)` of the top cell's interface.
struct Port<'a> {
    name: &'a str,
    is_input: bool,
    loc: Loc,
}

/// One parsed `(instance ...)` of the top cell's contents.
struct Instance<'a> {
    name: &'a str,
    func: CellFunc,
    group: Option<&'a str>,
    init: bool,
    loc: Loc,
    /// Fanin pins by index, filled in while walking nets.
    ins: Vec<Option<(usize, Loc)>>,
    /// Mux select pin (pin 0), filled in while walking nets.
    sel: Option<(usize, Loc)>,
    /// The net slot the output pin drives, filled in while walking nets.
    out: Option<(usize, Loc)>,
}

impl<'a> Interp<'_, 'a> {
    fn syntax(&self, loc: Loc, message: String) -> NetlistError {
        NetlistError::ParseSyntax { format: FORMAT, at: self.src.locate(loc), message }
    }

    fn unsupported(&self, loc: Loc, construct: String) -> NetlistError {
        NetlistError::ParseUnsupported { format: FORMAT, at: self.src.locate(loc), construct }
    }

    /// Resolves an EDIF name position: a bare atom, or a
    /// `(rename ident "original")` form (the string wins, so round-trips
    /// preserve names like `n[3]` that EDIF identifiers cannot spell).
    fn name_of(&self, s: &Sexpr<'a>) -> Result<(&'a str, Loc), NetlistError> {
        if let Some(a) = s.atom() {
            return Ok((a, s.loc()));
        }
        if let Some(rest) = s.form_named("rename") {
            if let Some(Sexpr::Str { text, .. }) = rest.get(1) {
                return Ok((text, s.loc()));
            }
            if let Some(a) = rest.first().and_then(Sexpr::atom) {
                return Ok((a, s.loc()));
            }
        }
        if s.form_named("array").is_some() {
            return Err(self.unsupported(s.loc(), "port/net arrays (bit-blast the design)".into()));
        }
        Err(self.syntax(s.loc(), format!("expected a name, found {}", s.describe())))
    }

    fn run(&self, root: &Sexpr<'a>) -> Result<BuildInput<'a>, NetlistError> {
        let (head, rest) = root
            .form()
            .ok_or_else(|| self.syntax(root.loc(), "expected an (edif ...) form".to_string()))?;
        let head = head.to_ascii_lowercase();
        if head != "edif" {
            return Err(self.syntax(root.loc(), format!("expected (edif ...), found ({head} ...)")));
        }

        // Collect every (cell ...) that has a (contents ...) — candidate
        // top cells — plus the (design ...) form, if any.
        let mut cells: Vec<(&str, &Sexpr)> = Vec::new();
        let mut design: Option<(&str, Loc)> = None;
        for item in rest {
            let Some((h, r)) = item.form() else { continue };
            match h.to_ascii_lowercase().as_str() {
                "library" | "external" => {
                    for cell in r.iter().skip(1) {
                        let Some(cr) = cell.form_named("cell") else {
                            continue;
                        };
                        let Some(name_pos) = cr.first() else { continue };
                        let (name, _) = self.name_of(name_pos)?;
                        if find_view_with_contents(cell).is_some() {
                            cells.push((name, cell));
                        }
                    }
                }
                "design" => {
                    // (design d (cellRef top (libraryRef work)))
                    let cell_ref = r.iter().find_map(|s| Some((s.loc(), s.form_named("cellref")?)));
                    let Some((loc, cr)) = cell_ref else {
                        return Err(self.syntax(
                            item.loc(),
                            "(design ...) is missing its (cellRef ...)".into(),
                        ));
                    };
                    let name = cr.first().and_then(Sexpr::atom).ok_or_else(|| {
                        self.syntax(loc, "(cellRef ...) is missing its name".into())
                    })?;
                    design = Some((name, loc));
                }
                _ => {} // edifVersion, edifLevel, keywordMap, status, comment, ...
            }
        }

        let top = match design {
            Some((name, loc)) => cells
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
                .map(|(_, c)| *c)
                .ok_or_else(|| NetlistError::ParseUnknownName {
                    format: FORMAT,
                    at: self.src.locate(loc),
                    name: name.to_string(),
                })?,
            None => match cells.len() {
                1 => cells[0].1,
                0 => {
                    return Err(self.syntax(
                        root.loc(),
                        "no cell with a (contents ...) form to use as the top cell".into(),
                    ))
                }
                _ => {
                    return Err(self.syntax(
                        root.loc(),
                        format!(
                            "{} cells have (contents ...); add a (design ...) form naming the top",
                            cells.len()
                        ),
                    ))
                }
            },
        };
        let hierarchical: Vec<String> = cells.iter().map(|(n, _)| n.to_ascii_uppercase()).collect();

        let view = find_view_with_contents(top).expect("cells list only holds cells with contents");
        let (_, view_items) = view.form().expect("find_view_with_contents returns a form");

        // Interface: scalar ports with directions.
        let mut ports: Vec<Port> = Vec::new();
        if let Some(iface) = view_items.iter().find_map(|s| s.form_named("interface")) {
            for p in iface {
                let Some(pr) = p.form_named("port") else {
                    continue;
                };
                let name_pos = pr
                    .first()
                    .ok_or_else(|| self.syntax(p.loc(), "(port ...) is missing its name".into()))?;
                let (name, nloc) = self.name_of(name_pos)?;
                let dir = pr.iter().find_map(|s| {
                    let dr = s.form_named("direction")?;
                    Some((s.loc(), dr.first().and_then(Sexpr::atom).map(str::to_ascii_uppercase)))
                });
                let is_input = match dir {
                    Some((_, Some(d))) if d == "INPUT" => true,
                    Some((_, Some(d))) if d == "OUTPUT" => false,
                    Some((dloc, Some(d))) if d == "INOUT" => {
                        return Err(self.unsupported(dloc, "inout ports".into()))
                    }
                    Some((dloc, _)) => {
                        return Err(self.syntax(dloc, "unrecognized (direction ...)".into()))
                    }
                    None => {
                        return Err(
                            self.syntax(p.loc(), format!("port '{name}' has no (direction ...)"))
                        )
                    }
                };
                ports.push(Port { name, is_input, loc: nloc });
            }
        }

        let contents = view_items
            .iter()
            .find_map(|s| s.form_named("contents"))
            .expect("find_view_with_contents checked this");

        // Slots: one per interface port, then one per net.
        let mut input = BuildInput::default();
        let mut port_slot: HashMap<String, usize> = HashMap::new();
        for p in &ports {
            input.slot_names.push(Cow::Borrowed(p.name));
            port_slot.insert(p.name.to_ascii_uppercase(), input.slot_names.len() - 1);
        }
        for p in &ports {
            if p.is_input {
                input.inputs.push((port_slot[&p.name.to_ascii_uppercase()], None));
            }
        }

        // First pass over contents: instances.
        let mut instances: Vec<Instance> = Vec::new();
        let mut inst_index: HashMap<String, usize> = HashMap::new();
        for item in contents {
            let Some(ir) = item.form_named("instance") else {
                continue;
            };
            let name_pos = item.list().and_then(|l| l.get(1)).ok_or_else(|| {
                self.syntax(item.loc(), "(instance ...) is missing its name".into())
            })?;
            let (name, nloc) = self.name_of(name_pos)?;
            let cell = self.instance_cell(item, ir)?;
            let func = cell_func(cell.0).ok_or_else(|| {
                if hierarchical.contains(&cell.0.to_ascii_uppercase()) {
                    self.unsupported(
                        cell.1,
                        format!("hierarchical instance of cell '{}' (flatten the design)", cell.0),
                    )
                } else {
                    NetlistError::ParseUnknownCell {
                        format: FORMAT,
                        at: self.src.locate(cell.1),
                        cell: cell.0.to_string(),
                    }
                }
            })?;
            let (group, init) = self.instance_properties(ir)?;
            if inst_index.contains_key(&name.to_ascii_uppercase()) {
                return Err(self.syntax(nloc, format!("instance '{name}' is declared twice")));
            }
            inst_index.insert(name.to_ascii_uppercase(), instances.len());
            instances.push(Instance {
                name,
                func,
                group,
                init,
                loc: nloc,
                ins: Vec::new(),
                sel: None,
                out: None,
            });
        }

        // Second pass: nets join pins together.
        let mut driver: Vec<Option<Loc>> = vec![None; input.slot_names.len()];
        for p in &ports {
            if p.is_input {
                driver[port_slot[&p.name.to_ascii_uppercase()]] = Some(p.loc);
            }
        }
        // Output ports resolve to the slot of the net that feeds them.
        let mut port_feed: HashMap<String, (usize, Loc)> = HashMap::new();
        for item in contents {
            let Some(nr) = item.form_named("net") else {
                continue;
            };
            let name_pos = nr
                .first()
                .ok_or_else(|| self.syntax(item.loc(), "(net ...) is missing its name".into()))?;
            let (net_name, net_loc) = self.name_of(name_pos)?;
            input.slot_names.push(Cow::Borrowed(net_name));
            driver.push(None);
            let slot = input.slot_names.len() - 1;

            let Some(joined) = nr.iter().find_map(|s| s.form_named("joined")) else {
                return Err(
                    self.syntax(net_loc, format!("net '{net_name}' has no (joined ...) form"))
                );
            };
            for pr in joined {
                let Some(prr) = pr.form_named("portref") else {
                    return Err(self.syntax(
                        pr.loc(),
                        format!("expected a (portRef ...), found {}", pr.describe()),
                    ));
                };
                let (port, ploc) = self.name_of(prr.first().ok_or_else(|| {
                    self.syntax(pr.loc(), "(portRef ...) is missing its port name".into())
                })?)?;
                let inst_ref =
                    prr.iter().find_map(|s| Some((s.loc(), s.form_named("instanceref")?)));
                match inst_ref {
                    None => {
                        // A connection to one of the cell's own ports.
                        let Some(&pslot) = port_slot.get(&port.to_ascii_uppercase()) else {
                            return Err(NetlistError::ParseUnknownName {
                                format: FORMAT,
                                at: self.src.locate(ploc),
                                name: port.to_string(),
                            });
                        };
                        let is_input = ports
                            .iter()
                            .find(|p| p.name.eq_ignore_ascii_case(port))
                            .map(|p| p.is_input)
                            .expect("port_slot and ports share keys");
                        if is_input {
                            // The input port drives this net.
                            self.claim(&mut driver, &input.slot_names, slot, ploc)?;
                            input.items.push(BuildItem::Alias {
                                slot,
                                src: SlotRef { slot: pslot, at: ploc },
                            });
                        } else {
                            port_feed.insert(port.to_ascii_uppercase(), (slot, ploc));
                        }
                    }
                    Some((irloc, ir)) => {
                        let iname = ir.first().and_then(Sexpr::atom).ok_or_else(|| {
                            self.syntax(irloc, "(instanceRef ...) is missing its name".into())
                        })?;
                        let Some(&idx) = inst_index.get(&iname.to_ascii_uppercase()) else {
                            return Err(NetlistError::ParseUnknownName {
                                format: FORMAT,
                                at: self.src.locate(irloc),
                                name: iname.to_string(),
                            });
                        };
                        let inst = &mut instances[idx];
                        let role = port_role(inst.func, port).ok_or_else(|| {
                            self.syntax(
                                ploc,
                                format!("instance '{}' has no port named `{port}`", inst.name),
                            )
                        })?;
                        match role {
                            PortRole::Output | PortRole::DffQ => {
                                self.claim(&mut driver, &input.slot_names, slot, ploc)?;
                                if inst.out.is_some() {
                                    return Err(self.syntax(
                                        ploc,
                                        format!(
                                            "output pin of instance '{}' joins two nets",
                                            inst.name
                                        ),
                                    ));
                                }
                                inst.out = Some((slot, ploc));
                            }
                            PortRole::DffD => set_pin(&mut inst.ins, 0, slot, ploc)
                                .map_err(|()| self.pin_twice(ploc, inst.name, port))?,
                            PortRole::Input(i) => set_pin(&mut inst.ins, i, slot, ploc)
                                .map_err(|()| self.pin_twice(ploc, inst.name, port))?,
                            PortRole::Select => {
                                if inst.sel.is_some() {
                                    return Err(self.pin_twice(ploc, inst.name, port));
                                }
                                inst.sel = Some((slot, ploc));
                            }
                            PortRole::Clock => {} // single implicit clock domain
                        }
                    }
                }
            }
        }

        // Lower instances, in declaration order.
        for inst in &instances {
            let Some((out, _)) = inst.out else {
                return Err(self.syntax(
                    inst.loc,
                    format!("output pin of instance '{}' is not joined to any net", inst.name),
                ));
            };
            let mut ins: Vec<SlotRef> = Vec::with_capacity(inst.ins.len() + 1);
            if let CellFunc::Gate(crate::library::GateKind::Mux) = inst.func {
                let (s, l) = inst.sel.ok_or_else(|| {
                    self.syntax(
                        inst.loc,
                        format!("mux instance '{}' never joins its select pin", inst.name),
                    )
                })?;
                ins.push(SlotRef { slot: s, at: l });
            } else if let Some((_, l)) = inst.sel {
                return Err(self.syntax(l, format!("instance '{}' has no select pin", inst.name)));
            }
            for (i, pin) in inst.ins.iter().enumerate() {
                let Some((s, l)) = pin else {
                    return Err(self.syntax(
                        inst.loc,
                        format!("instance '{}' is missing input pin {i}", inst.name),
                    ));
                };
                ins.push(SlotRef { slot: *s, at: *l });
            }
            match inst.func {
                CellFunc::Gate(kind) => input.items.push(BuildItem::Gate {
                    slot: out,
                    kind,
                    ins,
                    group: inst.group,
                    at: inst.loc,
                }),
                CellFunc::Dff => {
                    let d = ins.into_iter().next().ok_or_else(|| {
                        self.syntax(
                            inst.loc,
                            format!("flip-flop instance '{}' never joins pin `D`", inst.name),
                        )
                    })?;
                    input.items.push(BuildItem::Dff {
                        slot: out,
                        d,
                        init: inst.init,
                        group: inst.group,
                    });
                }
                CellFunc::Const(v) => {
                    input.items.push(BuildItem::Const { slot: out, value: v, group: inst.group })
                }
            }
        }

        // Outputs, in interface order.
        for p in &ports {
            if p.is_input {
                continue;
            }
            let Some(&(slot, loc)) = port_feed.get(&p.name.to_ascii_uppercase()) else {
                return Err(NetlistError::ParseUndriven {
                    format: FORMAT,
                    at: self.src.locate(p.loc),
                    name: p.name.to_string(),
                });
            };
            input.outputs.push((Cow::Borrowed(p.name), SlotRef { slot, at: loc }));
        }

        Ok(input)
    }

    fn claim(
        &self,
        driver: &mut [Option<Loc>],
        slot_names: &[Cow<str>],
        slot: usize,
        loc: Loc,
    ) -> Result<(), NetlistError> {
        if driver[slot].is_some() {
            return Err(NetlistError::ParseMultipleDrivers {
                format: FORMAT,
                at: self.src.locate(loc),
                name: slot_names[slot].to_string(),
            });
        }
        driver[slot] = Some(loc);
        Ok(())
    }

    fn pin_twice(&self, loc: Loc, inst: &str, port: &str) -> NetlistError {
        self.syntax(loc, format!("pin `{port}` of instance '{inst}' joins two nets"))
    }

    /// The cell name an instance references, from its `(viewRef ...
    /// (cellRef C ...))` or direct `(cellRef C ...)` form.
    fn instance_cell(
        &self,
        inst: &Sexpr<'a>,
        items: &[Sexpr<'a>],
    ) -> Result<(&'a str, Loc), NetlistError> {
        fn find_cellref<'a>(items: &[Sexpr<'a>]) -> Option<(Loc, &'a str)> {
            for s in items {
                if let Some(r) = s.form_named("cellref") {
                    if let Some(name) = r.first().and_then(Sexpr::atom) {
                        return Some((s.loc(), name));
                    }
                } else if let Some(r) = s.form_named("viewref") {
                    if let Some(found) = find_cellref(r) {
                        return Some(found);
                    }
                }
            }
            None
        }
        match find_cellref(items) {
            Some((loc, name)) => Ok((name, loc)),
            None => Err(self.syntax(
                inst.loc(),
                "(instance ...) has no (viewRef ... (cellRef ...))".to_string(),
            )),
        }
    }

    /// Recognized instance properties: `(property group (string "..."))`
    /// and `(property init (integer 0|1))`. Unknown properties are
    /// accepted and ignored.
    fn instance_properties(
        &self,
        items: &[Sexpr<'a>],
    ) -> Result<(Option<&'a str>, bool), NetlistError> {
        let mut group = None;
        let mut init = false;
        for s in items {
            let Some(pr) = s.form_named("property") else {
                continue;
            };
            let Some(name) = pr.first().and_then(Sexpr::atom) else { continue };
            match name.to_ascii_lowercase().as_str() {
                "group" => {
                    let value = pr.get(1).and_then(|v| match v.form_named("string")?.first() {
                        Some(Sexpr::Str { text, .. }) => Some(*text),
                        _ => None,
                    });
                    group = Some(value.ok_or_else(|| {
                        self.syntax(s.loc(), "the group property takes (string \"...\")".into())
                    })?);
                }
                "init" => {
                    let value = pr.get(1).and_then(|v| {
                        v.form_named("integer")?.first()?.atom()?.parse::<u64>().ok()
                    });
                    init = match value {
                        Some(0) => false,
                        Some(1) => true,
                        _ => {
                            return Err(self.syntax(
                                s.loc(),
                                "the init property takes (integer 0) or (integer 1)".into(),
                            ))
                        }
                    };
                }
                _ => {}
            }
        }
        Ok((group, init))
    }
}

fn set_pin(
    pins: &mut Vec<Option<(usize, Loc)>>,
    i: usize,
    slot: usize,
    loc: Loc,
) -> Result<(), ()> {
    if pins.len() <= i {
        pins.resize(i + 1, None);
    }
    if pins[i].is_some() {
        return Err(());
    }
    pins[i] = Some((slot, loc));
    Ok(())
}

/// The first `(view ...)` of a cell that has a `(contents ...)` child.
fn find_view_with_contents<'s, 'a>(cell: &'s Sexpr<'a>) -> Option<&'s Sexpr<'a>> {
    let (_, items) = cell.form()?;
    items.iter().find(|s| match s.form_named("view") {
        Some(vr) => vr.iter().any(|c| c.form_named("contents").is_some()),
        None => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::GateKind;
    use crate::netlist::NodeKind;

    const SMALL: &str = r#"
(edif demo
  (edifVersion 2 0 0)
  (library work
    (cell top
      (view netlist
        (viewType NETLIST)
        (interface
          (port a (direction INPUT))
          (port b (direction INPUT))
          (port y (direction OUTPUT)))
        (contents
          (instance g1 (viewRef netlist (cellRef AND2)))
          (net na (joined (portRef a) (portRef A (instanceRef g1))))
          (net nb (joined (portRef b) (portRef B (instanceRef g1))))
          (net ny (joined (portRef Y (instanceRef g1)) (portRef y)))))))
  (design demo (cellRef top (libraryRef work))))
"#;

    #[test]
    fn small_and_gate_parses() {
        let nl = parse_edif(SMALL).expect("parses");
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.gate_count(), 1);
        assert_eq!(nl.outputs().len(), 1);
        let (_, y) = &nl.outputs()[0];
        assert!(matches!(nl.kind(*y), NodeKind::Gate { kind: GateKind::And, .. }));
    }

    #[test]
    fn unknown_cell_and_undriven_port_report_positions() {
        let bad = SMALL.replace("AND2", "RAM32");
        match parse_edif(&bad).unwrap_err() {
            NetlistError::ParseUnknownCell { cell, at, .. } => {
                assert_eq!(cell, "RAM32");
                assert!(at.line > 1);
                assert!(at.snippet.contains("RAM32"));
            }
            other => panic!("wrong variant: {other:?}"),
        }

        // The output port y is never fed by any net.
        let undriven = SMALL.replace(" (portRef y)", "");
        match parse_edif(&undriven).unwrap_err() {
            NetlistError::ParseUndriven { name, .. } => assert_eq!(name, "y"),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn multiple_drivers_detected() {
        let bad = SMALL.replace(
            "(net ny (joined (portRef Y (instanceRef g1)) (portRef y)))",
            "(net ny (joined (portRef Y (instanceRef g1)) (portRef a) (portRef y)))",
        );
        match parse_edif(&bad).unwrap_err() {
            NetlistError::ParseMultipleDrivers { name, .. } => assert_eq!(name, "ny"),
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
