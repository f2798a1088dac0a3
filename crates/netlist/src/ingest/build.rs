//! Shared lowering from a parsed instance network to a [`Netlist`].
//!
//! Both front-ends (Verilog and EDIF) reduce their input to the same
//! intermediate form — a list of named net *slots*, primary inputs, an
//! ordered list of [`BuildItem`]s, and primary outputs — and this module
//! turns that form into a [`Netlist`]. Centralizing the lowering gives
//! both parsers identical semantics for instance ordering, forward
//! references, flip-flop feedback, undriven-net detection, and
//! combinational-cycle reporting.
//!
//! Ordering contract: nodes are created in item order wherever possible
//! (inputs first, then items as listed), deferring an item only until its
//! fanins exist. Emit→parse round trips therefore reproduce the original
//! node-arena order, which is what makes packed-kernel activity records
//! comparable index-for-index across a round trip.
//!
//! Precisely, the order is that of repeated in-order passes over the
//! pending items, each pass creating every item whose fanins already
//! exist. [`build`] computes that order in one topological sweep instead,
//! so lowering stays linear in the number of pins for any instance order.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::error::{NetlistError, SourceFormat};
use crate::ingest::lex::{Loc, Source};
use crate::library::GateKind;
use crate::netlist::{Netlist, NodeId};

/// A reference to a net slot, with the source position of the reference
/// (used for undriven/cycle diagnostics).
#[derive(Debug, Clone, Copy)]
pub struct SlotRef {
    /// Index into the builder's slot table.
    pub slot: usize,
    /// Where the reference appears in the source.
    pub at: Loc,
}

/// One ordered netlist-construction step produced by a front-end.
#[derive(Debug, Clone)]
pub enum BuildItem<'a> {
    /// A constant driver (`assign n = 1'b0;`, a tie cell).
    Const {
        /// The driven slot.
        slot: usize,
        /// The constant value.
        value: bool,
        /// Power-accounting group, if an attribute named one. Constants
        /// dedupe to one node per value, so a later grouped driver of
        /// the same value wins.
        group: Option<&'a str>,
    },
    /// A combinational gate instance.
    Gate {
        /// The driven slot.
        slot: usize,
        /// The gate function.
        kind: GateKind,
        /// Fanin slots in pin order.
        ins: Vec<SlotRef>,
        /// Power-accounting group, if an attribute named one.
        group: Option<&'a str>,
        /// Where the instance appears (for arity errors).
        at: Loc,
    },
    /// A D flip-flop instance.
    Dff {
        /// The driven (Q) slot.
        slot: usize,
        /// The data-input slot.
        d: SlotRef,
        /// Power-on value.
        init: bool,
        /// Power-accounting group, if an attribute named one.
        group: Option<&'a str>,
    },
    /// A pure alias (`assign dst = src;`): no node is created, the
    /// destination slot resolves to the source's node.
    Alias {
        /// The aliased slot.
        slot: usize,
        /// The slot it aliases.
        src: SlotRef,
    },
}

impl BuildItem<'_> {
    /// The slot this item drives.
    fn slot(&self) -> usize {
        match self {
            BuildItem::Const { slot, .. }
            | BuildItem::Gate { slot, .. }
            | BuildItem::Dff { slot, .. }
            | BuildItem::Alias { slot, .. } => *slot,
        }
    }

    /// The slots that must resolve before this item can be created.
    /// Flip-flops never wait: their D pin is patched afterwards (that is
    /// how sequential feedback parses).
    fn fanins(&self) -> &[SlotRef] {
        match self {
            BuildItem::Gate { ins, .. } => ins,
            BuildItem::Alias { src, .. } => std::slice::from_ref(src),
            BuildItem::Const { .. } | BuildItem::Dff { .. } => &[],
        }
    }
}

/// The complete intermediate form a front-end hands to [`build`].
#[derive(Debug, Clone, Default)]
pub struct BuildInput<'a> {
    /// Net-slot names, indexed by slot id (used in diagnostics and as
    /// node names).
    pub slot_names: Vec<Cow<'a, str>>,
    /// Primary inputs in declaration order: `(slot, group)`.
    pub inputs: Vec<(usize, Option<&'a str>)>,
    /// Ordered construction steps.
    pub items: Vec<BuildItem<'a>>,
    /// Primary outputs in declaration order: `(name, slot, where)`.
    pub outputs: Vec<(Cow<'a, str>, SlotRef)>,
}

/// The order items are created in, and the first item (by index) that
/// can never be created because a fanin never resolves.
#[derive(Debug)]
struct Schedule {
    order: Vec<usize>,
    blocked: Option<usize>,
}

/// Orders `items` as repeated in-order passes would create them (see the
/// module docs), given which slots `resolved` before any item runs.
///
/// An item is created in pass `max(1, max over fanins j of pass(j) +
/// [j > i])`: a fanin listed earlier is created earlier in the same
/// pass, one listed later only in an earlier pass. Rather than
/// re-scanning the pending items pass after pass, each item counts its
/// unresolved fanin pins, and resolving a slot decrements the count of
/// each reader. A reader that becomes ready joins the current pass if it
/// is listed after the item that freed it, and the next pass otherwise.
/// Each pass is drained lowest index first, so the order is `(pass,
/// index)`.
fn schedule(items: &[BuildItem], resolved: &[bool]) -> Schedule {
    // readers[start[s]..start[s + 1]]: one entry per pin that reads the
    // unresolved slot `s`.
    let mut start = vec![0usize; resolved.len() + 1];
    for r in items.iter().flat_map(BuildItem::fanins) {
        if !resolved[r.slot] {
            start[r.slot + 1] += 1;
        }
    }
    for s in 0..resolved.len() {
        start[s + 1] += start[s];
    }
    let mut fill = start.clone();
    let mut readers = vec![0usize; start[resolved.len()]];
    let mut waiting = vec![0usize; items.len()];
    for (i, item) in items.iter().enumerate() {
        for r in item.fanins().iter().filter(|r| !resolved[r.slot]) {
            readers[fill[r.slot]] = i;
            fill[r.slot] += 1;
            waiting[i] += 1;
        }
        count_readiness_check();
    }

    let mut ready = resolved.to_vec();
    let mut pass: BinaryHeap<Reverse<usize>> =
        (0..items.len()).filter(|&i| waiting[i] == 0).map(Reverse).collect();
    let mut next_pass: Vec<usize> = Vec::new();
    let mut order = Vec::with_capacity(items.len());
    loop {
        while let Some(Reverse(i)) = pass.pop() {
            order.push(i);
            let slot = items[i].slot();
            if std::mem::replace(&mut ready[slot], true) {
                continue;
            }
            for &k in &readers[start[slot]..start[slot + 1]] {
                waiting[k] -= 1;
                count_readiness_check();
                if waiting[k] == 0 {
                    if k > i {
                        pass.push(Reverse(k));
                    } else {
                        next_pass.push(k);
                    }
                }
            }
        }
        if next_pass.is_empty() {
            break;
        }
        pass.extend(next_pass.drain(..).map(Reverse));
    }
    let blocked = waiting.iter().position(|&w| w > 0);
    Schedule { order, blocked }
}

#[cfg(test)]
thread_local! {
    /// How many times [`schedule`] has evaluated an item's readiness on
    /// this thread.
    static READINESS_CHECKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn count_readiness_check() {
    #[cfg(test)]
    READINESS_CHECKS.with(|n| n.set(n.get() + 1));
}

/// Lowers a front-end's intermediate form into a [`Netlist`]. `src` is
/// the text the input's positions point into; it is indexed only if
/// lowering fails.
///
/// # Errors
///
/// * [`NetlistError::ParseUndriven`] — an instance pin or output reads a
///   slot no item drives.
/// * [`NetlistError::ParseSyntax`] — the instances form a combinational
///   cycle (construction is impossible because gate fanins must exist
///   first), or a gate's pin count violates its kind's arity.
pub fn build(
    format: SourceFormat,
    src: &Source,
    input: BuildInput,
) -> Result<Netlist, NetlistError> {
    build_in_order(format, src, input, schedule)
}

/// [`build`] with the item order computed by `order_items`.
fn build_in_order(
    format: SourceFormat,
    src: &Source,
    input: BuildInput,
    order_items: fn(&[BuildItem], &[bool]) -> Schedule,
) -> Result<Netlist, NetlistError> {
    let BuildInput { slot_names, inputs, items, outputs } = input;
    let mut nl = Netlist::new();
    let mut resolved: Vec<Option<NodeId>> = vec![None; slot_names.len()];
    let mut driven: Vec<bool> = vec![false; slot_names.len()];
    for item in &items {
        driven[item.slot()] = true;
    }
    // A port name the netlist would refuse (one its emitter would declare
    // twice) is a syntax error of the source, not a panic.
    let clash = |message, at| NetlistError::ParseSyntax { format, at: src.locate(at), message };
    for &(slot, group) in &inputs {
        let name = slot_names[slot].as_ref();
        nl.check_port(name, true).map_err(|m| clash(m, Loc::start()))?;
        let id = nl.input(name);
        if let Some(g) = group {
            let gid = nl.group(g);
            nl.set_node_group(id, gid);
        }
        resolved[slot] = Some(id);
        driven[slot] = true;
    }

    let ready: Vec<bool> = resolved.iter().map(Option::is_some).collect();
    let Schedule { order, blocked } = order_items(&items, &ready);
    let mut dff_fixups: Vec<(NodeId, SlotRef)> = Vec::new();
    for &i in &order {
        let (slot, id, group) = match &items[i] {
            BuildItem::Const { slot, value, group } => (*slot, nl.constant(*value), *group),
            BuildItem::Gate { slot, kind, ins, group, at } => {
                let fanins: Vec<NodeId> =
                    ins.iter().map(|r| resolved[r.slot].expect("scheduled after fanins")).collect();
                let id = nl.gate(*kind, fanins).map_err(|e| NetlistError::ParseSyntax {
                    format,
                    at: src.locate(*at),
                    message: e.to_string(),
                })?;
                (*slot, id, *group)
            }
            BuildItem::Dff { slot, d, init, group } => {
                let id = nl.dff_placeholder(*init);
                dff_fixups.push((id, *d));
                (*slot, id, *group)
            }
            BuildItem::Alias { slot, src } => {
                resolved[*slot] = Some(resolved[src.slot].expect("scheduled after fanins"));
                continue;
            }
        };
        nl.set_name(id, slot_names[slot].as_ref());
        if let Some(g) = group {
            let gid = nl.group(g);
            nl.set_node_group(id, gid);
        }
        resolved[slot] = Some(id);
    }

    if let Some(i) = blocked {
        // The first item that never became ready either reads a net
        // nothing drives, or sits on a combinational cycle (every fanin
        // is driven, but only by blocked items).
        let item = &items[i];
        let blocked =
            item.fanins().iter().find(|r| resolved[r.slot].is_none()).expect("item was not ready");
        if !driven[blocked.slot] {
            return Err(NetlistError::ParseUndriven {
                format,
                at: src.locate(blocked.at),
                name: slot_names[blocked.slot].to_string(),
            });
        }
        return Err(NetlistError::ParseSyntax {
            format,
            at: src.locate(blocked.at),
            message: format!(
                "instances form a combinational cycle through net '{}' (driving '{}'); \
                 only flip-flops may close feedback loops",
                slot_names[blocked.slot],
                slot_names[item.slot()]
            ),
        });
    }

    for (q, d) in dff_fixups {
        let id = resolved[d.slot].ok_or_else(|| NetlistError::ParseUndriven {
            format,
            at: src.locate(d.at),
            name: slot_names[d.slot].to_string(),
        })?;
        nl.connect_dff_d(q, id);
    }
    for (name, slot_ref) in outputs {
        let id = resolved[slot_ref.slot].ok_or_else(|| NetlistError::ParseUndriven {
            format,
            at: src.locate(slot_ref.at),
            name: slot_names[slot_ref.slot].to_string(),
        })?;
        nl.check_port(&name, false).map_err(|m| clash(m, slot_ref.at))?;
        nl.set_output(name, id);
    }
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::lex::located_count;
    use crate::ingest::verilog;
    use crate::ingest::{edif, emit_verilog, parse_edif, parse_verilog, structurally_equivalent};
    use crate::netlist::NodeKind;
    use hlpower_rng::Rng;

    fn loc(line: usize, col: usize) -> Loc {
        Loc { line, col }
    }

    fn names(names: &[&'static str]) -> Vec<Cow<'static, str>> {
        names.iter().map(|&n| Cow::Borrowed(n)).collect()
    }

    /// Lowers `input`, resolving error positions against an empty source.
    fn build_bare(format: SourceFormat, input: BuildInput) -> Result<Netlist, NetlistError> {
        build(format, &Source::new(""), input)
    }

    fn slot_ref(slot: usize, line: usize) -> SlotRef {
        SlotRef { slot, at: loc(line, 1) }
    }

    #[test]
    fn forward_references_resolve_out_of_order() {
        // y = and(w, a) appears before w = not(a): the builder defers it.
        let input = BuildInput {
            slot_names: names(&["a", "w", "y"]),
            inputs: vec![(0, None)],
            items: vec![
                BuildItem::Gate {
                    slot: 2,
                    kind: GateKind::And,
                    ins: vec![slot_ref(1, 1), slot_ref(0, 1)],
                    group: None,
                    at: loc(1, 1),
                },
                BuildItem::Gate {
                    slot: 1,
                    kind: GateKind::Not,
                    ins: vec![slot_ref(0, 2)],
                    group: None,
                    at: loc(2, 1),
                },
            ],
            outputs: vec![("y".into(), slot_ref(2, 3))],
        };
        let nl = build_bare(SourceFormat::Verilog, input).expect("builds");
        assert_eq!(nl.gate_count(), 2);
        // The NOT was created first (the AND deferred until `w` existed).
        assert!(matches!(nl.kind(NodeId(1)), NodeKind::Gate { kind: GateKind::Not, .. }));
    }

    #[test]
    fn dff_feedback_builds() {
        // q = dff(xor(q, en)).
        let input = BuildInput {
            slot_names: names(&["en", "q", "d"]),
            inputs: vec![(0, None)],
            items: vec![
                BuildItem::Dff { slot: 1, d: slot_ref(2, 1), init: true, group: None },
                BuildItem::Gate {
                    slot: 2,
                    kind: GateKind::Xor,
                    ins: vec![slot_ref(1, 2), slot_ref(0, 2)],
                    group: None,
                    at: loc(2, 1),
                },
            ],
            outputs: vec![("q".into(), slot_ref(1, 3))],
        };
        let nl = build_bare(SourceFormat::Edif, input).expect("builds");
        assert_eq!(nl.dffs().len(), 1);
        match nl.kind(nl.dffs()[0]) {
            NodeKind::Dff { init, .. } => assert!(*init),
            other => panic!("not a dff: {other:?}"),
        }
    }

    #[test]
    fn undriven_and_cycle_diagnostics() {
        let undriven = BuildInput {
            slot_names: names(&["a", "ghost", "y"]),
            inputs: vec![(0, None)],
            items: vec![BuildItem::Gate {
                slot: 2,
                kind: GateKind::And,
                ins: vec![slot_ref(0, 4), SlotRef { slot: 1, at: loc(4, 9) }],
                group: None,
                at: loc(4, 1),
            }],
            outputs: vec![("y".into(), slot_ref(2, 5))],
        };
        match build_bare(SourceFormat::Verilog, undriven).unwrap_err() {
            NetlistError::ParseUndriven { at, name, .. } => {
                assert_eq!((at.line, at.col), (4, 9));
                assert_eq!(name, "ghost");
            }
            other => panic!("wrong variant: {other:?}"),
        }

        // x = not(y); y = not(x): a gate-only loop.
        let cyclic = BuildInput {
            slot_names: names(&["x", "y"]),
            inputs: vec![],
            items: vec![
                BuildItem::Gate {
                    slot: 0,
                    kind: GateKind::Not,
                    ins: vec![SlotRef { slot: 1, at: loc(1, 5) }],
                    group: None,
                    at: loc(1, 1),
                },
                BuildItem::Gate {
                    slot: 1,
                    kind: GateKind::Not,
                    ins: vec![SlotRef { slot: 0, at: loc(2, 5) }],
                    group: None,
                    at: loc(2, 1),
                },
            ],
            outputs: vec![],
        };
        match build_bare(SourceFormat::Verilog, cyclic).unwrap_err() {
            NetlistError::ParseSyntax { at, message, .. } => {
                assert_eq!(at.line, 1);
                assert!(message.contains("combinational cycle"), "{message}");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    /// The scheduler [`schedule`] replaced, kept as its oracle: repeated
    /// in-order passes over the pending items, each creating every item
    /// whose fanins already exist, until a pass makes no progress.
    fn schedule_by_passes(items: &[BuildItem], resolved: &[bool]) -> Schedule {
        let mut ready = resolved.to_vec();
        let mut order = Vec::with_capacity(items.len());
        let mut pending: Vec<usize> = (0..items.len()).collect();
        while !pending.is_empty() {
            let before = pending.len();
            pending.retain(|&i| {
                if !items[i].fanins().iter().all(|r| ready[r.slot]) {
                    return true;
                }
                order.push(i);
                ready[items[i].slot()] = true;
                false
            });
            if pending.len() == before {
                return Schedule { order, blocked: Some(pending[0]) };
            }
        }
        Schedule { order, blocked: None }
    }

    fn parse_to_input<'a>(
        format: SourceFormat,
        src: &Source<'a>,
    ) -> Result<BuildInput<'a>, NetlistError> {
        match format {
            SourceFormat::Edif => edif::build_input(src),
            _ => verilog::build_input(src),
        }
    }

    fn readiness_checks() -> usize {
        READINESS_CHECKS.with(std::cell::Cell::get)
    }

    /// An inverter chain `n0 -> g1 -> n1 -> ... -> gN -> nN` in
    /// structural Verilog, its instances listed last-to-first if
    /// `reversed`.
    fn verilog_chain(n: usize, reversed: bool) -> String {
        let wires: Vec<String> = (1..n).map(|i| format!("n{i}")).collect();
        let mut gates: Vec<String> =
            (1..=n).map(|i| format!("  not g{i} (n{i}, n{});", i - 1)).collect();
        if reversed {
            gates.reverse();
        }
        format!(
            "module chain (n0, n{n});\n  input n0;\n  output n{n};\n  wire {};\n{}\nendmodule\n",
            wires.join(", "),
            gates.join("\n")
        )
    }

    /// The same inverter chain in EDIF.
    fn edif_chain(n: usize, reversed: bool) -> String {
        let mut instances: Vec<String> = (1..=n)
            .map(|i| format!("          (instance g{i} (viewRef netlist (cellRef INV)))"))
            .collect();
        if reversed {
            instances.reverse();
        }
        let nets: Vec<String> = (0..=n)
            .map(|i| {
                let from = match i {
                    0 => "(portRef a)".to_string(),
                    _ => format!("(portRef Y (instanceRef g{i}))"),
                };
                let to = match i == n {
                    true => "(portRef y)".to_string(),
                    false => format!("(portRef A (instanceRef g{}))", i + 1),
                };
                format!("          (net n{i} (joined {from} {to}))")
            })
            .collect();
        format!(
            "(edif chain (edifVersion 2 0 0)\n  (library work\n    (cell top\n      \
             (view netlist\n        (interface (port a (direction INPUT)) \
             (port y (direction OUTPUT)))\n        (contents\n{}\n{}))))\n  \
             (design chain (cellRef top (libraryRef work))))\n",
            instances.join("\n"),
            nets.join("\n")
        )
    }

    /// `src` with the lines `pick` selects shuffled among themselves;
    /// every other line keeps its place.
    fn shuffle_lines(src: &str, rng: &mut Rng, pick: fn(&str) -> bool) -> String {
        let mut lines: Vec<&str> = src.lines().collect();
        let at: Vec<usize> = (0..lines.len()).filter(|&i| pick(lines[i])).collect();
        let mut picked: Vec<&str> = at.iter().map(|&i| lines[i]).collect();
        for i in (1..picked.len()).rev() {
            picked.swap(i, rng.gen_range(0..=i));
        }
        for (&i, line) in at.iter().zip(picked) {
            lines[i] = line;
        }
        lines.join("\n")
    }

    fn is_verilog_instance(line: &str) -> bool {
        let t = line.trim();
        t.ends_with(';')
            && !["module", "input", "output", "wire", "reg", "//"].iter().any(|k| t.starts_with(k))
    }

    fn is_edif_instance(line: &str) -> bool {
        let t = line.trim();
        t.starts_with("(instance") && t.matches('(').count() == t.matches(')').count()
    }

    /// Error-provoking variants of a valid input: an item dropped (its net
    /// may go undriven), a gate fed by some item's output (often a
    /// combinational cycle), and a gate with a pin too many or too few
    /// (a bad arity).
    fn variants<'a>(input: &BuildInput<'a>, rng: &mut Rng) -> Vec<BuildInput<'a>> {
        let gates: Vec<usize> = (0..input.items.len())
            .filter(|&i| matches!(input.items[i], BuildItem::Gate { .. }))
            .collect();
        let mut out = Vec::new();
        let mut dropped = input.clone();
        dropped.items.remove(rng.gen_range(0..input.items.len()));
        out.push(dropped);
        if gates.is_empty() {
            return out;
        }
        let mut looped = input.clone();
        let feed = looped.items[rng.gen_range(0..input.items.len())].slot();
        if let BuildItem::Gate { ins, .. } = &mut looped.items[gates[rng.gen_range(0..gates.len())]]
        {
            ins[0].slot = feed;
        }
        out.push(looped);
        let mut arity = input.clone();
        if let BuildItem::Gate { ins, .. } = &mut arity.items[gates[rng.gen_range(0..gates.len())]]
        {
            if ins.len() >= 2 {
                ins.truncate(1);
            } else {
                ins.push(ins[0]);
            }
        }
        out.push(arity);
        out
    }

    /// Builds `input` with both schedulers and requires the same nodes in
    /// the same order, or the same error. Returns the outcome's kind.
    fn assert_same_build(
        what: &str,
        format: SourceFormat,
        src: &Source,
        input: BuildInput,
    ) -> &'static str {
        let fast = build_in_order(format, src, input.clone(), schedule);
        let slow = build_in_order(format, src, input, schedule_by_passes);
        match (fast, slow) {
            (Ok(a), Ok(b)) => {
                structurally_equivalent(&a, &b).unwrap_or_else(|e| panic!("{what}: {e}"));
                for id in a.node_ids() {
                    assert_eq!(a.name(id), b.name(id), "{what}: node {id} name");
                }
                assert_eq!(a.outputs(), b.outputs(), "{what}: outputs");
                "ok"
            }
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "{what}");
                match a {
                    NetlistError::ParseUndriven { .. } => "undriven",
                    NetlistError::ParseSyntax { message, .. } if message.contains("cycle") => {
                        "cycle"
                    }
                    NetlistError::ParseSyntax { .. } => "arity",
                    other => panic!("{what}: unexpected error {other:?}"),
                }
            }
            (a, b) => panic!("{what}: fast {a:?} vs passes {b:?}"),
        }
    }

    #[test]
    fn linear_schedule_matches_the_pass_loop_on_shuffled_sources() {
        let verilog_sources = [
            include_str!("../../../../tests/golden/alu.v"),
            include_str!("../../../../tests/golden/array_multiplier.v"),
            include_str!("../../../../tests/golden/comparator.v"),
            include_str!("../../../../tests/golden/fir_shift_add.v"),
            include_str!("../../../../tests/golden/random_logic.v"),
            include_str!("../../../../tests/golden/ripple_adder.v"),
            include_str!("../../../../examples/gray_counter4.v"),
        ];
        let edif_sources = [include_str!("../../../../examples/majority.edf")];
        let edif_chain = edif_chain(40, false);
        let mut seen = std::collections::BTreeMap::new();
        let mut rng = Rng::seed_from_u64(0x5eed);
        let mut check = |format, text: &str, pick: fn(&str) -> bool, rng: &mut Rng| {
            for seed in 0..6 {
                let shuffled =
                    if seed == 0 { text.to_string() } else { shuffle_lines(text, rng, pick) };
                let src = Source::new(&shuffled);
                let input =
                    parse_to_input(format, &src).expect("a shuffle of a valid source still parses");
                let what = format!("{format} shuffle {seed}");
                let kind = assert_same_build(&what, format, &src, input.clone());
                *seen.entry(kind).or_insert(0) += 1;
                for (v, variant) in variants(&input, rng).into_iter().enumerate() {
                    let kind =
                        assert_same_build(&format!("{what} variant {v}"), format, &src, variant);
                    *seen.entry(kind).or_insert(0) += 1;
                }
            }
        };
        for text in verilog_sources {
            check(SourceFormat::Verilog, text, is_verilog_instance, &mut rng);
        }
        for text in edif_sources.iter().copied().chain([edif_chain.as_str()]) {
            check(SourceFormat::Edif, text, is_edif_instance, &mut rng);
        }
        for kind in ["ok", "undriven", "cycle", "arity"] {
            assert!(seen.get(kind).copied().unwrap_or(0) > 0, "no {kind} case among {seen:?}");
        }
    }

    #[test]
    fn reversed_chain_checks_each_item_a_bounded_number_of_times() {
        let n = 4000;
        for (format, text) in [
            (SourceFormat::Verilog, verilog_chain(n, true)),
            (SourceFormat::Edif, edif_chain(n, true)),
        ] {
            let src = Source::new(&text);
            let input = parse_to_input(format, &src).expect("parses");
            let items = input.items.len();
            let pins: usize = input.items.iter().map(|item| item.fanins().len()).sum();
            let before = readiness_checks();
            let reversed = build(format, &src, input.clone()).expect("builds");
            let checks = readiness_checks() - before;
            // One check per item plus one per pin; the pass loop made
            // about n^2 / 2 here.
            assert!(checks <= items + pins, "{format}: {checks} checks for {items} items");
            let oracle = build_in_order(format, &src, input, schedule_by_passes).expect("builds");
            structurally_equivalent(&reversed, &oracle).expect("same nodes as the pass loop");
        }
        // Listed last-to-first, the chain still builds in chain order.
        let forward = parse_verilog(&verilog_chain(n, false)).expect("parses");
        let reversed = parse_verilog(&verilog_chain(n, true)).expect("parses");
        structurally_equivalent(&forward, &reversed).expect("same nodes either way");
    }

    #[test]
    fn valid_parses_materialize_no_source_locations() {
        let mut nl = Netlist::new();
        crate::gen::random_logic(&mut nl, 7, 32, 8000, 16);
        let verilog = emit_verilog(&nl, "rand8k");
        let edif = edif_chain(2000, true);
        let before = located_count();
        assert_eq!(parse_verilog(&verilog).expect("parses").gate_count(), 8000);
        assert_eq!(parse_edif(&edif).expect("parses").gate_count(), 2000);
        assert_eq!(located_count(), before, "a valid parse built a SrcLoc");
        // An error still builds exactly one, with its snippet.
        let bad = verilog.replacen("endmodule", "frobnicate", 1);
        match parse_verilog(&bad).unwrap_err() {
            NetlistError::ParseSyntax { at, .. } => assert_eq!(at.snippet, ""),
            other => panic!("wrong variant: {other:?}"),
        }
        assert_eq!(located_count(), before + 1);
    }
}
