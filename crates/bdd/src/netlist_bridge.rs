//! Bridges between gate-level netlists and BDDs.
//!
//! `build_output_bdds` extracts the combinational functions of a netlist's
//! primary outputs as BDDs over the primary inputs (flip-flop outputs are
//! treated as additional free variables, appended after the inputs);
//! `bdd_to_mux_netlist` maps a BDD back into a multiplexer network — the
//! direct translation whose depth/size problems §III-H discusses.

use std::collections::HashMap;

use hlpower_netlist::{GateKind, Netlist, NetlistError, NodeId, NodeKind};

use crate::manager::{BddManager, BddRef};

/// Builds BDDs for every node of the combinational network.
///
/// Variables `0..input_count` correspond to the primary inputs in
/// declaration order; variables `input_count..input_count + dff_count`
/// correspond to flip-flop outputs (present state). Returns the manager and
/// a map from node to BDD.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the netlist is cyclic.
pub fn build_node_bdds(
    netlist: &Netlist,
) -> Result<(BddManager, HashMap<NodeId, BddRef>), NetlistError> {
    let order = netlist.topo_order()?;
    let nvars = netlist.input_count() + netlist.dffs().len();
    let mut m = BddManager::new(nvars);
    let mut map: HashMap<NodeId, BddRef> = HashMap::new();
    for (i, &inp) in netlist.inputs().iter().enumerate() {
        let v = m.var(i as u32);
        map.insert(inp, v);
    }
    for (i, &q) in netlist.dffs().iter().enumerate() {
        let v = m.var((netlist.input_count() + i) as u32);
        map.insert(q, v);
    }
    for id in netlist.node_ids() {
        if let NodeKind::Const(c) = netlist.kind(id) {
            map.insert(id, m.constant(*c));
        }
    }
    for &id in &order {
        if let NodeKind::Gate { kind, inputs } = netlist.kind(id) {
            let fanin: Vec<BddRef> = inputs.iter().map(|f| map[f]).collect();
            let f = gate_bdd(&mut m, *kind, &fanin);
            map.insert(id, f);
        }
    }
    Ok((m, map))
}

/// The BDD of one gate of kind `kind` over its fan-in functions `fanin`,
/// in the gate's input order (a [`GateKind::Mux`]'s `[sel, a, b]`).
pub fn gate_bdd(m: &mut BddManager, kind: GateKind, fanin: &[BddRef]) -> BddRef {
    use GateKind::*;
    match kind {
        Buf => fanin[0],
        Not => m.not(fanin[0]),
        And => m.and_many(fanin.iter().copied()),
        Or => m.or_many(fanin.iter().copied()),
        Nand => {
            let x = m.and_many(fanin.iter().copied());
            m.not(x)
        }
        Nor => {
            let x = m.or_many(fanin.iter().copied());
            m.not(x)
        }
        Xor => fanin[1..].iter().fold(fanin[0], |acc, &x| m.xor(acc, x)),
        Xnor => {
            let x = fanin[1..].iter().fold(fanin[0], |acc, &x| m.xor(acc, x));
            m.not(x)
        }
        Mux => m.ite(fanin[0], fanin[2], fanin[1]),
    }
}

/// Builds BDDs for the primary outputs only; returns `(manager, roots)`
/// with one root per declared output, in order.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the netlist is cyclic.
pub fn build_output_bdds(netlist: &Netlist) -> Result<(BddManager, Vec<BddRef>), NetlistError> {
    let (m, map) = build_node_bdds(netlist)?;
    let roots = netlist.outputs().iter().map(|&(_, n)| map[&n]).collect();
    Ok((m, roots))
}

/// Maps a BDD into a 2:1-multiplexer netlist rooted at the returned node.
///
/// `var_nodes[v]` supplies the netlist node driving BDD variable `v`.
/// Shared BDD nodes become shared mux instances. This is the "obvious
/// mapping of each BDD node to a multiplexor" of §III-H.
///
/// # Panics
///
/// Panics if the BDD's support references a variable with no entry in
/// `var_nodes`.
pub fn bdd_to_mux_netlist(
    m: &BddManager,
    root: BddRef,
    var_nodes: &[NodeId],
    nl: &mut Netlist,
) -> NodeId {
    let mut memo: HashMap<BddRef, NodeId> = HashMap::new();
    build_mux(m, root, var_nodes, nl, &mut memo)
}

fn build_mux(
    m: &BddManager,
    f: BddRef,
    var_nodes: &[NodeId],
    nl: &mut Netlist,
    memo: &mut HashMap<BddRef, NodeId>,
) -> NodeId {
    if f == BddRef::FALSE {
        return nl.constant(false);
    }
    if f == BddRef::TRUE {
        return nl.constant(true);
    }
    if let Some(&n) = memo.get(&f) {
        return n;
    }
    let v = m.top_var(f).expect("non-terminal has a variable") as usize;
    assert!(v < var_nodes.len(), "BDD variable {v} has no driving node");
    let lo = build_mux(m, m.low(f), var_nodes, nl, memo);
    let hi = build_mux(m, m.high(f), var_nodes, nl, memo);
    let out = nl.mux(var_nodes[v], lo, hi);
    memo.insert(f, out);
    out
}

/// Maps a BDD into a *timed-Shannon* network (§III-H, reference 97): a token
/// is launched at the root and steered along the single path selected by
/// the input vector; the output asserts iff the token reaches the TRUE
/// terminal. Because only the gates on the previously-selected and
/// newly-selected root-to-terminal paths can switch, input changes cause
/// localized activity — the power-efficiency argument of the timed
/// Shannon style, versus the mux mapping where inner nodes toggle freely.
///
/// # Panics
///
/// Panics if the BDD's support references a variable with no entry in
/// `var_nodes`.
pub fn bdd_to_timed_shannon(
    m: &BddManager,
    root: BddRef,
    var_nodes: &[NodeId],
    nl: &mut Netlist,
) -> NodeId {
    if root == BddRef::FALSE {
        return nl.constant(false);
    }
    if root == BddRef::TRUE {
        return nl.constant(true);
    }
    // Collect reachable decision nodes in topological (parents-first)
    // order: any order works as long as parents precede children, which a
    // DFS post-order reversal provides for the child links.
    let mut order: Vec<BddRef> = Vec::new();
    let mut seen: HashMap<BddRef, bool> = HashMap::new();
    fn dfs(m: &BddManager, f: BddRef, seen: &mut HashMap<BddRef, bool>, order: &mut Vec<BddRef>) {
        if f.is_const() || seen.contains_key(&f) {
            return;
        }
        seen.insert(f, true);
        dfs(m, m.low(f), seen, order);
        dfs(m, m.high(f), seen, order);
        order.push(f);
    }
    dfs(m, root, &mut seen, &mut order);
    order.reverse(); // parents before children

    // Token arriving at each node: OR over incoming steered tokens.
    let one = nl.constant(true);
    let mut incoming: HashMap<BddRef, Vec<NodeId>> = HashMap::new();
    incoming.insert(root, vec![one]);
    let mut true_tokens: Vec<NodeId> = Vec::new();
    for &node in &order {
        let sources = incoming.remove(&node).unwrap_or_default();
        let token = match sources.len() {
            0 => continue, // unreachable (shouldn't happen)
            1 => sources[0],
            _ => nl.or(sources),
        };
        let v = m.top_var(node).expect("decision node") as usize;
        assert!(v < var_nodes.len(), "BDD variable {v} has no driving node");
        let sel = var_nodes[v];
        let nsel = nl.not(sel);
        let lo_token = nl.and([token, nsel]);
        let hi_token = nl.and([token, sel]);
        for (child, t) in [(m.low(node), lo_token), (m.high(node), hi_token)] {
            if child == BddRef::TRUE {
                true_tokens.push(t);
            } else if child != BddRef::FALSE {
                incoming.entry(child).or_default().push(t);
            }
        }
    }
    match true_tokens.len() {
        0 => nl.constant(false),
        1 => true_tokens[0],
        _ => nl.or(true_tokens),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlpower_netlist::{gen, words::to_bits, ZeroDelaySim};

    #[test]
    fn extracted_bdd_matches_circuit() {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", 3);
        let b = nl.input_bus("b", 3);
        let zero = nl.constant(false);
        let s = gen::ripple_adder(&mut nl, &a, &b, zero);
        nl.output_bus("s", &s);
        let (m, roots) = build_output_bdds(&nl).unwrap();
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        for x in 0u64..8 {
            for y in 0u64..8 {
                let mut v = to_bits(x, 3);
                v.extend(to_bits(y, 3));
                let outs = sim.eval_combinational(&v).unwrap();
                for (i, &r) in roots.iter().enumerate() {
                    assert_eq!(m.eval(r, &v), outs[i], "{x}+{y} bit {i}");
                }
            }
        }
    }

    #[test]
    fn dff_outputs_become_state_variables() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let q = nl.dff(a, false);
        let y = nl.xor([a, q]);
        nl.set_output("y", y);
        let (m, map) = build_node_bdds(&nl).unwrap();
        // y depends on input var 0 and state var 1.
        assert_eq!(m.support(map[&y]), vec![0, 1]);
    }

    #[test]
    fn mux_mapping_round_trips() {
        // Build f = majority(a, b, c) as BDD, map to muxes, check equality.
        let mut m = BddManager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let ac = m.and(a, c);
        let bc = m.and(b, c);
        let maj = m.or_many([ab, ac, bc]);

        let mut nl = Netlist::new();
        let ins = nl.input_bus("x", 3);
        let y = bdd_to_mux_netlist(&m, maj, &ins, &mut nl);
        nl.set_output("y", y);
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        for bits in 0..8u32 {
            let asg: Vec<bool> = (0..3).map(|i| bits & (1 << i) != 0).collect();
            let expect = m.eval(maj, &asg);
            let got = sim.eval_combinational(&asg).unwrap()[0];
            assert_eq!(got, expect, "bits {bits:03b}");
        }
    }

    #[test]
    fn timed_shannon_matches_function() {
        let mut m = BddManager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let d = m.var(3);
        let ab = m.and(a, b);
        let cd = m.xor(c, d);
        let f = m.or(ab, cd);
        let mut nl = Netlist::new();
        let ins = nl.input_bus("x", 4);
        let y = bdd_to_timed_shannon(&m, f, &ins, &mut nl);
        nl.set_output("y", y);
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        for bits in 0..16u32 {
            let asg: Vec<bool> = (0..4).map(|i| bits & (1 << i) != 0).collect();
            assert_eq!(sim.eval_combinational(&asg).unwrap()[0], m.eval(f, &asg), "{bits:04b}");
        }
    }

    #[test]
    fn timed_shannon_constants() {
        let m = BddManager::new(2);
        let mut nl = Netlist::new();
        let ins = nl.input_bus("x", 2);
        let t = bdd_to_timed_shannon(&m, BddRef::TRUE, &ins, &mut nl);
        let f = bdd_to_timed_shannon(&m, BddRef::FALSE, &ins, &mut nl);
        nl.set_output("t", t);
        nl.set_output("f", f);
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        let out = sim.eval_combinational(&[false, true]).unwrap();
        assert_eq!(out, vec![true, false]);
    }

    #[test]
    fn timed_shannon_localizes_switching() {
        // Single-bit input changes toggle fewer gates in the path-token
        // network than total activity in the mux network, relative to
        // size, on a chain-structured function.
        let mut m = BddManager::new(8);
        let vs: Vec<BddRef> = (0..8).map(|i| m.var(i)).collect();
        // f = x0 & x1 & ... & x7 (a single long path).
        let f = m.and_many(vs.iter().copied());
        let build = |style: u8| -> (Netlist, f64) {
            let mut nl = Netlist::new();
            let ins = nl.input_bus("x", 8);
            let y = if style == 0 {
                bdd_to_mux_netlist(&m, f, &ins, &mut nl)
            } else {
                bdd_to_timed_shannon(&m, f, &ins, &mut nl)
            };
            nl.set_output("y", y);
            // Walk Gray-code-like single-bit changes.
            let mut sim = ZeroDelaySim::new(&nl).unwrap();
            let mut v = vec![true; 8];
            sim.step(&v).unwrap();
            let mut toggles = 0u64;
            for i in 0..8 {
                v[i] = false;
                sim.step(&v).unwrap();
                v[i] = true;
                sim.step(&v).unwrap();
            }
            let act = sim.take_activity();
            toggles += act.toggles.iter().sum::<u64>();
            (nl, toggles as f64)
        };
        let (_nl_mux, mux_toggles) = build(0);
        let (_nl_ts, ts_toggles) = build(1);
        // Both are correct; the interesting claim is that activity stays
        // within a small factor despite the timed-Shannon net being larger.
        assert!(ts_toggles < 4.0 * mux_toggles, "ts {ts_toggles} vs mux {mux_toggles}");
    }

    #[test]
    fn shared_nodes_share_muxes() {
        let mut m = BddManager::new(4);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let d = m.var(3);
        let cd = m.and(c, d);
        let f1 = m.or(a, cd);
        let f2 = m.or(b, cd);
        let f = m.and(f1, f2);
        let mut nl = Netlist::new();
        let ins = nl.input_bus("x", 4);
        let _ = bdd_to_mux_netlist(&m, f, &ins, &mut nl);
        // Mux count equals reachable BDD node count (sharing preserved).
        assert_eq!(nl.gate_count(), m.node_count(f));
    }
}
