//! The incremental simulators' rejection battery: every edit the
//! dirty-cone front end must refuse, run against both
//! [`IncrementalSim`] and [`IncrementalTimedSim`] — they share one front
//! end, so each case must fail the same way in both.

use hlpower_netlist::{
    gen, streams, GateKind, IncrementalSim, IncrementalTimedSim, Library, Netlist, NetlistError,
    NodeId, NodeKind,
};

fn adder(bits: usize, registered: bool) -> Netlist {
    let mut nl = Netlist::new();
    let mut a = nl.input_bus("a", bits);
    let mut b = nl.input_bus("b", bits);
    if registered {
        a = nl.dff_bus(&a);
        b = nl.dff_bus(&b);
    }
    let c0 = nl.constant(false);
    let s = gen::ripple_adder(&mut nl, &a, &b, c0);
    let s = if registered { nl.dff_bus(&s) } else { s };
    nl.output_bus("s", &s);
    nl
}

/// Records `base` with both simulators and resims `mutated` on each.
fn resims(base: &Netlist, mutated: &Netlist, changed: &[NodeId]) -> [Result<(), NetlistError>; 2] {
    let stream: Vec<Vec<bool>> = streams::random(5, base.input_count()).take(70).collect();
    let untimed = IncrementalSim::record(base, &stream).unwrap();
    let timed = IncrementalTimedSim::record(base, &Library::default(), &stream).unwrap();
    [untimed.resim(mutated, changed).map(drop), timed.resim(mutated, changed).map(drop)]
}

fn all_mismatch(results: [Result<(), NetlistError>; 2]) -> bool {
    results.iter().all(|r| matches!(r, Err(NetlistError::IncrementalMismatch { .. })))
}

#[test]
fn both_simulators_reject_every_bad_edit() {
    let nl = adder(4, false);
    let target = nl
        .node_ids()
        .find(|&id| {
            matches!(nl.kind(id), NodeKind::Gate { kind: GateKind::And, inputs } if inputs.len() == 2)
        })
        .unwrap();
    let NodeKind::Gate { inputs, kind } = nl.kind(target).clone() else { unreachable!() };
    // Undeclared edit.
    let mut sneaky = nl.clone();
    sneaky.replace_gate(target, GateKind::Nand, inputs.clone()).unwrap();
    assert!(all_mismatch(resims(&nl, &sneaky, &[])));
    // Different inputs.
    let mut extra_input = nl.clone();
    extra_input.input("z");
    assert!(all_mismatch(resims(&nl, &extra_input, &[])));
    // A rewiring that introduces a cycle surfaces as such.
    let mut cyclic = nl.clone();
    let downstream = cyclic.node_ids().last().unwrap();
    cyclic.replace_gate(target, kind, vec![inputs[0], downstream]).unwrap();
    for r in resims(&nl, &cyclic, &[target]) {
        assert!(matches!(r, Err(NetlistError::CombinationalCycle { .. })), "{r:?}");
    }
    // A pre-existing register rewired under the table is rejected; a
    // no-op rewire is not.
    let seq = adder(3, true);
    let mut retuned = seq.clone();
    let q = retuned.dffs()[0];
    let NodeKind::Dff { d, .. } = *retuned.kind(q) else { unreachable!() };
    retuned.connect_dff_d(q, d);
    assert!(resims(&seq, &retuned, &[]).iter().all(Result::is_ok));
    let other_d = retuned.inputs()[1];
    retuned.connect_dff_d(q, other_d);
    assert!(all_mismatch(resims(&seq, &retuned, &[])));
}
