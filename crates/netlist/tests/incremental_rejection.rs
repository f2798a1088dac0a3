//! The incremental simulator's edit-session battery. A session reaches
//! the recorded netlist only through its editor's journal, so the bad
//! edits left are those the editor refuses per operation and a
//! combinational cycle, which surfaces at `resim_into`.

use hlpower_netlist::{
    gen, streams, ConeResim, EditSession, GateKind, IncrementalSim, Netlist, NetlistError, NodeId,
    NodeKind, ResimScratch,
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

/// The stream every case records over.
fn stream(nl: &Netlist) -> Vec<Vec<bool>> {
    streams::random(5, nl.input_count()).take(70).collect()
}

/// The first 2-input AND gate and its fanins.
fn first_and(nl: &Netlist) -> (NodeId, Vec<NodeId>) {
    nl.node_ids()
        .find_map(|id| match nl.kind(id) {
            NodeKind::Gate { kind: GateKind::And, inputs } if inputs.len() == 2 => {
                Some((id, inputs.clone()))
            }
            _ => None,
        })
        .unwrap()
}

/// Resims a session into fresh buffers.
fn resim(s: &EditSession<'_>) -> Result<ConeResim, NetlistError> {
    let mut out = ConeResim::default();
    s.resim_into(&mut ResimScratch::default(), &mut out).map(|()| out)
}

#[test]
fn session_rejects_every_bad_edit() {
    let nl = adder(4, true);
    let (target, ins) = first_and(&nl);
    // The last gate sits in the top bit of the carry chain, downstream of
    // `target`: wiring it into `target` closes a combinational loop.
    let last_gate =
        nl.node_ids().filter(|&id| matches!(nl.kind(id), NodeKind::Gate { .. })).last().unwrap();
    let ghost = nl.clone().input("ghost");
    let (input, q) = (nl.inputs()[0], nl.dffs()[0]);
    let mut inc = IncrementalSim::record(&nl, &stream(&nl)).unwrap();
    let mut s = inc.edit();
    for r in [
        s.replace_gate(target, GateKind::And, [input, ghost]),
        s.replace_gate(target, GateKind::And, [input, target]),
        s.replace_gate(input, GateKind::Not, [q]),
        s.rewire_input(q, 0, input),
        s.rebind_output(nl.outputs().len(), q),
    ] {
        assert!(matches!(r, Err(NetlistError::IncrementalMismatch { .. })), "{r:?}");
    }
    assert_eq!(s.netlist(), &nl, "a refused edit changed the netlist");
    s.replace_gate(target, GateKind::And, [ins[0], last_gate]).unwrap();
    let r = resim(&s).map(drop);
    assert!(matches!(r, Err(NetlistError::CombinationalCycle { .. })), "{r:?}");
    drop(s);
    assert_eq!(inc.base(), &nl, "a dropped session rolls back");
}

/// `edit → resim → rollback` leaves `base()`, `activity()` and every
/// `value_words` row exactly as recorded, on a combinational and a
/// registered netlist.
#[test]
fn rollback_leaves_both_recordings_as_recorded() {
    for registered in [false, true] {
        let nl = adder(4, registered);
        let stream = stream(&nl);
        let (target, ins) = first_and(&nl);
        let rows = |inc: &IncrementalSim| {
            nl.node_ids().map(|id| inc.value_words(id).to_vec()).collect::<Vec<_>>()
        };
        let mut inc = IncrementalSim::record(&nl, &stream).unwrap();
        let before = (inc.activity(), rows(&inc));
        let mut s = inc.edit();
        // A function flip, a buffer on one pin and a register on the other.
        s.replace_gate(target, GateKind::Nand, ins.clone()).unwrap();
        let buf = s.insert_gate(GateKind::Buf, [ins[0]]).unwrap();
        let q = s.insert_dff(ins[1], true).unwrap();
        s.replace_gate(target, GateKind::Nand, [buf, q]).unwrap();
        resim(&s).unwrap();
        // The candidate is a real change: a full re-record of it differs
        // from the recording on some row.
        let full = IncrementalSim::record(s.netlist(), &stream).unwrap();
        assert_ne!(rows(&full), before.1);
        s.rollback();
        assert_eq!(inc.base(), &nl);
        assert_eq!((inc.activity(), rows(&inc)), before);
    }
}
