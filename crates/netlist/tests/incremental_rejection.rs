//! The incremental simulators' edit-session battery, run against both
//! [`IncrementalSim`] and [`IncrementalTimedSim`]: they share one cone
//! builder and one editor, so each case must behave the same way in
//! both. A session reaches the recorded netlist only through its
//! editor's journal, so the bad edits left are those the editor refuses
//! per operation and a combinational cycle, which surfaces at
//! `resim_into`.

use hlpower_netlist::{
    gen, streams, ConeResim, EditSession, GateKind, IncrementalSim, IncrementalTimedSim, Library,
    Netlist, NetlistEditor, NetlistError, NodeId, NodeKind, ResimScratch, TimedConeResim,
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

/// Both recordings of `nl` over one random stream.
fn record(nl: &Netlist) -> (IncrementalSim, IncrementalTimedSim) {
    let stream: Vec<Vec<bool>> = streams::random(5, nl.input_count()).take(70).collect();
    let timed = IncrementalTimedSim::record(nl, &Library::default(), &stream).unwrap();
    (IncrementalSim::record(nl, &stream).unwrap(), timed)
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
fn resim<O: Default>(s: &EditSession<'_, O>) -> Result<O, NetlistError> {
    let mut out = O::default();
    s.resim_into(&mut ResimScratch::default(), &mut out).map(|()| out)
}

#[test]
fn both_simulators_reject_every_bad_edit() {
    let nl = adder(4, true);
    let (target, ins) = first_and(&nl);
    // The last gate sits in the top bit of the carry chain, downstream of
    // `target`: wiring it into `target` closes a combinational loop.
    let last_gate =
        nl.node_ids().filter(|&id| matches!(nl.kind(id), NodeKind::Gate { .. })).last().unwrap();
    let ghost = nl.clone().input("ghost");
    let (input, q) = (nl.inputs()[0], nl.dffs()[0]);
    let bad_edits = |ed: &mut NetlistEditor<'_>| {
        for r in [
            ed.replace_gate(target, GateKind::And, [input, ghost]),
            ed.replace_gate(target, GateKind::And, [input, target]),
            ed.replace_gate(input, GateKind::Not, [q]),
            ed.rewire_input(q, 0, input),
            ed.rebind_output(nl.outputs().len(), q),
        ] {
            assert!(matches!(r, Err(NetlistError::IncrementalMismatch { .. })), "{r:?}");
        }
        assert_eq!(ed.netlist(), &nl, "a refused edit changed the netlist");
        ed.replace_gate(target, GateKind::And, [ins[0], last_gate]).unwrap();
    };
    let (mut untimed, mut timed) = record(&nl);
    let mut s = untimed.edit();
    bad_edits(&mut s);
    let r = resim(&s).map(drop);
    assert!(matches!(r, Err(NetlistError::CombinationalCycle { .. })), "{r:?}");
    drop(s);
    let mut s = timed.edit();
    bad_edits(&mut s);
    let r = resim(&s).map(drop);
    assert!(matches!(r, Err(NetlistError::CombinationalCycle { .. })), "{r:?}");
    drop(s);
    assert_eq!((untimed.base(), timed.base()), (&nl, &nl), "dropped sessions roll back");
}

/// `edit → resim → rollback` leaves `base()`, `activity()` and every
/// `value_words` row of both simulators exactly as recorded, on a
/// combinational and a registered netlist.
#[test]
fn rollback_leaves_both_recordings_as_recorded() {
    for registered in [false, true] {
        let nl = adder(4, registered);
        let (target, ins) = first_and(&nl);
        // A function flip, a buffer on one pin and a register on the other.
        let candidate = |ed: &mut NetlistEditor<'_>| {
            ed.replace_gate(target, GateKind::Nand, ins.clone()).unwrap();
            let buf = ed.insert_gate(GateKind::Buf, [ins[0]]).unwrap();
            let q = ed.insert_dff(ins[1], true).unwrap();
            ed.replace_gate(target, GateKind::Nand, [buf, q]).unwrap();
        };
        let rows =
            |words: &dyn Fn(NodeId) -> Vec<u64>| nl.node_ids().map(words).collect::<Vec<_>>();
        let (mut untimed, mut timed) = record(&nl);
        let before = (untimed.activity(), rows(&|id| untimed.value_words(id).to_vec()));
        let mut s = untimed.edit();
        candidate(&mut s);
        assert!(!resim::<ConeResim>(&s).unwrap().changed_values.is_empty());
        s.rollback();
        assert_eq!(untimed.base(), &nl);
        assert_eq!((untimed.activity(), rows(&|id| untimed.value_words(id).to_vec())), before);

        let before = (timed.activity(), rows(&|id| timed.value_words(id).to_vec()));
        let mut s = timed.edit();
        candidate(&mut s);
        assert!(!resim::<TimedConeResim>(&s).unwrap().changed_values.is_empty());
        s.rollback();
        assert_eq!(timed.base(), &nl);
        assert_eq!((timed.activity(), rows(&|id| timed.value_words(id).to_vec())), before);
    }
}
