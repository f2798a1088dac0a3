//! Property-based tests for the gate-level substrate. Runs on the
//! in-tree [`hlpower_rng::check`] harness.

use hlpower_netlist::{
    emit_verilog, gen, parse_verilog, streams, structurally_equivalent, words, ConeResim, GateKind,
    IncrementalSim, Library, Netlist, NetlistEditor, NodeId, NodeKind, ResimScratch, ZeroDelaySim,
};
use hlpower_rng::check::Check;
use hlpower_rng::Rng;

fn eval_once(nl: &Netlist, inputs: &[bool]) -> Vec<bool> {
    let mut sim = ZeroDelaySim::new(nl).expect("acyclic");
    sim.eval_combinational(inputs).expect("width matches")
}

/// Ripple adders compute addition for arbitrary operand values.
#[test]
fn adder_matches_integer_addition() {
    Check::new("adder_matches_integer_addition").cases(64).run(|rng| {
        let a = rng.gen_range(0u64..256);
        let b = rng.gen_range(0u64..256);
        let mut nl = Netlist::new();
        let ab = nl.input_bus("a", 8);
        let bb = nl.input_bus("b", 8);
        let zero = nl.constant(false);
        let s = gen::ripple_adder(&mut nl, &ab, &bb, zero);
        nl.output_bus("s", &s);
        let mut v = words::to_bits(a, 8);
        v.extend(words::to_bits(b, 8));
        let out = eval_once(&nl, &v);
        assert_eq!(words::from_bits(&out), a + b);
    });
}

/// Array multipliers compute multiplication for arbitrary operands.
#[test]
fn multiplier_matches_integer_multiplication() {
    Check::new("multiplier_matches_integer_multiplication").cases(64).run(|rng| {
        let a = rng.gen_range(0u64..64);
        let b = rng.gen_range(0u64..64);
        let mut nl = Netlist::new();
        let ab = nl.input_bus("a", 6);
        let bb = nl.input_bus("b", 6);
        let p = gen::array_multiplier(&mut nl, &ab, &bb);
        nl.output_bus("p", &p);
        let mut v = words::to_bits(a, 6);
        v.extend(words::to_bits(b, 6));
        let out = eval_once(&nl, &v);
        assert_eq!(words::from_bits(&out), a * b);
    });
}

/// CSD constant multipliers agree with multiplication for any constant.
#[test]
fn csd_multiplier_correct() {
    Check::new("csd_multiplier_correct").cases(64).run(|rng| {
        let k = rng.gen_range(1u64..512);
        let x = rng.gen_range(0u64..64);
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", 6);
        let p = gen::csd_const_multiplier(&mut nl, &a, k);
        nl.output_bus("p", &p);
        let w = p.len();
        let out = eval_once(&nl, &words::to_bits(x, 6));
        let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
        assert_eq!(words::from_bits(&out), (x * k) & mask);
    });
}

/// CSD digit strings reconstruct the constant and have no adjacent
/// nonzero digits.
#[test]
fn csd_digits_invariants() {
    Check::new("csd_digits_invariants").cases(64).run(|rng| {
        let k = rng.gen_range(0u64..100_000);
        let digits = gen::csd_digits(k);
        let value: i128 = digits.iter().enumerate().map(|(i, &d)| (d as i128) << i).sum();
        assert_eq!(value, k as i128);
        for w in digits.windows(2) {
            assert!(!(w[0] != 0 && w[1] != 0));
        }
    });
}

/// Simulation is deterministic: the same stream yields identical
/// activity twice.
#[test]
fn simulation_is_deterministic() {
    Check::new("simulation_is_deterministic").cases(64).run(|rng| {
        let seed = rng.gen_range(0u64..1000);
        let mut nl = Netlist::new();
        gen::random_logic(&mut nl, seed, 6, 30, 3);
        let run = |s: u64| {
            let mut sim = ZeroDelaySim::new(&nl).expect("acyclic");
            sim.run(streams::random(s, nl.input_count()).take(100)).expect("width matches")
        };
        assert_eq!(run(seed).toggles, run(seed).toggles);
    });
}

/// Random logic netlists are always acyclic and power-analyzable.
#[test]
fn random_logic_is_well_formed() {
    Check::new("random_logic_is_well_formed").cases(64).run(|rng| {
        let seed = rng.gen_range(0u64..500);
        let gates = rng.gen_range(5usize..80);
        let mut nl = Netlist::new();
        gen::random_logic(&mut nl, seed, 8, gates, 4);
        assert!(nl.topo_order().is_ok());
        let lib = Library::default();
        let mut sim = ZeroDelaySim::new(&nl).expect("acyclic");
        let act = sim.run(streams::random(seed, 8).take(50)).expect("width matches");
        let report = act.power(&nl, &lib);
        assert!(report.total_power_uw().is_finite());
        assert!(report.total_power_uw() >= 0.0);
    });
}

/// Word helpers round-trip for any width.
#[test]
fn word_round_trip() {
    Check::new("word_round_trip").cases(64).run(|rng| {
        let v = rng.next_u64();
        let width = rng.gen_range(1usize..=64);
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let bits = words::to_bits(v, width);
        assert_eq!(words::from_bits(&bits), v & mask);
    });
}

/// One random gate-level mutation of the editor's netlist, guaranteed
/// acyclic (new fanins never read the rewired gate).
fn random_mutation(rng: &mut Rng, ed: &mut NetlistEditor<'_>) {
    let current = ed.netlist();
    let ids: Vec<NodeId> = current.node_ids().collect();
    let gates: Vec<NodeId> = ids
        .iter()
        .copied()
        .filter(|&id| matches!(current.kind(id), NodeKind::Gate { .. }))
        .collect();
    let variadic =
        [GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Nor, GateKind::Xor, GateKind::Xnor];
    let target = gates[rng.gen_range(0..gates.len())];
    let NodeKind::Gate { kind, inputs } = current.kind(target).clone() else { unreachable!() };
    // New fanins come from earlier nodes that do not read `target`: an
    // appended gate sits at a high index, so a lower index can be one of
    // its readers, and wiring that in would close a real cycle.
    let fanouts = current.fanouts();
    let mut reads_target = vec![false; ids.len()];
    let mut stack = vec![target];
    while let Some(n) = stack.pop() {
        for &r in &fanouts[n.index()] {
            if !std::mem::replace(&mut reads_target[r.index()], true) {
                stack.push(r);
            }
        }
    }
    let earlier: Vec<NodeId> =
        ids[..target.index()].iter().copied().filter(|id| !reads_target[id.index()]).collect();
    match rng.gen_range(0u32..3) {
        // Function flip: new gate kind over the same fanins.
        0 => {
            let new_kind = variadic[rng.gen_range(0..variadic.len())];
            ed.replace_gate(target, new_kind, inputs).expect("arity holds");
        }
        // Rewire: repoint one fanin at an arbitrary earlier node.
        1 => {
            let mut ins = inputs;
            let pin = rng.gen_range(0..ins.len());
            ins[pin] = earlier[rng.gen_range(0..earlier.len())];
            ed.replace_gate(target, kind, ins).expect("arity holds");
        }
        // Append: fresh logic over earlier nodes, spliced into a fanin.
        _ => {
            let new_kind = variadic[rng.gen_range(0..variadic.len())];
            let a = earlier[rng.gen_range(0..earlier.len())];
            let b = earlier[rng.gen_range(0..earlier.len())];
            let fresh = ed.insert_gate(new_kind, [a, b]).expect("arity holds");
            let pin = rng.gen_range(0..inputs.len());
            ed.rewire_input(target, pin, fresh).expect("pin in range");
        }
    }
}

/// Dirty-cone re-simulation equals a full recompile-and-replay —
/// activity bit-for-bit and cached value words word-for-word — across a
/// random sequence of edit sessions, each committed or rolled back, and
/// no node outside the cone changes value. A rolled-back session leaves
/// every cached row as it was.
#[test]
fn dirty_cone_resim_matches_full_replay() {
    Check::new("dirty_cone_resim_matches_full_replay").cases(32).run(|rng| {
        let seed = rng.next_u64();
        let n_inputs = rng.gen_range(3usize..8);
        let n_gates = rng.gen_range(10usize..60);
        let mut nl = Netlist::new();
        gen::random_logic(&mut nl, seed, n_inputs, n_gates, 3);
        let cycles = rng.gen_range(60usize..200);
        let stream: Vec<Vec<bool>> = streams::random(seed, n_inputs).take(cycles).collect();
        let mut inc = IncrementalSim::record(&nl, &stream).expect("combinational");
        let (mut scratch, mut resim) = (ResimScratch::default(), ConeResim::default());
        for _ in 0..rng.gen_range(1usize..7) {
            // About one candidate in three is rejected and rolled back.
            let keep = rng.gen_range(0u32..3) != 0;
            let rows: Vec<Vec<u64>> =
                inc.base().node_ids().map(|id| inc.value_words(id).to_vec()).collect();
            let mut s = inc.edit();
            random_mutation(rng, &mut s);
            s.resim_into(&mut scratch, &mut resim).expect("incremental edit");
            let full = IncrementalSim::record(s.netlist(), &stream).expect("combinational");
            // No node outside the cone changed value...
            let mut in_cone = vec![false; s.netlist().node_count()];
            for &id in &resim.cone {
                in_cone[id.index()] = true;
            }
            for (id, row) in s.netlist().node_ids().zip(&rows) {
                if row.as_slice() != full.value_words(id) {
                    assert!(in_cone[id.index()], "node {id} changed outside the cone");
                }
            }
            // ...and the delta activity is bit-identical to the full replay.
            assert_eq!(resim.activity, full.activity());
            if keep {
                // Committing leaves the cache word-for-word equal to it.
                s.commit(&resim);
                for id in inc.base().node_ids() {
                    assert_eq!(
                        inc.value_words(id),
                        full.value_words(id),
                        "committed cache diverged at node {id}"
                    );
                }
            } else {
                s.rollback();
                assert_eq!(inc.base().node_count(), rows.len());
                for id in inc.base().node_ids() {
                    assert_eq!(inc.value_words(id), rows[id.index()], "rollback changed {id}");
                }
            }
        }
    });
}

/// The recorded base activity always matches the scalar simulator, for
/// arbitrary random netlists and stream lengths (including non-multiples
/// of 64, the packed word width).
#[test]
fn incremental_recording_matches_scalar_oracle() {
    Check::new("incremental_recording_matches_scalar_oracle").cases(32).run(|rng| {
        let seed = rng.next_u64();
        let n_inputs = rng.gen_range(2usize..7);
        let mut nl = Netlist::new();
        gen::random_logic(&mut nl, seed, n_inputs, rng.gen_range(5usize..40), 2);
        let cycles = rng.gen_range(1usize..150);
        let stream: Vec<Vec<bool>> = streams::random(seed, n_inputs).take(cycles).collect();
        let inc = IncrementalSim::record(&nl, &stream).expect("combinational");
        let mut scalar = ZeroDelaySim::new(&nl).expect("acyclic");
        let act = scalar.run(stream.iter().cloned()).expect("width matches");
        assert_eq!(inc.activity(), act);
    });
}

/// Random logic with feedback registers: `random_logic`, then flip-flops
/// made with `dff_placeholder`, gates mixing their outputs with the random
/// gates, and D inputs that read a random gate (often one reading a
/// register), the register itself (a hold) or its complement (a toggle,
/// whose word changes in every bit and so needs the full 65 passes).
fn feedback_logic(rng: &mut Rng) -> Netlist {
    let mut nl = Netlist::new();
    gen::random_logic(&mut nl, rng.next_u64(), rng.gen_range(2usize..6), rng.gen_range(5..30), 2);
    let mut pool: Vec<NodeId> =
        nl.node_ids().filter(|&id| matches!(nl.kind(id), NodeKind::Gate { .. })).collect();
    let regs: Vec<NodeId> =
        (0..rng.gen_range(1usize..6)).map(|_| nl.dff_placeholder(rng.gen_bool(0.5))).collect();
    pool.extend(&regs);
    let kinds = [GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Nand, GateKind::Xnor];
    for _ in 0..rng.gen_range(2usize..12) {
        let kind = kinds[rng.gen_range(0..kinds.len())];
        let (a, b) = (pool[rng.gen_range(0..pool.len())], pool[rng.gen_range(0..pool.len())]);
        let g = nl.gate(kind, [a, b]).expect("arity holds");
        pool.push(g);
    }
    for &q in &regs {
        let d = match rng.gen_range(0u32..4) {
            0 => q,
            // Every gate keeps two fanins, as `random_mutation` expects.
            1 => nl.gate(GateKind::Nand, [q, q]).expect("arity holds"),
            _ => pool[rng.gen_range(0..pool.len())],
        };
        nl.connect_dff_d(q, d);
    }
    let last = *pool.last().expect("gates were added");
    nl.set_output("z", last);
    nl
}

/// One random edit of a sequential netlist: a gate mutation anywhere, a
/// rewire inside a register's D cone, or a fresh flip-flop spliced into a
/// gate's fanin (reading any node, the rewired gate included: a register
/// breaks every combinational cycle).
fn random_sequential_mutation(rng: &mut Rng, ed: &mut NetlistEditor<'_>) {
    let current = ed.netlist();
    let ids: Vec<NodeId> = current.node_ids().collect();
    let gates: Vec<NodeId> = ids
        .iter()
        .copied()
        .filter(|&id| matches!(current.kind(id), NodeKind::Gate { .. }))
        .collect();
    match rng.gen_range(0u32..3) {
        0 => random_mutation(rng, ed),
        1 => {
            let target = gates[rng.gen_range(0..gates.len())];
            let NodeKind::Gate { inputs, .. } = current.kind(target) else { unreachable!() };
            let pin = rng.gen_range(0..inputs.len());
            let d = ids[rng.gen_range(0..ids.len())];
            let q = ed.insert_dff(d, rng.gen_bool(0.5)).expect("d exists");
            ed.rewire_input(target, pin, q).expect("pin in range");
        }
        _ => {
            // Walk from a register's D back through its gate fanins.
            let dffs = current.dffs();
            let NodeKind::Dff { d, .. } = current.kind(dffs[rng.gen_range(0..dffs.len())]) else {
                unreachable!("dffs() lists flip-flops")
            };
            let mut target = *d;
            for _ in 0..rng.gen_range(0usize..4) {
                match current.kind(target) {
                    NodeKind::Gate { inputs, .. } => {
                        target = inputs[rng.gen_range(0..inputs.len())]
                    }
                    _ => break,
                }
            }
            let NodeKind::Gate { kind, inputs } = current.kind(target).clone() else {
                return random_mutation(rng, ed);
            };
            // The new fanin must not read `target` combinationally.
            let fanouts = current.fanouts();
            let mut reads_target = vec![false; ids.len()];
            reads_target[target.index()] = true;
            let mut stack = vec![target];
            while let Some(n) = stack.pop() {
                for &r in &fanouts[n.index()] {
                    if matches!(current.kind(r), NodeKind::Gate { .. })
                        && !std::mem::replace(&mut reads_target[r.index()], true)
                    {
                        stack.push(r);
                    }
                }
            }
            let sources: Vec<NodeId> =
                ids.iter().copied().filter(|id| !reads_target[id.index()]).collect();
            let mut ins = inputs;
            let pin = rng.gen_range(0..ins.len());
            ins[pin] = sources[rng.gen_range(0..sources.len())];
            ed.replace_gate(target, kind, ins).expect("arity holds");
        }
    }
}

/// Registers with feedback: every recorded row bit equals the scalar
/// simulator's value on every node and cycle (stream lengths at and
/// around the 64-cycle block boundary, and random), and random edit
/// sessions — register insertions and rewires inside register D cones
/// among them — re-simulate exactly like a full re-record, committed or
/// rolled back as in `dirty_cone_resim_matches_full_replay`.
#[test]
fn feedback_registers_record_and_resim_exactly() {
    Check::new("feedback_registers_record_and_resim_exactly").cases(32).run(|rng| {
        let nl = feedback_logic(rng);
        let cycles = [1, 63, 64, 65, rng.gen_range(2usize..300)][rng.gen_range(0usize..5)];
        let stream: Vec<Vec<bool>> =
            streams::random(rng.next_u64(), nl.input_count()).take(cycles).collect();
        let mut inc = IncrementalSim::record(&nl, &stream).expect("acyclic");
        let mut scalar = ZeroDelaySim::new(&nl).expect("acyclic");
        for (c, v) in stream.iter().enumerate() {
            scalar.step(v).expect("width matches");
            for id in nl.node_ids() {
                assert_eq!(inc.value_at(id, c), scalar.value(id), "node {id}, cycle {c}");
            }
        }
        assert_eq!(inc.activity(), scalar.take_activity());
        let (mut scratch, mut resim) = (ResimScratch::default(), ConeResim::default());
        for _ in 0..rng.gen_range(1usize..7) {
            let keep = rng.gen_range(0u32..3) != 0;
            let rows: Vec<Vec<u64>> =
                inc.base().node_ids().map(|id| inc.value_words(id).to_vec()).collect();
            let mut s = inc.edit();
            random_sequential_mutation(rng, &mut s);
            s.resim_into(&mut scratch, &mut resim).expect("acyclic edit");
            let full = IncrementalSim::record(s.netlist(), &stream).expect("acyclic");
            let mut in_cone = vec![false; s.netlist().node_count()];
            for &id in &resim.cone {
                in_cone[id.index()] = true;
            }
            for (id, row) in s.netlist().node_ids().zip(&rows) {
                if row.as_slice() != full.value_words(id) {
                    assert!(in_cone[id.index()], "node {id} changed outside the cone");
                }
            }
            assert_eq!(resim.activity, full.activity());
            if keep {
                s.commit(&resim);
                for id in inc.base().node_ids() {
                    assert_eq!(
                        inc.value_words(id),
                        full.value_words(id),
                        "committed cache diverged at node {id}"
                    );
                }
            } else {
                s.rollback();
                assert_eq!(inc.base().node_count(), rows.len());
                for id in inc.base().node_ids() {
                    assert_eq!(inc.value_words(id), rows[id.index()], "rollback changed {id}");
                }
            }
        }
    });
}

/// Rolling back an editor session — any interleaving of gate
/// replacements, rewires, insertions (gates and registers), removals,
/// and output rebinds, including ops that were rejected mid-sequence —
/// restores the netlist to structural equality with its pre-edit state.
#[test]
fn editor_rollback_restores_structural_equality() {
    Check::new("editor_rollback_restores_structural_equality").cases(48).run(|rng| {
        let mut nl = Netlist::new();
        gen::random_logic(&mut nl, rng.next_u64(), rng.gen_range(3usize..7), 25, 3);
        let before = nl.clone();
        let ids: Vec<NodeId> = nl.node_ids().collect();
        let gates: Vec<NodeId> = ids
            .iter()
            .copied()
            .filter(|&id| matches!(nl.kind(id), NodeKind::Gate { .. }))
            .collect();
        let n_outputs = nl.outputs().len();
        let mut ed = NetlistEditor::begin(&mut nl);
        for _ in 0..rng.gen_range(1usize..12) {
            let target = gates[rng.gen_range(0..gates.len())];
            // Rejected ops (arity, liveness, cycles) must leave no
            // journal residue, so failures are ignored rather than
            // avoided.
            let _ = match rng.gen_range(0u32..6) {
                0 => ed
                    .replace_gate(target, GateKind::Nand, [ids[0], ids[1 % ids.len()]])
                    .map(|_| ()),
                1 => {
                    let src = ids[rng.gen_range(0..target.index().max(1))];
                    ed.rewire_input(target, 0, src).map(|_| ())
                }
                2 => {
                    let a = ids[rng.gen_range(0..ids.len())];
                    let b = ids[rng.gen_range(0..ids.len())];
                    ed.insert_gate(GateKind::Xor, [a, b]).map(|fresh| {
                        let _ = ed.rewire_input(target, 0, fresh);
                    })
                }
                3 => {
                    let d = ids[rng.gen_range(0..ids.len())];
                    ed.insert_dff(d, rng.gen_range(0u32..2) == 0).map(|_| ())
                }
                4 => ed.remove_gate(target).map(|_| ()),
                _ => {
                    let idx = rng.gen_range(0..n_outputs);
                    let node = ids[rng.gen_range(0..ids.len())];
                    ed.rebind_output(idx, node)
                }
            };
        }
        ed.rollback();
        assert_eq!(nl, before, "rollback left the netlist structurally different");
    });
}

/// Hamming distance is a metric on bit vectors (symmetry + identity).
#[test]
fn hamming_is_symmetric() {
    Check::new("hamming_is_symmetric").cases(64).run(|rng| {
        let a = rng.gen_range(0u64..65536);
        let b = rng.gen_range(0u64..65536);
        let va = words::to_bits(a, 16);
        let vb = words::to_bits(b, 16);
        assert_eq!(words::hamming(&va, &vb), words::hamming(&vb, &va));
        assert_eq!(words::hamming(&va, &va), 0);
        assert_eq!(words::hamming(&va, &vb) as u32, (a ^ b).count_ones());
    });
}

/// Port names the round-trip property draws from: plain identifiers, a
/// Verilog keyword and a name that must be escaped, so duplicates and
/// input/output and scalar/bus clashes come up often.
const PORT_NAMES: [&str; 6] = ["a", "b", "y", "q", "wire", "d.0"];

/// Declares one scalar port or one whole bus (inputs if `input`) named
/// from [`PORT_NAMES`], unless `check_port` refuses one of its names;
/// returns the bits it declared.
fn declare_ports(rng: &mut Rng, nl: &mut Netlist, input: bool, drivers: &[NodeId]) -> usize {
    let base = PORT_NAMES[rng.gen_range(0..PORT_NAMES.len())];
    let names: Vec<String> = match rng.gen_range(0..3u32) {
        0 => vec![base.to_string()],
        _ => (0..rng.gen_range(1..4usize)).map(|i| format!("{base}[{i}]")).collect(),
    };
    if names.iter().any(|name| nl.check_port(name, input).is_err()) {
        return 0;
    }
    for name in &names {
        if input {
            nl.input(name.as_str());
        } else {
            nl.set_output(name.as_str(), drivers[rng.gen_range(0..drivers.len())]);
        }
    }
    names.len()
}

/// Every netlist the builder API accepts survives `parse(emit_verilog)`:
/// inputs first (so arena indices line up), then random gates and
/// flip-flops, then outputs, declared as scalars or whole buses with
/// names that often clash. A clashing port is refused by `check_port`
/// before it is declared.
#[test]
fn builder_netlists_round_trip_through_verilog() {
    Check::new("builder_netlists_round_trip_through_verilog").cases(128).run(|rng| {
        let mut nl = Netlist::new();
        while nl.input_count() == 0 {
            for _ in 0..rng.gen_range(1..5u32) {
                declare_ports(rng, &mut nl, true, &[]);
            }
        }
        let mut nodes: Vec<NodeId> = nl.inputs().to_vec();
        for _ in 0..rng.gen_range(0..12u32) {
            let mut pick = || nodes[rng.gen_range(0..nodes.len())];
            let (x, y, z) = (pick(), pick(), pick());
            let node = match rng.gen_range(0..6u32) {
                0 => nl.and([x, y]),
                1 => nl.xor([x, y, z]),
                2 => nl.nor([x, y]),
                3 => nl.not(x),
                4 => nl.mux(x, y, z),
                _ => nl.dff(x, rng.gen_bool(0.5)),
            };
            nodes.push(node);
        }
        for _ in 0..rng.gen_range(1..5u32) {
            declare_ports(rng, &mut nl, false, &nodes);
        }
        let text = emit_verilog(&nl, "m");
        let back = parse_verilog(&text).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{text}"));
        structurally_equivalent(&nl, &back).unwrap_or_else(|e| panic!("{e}\n{text}"));
    });
}

/// A port name that clashes with a declared one is refused: the same full
/// name, a base shared by inputs and outputs, or a scalar sharing a bus's
/// base. `Netlist::input` and `set_output` panic on it.
#[test]
fn clashing_port_names_are_refused() {
    let mut nl = Netlist::new();
    let y = nl.input_bus("y", 2);
    assert!(nl.check_port("y[2]", true).is_ok(), "a bus may grow");
    for (name, input) in [("y[0]", true), ("y[2]", false), ("y", true), ("y", false)] {
        assert!(nl.check_port(name, input).is_err(), "{name} (input {input})");
    }
    nl.set_output("z", y[0]);
    assert!(nl.check_port("z", false).is_err());
    assert!(nl.check_port("z[0]", false).is_err());
    let twice = std::panic::catch_unwind(move || nl.input("z"));
    assert!(twice.is_err(), "declaring a clashing port panics");
    // `random_logic` names its outputs `y[i]`: a second `y` bus, which
    // made the emitter declare `y` twice, is refused.
    let mut nl = Netlist::new();
    gen::random_logic(&mut nl, 3, 4, 12, 2);
    assert!(nl.check_port("y[0]", false).is_err());
    assert!(parse_verilog(&emit_verilog(&nl, "m")).is_ok());
}
