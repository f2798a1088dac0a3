//! Property-based tests: every bus codec is bijective on arbitrary
//! streams, Bus-Invert honors its transition bound, shutdown policy
//! simulation respects physical bounds, and guard discovery returns
//! exactly the guards an exhaustive oracle finds. Runs on the in-tree
//! [`hlpower_rng::check`] harness.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use hlpower_netlist::{gen, Library, Netlist, NodeId, NodeKind};
use hlpower_opt::buscode::*;
use hlpower_opt::guard;
use hlpower_opt::shutdown::{self, policies::*};
use hlpower_rng::check::Check;
use hlpower_rng::Rng;

fn word_stream(rng: &mut Rng) -> Vec<u64> {
    let len = rng.gen_range(2usize..200);
    (0..len).map(|_| rng.gen_range(0u64..(1 << 16))).collect()
}

/// All stateful codecs round-trip arbitrary word streams.
#[test]
fn codecs_round_trip() {
    Check::new("codecs_round_trip").cases(48).run(|rng| {
        let words = word_stream(rng);
        let mut pairs: Vec<(Box<dyn BusCodec>, Box<dyn BusCodec>)> = vec![
            (Box::new(Unencoded::new(16)), Box::new(Unencoded::new(16))),
            (Box::new(BusInvert::new(16)), Box::new(BusInvert::new(16))),
            (Box::new(GrayCode::new(16)), Box::new(GrayCode::new(16))),
            (Box::new(T0Code::new(16)), Box::new(T0Code::new(16))),
            (Box::new(WorkingZone::new(16, 4, 8)), Box::new(WorkingZone::new(16, 4, 8))),
        ];
        let beach = BeachCode::train(16, &words, 8);
        pairs.push((Box::new(beach.clone()), Box::new(beach)));
        for (enc, dec) in &mut pairs {
            for &w in &words {
                let lines = enc.encode(w);
                assert_eq!(dec.decode(lines), w, "{} failed", enc.name());
            }
        }
    });
}

/// Bus-Invert never toggles more than N/2 + 1 lines per word.
#[test]
fn bus_invert_bound() {
    Check::new("bus_invert_bound").cases(48).run(|rng| {
        let words = word_stream(rng);
        let mut enc = BusInvert::new(16);
        let mut prev: Option<u64> = None;
        for &w in &words {
            let lines = enc.encode(w);
            if let Some(p) = prev {
                assert!((lines ^ p).count_ones() <= 9);
            }
            prev = Some(lines);
        }
    });
}

/// Gray encoding of consecutive integers differs in exactly one bit,
/// for any starting point.
#[test]
fn gray_adjacency() {
    Check::new("gray_adjacency").cases(48).run(|rng| {
        let start = rng.gen_range(0u64..(1 << 16));
        let mut g = GrayCode::new(17);
        let a = g.encode(start);
        let b = g.encode(start + 1);
        assert_eq!((a ^ b).count_ones(), 1);
    });
}

/// Policy simulations never report power below `p_off` or above
/// `p_wake`, never exceed the oracle bound, and keep the shutdown
/// fraction a valid probability.
#[test]
fn shutdown_simulation_bounds() {
    Check::new("shutdown_simulation_bounds").cases(48).run(|rng| {
        let seed = rng.gen_range(0u64..200);
        let timeout = rng.gen_range(0.5..20.0);
        let device = shutdown::DeviceModel::default();
        let w = shutdown::bursty_workload(seed, 300);
        let mut policy = StaticTimeout { timeout };
        let r = shutdown::simulate(&mut policy, &device, &w);
        assert!(r.average_power >= device.p_off - 1e-9);
        assert!(r.average_power <= device.p_wake + 1e-9);
        assert!((0.0..=1.0).contains(&r.shutdown_fraction));
        assert!(r.performance_penalty >= 0.0);
        // No policy beats the physics: improvement below the T_I/T_A bound.
        assert!(r.improvement <= shutdown::improvement_upper_bound(&w) + 1e-9);
    });
}

/// The oracle never loses to any static timeout on the same workload.
#[test]
fn oracle_dominates_static() {
    Check::new("oracle_dominates_static").cases(48).run(|rng| {
        let seed = rng.gen_range(0u64..100);
        let timeout = rng.gen_range(0.5..20.0);
        let device = shutdown::DeviceModel::default();
        let w = shutdown::bursty_workload(seed, 300);
        let r_static = shutdown::simulate(&mut StaticTimeout { timeout }, &device, &w);
        let r_oracle = shutdown::simulate(&mut Oracle::new(&device, &w), &device, &w);
        assert!(r_oracle.average_power <= r_static.average_power + 1e-9);
    });
}

/// Every node's value on the 64 input vectors `64 * block ..` (vector `x`
/// sets input `i` to bit `i` of `x`), one lane each, with `forced` pinned
/// to a constant.
fn eval_block(
    nl: &Netlist,
    order: &[NodeId],
    block: usize,
    forced: Option<(NodeId, bool)>,
) -> Vec<u64> {
    let mut v = vec![0u64; nl.node_count()];
    for (i, &inp) in nl.inputs().iter().enumerate() {
        v[inp.index()] = (0..64).filter(|b| (64 * block + b) >> i & 1 == 1).map(|b| 1 << b).sum();
    }
    for &id in order {
        let word = match (forced, nl.kind(id)) {
            (Some((t, value)), _) if t == id => 0u64.wrapping_sub(value as u64),
            (_, NodeKind::Gate { kind, inputs }) => kind.eval_word(inputs, |f| v[f.index()]),
            (_, NodeKind::Const(c)) => 0u64.wrapping_sub(*c as u64),
            _ => continue,
        };
        v[id.index()] = word;
    }
    v
}

/// The gates in a node's transitive fan-in, the node included if a gate.
fn fanin_gates(nl: &Netlist, id: NodeId) -> HashSet<NodeId> {
    let mut seen = HashSet::new();
    let mut stack = vec![id];
    while let Some(x) = stack.pop() {
        if let NodeKind::Gate { inputs, .. } = nl.kind(x) {
            if seen.insert(x) {
                stack.extend(inputs.iter().copied());
            }
        }
    }
    seen
}

/// Exhaustive guard oracle for a combinational netlist: every `(target,
/// guard)` pair with the target a non-output gate and the guard a gate or
/// input outside the target's fan-in cone that does not read the target,
/// such that the guard implies "every output is the same with the target
/// forced to 0 and to 1" on all `2^n` vectors and asserts on at least 5%
/// of them. Maps each pair to its assert count.
fn guard_oracle(nl: &Netlist) -> BTreeMap<(NodeId, NodeId), u64> {
    let vectors = 1usize << nl.input_count();
    let blocks = vectors.div_ceil(64);
    let valid = if vectors >= 64 { !0 } else { (1u64 << vectors) - 1 };
    let order = nl.topo_order().unwrap();
    let plain: Vec<Vec<u64>> = (0..blocks).map(|b| eval_block(nl, &order, b, None)).collect();
    let outputs: HashSet<NodeId> = nl.outputs().iter().map(|&(_, o)| o).collect();
    let gates: Vec<NodeId> =
        nl.node_ids().filter(|&id| matches!(nl.kind(id), NodeKind::Gate { .. })).collect();
    let pool: Vec<NodeId> = gates.iter().chain(nl.inputs()).copied().collect();
    let fanins: Vec<HashSet<NodeId>> = pool.iter().map(|&g| fanin_gates(nl, g)).collect();
    let mut found = BTreeMap::new();
    for (ti, &t) in gates.iter().enumerate().filter(|(_, t)| !outputs.contains(t)) {
        let odc: Vec<u64> = (0..blocks)
            .map(|b| {
                let v0 = eval_block(nl, &order, b, Some((t, false)));
                let v1 = eval_block(nl, &order, b, Some((t, true)));
                outputs.iter().fold(valid, |acc, o| acc & !(v0[o.index()] ^ v1[o.index()]))
            })
            .collect();
        for (&g, g_fanin) in pool.iter().zip(&fanins) {
            if fanins[ti].contains(&g) || g_fanin.contains(&t) {
                continue;
            }
            let asserts = |b: usize| plain[b][g.index()] & valid;
            if (0..blocks).any(|b| asserts(b) & !odc[b] != 0) {
                continue;
            }
            let count: u64 = (0..blocks).map(|b| u64::from(asserts(b).count_ones())).sum();
            if count as f64 / vectors as f64 >= 0.05 {
                found.insert((t, g), count);
            }
        }
    }
    found
}

/// Guard discovery over every target returns exactly the oracle's
/// `(target, guard)` pairs, each with the exact guard probability and
/// the target's fan-in cone.
#[test]
fn guard_discovery_matches_exhaustive_oracle() {
    let lib = Library::default();
    Check::new("guard_discovery_matches_exhaustive_oracle").cases(16).run(|rng| {
        let nl = if rng.gen_range(0..4) == 0 {
            guard::guarded_mux_example(rng.gen_range(3usize..=5))
        } else {
            let mut nl = Netlist::new();
            let (inputs, gates) = (rng.gen_range(2usize..=10), rng.gen_range(4usize..=40));
            gen::random_logic(&mut nl, rng.next_u64(), inputs, gates, rng.gen_range(1usize..=4));
            nl
        };
        let oracle = guard_oracle(&nl);
        let candidates = guard::find_candidates(&nl, &lib, nl.gate_count()).unwrap();
        let pairs: BTreeSet<(NodeId, NodeId)> =
            candidates.iter().map(|c| (c.target, c.guard)).collect();
        assert_eq!(pairs.len(), candidates.len(), "duplicate candidates");
        assert!(pairs.iter().eq(oracle.keys()), "got {pairs:?}, oracle {:?}", oracle.keys());
        let vectors = (1u64 << nl.input_count()) as f64;
        for c in &candidates {
            let p = oracle[&(c.target, c.guard)] as f64 / vectors;
            assert_eq!(c.guard_probability.to_bits(), p.to_bits(), "{c:?}");
            let cone: HashSet<NodeId> = c.cone.iter().copied().collect();
            assert_eq!(cone, fanin_gates(&nl, c.target), "{c:?}");
        }
    });
}
