//! Bit-level pins for the greedy rewrite search: for a textbook De Morgan
//! circuit and two seeded random-logic netlists, the whole step sequence
//! (node, rule, swept gates, per-step power, cone size), the search
//! counters, the final powers, the emitted Verilog of the result and its
//! attribution must not move by one bit. Any change to candidate order,
//! scoring or tie-off mechanics shows up here before it reaches a report.

use hlpower_netlist::{emit_verilog, gen, streams, Library, Netlist};
use hlpower_opt::rewrite::{demorgan_example, rewrite_gates, RewriteOptions, RewriteOutcome};

/// FNV-1a, 64-bit: a hash whose value is fixed by this file alone.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// `(steps, candidates_tried, cone_nodes_resimmed, baseline bits,
/// optimized bits, step hash, Verilog hash, attribution hash)`.
type Pin = (usize, usize, usize, u64, u64, u64, u64, u64);

fn pin(out: &RewriteOutcome) -> Pin {
    let mut steps = Fnv::new();
    for s in &out.steps {
        steps.u64(s.node.index() as u64);
        steps.bytes(s.rule.name().as_bytes());
        steps.u64(s.swept.len() as u64);
        for id in &s.swept {
            steps.u64(id.index() as u64);
        }
        steps.u64(s.before_uw.to_bits());
        steps.u64(s.after_uw.to_bits());
        steps.u64(s.cone_nodes as u64);
    }
    let mut verilog = Fnv::new();
    verilog.bytes(emit_verilog(&out.netlist, "top").as_bytes());
    let a = &out.attribution;
    let mut attr = Fnv::new();
    attr.u64(a.cycles);
    for n in &a.nodes {
        attr.u64(n.index as u64);
        attr.bytes(n.label.as_bytes());
        attr.u64(n.toggles);
        attr.u64(n.switched_cap_ff.to_bits());
        attr.u64(n.energy_fj.to_bits());
    }
    attr.u64(a.total_switched_cap_ff.to_bits());
    attr.u64(a.total_energy_fj.to_bits());
    (
        out.steps.len(),
        out.candidates_tried,
        out.cone_nodes_resimmed,
        out.baseline_uw.to_bits(),
        out.optimized_uw.to_bits(),
        steps.0,
        verilog.0,
        attr.0,
    )
}

fn run(nl: &Netlist, seed: u64, cycles: usize, opts: &RewriteOptions) -> Pin {
    let stream: Vec<Vec<bool>> = streams::random(seed, nl.input_count()).take(cycles).collect();
    let out = rewrite_gates(nl, &Library::default(), &stream, opts).expect("combinational");
    pin(&out)
}

/// Seeded random logic (32 inputs, 16 outputs) plus, over each pair of
/// outputs, an `And` of their complements and a lone inverter. The
/// random gates alone offer only dead-gate sweeps; the extra logic adds
/// De Morgan merges that orphan their inverters and inverter folds whose
/// driver keeps another reader, which the search rejects.
fn random_logic(seed: u64, gates: usize) -> Netlist {
    let mut nl = Netlist::new();
    let outs = gen::random_logic(&mut nl, seed, 32, gates, 16);
    for (i, pair) in outs.chunks(2).enumerate() {
        let n0 = nl.not(pair[0]);
        let n1 = nl.not(pair[1]);
        let z = nl.and([n0, n1]);
        nl.set_output(format!("z[{i}]"), z);
        let inv = nl.not(pair[1]);
        nl.set_output(format!("nz[{i}]"), inv);
    }
    nl
}

/// A dead gate that reads one driver on both pins, above a dead chain:
/// the sweep reaches that driver twice and must tie it off once.
fn double_pin_dead_chain() -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", 3);
    let y = nl.xor([a[0], a[1]]);
    nl.set_output("y", y);
    let g = nl.and([a[1], a[2]]);
    let h = nl.or([g, a[0]]);
    let _dead = nl.xor([h, h]);
    nl
}

#[test]
fn double_pin_sweep_is_pinned_to_the_bit() {
    let got = run(&double_pin_dead_chain(), 5, 256, &RewriteOptions::default());
    assert_eq!(
        got,
        (
            1,
            1,
            4,
            4622713817261414323,
            4618315949569707294,
            15151293286264469550,
            3073171169928756796,
            11036354771416211285
        )
    );
}

#[test]
fn demorgan_search_is_pinned_to_the_bit() {
    let got = run(&demorgan_example(4), 7, 512, &RewriteOptions::default());
    assert_eq!(
        got,
        (
            7,
            7,
            18,
            4630145159105245436,
            4627079549722630416,
            7019960106420354168,
            1564787898528806993,
            12436401259111503109
        )
    );
}

#[test]
fn demorgan_search_without_sweep_is_pinned_to_the_bit() {
    let opts = RewriteOptions { sweep_dead: false, ..RewriteOptions::default() };
    let got = run(&demorgan_example(4), 7, 512, &opts);
    assert_eq!(
        got,
        (
            4,
            8,
            8,
            4630145159105245436,
            4629739744423693583,
            6730429111211672629,
            1359043004769097995,
            15787786059713114718
        )
    );
}

#[test]
fn random_logic_200_search_is_pinned_to_the_bit() {
    let got = run(&random_logic(7, 200), 2027, 1024, &RewriteOptions::default());
    assert_eq!(
        got,
        (
            52,
            84,
            150,
            4646555784969157793,
            4644127585174062967,
            11808312166784096263,
            33876138668002285,
            3373447426411911698
        )
    );
}

#[test]
fn random_logic_500_search_is_pinned_to_the_bit() {
    let got = run(&random_logic(3, 500), 2028, 1024, &RewriteOptions::default());
    assert_eq!(
        got,
        (
            145,
            177,
            351,
            4651072067084828090,
            4646544139608367074,
            6245410113126382535,
            2198287433229968367,
            14445620687592097816
        )
    );
}
