//! Compiled, bit-parallel zero-delay simulation (64-lane entry points).
//!
//! The scalar [`ZeroDelaySim`](crate::ZeroDelaySim) walks the netlist graph
//! every cycle, evaluating one `bool` per node. The engines here compile
//! the topological order **once** into a dense instruction stream (one
//! opcode with pre-resolved input slot indices per gate, no per-gate
//! allocation and no graph chasing) and evaluate one machine word per node
//! per pass with word-wide boolean operations. Two packings are provided:
//!
//! * [`Sim64`] — **lane-parallel**: bit `l` of every word belongs to lane
//!   `l`, an independent stimulus stream. One [`Sim64::step`] advances all
//!   64 lanes by one clock cycle. This is the Monte-Carlo kernel: 64
//!   batches per simulator instance, each on its own split RNG stream.
//!   `Sim64` is the `u64` instantiation of the width-generic
//!   [`WideSim`](crate::WideSim) in [`crate::simwide`], which also offers
//!   256- and 512-lane words ([`crate::words::W256`],
//!   [`crate::words::W512`]).
//! * [`BlockSim64`] — **time-parallel**: the 64 bits of a word are 64
//!   *consecutive cycles* of a single stream, so one network evaluation
//!   retires 64 cycles. Only valid for purely combinational netlists
//!   (cycle `t` must not depend on cycle `t - 1` through state); this is
//!   the macro-model characterization kernel.
//!
//! # Determinism contract
//!
//! Lane `l` of a [`Sim64`] run is *bit-identical* to a scalar
//! [`ZeroDelaySim`](crate::ZeroDelaySim) run over the same vector stream:
//! per-lane toggle counts are exact integers (accumulated in vertical
//! carry-save bit-plane counters, never floats), per-lane cycle counts
//! match the scalar "first vector initializes, every later vector counts"
//! rule, and [`Sim64::take_lane_activities`] returns the same
//! [`Activity`] a scalar run would. Everything downstream (power reports,
//! Monte-Carlo samples) therefore agrees bitwise with the scalar engine —
//! `tests/sim64_differential.rs` locks this in.

use hlpower_obs::metrics as obs;

use crate::error::NetlistError;
use crate::library::GateKind;
use crate::netlist::{Netlist, NodeId, NodeKind};
use crate::simwide::WideSim;
use crate::words::Word;

/// Number of independent bit lanes in one packed `u64` word.
pub const LANES: usize = 64;

/// One compiled gate operation. Fixed-arity gates carry their input slots
/// inline; variadic gates index a `(start, len)` range of the shared fanin
/// pool. Slots are plain indices into the packed value array. Shared with
/// the timed kernel in [`crate::sim64timed`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Buf(u32),
    Not(u32),
    And2(u32, u32),
    Or2(u32, u32),
    Nand2(u32, u32),
    Nor2(u32, u32),
    Xor2(u32, u32),
    Xnor2(u32, u32),
    Mux(u32, u32, u32),
    AndN(u32, u32),
    OrN(u32, u32),
    NandN(u32, u32),
    NorN(u32, u32),
    XorN(u32, u32),
    XnorN(u32, u32),
}

/// One instruction: evaluate `op`, store into value slot `out`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Instr {
    pub(crate) out: u32,
    pub(crate) op: Op,
}

/// A netlist compiled to a flat instruction stream in topological order.
#[derive(Debug, Clone)]
pub(crate) struct Program {
    pub(crate) instrs: Vec<Instr>,
    /// Shared fanin-slot pool for variadic gates.
    pub(crate) pool: Vec<u32>,
    /// Initial scalar value per node (constants and DFF init values;
    /// everything else false), broadcast across all lanes of any word
    /// width by [`init_words`](Self::init_words).
    pub(crate) init_bits: Vec<bool>,
}

impl Program {
    /// Compiles the topological order into instructions.
    pub(crate) fn compile(netlist: &Netlist) -> Result<Program, NetlistError> {
        let _span = hlpower_obs::trace::span("sim64", "sim64.compile");
        let order = netlist.topo_order()?;
        let mut instrs = Vec::with_capacity(order.len());
        let mut pool: Vec<u32> = Vec::new();
        for &id in &order {
            let NodeKind::Gate { kind, inputs } = netlist.kind(id) else { continue };
            let s = |i: usize| inputs[i].index() as u32;
            let op = match (*kind, inputs.len()) {
                (GateKind::Buf, _) => Op::Buf(s(0)),
                (GateKind::Not, _) => Op::Not(s(0)),
                (GateKind::Mux, _) => Op::Mux(s(0), s(1), s(2)),
                (GateKind::And, 2) => Op::And2(s(0), s(1)),
                (GateKind::Or, 2) => Op::Or2(s(0), s(1)),
                (GateKind::Nand, 2) => Op::Nand2(s(0), s(1)),
                (GateKind::Nor, 2) => Op::Nor2(s(0), s(1)),
                (GateKind::Xor, 2) => Op::Xor2(s(0), s(1)),
                (GateKind::Xnor, 2) => Op::Xnor2(s(0), s(1)),
                (wide, n) => {
                    let start = pool.len() as u32;
                    pool.extend(inputs.iter().map(|f| f.index() as u32));
                    let range = (start, n as u32);
                    match wide {
                        GateKind::And => Op::AndN(range.0, range.1),
                        GateKind::Or => Op::OrN(range.0, range.1),
                        GateKind::Nand => Op::NandN(range.0, range.1),
                        GateKind::Nor => Op::NorN(range.0, range.1),
                        GateKind::Xor => Op::XorN(range.0, range.1),
                        GateKind::Xnor => Op::XnorN(range.0, range.1),
                        GateKind::Buf | GateKind::Not | GateKind::Mux => unreachable!(),
                    }
                }
            };
            instrs.push(Instr { out: id.index() as u32, op });
        }
        Ok(Program { instrs, pool, init_bits: netlist.power_on_values() })
    }

    /// Initial packed value per node, broadcast across all lanes of `W`.
    pub(crate) fn init_words<W: Word>(&self) -> Vec<W> {
        self.init_bits.iter().map(|&b| W::splat(b)).collect()
    }

    /// Evaluates one instruction against the packed value array, at any
    /// word width.
    #[inline(always)]
    pub(crate) fn eval<W: Word>(&self, values: &[W], ins: &Instr) -> W {
        let v = |slot: u32| values[slot as usize];
        let fold = |start: u32, len: u32, unit: W, f: fn(W, W) -> W| {
            self.pool[start as usize..(start + len) as usize]
                .iter()
                .fold(unit, |acc, &slot| f(acc, values[slot as usize]))
        };
        match ins.op {
            Op::Buf(a) => v(a),
            Op::Not(a) => v(a).not(),
            Op::And2(a, b) => v(a).and(v(b)),
            Op::Or2(a, b) => v(a).or(v(b)),
            Op::Nand2(a, b) => v(a).and(v(b)).not(),
            Op::Nor2(a, b) => v(a).or(v(b)).not(),
            Op::Xor2(a, b) => v(a).xor(v(b)),
            Op::Xnor2(a, b) => v(a).xor(v(b)).not(),
            Op::Mux(sel, a, b) => {
                let s = v(sel);
                s.not().and(v(a)).or(s.and(v(b)))
            }
            Op::AndN(s, n) => fold(s, n, W::splat(true), W::and),
            Op::OrN(s, n) => fold(s, n, W::zero(), W::or),
            Op::NandN(s, n) => fold(s, n, W::splat(true), W::and).not(),
            Op::NorN(s, n) => fold(s, n, W::zero(), W::or).not(),
            Op::XorN(s, n) => fold(s, n, W::zero(), W::xor),
            Op::XnorN(s, n) => fold(s, n, W::zero(), W::xor).not(),
        }
    }
}

/// An opaque, shareable compiled instruction stream, detached from any
/// simulator instance.
///
/// The wrapped program is width-generic — one compiled stream drives 64-, 256-,
/// and 512-lane simulators alike — so a long-running service can compile
/// a circuit **once** and stamp out packed simulators per request via
/// [`crate::WideSim::with_kernel`] / [`crate::WideTimedSim::with_kernel`]
/// without paying the topological-sort + instruction-selection cost
/// again. Cloning the wrapped instruction vectors is a flat memcpy.
///
/// The kernel remembers the node count of the netlist it was compiled
/// from; pairing it with any other netlist is a
/// [`NetlistError::KernelMismatch`].
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    pub(crate) program: Program,
}

impl CompiledKernel {
    /// Compiles `netlist` into a reusable instruction stream.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn compile(netlist: &Netlist) -> Result<Self, NetlistError> {
        Ok(CompiledKernel { program: Program::compile(netlist)? })
    }

    /// Node count of the netlist this kernel was compiled from.
    pub fn node_count(&self) -> usize {
        self.program.init_bits.len()
    }

    /// Number of gate-evaluation instructions in the stream.
    pub fn instr_count(&self) -> usize {
        self.program.instrs.len()
    }

    /// Approximate heap footprint in bytes (for cache byte budgets).
    pub fn approx_bytes(&self) -> usize {
        self.program.instrs.len() * std::mem::size_of::<Instr>()
            + self.program.pool.len() * std::mem::size_of::<u32>()
            + self.program.init_bits.len()
    }

    /// Checks that `netlist` is the netlist this kernel was compiled from
    /// (by node count — the only property the instruction slots index).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::KernelMismatch`] on disagreement.
    pub(crate) fn check_matches(&self, netlist: &Netlist) -> Result<(), NetlistError> {
        if self.node_count() != netlist.node_count() {
            return Err(NetlistError::KernelMismatch {
                expected: netlist.node_count(),
                got: self.node_count(),
            });
        }
        Ok(())
    }
}

/// Broadcasts a scalar bit across all 64 lanes.
#[inline]
pub(crate) fn broadcast(v: bool) -> u64 {
    if v {
        !0
    } else {
        0
    }
}

/// The 64-lane lane-parallel compiled simulator: the `u64` instantiation
/// of the width-generic [`WideSim`](crate::WideSim). See
/// the `simwide` module for the machinery and the wider 256/512-lane words.
pub type Sim64<'a> = WideSim<'a, u64>;

/// The time-parallel compiled simulator for combinational netlists: the
/// 64 bits of every word are 64 *consecutive cycles* of one stimulus
/// stream, so each [`eval_block`](BlockSim64::eval_block) retires up to
/// 64 cycles with a single network evaluation.
///
/// Toggles between cycle `t - 1` and `t` are recovered per node as
/// `w ^ ((w << 1) | carry_in)` where `carry_in` is the node's value in the
/// last cycle of the previous block; the first block seeds `carry_in` with
/// the node's own cycle-0 value so cycle 0 counts no toggles — the scalar
/// "first vector initializes" rule.
#[derive(Debug)]
pub struct BlockSim64<'a> {
    netlist: &'a Netlist,
    program: Program,
    /// Packed node values; bit `c` is cycle `block_base + c`.
    values: Vec<u64>,
    /// Per-node toggle word of the last evaluated block.
    diffs: Vec<u64>,
    /// Per-node value bit of the last valid cycle of the previous block.
    carry: Vec<u64>,
    started: bool,
    valid: usize,
}

impl<'a> BlockSim64<'a> {
    /// Compiles a purely combinational netlist for time-packed evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotCombinational`] if the netlist contains
    /// flip-flops (cycle `t` would depend on cycle `t - 1`, which a
    /// time-packed word cannot express), or
    /// [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        if !netlist.dffs().is_empty() {
            return Err(NetlistError::NotCombinational { dffs: netlist.dffs().len() });
        }
        let program = Program::compile(netlist)?;
        let values = program.init_words::<u64>();
        let n = netlist.node_count();
        Ok(BlockSim64 {
            netlist,
            program,
            values,
            diffs: vec![0; n],
            carry: vec![0; n],
            started: false,
            valid: 0,
        })
    }

    /// Evaluates one block of `valid` consecutive cycles (1..=64).
    /// `inputs[i]` packs primary input `i`, bit `c` = cycle `c` of this
    /// block; bits at and above `valid` are don't-cares.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] on a bad input count
    /// or [`NetlistError::EmptyStream`] if `valid` is 0 or exceeds 64.
    pub fn eval_block(&mut self, inputs: &[u64], valid: usize) -> Result<(), NetlistError> {
        if inputs.len() != self.netlist.input_count() {
            return Err(NetlistError::InputWidthMismatch {
                got: inputs.len(),
                expected: self.netlist.input_count(),
            });
        }
        if valid == 0 || valid > LANES {
            return Err(NetlistError::EmptyStream);
        }
        obs::SIM64_BLOCKS.inc();
        obs::SIM64_GATE_EVALS.add(self.program.instrs.len() as u64);
        obs::SIM64_LANE_CYCLES.add(valid as u64);
        let valid_mask = if valid == LANES { !0 } else { (1u64 << valid) - 1 };
        for (i, &inp) in self.netlist.inputs().iter().enumerate() {
            self.values[inp.index()] = inputs[i];
        }
        for idx in 0..self.program.instrs.len() {
            let ins = self.program.instrs[idx];
            self.values[ins.out as usize] = self.program.eval(&self.values, &ins);
        }
        for node in 0..self.netlist.node_count() {
            let w = self.values[node];
            // First block: seed with the node's own cycle-0 bit so cycle 0
            // shows no transition.
            let carry_in = if self.started { self.carry[node] } else { w & 1 };
            self.diffs[node] = (w ^ ((w << 1) | carry_in)) & valid_mask;
            self.carry[node] = (w >> (valid - 1)) & 1;
        }
        self.started = true;
        self.valid = valid;
        Ok(())
    }

    /// Number of valid cycles in the last evaluated block.
    pub fn valid_cycles(&self) -> usize {
        self.valid
    }

    /// Toggle word of a node for the last block: bit `c` set means the
    /// node transitioned between cycle `c - 1` (previous block's last
    /// cycle for `c = 0`) and cycle `c`.
    pub fn diff_word(&self, node: NodeId) -> u64 {
        self.diffs[node.index()]
    }

    /// Toggle word by raw node index (hot-path form of
    /// [`diff_word`](Self::diff_word)).
    pub fn diff_word_at(&self, index: usize) -> u64 {
        self.diffs[index]
    }

    /// Packed value word of a node for the last block (bit `c` = cycle `c`).
    pub fn value_word(&self, node: NodeId) -> u64 {
        self.values[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;
    use crate::sim::{Activity, ZeroDelaySim};
    use crate::{gen, streams};
    use hlpower_rng::Rng;

    fn adder(bits: usize) -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", bits);
        let b = nl.input_bus("b", bits);
        let c0 = nl.constant(false);
        let s = gen::ripple_adder(&mut nl, &a, &b, c0);
        nl.output_bus("s", &s);
        nl
    }

    fn fir() -> Netlist {
        let mut nl = Netlist::new();
        let x = nl.input_bus("x", 6);
        let y = gen::fir_filter(&mut nl, &x, &[7, 13, 7], true);
        nl.output_bus("y", &y);
        nl
    }

    /// Packs per-lane bool vectors into input words.
    fn pack(vectors: &[Vec<bool>]) -> Vec<u64> {
        let width = vectors[0].len();
        let mut words = vec![0u64; width];
        for (lane, v) in vectors.iter().enumerate() {
            for (i, &b) in v.iter().enumerate() {
                words[i] |= (b as u64) << lane;
            }
        }
        words
    }

    #[test]
    fn lanes_match_scalar_streams_on_sequential_circuit() {
        let nl = fir();
        let w = nl.input_count();
        let root = Rng::seed_from_u64(42);
        let cycles = 150;
        let mut sim = Sim64::new(&nl).unwrap();
        let mut iters: Vec<_> =
            (0..LANES).map(|l| streams::random_rng(root.split(l as u64), w)).collect();
        for _ in 0..cycles {
            let vectors: Vec<Vec<bool>> = iters.iter_mut().map(|it| it.next().unwrap()).collect();
            sim.step(&pack(&vectors)).unwrap();
        }
        let lanes = sim.take_lane_activities();
        for l in [0usize, 1, 31, 63] {
            let mut scalar = ZeroDelaySim::new(&nl).unwrap();
            let act = scalar
                .run(streams::random_rng(root.split(l as u64), w).take(cycles))
                .expect("width matches");
            assert_eq!(lanes[l], act, "lane {l} diverged from its scalar stream");
        }
    }

    #[test]
    fn collapsed_activity_is_lane_merge() {
        let nl = adder(6);
        let w = nl.input_count();
        let root = Rng::seed_from_u64(9);
        let run = |cycles: usize| {
            let mut sim = Sim64::new(&nl).unwrap();
            let mut iters: Vec<_> =
                (0..LANES).map(|l| streams::random_rng(root.split(l as u64), w)).collect();
            for _ in 0..cycles {
                let vectors: Vec<Vec<bool>> =
                    iters.iter_mut().map(|it| it.next().unwrap()).collect();
                sim.step(&pack(&vectors)).unwrap();
            }
            sim
        };
        let lanes = run(80).take_lane_activities();
        let collapsed = run(80).take_activity();
        let mut merged = Activity::zero(&nl);
        for lane in &lanes {
            merged.merge(lane).unwrap();
        }
        assert_eq!(collapsed, merged);
        assert_eq!(collapsed.cycles, 79 * LANES as u64);
    }

    #[test]
    fn masked_lanes_stop_where_scalar_streams_end() {
        let nl = adder(4);
        let w = nl.input_count();
        let root = Rng::seed_from_u64(17);
        // Lane l runs for 10 + l cycles.
        let len = |l: usize| 10 + l;
        let mut sim = Sim64::new(&nl).unwrap();
        let mut iters: Vec<_> =
            (0..LANES).map(|l| streams::random_rng(root.split(l as u64), w).take(len(l))).collect();
        loop {
            let mut mask = 0u64;
            let mut vectors = vec![vec![false; w]; LANES];
            for (l, it) in iters.iter_mut().enumerate() {
                if let Some(v) = it.next() {
                    vectors[l] = v;
                    mask |= 1 << l;
                }
            }
            if mask == 0 {
                break;
            }
            sim.step_masked(&pack(&vectors), mask).unwrap();
        }
        let lanes = sim.take_lane_activities();
        for l in [0usize, 5, 63] {
            let mut scalar = ZeroDelaySim::new(&nl).unwrap();
            let act = scalar
                .run(streams::random_rng(root.split(l as u64), w).take(len(l)))
                .expect("width matches");
            assert_eq!(lanes[l], act, "masked lane {l} diverged");
        }
    }

    #[test]
    fn plane_flush_is_exact_across_many_cycles() {
        // A 1-bit inverter chain driven by an alternating input toggles
        // every node every cycle — the worst case for the plane counters.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let mut x = a;
        for _ in 0..3 {
            x = nl.not(x);
        }
        nl.set_output("y", x);
        let mut sim = Sim64::new(&nl).unwrap();
        let cycles = 300;
        for c in 0..cycles {
            sim.step(&[broadcast(c % 2 == 0)]).unwrap();
        }
        let lanes = sim.take_lane_activities();
        for lane in &lanes {
            assert_eq!(lane.cycles, cycles - 1);
            assert_eq!(lane.toggles[a.index()], cycles - 1);
        }
    }

    #[test]
    fn input_width_is_validated() {
        let nl = adder(4);
        let mut sim = Sim64::new(&nl).unwrap();
        assert!(matches!(
            sim.step(&[0u64; 3]),
            Err(NetlistError::InputWidthMismatch { got: 3, expected: 8 })
        ));
    }

    #[test]
    fn block_sim_matches_scalar_on_combinational_circuit() {
        let nl = adder(8);
        let w = nl.input_count();
        let vectors: Vec<Vec<bool>> = streams::random(23, w).take(200).collect();
        // Scalar reference.
        let mut scalar = ZeroDelaySim::new(&nl).unwrap();
        let mut ref_act = Activity::zero(&nl);
        for v in &vectors {
            scalar.step(v).unwrap();
        }
        ref_act.merge(&scalar.take_activity()).unwrap();
        // Time-packed run.
        let mut bs = BlockSim64::new(&nl).unwrap();
        let mut toggles = vec![0u64; nl.node_count()];
        for chunk in vectors.chunks(LANES) {
            let words = pack_cycles(chunk);
            bs.eval_block(&words, chunk.len()).unwrap();
            for id in nl.node_ids() {
                toggles[id.index()] += bs.diff_word(id).count_ones() as u64;
            }
        }
        assert_eq!(toggles, ref_act.toggles);
        // Output words reproduce the scalar outputs cycle by cycle.
        let mut scalar2 = ZeroDelaySim::new(&nl).unwrap();
        let mut bs2 = BlockSim64::new(&nl).unwrap();
        let chunk = &vectors[..50];
        bs2.eval_block(&pack_cycles(chunk), chunk.len()).unwrap();
        for (c, v) in chunk.iter().enumerate() {
            scalar2.step(v).unwrap();
            let outs: Vec<bool> =
                nl.outputs().iter().map(|&(_, n)| (bs2.value_word(n) >> c) & 1 == 1).collect();
            assert_eq!(outs, scalar2.output_values(), "cycle {c}");
        }
    }

    /// Packs consecutive cycles into time-packed input words.
    fn pack_cycles(vectors: &[Vec<bool>]) -> Vec<u64> {
        let width = vectors[0].len();
        let mut words = vec![0u64; width];
        for (c, v) in vectors.iter().enumerate() {
            for (i, &b) in v.iter().enumerate() {
                words[i] |= (b as u64) << c;
            }
        }
        words
    }

    #[test]
    fn block_sim_rejects_sequential_netlists() {
        let nl = fir();
        let err = BlockSim64::new(&nl);
        assert!(matches!(err, Err(NetlistError::NotCombinational { dffs }) if dffs > 0));
    }

    #[test]
    fn packed_power_matches_scalar_power() {
        // End-to-end: per-lane activity -> PowerReport must go through the
        // same f64 path as scalar, so powers agree bitwise.
        let nl = adder(8);
        let lib = Library::default();
        let w = nl.input_count();
        let root = Rng::seed_from_u64(1234);
        let cycles = 100;
        let mut sim = Sim64::new(&nl).unwrap();
        let mut iters: Vec<_> =
            (0..LANES).map(|l| streams::random_rng(root.split(l as u64), w)).collect();
        for _ in 0..cycles {
            let vectors: Vec<Vec<bool>> = iters.iter_mut().map(|it| it.next().unwrap()).collect();
            sim.step(&pack(&vectors)).unwrap();
        }
        let lanes = sim.take_lane_activities();
        for l in [0usize, 7, 63] {
            let mut scalar = ZeroDelaySim::new(&nl).unwrap();
            let act = scalar
                .run(streams::random_rng(root.split(l as u64), w).take(cycles))
                .expect("width matches");
            let packed_uw = lanes[l].power(&nl, &lib).total_power_uw();
            let scalar_uw = act.power(&nl, &lib).total_power_uw();
            assert_eq!(packed_uw.to_bits(), scalar_uw.to_bits(), "lane {l}");
        }
    }
}
