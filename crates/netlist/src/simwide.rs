//! Width-generic compiled packed simulation: 64/256/512 stimulus lanes
//! from one instruction stream.
//!
//! [`Program`] compiles the topological order **once** into a dense
//! instruction stream (one opcode with pre-resolved input slot indices
//! per gate, no per-gate allocation and no graph chasing), and
//! [`CompiledKernel`] shares it across simulator instances. The
//! zero-delay [`WideSim`] and the timed (glitch-capturing) [`WideTimedSim`]
//! evaluate it over the [`Word`] abstraction: [`Word::LANES`] independent
//! stimulus lanes per pass, with one word per node. `u64` is the 64-lane
//! kernel; [`W256`]/[`W512`] quadruple/octuple the lanes per instruction
//! decode, amortizing the per-instruction overhead (decode, bounds
//! checks, toggle-counter carry chains) over 4x/8x the data.
//! [`timed_activity`] profiles one stream on either kind of kernel.
//!
//! # Counts and takes
//!
//! Both kernels count toggles in one crate-private type, `Counts` (the
//! slot-packed zero-delay word below keeps its own compact planes and
//! shares only the finalize):
//! vertical bit planes per node plus the exact per-lane totals spilled
//! out of them ([`WideSim`] holds one, [`WideTimedSim`] one for all
//! transitions and one for functional transitions). A run ends in one of
//! three takes, each a read of those counts: `take_lane_powers` (per-lane
//! power samples, the Monte-Carlo finalize), `take_activity` (per-node
//! totals by plane popcount, lanes merged) and `take_lane_activities`
//! (per-lane records, the oracle the other two are tested against).
//!
//! # Transition blocks
//!
//! Once a stream's zero-delay settled states are known, each of its clock
//! cycles is an independent transition (the settled state of cycle `c -
//! 1` to the source values of cycle `c`), so the timed kernel need not
//! step the cycles in order. One crate-private type, `TransitionBlocks`,
//! fills words with such transitions, a slot of whole 64-lane chunks at a
//! time, and replays each full word with
//! [`WideTimedSim::eval_transition_block`]. [`timed_activity`] puts 64
//! consecutive transitions of its one stream in each chunk. The glitch
//! Monte-Carlo word (`TimePacked`, behind
//! [`crate::simulate_packed_glitch_lanes`]) puts one cycle of its lanes
//! in each slot, so a 64-lane word of 16 cycles replays on 512-lane words;
//! before its take, `Counts::fold_slots` sums every lane's counts over its
//! slots, exactly, so the finalize multiplies once per lane as before.
//! [`WideTimedSim::step_masked`] still steps one cycle at a time for
//! callers that drive the kernel directly.
//!
//! # Slot-packed zero-delay words
//!
//! The zero-delay Monte-Carlo word (`SlotPacked`, behind
//! [`crate::simulate_packed_lanes`]) packs the same way with no timed
//! replay: cycle `c` of a `W`-lane word fills slot `c % S` of a `T`-lane
//! block, each full block settles once, a slot's toggles are counted
//! against the slot below it, and vertical adders sum them over the slots
//! into `W`-lane count planes that the shared finalize reads.
//!
//! # Runtime SIMD fast path
//!
//! The zero-delay settle loop — the hot core of every packed step — is
//! compiled a second time inside `#[target_feature]` wrappers for AVX2
//! (and AVX-512F for [`W512`]) and dispatched at runtime via
//! [`simd_level`], so wide words use full-width vector loads and logic
//! ops on machines that have them while the portable per-chunk code
//! remains the fallback everywhere else. The two per-word steps around
//! it get the same wrappers, written once over `u64` chunk slices: the
//! fused finalize behind both kernels' `take_lane_powers` (count planes
//! straight to per-lane power) and [`random_words`], the lane-parallel
//! random stimulus of the Monte-Carlo kernels. The timed kernel's
//! waveform pass has no hand-dispatched variant: its word ops go through
//! ordinary autovectorization of the generic chunk loops.
//!
//! # Determinism contract
//!
//! Lane `l` of a packed run is *bit-identical* to a scalar run over the
//! same stream for **every** word width, and the SIMD fast path computes
//! the same words as the portable path (bitwise boolean algebra has no
//! rounding). `tests/wide_differential.rs` locks both claims in across
//! every circuit generator and the ingested example netlists.

use std::any::TypeId;
use std::borrow::Cow;
use std::sync::OnceLock;

use hlpower_obs::metrics as obs;
use hlpower_rng::LaneRng;

use crate::cone::Trajectory;
use crate::error::NetlistError;
use crate::event::{gate_delays_ps, EventDrivenSim, TimedActivity};
use crate::library::{GateKind, Library};
use crate::montecarlo::McKernel;
use crate::netlist::{Netlist, NodeId, NodeKind};
use crate::power::PowerModel;
use crate::sim::Activity;
use crate::words::{Word, W256, W512};

/// One compiled gate operation. Fixed-arity gates carry their input slots
/// inline; variadic gates index a `(start, len)` range of the shared fanin
/// pool. Slots are plain indices into the packed value array.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Buf([u32; 1]),
    Not([u32; 1]),
    And2([u32; 2]),
    Or2([u32; 2]),
    Nand2([u32; 2]),
    Nor2([u32; 2]),
    Xor2([u32; 2]),
    Xnor2([u32; 2]),
    Mux([u32; 3]),
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
                (GateKind::Buf, _) => Op::Buf([s(0)]),
                (GateKind::Not, _) => Op::Not([s(0)]),
                (GateKind::Mux, _) => Op::Mux([s(0), s(1), s(2)]),
                (GateKind::And, 2) => Op::And2([s(0), s(1)]),
                (GateKind::Or, 2) => Op::Or2([s(0), s(1)]),
                (GateKind::Nand, 2) => Op::Nand2([s(0), s(1)]),
                (GateKind::Nor, 2) => Op::Nor2([s(0), s(1)]),
                (GateKind::Xor, 2) => Op::Xor2([s(0), s(1)]),
                (GateKind::Xnor, 2) => Op::Xnor2([s(0), s(1)]),
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
            Op::Buf([a]) => v(a),
            Op::Not([a]) => v(a).not(),
            Op::And2([a, b]) => v(a).and(v(b)),
            Op::Or2([a, b]) => v(a).or(v(b)),
            Op::Nand2([a, b]) => v(a).and(v(b)).not(),
            Op::Nor2([a, b]) => v(a).or(v(b)).not(),
            Op::Xor2([a, b]) => v(a).xor(v(b)),
            Op::Xnor2([a, b]) => v(a).xor(v(b)).not(),
            Op::Mux([sel, a, b]) => {
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

    /// Evaluates every instruction once, in topological order: the
    /// zero-delay settle, counting nothing.
    pub(crate) fn run<W: Word>(&self, values: &mut [W]) {
        self.run_instrs(&self.instrs, values);
    }

    /// Evaluates `instrs`, part of this program's stream in its order,
    /// counting nothing.
    fn run_instrs<W: Word>(&self, instrs: &[Instr], values: &mut [W]) {
        for ins in instrs {
            values[ins.out as usize] = self.eval(values, ins);
        }
    }

    /// The instructions of the fan-in cone of value slots `roots`, in
    /// stream order, by one reverse sweep over `nodes` slots.
    fn cone(&self, nodes: usize, roots: &[u32]) -> Vec<Instr> {
        let mut need = vec![false; nodes];
        roots.iter().for_each(|&r| need[r as usize] = true);
        let mut cone = Vec::new();
        for ins in self.instrs.iter().rev() {
            if need[ins.out as usize] {
                self.fanins(ins).iter().for_each(|&f| need[f as usize] = true);
                cone.push(*ins);
            }
        }
        cone.reverse();
        cone
    }

    /// The value slots `ins` reads, in pin order (a repeated fanin is
    /// listed once per pin).
    #[inline(always)]
    fn fanins<'p>(&'p self, ins: &'p Instr) -> &'p [u32] {
        let pool = |s: &u32, n: &u32| &self.pool[*s as usize..(*s + *n) as usize];
        match &ins.op {
            Op::Buf(s) | Op::Not(s) => s,
            Op::And2(s) | Op::Or2(s) | Op::Nand2(s) | Op::Nor2(s) | Op::Xor2(s) | Op::Xnor2(s) => s,
            Op::Mux(s) => s,
            Op::AndN(s, n) | Op::OrN(s, n) | Op::NandN(s, n) => pool(s, n),
            Op::NorN(s, n) | Op::XorN(s, n) | Op::XnorN(s, n) => pool(s, n),
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

/// Bit planes per node in the vertical carry-save toggle counters: a node
/// can absorb `2^PLANES - 1` toggles per lane between flushes.
pub(crate) const PLANES: usize = 16;

/// Counted steps between plane flushes in the zero-delay kernel; one
/// fewer than the plane capacity so the carry chain can never overflow
/// out of the top plane.
const FLUSH_INTERVAL: u64 = (1 << PLANES) - 1;

/// The vector instruction set the hot settle loop runs on, detected once
/// per process (see [`simd_level`]). Ordering is by width, so
/// `level >= SimdLevel::Avx2` asks "are 256-bit ops available".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable per-chunk code only (non-x86-64, or no AVX2).
    Scalar,
    /// 256-bit AVX2 loads/logic for [`W256`] and [`W512`] words.
    Avx2,
    /// 512-bit AVX-512F loads/logic for [`W512`] words.
    Avx512,
}

/// Runtime-detected SIMD capability of this machine, cached after the
/// first call. Purely a wall-clock concern: every level computes
/// bit-identical results.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx2")
            {
                return SimdLevel::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    })
}

/// Adds `carry` (a set of lanes that toggled) into a node's vertical
/// bit-plane counter. Amortized cost is ~2 word operations: the carry
/// chain almost always dies in the low planes.
#[inline(always)]
pub(crate) fn bump_planes<W: Word>(planes: &mut [W], base: usize, mut carry: W) {
    let mut p = 0;
    while !carry.is_zero() {
        let t = planes[base + p];
        planes[base + p] = t.xor(carry);
        carry = carry.and(t);
        p += 1;
    }
}

/// One run's toggle counts for every lane of every node: `PLANES`
/// vertical bit planes per node (bit `l` of plane `p` is bit `p` of lane
/// `l`'s count) plus the exact per-lane totals moved out of them.
///
/// Every count a packed kernel reports is read here, so each question a
/// take asks is answered once: per-lane totals for the per-lane records,
/// per-node totals (`Σ_p count_ones(plane_p) << p`, plus the spilled
/// rows) for the lane-collapsed records, per-lane powers for the
/// Monte-Carlo finalize, and the run's grand total for the counters.
#[derive(Debug, Clone)]
pub(crate) struct Counts<W: Word> {
    /// `PLANES` words per node.
    planes: Vec<W>,
    /// Exact per-lane totals spilled or flushed out of the planes (`node *
    /// W::LANES + lane`), empty until a spill or flush needs them: most
    /// runs never spill, so most never pay for the `nodes x lanes` array.
    spill: Vec<u64>,
}

impl<W: Word> Counts<W> {
    /// All-zero counters for `nodes` nodes.
    fn new(nodes: usize) -> Self {
        Counts { planes: vec![W::zero(); nodes * PLANES], spill: Vec::new() }
    }

    fn nodes(&self) -> usize {
        self.planes.len() / PLANES
    }

    /// Adds `2^plane` for every lane set in `carry` into `node`'s counter,
    /// spilling exactly into the 64-bit totals if the carry ripples out of
    /// the top plane (the timed kernel can toggle a node many times per
    /// step, so the flush schedule of the zero-delay kernel does not
    /// apply).
    #[inline]
    fn bump_at(&mut self, node: usize, plane: usize, mut carry: W) {
        let base = node * PLANES;
        for p in plane..PLANES {
            if carry.is_zero() {
                return;
            }
            let t = self.planes[base + p];
            self.planes[base + p] = t.xor(carry);
            carry = carry.and(t);
        }
        // Carry out of the top plane: the plane stack wrapped modulo
        // `2^PLANES` for these lanes, so credit the wrapped weight directly.
        if self.spill.is_empty() {
            self.spill.resize(self.nodes() * W::LANES, 0);
        }
        Self::add_lanes(&mut self.spill[node * W::LANES..], carry, 1 << PLANES);
    }

    /// Adds carry-save planes (plane `p` weighs `2^p` per set lane) into
    /// `node`'s counter and zeroes them.
    #[inline]
    fn fold(&mut self, node: usize, planes: &mut [W]) {
        for (p, w) in planes.iter_mut().enumerate() {
            self.bump_at(node, p, std::mem::replace(w, W::zero()));
        }
    }

    /// Adds `weight` to `row[l]` for every lane `l` set in `lanes`.
    fn add_lanes(row: &mut [u64], lanes: W, weight: u64) {
        for (c, &chunk) in lanes.chunks().iter().enumerate() {
            let mut m = chunk;
            while m != 0 {
                row[c * 64 + m.trailing_zeros() as usize] += weight;
                m &= m - 1;
            }
        }
    }

    /// Moves the planes into the exact per-lane totals: the zero-delay
    /// kernel's periodic flush, before its planes can overflow.
    fn flush(&mut self) {
        self.spill = self.lane_totals();
        self.planes.fill(W::zero());
    }

    /// Exact per-lane totals (`node * W::LANES + lane`): each set bit of
    /// plane `p` weighs `2^p` for its lane.
    fn lane_totals(&self) -> Vec<u64> {
        let mut totals = self.spill.clone();
        totals.resize(self.nodes() * W::LANES, 0);
        for (node, planes) in self.planes.chunks_exact(PLANES).enumerate() {
            for (p, &w) in planes.iter().enumerate() {
                Self::add_lanes(&mut totals[node * W::LANES..], w, 1 << p);
            }
        }
        totals
    }

    /// Per-lane, per-node totals (one `Vec` per lane, indexed by node);
    /// zeroes the counters.
    fn take_lanes(&mut self) -> Vec<Vec<u64>> {
        self.flush();
        let totals = std::mem::take(&mut self.spill);
        // Transpose node-major: one sequential pass over the totals,
        // scattering into `LANES` write streams (which stay cache
        // resident), instead of `LANES` strided gathers that each touch one
        // cache line per node.
        let mut lanes = vec![vec![0u64; self.nodes()]; W::LANES];
        for (node, row) in totals.chunks_exact(W::LANES).enumerate() {
            for (lane, &t) in lanes.iter_mut().zip(row) {
                lane[node] = t;
            }
        }
        lanes
    }

    /// Per-node totals summed over the lanes: `Σ_p count_ones(plane_p) <<
    /// p` per node plus its spilled row. Zeroes the counters.
    fn take_nodes(&mut self) -> Vec<u64> {
        let mut totals: Vec<u64> = self.planes.chunks_exact_mut(PLANES).map(Self::drain).collect();
        for (t, row) in totals.iter_mut().zip(self.spill.chunks_exact(W::LANES)) {
            *t += row.iter().sum::<u64>();
        }
        self.spill.clear();
        totals
    }

    /// The run's total count over every node and lane; zeroes the
    /// counters.
    fn take_total(&mut self) -> u64 {
        Self::drain(&mut self.planes) + self.spill.drain(..).sum::<u64>()
    }

    /// Zeroes whole plane stacks and returns the count they held: plane
    /// `p` of each stack weighs `2^p` per set lane.
    fn drain(planes: &mut [W]) -> u64 {
        let mut total = 0u64;
        for (i, w) in planes.iter_mut().enumerate() {
            total += u64::from(w.count_ones()) << (i % PLANES);
            *w = W::zero();
        }
        total
    }

    /// Folds the counts onto `V` lanes (a word here holds whole `V` slots
    /// side by side) and zeroes them: lane `l` of the result counts the sum
    /// of every lane `j` with `j % V::LANES == l`, exactly. Each plane adds
    /// its slots at its own weight, carrying and spilling as
    /// [`bump_at`](Self::bump_at) does, and spilled totals add row by row.
    fn fold_slots<V: Word>(&mut self) -> Counts<V> {
        let nodes = self.nodes();
        let mut out = Counts::<V>::new(nodes);
        for (i, plane) in self.planes.iter_mut().enumerate() {
            let word = std::mem::replace(plane, W::zero());
            if word.is_zero() {
                continue;
            }
            for slot in word.chunks().chunks_exact(V::CHUNKS) {
                let mut v = V::zero();
                v.chunks_mut().copy_from_slice(slot);
                out.bump_at(i / PLANES, i % PLANES, v);
            }
        }
        if !self.spill.is_empty() {
            out.spill.resize(nodes * V::LANES, 0);
            let rows = out.spill.chunks_exact_mut(V::LANES).zip(self.spill.chunks_exact(W::LANES));
            for (to, from) in rows {
                for slot in from.chunks_exact(V::LANES) {
                    to.iter_mut().zip(slot).for_each(|(t, &s)| *t += s);
                }
            }
            self.spill.clear();
        }
        out
    }

    /// Turns the counts into per-lane `(power µW, counted cycles)`
    /// samples in one pass and returns them with the run's total count;
    /// zeroes the counters.
    ///
    /// Lane `l`'s sample is bit-identical to `model.total_power_uw` of
    /// lane `l`'s activity record: its count at each node is the same
    /// integer, and the same products accumulate in the same node order.
    /// Nodes and 64-lane chunks whose count is zero add nothing, and where
    /// they do add, the product is `+0.0` onto a sum that started at `+0.0`
    /// (the coefficients are finite and non-negative), which changes no
    /// bit.
    fn take_lane_powers(
        &mut self,
        model: &PowerModel,
        lane_cycles: &[u64],
    ) -> (Vec<(f64, u64)>, u64) {
        let planes = W::flat_chunks_mut(&mut self.planes);
        let (samples, total) = lane_powers(planes, PLANES, &self.spill, model, lane_cycles);
        (samples, total + self.spill.drain(..).sum::<u64>())
    }
}

/// The fused finalize of both packed kernels: per-lane `(power µW, counted
/// cycles)` samples from count planes (flat `u64` chunks, `depth` planes
/// of `lane_cycles.len()` lanes per node, plane `p` weighing `2^p`) plus
/// the exact spilled per-lane totals, and the planes' total count. Zeroes
/// the planes.
fn lane_powers(
    planes: &mut [u64],
    depth: usize,
    spill: &[u64],
    model: &PowerModel,
    lane_cycles: &[u64],
) -> (Vec<(f64, u64)>, u64) {
    let mut net_fj = vec![0.0f64; lane_cycles.len()];
    let mut int_fj = vec![0.0f64; lane_cycles.len()];
    let (net, int) = model.toggle_energies_fj();
    let total = lane_energy(planes, spill, depth, (net, int, &mut net_fj, &mut int_fj));
    let samples = (net_fj.iter().zip(&int_fj).zip(lane_cycles))
        .map(|((&net, &int), &cycles)| (model.power_uw(net, int, cycles), cycles))
        .collect();
    (samples, total)
}

/// Runs `lane_energy_body` on the widest vector ISA this machine has.
fn lane_energy(planes: &mut [u64], spill: &[u64], depth: usize, energy: Energy<'_>) -> u64 {
    #[cfg(target_arch = "x86_64")]
    match simd_level() {
        // SAFETY (both arms): the wrapper's feature was runtime-detected.
        SimdLevel::Avx512 => return unsafe { lane_energy_avx512(planes, spill, depth, energy) },
        SimdLevel::Avx2 => return unsafe { lane_energy_avx2(planes, spill, depth, energy) },
        SimdLevel::Scalar => {}
    }
    lane_energy_body(planes, spill, depth, energy)
}

/// Per-node `(net, internal)` fJ per toggle, and the per-lane `(net,
/// internal)` fJ accumulators the finalize adds into.
type Energy<'a> = (&'a [f64], &'a [f64], &'a mut [f64], &'a mut [f64]);

/// The fused finalize over `u64` chunks, `depth` planes per node: for
/// each node and 64-lane chunk, rebuilds each lane's count from the
/// nonzero planes (bit `p` from plane `p`) and adds `c * count` into the
/// lane's energies, zeroing the planes. Returns the planes' total count.
/// Kept `#[inline(always)]` so the `#[target_feature]` wrappers below
/// re-compile it per ISA.
#[inline(always)]
fn lane_energy_body(planes: &mut [u64], spill: &[u64], depth: usize, energy: Energy<'_>) -> u64 {
    let (net_per_toggle, int_per_toggle, net_fj, int_fj) = energy;
    let lanes = net_fj.len();
    let chunks = lanes / 64;
    let mut total = 0u64;
    for (node, node_planes) in planes.chunks_exact_mut(depth * chunks).enumerate() {
        let (c_net, c_int) = (net_per_toggle[node], int_per_toggle[node]);
        for c in 0..chunks {
            let mut halves = [[0u32; 32]; 2];
            let mut any = false;
            for p in 0..depth {
                let w = std::mem::take(&mut node_planes[p * chunks + c]);
                if w == 0 {
                    continue;
                }
                any = true;
                total += u64::from(w.count_ones()) << p;
                for (half, bits) in halves.iter_mut().zip([w as u32, (w >> 32) as u32]) {
                    for (i, t) in half.iter_mut().enumerate() {
                        *t |= ((bits >> i) & 1) << p;
                    }
                }
            }
            let counts = halves.as_flattened();
            let net = &mut net_fj[64 * c..64 * c + 64];
            let int = &mut int_fj[64 * c..64 * c + 64];
            if spill.is_empty() {
                if !any {
                    continue;
                }
                for ((n, i), &t) in net.iter_mut().zip(int.iter_mut()).zip(counts) {
                    let t = f64::from(t);
                    *n += c_net * t;
                    *i += c_int * t;
                }
            } else {
                let spilled = &spill[node * lanes + 64 * c..node * lanes + 64 * c + 64];
                for (((n, i), &t), &s) in
                    net.iter_mut().zip(int.iter_mut()).zip(counts).zip(spilled)
                {
                    let t = (u64::from(t) + s) as f64;
                    *n += c_net * t;
                    *i += c_int * t;
                }
            }
        }
    }
    total
}

/// `lane_energy_body` re-compiled with AVX2 codegen.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lane_energy_avx2(
    planes: &mut [u64],
    spill: &[u64],
    depth: usize,
    energy: Energy<'_>,
) -> u64 {
    lane_energy_body(planes, spill, depth, energy)
}

/// `lane_energy_body` re-compiled with AVX-512F codegen.
///
/// # Safety
///
/// The caller must have verified AVX-512F support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn lane_energy_avx512(
    planes: &mut [u64],
    spill: &[u64],
    depth: usize,
    energy: Energy<'_>,
) -> u64 {
    lane_energy_body(planes, spill, depth, energy)
}

/// Fills flat packed input words (`stride` chunks each, see
/// [`Word::flat_chunks_mut`]) with one fair coin per lane of `lanes`:
/// lane `l` of word `i` is the `i`-th `gen_bool(0.5)` draw of lane `l`'s
/// stream this cycle (see [`LaneRng::fill_coins`]), on the widest vector
/// ISA this machine has. This is how the packed Monte-Carlo kernels draw
/// one cycle of a word of [`crate::streams::RandomVectors`] lanes.
///
/// # Panics
///
/// As [`LaneRng::fill_coins`].
pub fn random_words(lanes: &mut LaneRng, out: &mut [u64], stride: usize) {
    #[cfg(target_arch = "x86_64")]
    match simd_level() {
        // SAFETY (both arms): the wrapper's feature was runtime-detected.
        SimdLevel::Avx512 => return unsafe { coins_avx512(lanes, out, stride) },
        SimdLevel::Avx2 => return unsafe { coins_avx2(lanes, out, stride) },
        SimdLevel::Scalar => {}
    }
    lanes.fill_coins(out, stride);
}

/// [`LaneRng::fill_coins`] re-compiled with AVX2 codegen.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn coins_avx2(lanes: &mut LaneRng, out: &mut [u64], stride: usize) {
    lanes.fill_coins(out, stride);
}

/// [`LaneRng::fill_coins`] re-compiled with AVX-512F codegen.
///
/// # Safety
///
/// The caller must have verified AVX-512F support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn coins_avx512(lanes: &mut LaneRng, out: &mut [u64], stride: usize) {
    lanes.fill_coins(out, stride);
}

/// How the settle loop counts toggles: `tally(node, old, new)` sees each
/// evaluated node's value before and after.
trait Tally {
    type Word: Word;
    fn tally(&mut self, node: usize, old: Self::Word, new: Self::Word);
}

/// [`WideSim`]'s tally: the lanes of `mask` that toggled, bumped into
/// `PLANES` planes per node ([`bump_planes`]). A zero mask never touches
/// the planes, so they may be empty.
struct Planes<'a, W: Word> {
    planes: &'a mut [W],
    mask: W,
}

impl<W: Word> Tally for Planes<'_, W> {
    type Word = W;
    #[inline(always)]
    fn tally(&mut self, node: usize, old: W, new: W) {
        bump_planes(self.planes, node * PLANES, old.xor(new).and(self.mask));
    }
}

/// [`SlotPacked`]'s tally: a `T`-lane block's slot toggles in `mask`,
/// summed into `depth` `W`-lane planes per node ([`count_slots`]).
struct Slots<'a, W: Word, T: Word> {
    counts: &'a mut [W],
    depth: usize,
    mask: T,
}

impl<W: Word, T: Word> Tally for Slots<'_, W, T> {
    type Word = T;
    #[inline(always)]
    fn tally(&mut self, node: usize, old: T, new: T) {
        let counts = &mut self.counts[node * self.depth..][..self.depth];
        count_slots::<W, T>(counts, old, new, self.mask);
    }
}

/// The zero-delay settle loop: evaluates the compiled instruction stream
/// against the packed values, tallying each node's toggles. Kept as one
/// `#[inline(always)]` body so the `#[target_feature]` wrappers below
/// re-compile the identical code under wider vector ISAs.
#[inline(always)]
fn settle_body<C: Tally>(program: &Program, values: &mut [C::Word], tally: &mut C) {
    for idx in 0..program.instrs.len() {
        let ins = program.instrs[idx];
        let new = program.eval(values, &ins);
        let slot = ins.out as usize;
        tally.tally(slot, values[slot], new);
        values[slot] = new;
    }
}

/// `settle_body` re-compiled with AVX2 codegen (for [`W256`], and for
/// [`W512`] as two 256-bit ops per word).
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn settle_avx2<C: Tally>(program: &Program, values: &mut [C::Word], tally: &mut C) {
    settle_body(program, values, tally);
}

/// `settle_body` re-compiled with AVX-512F codegen (one 512-bit op per
/// [`W512`] word).
///
/// # Safety
///
/// The caller must have verified AVX-512F support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn settle_avx512<C: Tally>(program: &Program, values: &mut [C::Word], tally: &mut C) {
    settle_body(program, values, tally);
}

/// Dispatches the settle loop to the widest vector path this machine and
/// word width support. Bit-identical to the portable path by
/// construction (pure boolean algebra, no reassociation-sensitive math).
fn settle<C: Tally>(program: &Program, values: &mut [C::Word], tally: &mut C) {
    #[cfg(target_arch = "x86_64")]
    {
        let (level, word) = (simd_level(), TypeId::of::<C::Word>());
        let wide = word == TypeId::of::<W256>() || word == TypeId::of::<W512>();
        if word == TypeId::of::<W512>() && level >= SimdLevel::Avx512 {
            // SAFETY: AVX-512F was runtime-verified.
            return unsafe { settle_avx512(program, values, tally) };
        }
        if wide && level >= SimdLevel::Avx2 {
            // SAFETY: AVX2 was runtime-verified.
            return unsafe { settle_avx2(program, values, tally) };
        }
    }
    settle_body(program, values, tally);
}

/// Each flip-flop's power-on next-state word and D-input slot, parallel
/// to `netlist.dffs()`.
fn registers<W: Word>(netlist: &Netlist) -> (Vec<W>, Vec<u32>) {
    (netlist.dffs().iter())
        .filter_map(|&q| match netlist.kind(q) {
            NodeKind::Dff { d, init } => Some((W::splat(*init), d.index() as u32)),
            _ => None,
        })
        .unzip()
}

/// The width-generic lane-parallel compiled simulator: [`Word::LANES`]
/// independent stimulus lanes advance one clock cycle per
/// [`step`](WideSim::step).
///
/// Sequencing per step matches [`crate::ZeroDelaySim`] exactly:
/// flip-flops present their previously-sampled values, primary inputs are
/// applied, the combinational network settles in topological order,
/// flip-flops sample their D inputs. The first step initializes values
/// without counting toggles.
#[derive(Debug, Clone)]
pub struct WideSim<'a, W: Word> {
    netlist: &'a Netlist,
    program: Program,
    /// Packed node values; lane `l` of a word is stimulus stream `l`.
    values: Vec<W>,
    /// Next-state words latched per DFF (parallel to `netlist.dffs()`).
    dff_next: Vec<W>,
    /// Per-DFF D-input slots, resolved once at construction.
    dff_d: Vec<u32>,
    /// Toggle counts per node and lane.
    toggles: Counts<W>,
    /// Counted cycles per lane (`W::LANES` entries).
    lane_cycles: Vec<u64>,
    /// Counted steps since the last plane flush.
    pending: u64,
    initialized: bool,
}

impl<'a, W: Word> WideSim<'a, W> {
    /// Compiles the netlist and creates a simulator with all lanes at
    /// their initial values.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        Self::from_program(netlist, Program::compile(netlist)?)
    }

    /// Creates a simulator from a pre-compiled [`CompiledKernel`] without
    /// recompiling the instruction stream (the kernel-cache fast path of
    /// long-running services: compile once per circuit, stamp out
    /// simulators per request).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::KernelMismatch`] if `kernel` was compiled
    /// from a different netlist.
    pub fn with_kernel(
        netlist: &'a Netlist,
        kernel: &CompiledKernel,
    ) -> Result<Self, NetlistError> {
        kernel.check_matches(netlist)?;
        Self::from_program(netlist, kernel.program.clone())
    }

    fn from_program(netlist: &'a Netlist, program: Program) -> Result<Self, NetlistError> {
        let values = program.init_words::<W>();
        let (dff_next, dff_d) = registers(netlist);
        Ok(WideSim {
            netlist,
            program,
            values,
            dff_next,
            dff_d,
            toggles: Counts::new(netlist.node_count()),
            lane_cycles: vec![0; W::LANES],
            pending: 0,
            initialized: false,
        })
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Packed current value of a node (lane `l` is stream `l`).
    pub fn value_word(&self, node: NodeId) -> W {
        self.values[node.index()]
    }

    /// Packed current values of the primary outputs, in declaration order.
    pub fn output_words(&self) -> Vec<W> {
        self.netlist.outputs().iter().map(|&(_, n)| self.values[n.index()]).collect()
    }

    /// Advances every lane by one clock cycle. `inputs[i]` packs the bit
    /// of primary input `i` for all lanes.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if `inputs` does not
    /// have one word per primary input.
    pub fn step(&mut self, inputs: &[W]) -> Result<(), NetlistError> {
        self.step_masked(inputs, W::splat(true))
    }

    /// [`step`](Self::step) restricted to the lanes set in `mask`.
    ///
    /// Masked-out lanes do not accumulate toggles or cycles this step, so
    /// lanes whose stimulus streams end early stop exactly where their
    /// scalar runs would. A lane must not be re-activated after a masked
    /// step: the contract is a prefix-closed active set per lane (active
    /// for its first `k` steps, inactive afterwards), matching a scalar
    /// run over a `k`-vector stream. Input bits of inactive lanes are
    /// don't-cares.
    ///
    /// # Errors
    ///
    /// As [`step`](Self::step).
    pub fn step_masked(&mut self, inputs: &[W], mask: W) -> Result<(), NetlistError> {
        if inputs.len() != self.netlist.input_count() {
            return Err(NetlistError::InputWidthMismatch {
                got: inputs.len(),
                expected: self.netlist.input_count(),
            });
        }
        obs::SIM64_STEPS.inc();
        obs::SIM64_GATE_EVALS.add(self.program.instrs.len() as u64);
        // The first step only establishes values (no previous vector to
        // toggle from); count nothing by masking every diff to zero.
        let count_mask = if self.initialized { mask } else { W::zero() };
        // Present DFF outputs (sampled at the previous edge).
        for (i, &q) in self.netlist.dffs().iter().enumerate() {
            let slot = q.index();
            let new = self.dff_next[i];
            bump_planes(
                &mut self.toggles.planes,
                slot * PLANES,
                self.values[slot].xor(new).and(count_mask),
            );
            self.values[slot] = new;
        }
        // Apply primary inputs.
        for (i, &inp) in self.netlist.inputs().iter().enumerate() {
            let slot = inp.index();
            let new = inputs[i];
            bump_planes(
                &mut self.toggles.planes,
                slot * PLANES,
                self.values[slot].xor(new).and(count_mask),
            );
            self.values[slot] = new;
        }
        // Settle combinational logic via the compiled instruction stream
        // (runtime-dispatched to the widest available vector path).
        let tally = &mut Planes { planes: &mut self.toggles.planes, mask: count_mask };
        settle(&self.program, &mut self.values, tally);
        // Sample D inputs for the next cycle.
        for (i, &d) in self.dff_d.iter().enumerate() {
            self.dff_next[i] = self.values[d as usize];
        }
        if self.initialized {
            obs::SIM64_LANE_CYCLES.add(mask.count_ones() as u64);
            for l in 0..W::LANES {
                self.lane_cycles[l] += mask.lane(l) as u64;
            }
            self.pending += 1;
            if self.pending >= FLUSH_INTERVAL {
                self.toggles.flush();
                self.pending = 0;
            }
        }
        self.initialized = true;
        Ok(())
    }

    /// Returns the per-lane activity records and resets the counters
    /// (values, flip-flop state, and the initialized flag are preserved so
    /// runs can be chained, mirroring the scalar `take_activity`).
    ///
    /// Lane `l`'s record is bit-identical to what a scalar
    /// [`crate::ZeroDelaySim`] run over lane `l`'s stream would have
    /// accumulated.
    pub fn take_lane_activities(&mut self) -> Vec<Activity> {
        let lanes = self.toggles.take_lanes();
        obs::SIM64_TOGGLES.add(lanes.iter().flatten().sum());
        let out = (lanes.into_iter().zip(&self.lane_cycles))
            .map(|(toggles, &cycles)| Activity { toggles, cycles })
            .collect();
        self.reset_cycles();
        out
    }

    /// Finalizes the run straight into per-lane `(total power µW,
    /// counted cycles)` samples under a precomputed [`PowerModel`],
    /// resetting the counters exactly like
    /// [`take_lane_activities`](Self::take_lane_activities).
    ///
    /// This is the Monte-Carlo fast path: one pass turns each node's
    /// count planes into per-lane counts and adds their energy straight
    /// into per-lane accumulators, with no `nodes x lanes` toggle array
    /// unless the run flushed its planes mid-run. Lane `l`'s sample is
    /// bit-identical to `model.total_power_uw(&lane_activity)` of the
    /// record [`take_lane_activities`](Self::take_lane_activities) would
    /// have returned for that lane.
    pub fn take_lane_powers(&mut self, model: &PowerModel) -> Vec<(f64, u64)> {
        let (out, toggles) = self.toggles.take_lane_powers(model, &self.lane_cycles);
        obs::SIM64_TOGGLES.add(toggles);
        self.reset_cycles();
        out
    }

    /// Returns the lane-collapsed activity (all lanes merged: toggles
    /// summed per node, cycles summed) and resets the counters like
    /// [`take_lane_activities`](Self::take_lane_activities). Each node's
    /// count is its planes' popcounts, with no per-lane array.
    pub fn take_activity(&mut self) -> Activity {
        let toggles = self.toggles.take_nodes();
        obs::SIM64_TOGGLES.add(toggles.iter().sum());
        let cycles = self.lane_cycles.iter().sum();
        self.reset_cycles();
        Activity { toggles, cycles }
    }

    /// Zeroes the per-lane cycle counts and restarts the flush schedule
    /// (every take leaves the planes empty).
    fn reset_cycles(&mut self) {
        self.lane_cycles.fill(0);
        self.pending = 0;
    }
}

/// One word of `W` zero-delay Monte-Carlo lanes, settled slot-packed on
/// `T`-lane words, `S = T::LANES / W::LANES` cycles side by side.
///
/// Cycle `c` of the word fills slot `c % S` of the block's `T`-lane
/// source words (flip-flop outputs and primary inputs), whole 64-lane
/// chunks with no bit shuffling, and each full block settles once at `T`.
/// A slot's toggles are its value against the slot below it, slot 0's
/// against the previous block's top slot (`slot_shift`), masked to the
/// cycle's active lanes; cycle 0 is never counted. Vertical adders sum
/// them over the slots, branch-free, and add the sum into `depth` count
/// planes of `W` lanes per node, deep enough for every cycle of the word,
/// so nothing carries out (`count_slots`). The take runs the shared
/// finalize on those planes, so each sample equals the one a `W`-lane
/// [`WideSim`] stepped a cycle at a time computes, bit for bit. The word
/// holds one `T` value and `depth` `W`-lane planes per node: 112 bytes for
/// a 64-lane word of 60 cycles on 512 lanes, against the 136 of a stepped
/// word's value and 16 planes.
///
/// A flip-flop's output is a source like a primary input. Each step runs
/// the instructions of the flip-flops' D-input fan-in cone at `W`,
/// uncounted, to get the next cycle's outputs; for a delay line, whose D
/// inputs are sources, that cone is empty.
#[derive(Debug)]
pub(crate) struct SlotPacked<'a, W: Word, T: Word> {
    netlist: &'a Netlist,
    program: Cow<'a, Program>,
    /// The D-input fan-in cone's instructions, in topological order, and
    /// the `W`-lane values they run on.
    cone: Vec<Instr>,
    narrow: Vec<W>,
    /// Next-state words latched per DFF (parallel to `netlist.dffs()`).
    dff_next: Vec<W>,
    /// Per-DFF D-input slots.
    dff_d: Vec<u32>,
    /// The block being filled: one word per source (flip-flop outputs,
    /// then primary inputs), and the lanes each slot counts.
    sources: Vec<T>,
    mask: T,
    /// Slots of the block filled so far, and steps taken.
    filled: usize,
    cycle: usize,
    /// The last block's settled value per node.
    values: Vec<T>,
    /// `depth` count planes per node.
    counts: Vec<W>,
    depth: usize,
}

impl<'a, W: Word, T: Word> SlotPacked<'a, W, T> {
    /// Count planes per node for a word of `cycles` steps: enough for a
    /// toggle every cycle, or `None` past [`PLANES`].
    pub(crate) fn depth(cycles: usize) -> Option<usize> {
        let depth = (usize::BITS - cycles.leading_zeros()).max(1) as usize;
        (depth <= PLANES).then_some(depth)
    }

    /// A word at its power-on values, settling on `program` (compiled
    /// from `netlist`) and counting in `depth` planes per node.
    pub(crate) fn new(netlist: &'a Netlist, program: Cow<'a, Program>, depth: usize) -> Self {
        assert!(T::CHUNKS > W::CHUNKS && T::CHUNKS % W::CHUNKS == 0, "{} slots", T::LANES);
        let (dff_next, dff_d) = registers::<W>(netlist);
        let cone = program.cone(netlist.node_count(), &dff_d);
        let sources = dff_d.len() + netlist.input_count();
        SlotPacked {
            netlist,
            narrow: if dff_d.is_empty() { Vec::new() } else { program.init_words::<W>() },
            cone,
            dff_next,
            dff_d,
            sources: vec![T::zero(); sources],
            mask: T::zero(),
            filled: 0,
            cycle: 0,
            values: program.init_words::<T>(),
            counts: vec![W::zero(); netlist.node_count() * depth],
            depth,
            program,
        }
    }

    /// Advances every lane by one clock cycle, as [`WideSim::step_masked`]:
    /// the same prefix-closed active-set contract, with `inputs` one word
    /// per primary input. Settles the block once its slots are full.
    pub(crate) fn step_masked(&mut self, inputs: &[W], mask: W) {
        debug_assert_eq!(inputs.len(), self.netlist.input_count(), "one word per primary input");
        let slot = self.filled * W::CHUNKS..(self.filled + 1) * W::CHUNKS;
        let put = |word: &mut T, w: &W| word.chunks_mut()[slot.clone()].copy_from_slice(w.chunks());
        let words = self.dff_next.iter().chain(inputs);
        self.sources.iter_mut().zip(words).for_each(|(word, w)| put(word, w));
        put(&mut self.mask, &if self.cycle == 0 { W::zero() } else { mask });
        if !self.dff_d.is_empty() {
            let nl = self.netlist;
            for (q, &w) in
                nl.dffs().iter().chain(nl.inputs()).zip(self.dff_next.iter().chain(inputs))
            {
                self.narrow[q.index()] = w;
            }
            self.program.run_instrs(&self.cone, &mut self.narrow);
            for (next, &d) in self.dff_next.iter_mut().zip(&self.dff_d) {
                *next = self.narrow[d as usize];
            }
            obs::SIM64_GATE_EVALS.add(self.cone.len() as u64);
        }
        self.filled += 1;
        self.cycle += 1;
        if self.filled * W::CHUNKS == T::CHUNKS {
            self.settle_block();
        }
    }

    /// Settles the filled slots, if any, counting their toggles; the empty
    /// rest of the block is masked out.
    fn settle_block(&mut self) {
        if self.filled == 0 {
            return;
        }
        let SlotPacked { netlist: nl, program, sources, mask, values, counts, depth, .. } = self;
        let tally = &mut Slots::<W, T> { counts, depth: *depth, mask: *mask };
        for (q, &new) in nl.dffs().iter().chain(nl.inputs()).zip(sources.iter()) {
            tally.tally(q.index(), values[q.index()], new);
            values[q.index()] = new;
        }
        settle(program, values, tally);
        obs::SIM64_STEPS.inc();
        obs::SIM64_GATE_EVALS.add(program.instrs.len() as u64);
        (self.mask, self.filled) = (T::zero(), 0);
    }

    /// Settles what is left and returns one `(power µW, counted cycles)`
    /// sample per lane of `W`, `lane_cycles[l]` counted cycles for lane
    /// `l`.
    pub(crate) fn take_lane_powers(
        mut self,
        model: &PowerModel,
        lane_cycles: &[u64],
    ) -> Vec<(f64, u64)> {
        self.settle_block();
        let counts = W::flat_chunks_mut(&mut self.counts);
        let (out, toggles) = lane_powers(counts, self.depth, &[], model, lane_cycles);
        obs::SIM64_TOGGLES.add(toggles);
        obs::SIM64_LANE_CYCLES.add(lane_cycles.iter().sum());
        out
    }
}

/// `new` moved up one `W` slot, its lowest slot taken from `old`'s top
/// one: each slot lane's value one cycle earlier.
#[inline(always)]
fn slot_shift<W: Word, T: Word>(old: T, new: T) -> T {
    let (k, n) = (W::CHUNKS, T::CHUNKS);
    let mut prev = new;
    prev.chunks_mut()[k..].copy_from_slice(&new.chunks()[..n - k]);
    prev.chunks_mut()[..k].copy_from_slice(&old.chunks()[n - k..]);
    prev
}

/// Adds a node's slot toggles (`new` against [`slot_shift`], in `mask`)
/// into its `W`-lane count planes, branch-free. Each halving adds the
/// upper half of the live slots onto the lower half with vertical full
/// adders, so `sum` ends as the per-lane total over the slots in its low
/// `W` chunks, `log2(S) + 1` planes deep, which ripples into `counts`.
#[inline(always)]
fn count_slots<W: Word, T: Word>(counts: &mut [W], old: T, new: T, mask: T) {
    let mut sum = [T::zero(); 4];
    sum[0] = new.xor(slot_shift::<W, T>(old, new)).and(mask);
    let (mut width, mut bits) = (T::CHUNKS, 1);
    while width > W::CHUNKS {
        width /= 2;
        let mut carry = T::zero();
        for plane in &mut sum[..bits] {
            let (a, b) = (*plane, chunks_down(*plane, width));
            (*plane, carry) = full_add(a, b, carry);
        }
        sum[bits] = carry;
        bits += 1;
    }
    let mut carry = W::zero();
    for (q, count) in counts.iter_mut().enumerate() {
        let mut add = W::zero();
        if q < bits {
            add.chunks_mut().copy_from_slice(&sum[q].chunks()[..W::CHUNKS]);
        }
        (*count, carry) = full_add(*count, add, carry);
    }
    debug_assert!(carry.is_zero(), "slot counts overflowed");
}

/// `x` moved down `k` chunks, zero-filled from the top.
#[inline(always)]
fn chunks_down<T: Word>(x: T, k: usize) -> T {
    let mut out = T::zero();
    out.chunks_mut()[..T::CHUNKS - k].copy_from_slice(&x.chunks()[k..]);
    out
}

/// One vertical full adder: the sum and carry words of `a + b + c`.
#[inline(always)]
fn full_add<W: Word>(a: W, b: W, c: W) -> (W, W) {
    let ab = a.xor(b);
    (ab.xor(c), a.and(b).or(c.and(ab)))
}

/// The width-generic lane-parallel compiled *timed* (glitch-capturing)
/// simulator: [`Word::LANES`] independent stimulus lanes advance one
/// clock cycle per [`step`](WideTimedSim::step), with every glitch
/// counted.
///
/// Sequencing per step matches [`crate::EventDrivenSim`] exactly:
/// flip-flop outputs and primary inputs change at time zero, one pass in
/// topological order computes each gate's whole in-cycle waveform under
/// the library's transport delays, functional transitions are recovered
/// from the settled-state diff, and flip-flops sample their D inputs. The
/// first step initializes values without counting.
///
/// Each distinct fanin change time `s` schedules one evaluation at `s +
/// delay` for the lanes that changed at `s`, reading each fanin as of that
/// time; a fanin's change at exactly that time is seen if the fanin has the
/// lower node id (the event simulator's `(time, ascending node id)` order).
#[derive(Debug, Clone)]
pub struct WideTimedSim<'a, W: Word> {
    netlist: &'a Netlist,
    program: Program,
    /// Transport delay in ps per instruction (parallel to `program.instrs`).
    delays: Vec<u64>,
    /// This step's waveforms, the first `end` entries: one run of `(time,
    /// changed lanes)` entries per changed node, in time order and ended
    /// by a `u64::MAX` time.
    times: Vec<u64>,
    changes: Vec<W>,
    end: usize,
    /// Per-node start of its run; entry 0 is never a run, so 0 means the
    /// node did not change.
    run: Vec<u32>,
    /// Packed node values; lane `l` of a word is stimulus stream `l`.
    values: Vec<W>,
    /// Settled values at the start of the current step: every waveform's
    /// starting point, and the functional diff's.
    step_start: Vec<W>,
    /// Next-state words latched per DFF (parallel to `netlist.dffs()`).
    dff_next: Vec<W>,
    /// Per-DFF D-input slots.
    dff_d: Vec<u32>,
    /// Counts of all transitions (functional + glitch).
    transitions: Counts<W>,
    /// Counts of functional (settled-state) transitions.
    functional: Counts<W>,
    /// Counted cycles per lane (`W::LANES` entries).
    lane_cycles: Vec<u64>,
    initialized: bool,
}

/// Grows the waveform arena to at least `need` entries, a fixed 4,096
/// past it: within the reserved capacity (and past it, where `Vec`
/// doubles the allocation) a step touches at most that many entries more
/// than its waveforms fill.
fn grow<W: Word>(times: &mut Vec<u64>, changes: &mut Vec<W>, need: usize) {
    if times.len() < need {
        let len = need + 4096;
        times.resize(len, u64::MAX);
        changes.resize(len, W::zero());
    }
}

/// One changed fanin of the gate [`WideTimedSim`] is visiting: cursors
/// into its run (the next change to schedule an evaluation from, and the
/// next to apply to `value`) and its value as of the last evaluation.
#[derive(Debug, Clone, Copy)]
struct Pin<W: Word> {
    node: usize,
    next: usize,
    read: usize,
    value: W,
}

impl<'a, W: Word> WideTimedSim<'a, W> {
    /// Compiles the netlist under `lib`'s delay model and creates a
    /// simulator with all lanes at their settled initial values.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn new(netlist: &'a Netlist, lib: &Library) -> Result<Self, NetlistError> {
        Self::from_program(netlist, lib, Program::compile(netlist)?)
    }

    /// Creates a simulator from a pre-compiled [`CompiledKernel`] without
    /// recompiling the instruction stream. The gate delays are still
    /// derived per instance (they depend on `lib`), but the dominant
    /// topological-sort + instruction-selection cost is skipped.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::KernelMismatch`] if `kernel` was compiled
    /// from a different netlist.
    pub fn with_kernel(
        netlist: &'a Netlist,
        lib: &Library,
        kernel: &CompiledKernel,
    ) -> Result<Self, NetlistError> {
        kernel.check_matches(netlist)?;
        Self::from_program(netlist, lib, kernel.program.clone())
    }

    fn from_program(
        netlist: &'a Netlist,
        lib: &Library,
        program: Program,
    ) -> Result<Self, NetlistError> {
        let _span = hlpower_obs::trace::span("sim64timed", "sim64timed.compile");
        let n = netlist.node_count();
        let delays_ps = gate_delays_ps(netlist, lib);
        let delays = program.instrs.iter().map(|ins| delays_ps[ins.out as usize]).collect();
        // Settle the combinational network from the broadcast initial
        // state, mirroring the scalar constructor.
        let mut values = program.init_words::<W>();
        program.run(&mut values);
        let (dff_next, dff_d) = registers(netlist);
        Ok(WideTimedSim {
            netlist,
            program,
            delays,
            // Room for 64 entries per node: a step of the glitchiest measured
            // shape, the 16-bit array multiplier (25 / 41 / 49 per node at
            // 64 / 256 / 512 lanes), never reallocates the arena.
            times: Vec::with_capacity(64 * n),
            changes: Vec::with_capacity(64 * n),
            end: 1,
            run: vec![0; n],
            values,
            step_start: vec![W::zero(); n],
            dff_next,
            dff_d,
            transitions: Counts::new(n),
            functional: Counts::new(n),
            lane_cycles: vec![0; W::LANES],
            initialized: false,
        })
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Packed current value of a node (lane `l` is stream `l`).
    pub fn value_word(&self, node: NodeId) -> W {
        self.values[node.index()]
    }

    /// Starts a step from `step_start`: every source (flip-flop outputs,
    /// then primary inputs; the `k`-th at `node` takes `new(self, k,
    /// node)`) changes its lanes in `mask` at time zero, counting toggles
    /// in `count_mask`, and the gates' waveforms follow.
    fn propagate(&mut self, new: impl Fn(&Self, usize, usize) -> W, mask: W, count_mask: W) {
        let nl = self.netlist;
        for (k, q) in nl.dffs().iter().chain(nl.inputs()).enumerate() {
            let node = q.index();
            let changed = self.values[node].xor(new(self, k, node)).and(mask);
            self.run[node] = 0;
            if changed.is_zero() {
                continue;
            }
            self.values[node] = self.values[node].xor(changed);
            self.transitions.bump_at(node, 0, changed.and(count_mask));
            grow(&mut self.times, &mut self.changes, self.end + 2);
            self.run[node] = self.end as u32;
            self.times[self.end..self.end + 2].copy_from_slice(&[0, u64::MAX]);
            self.changes[self.end..self.end + 2].copy_from_slice(&[changed, W::zero()]);
            self.end += 2;
        }
        let events = self.drain(count_mask);
        obs::SIM_EVP_STEPS.inc();
        obs::SIM_EVP_EVENTS.add(events);
    }

    /// Computes every gate's waveform in one topological pass, counting
    /// toggles in `count_mask`, and clears the waveforms. Returns the
    /// number of word-wide evaluations (each coalesces up to `W::LANES`
    /// scalar heap pops at one `(time, node)` point).
    fn drain(&mut self, count_mask: W) -> u64 {
        let (mut events, mut pins) = (0, Vec::<Pin<W>>::new());
        for i in 0..self.program.instrs.len() {
            let ins = &self.program.instrs[i];
            self.run[ins.out as usize] = 0;
            pins.clear();
            for &f in self.program.fanins(ins) {
                let (f, at) = (f as usize, self.run[f as usize] as usize);
                if at != 0 && pins.iter().all(|p| p.node != f) {
                    pins.push(Pin { node: f, next: at, read: at, value: self.step_start[f] });
                }
            }
            // Few changed fanins: a fixed-size copy keeps their cursors in
            // registers.
            events += match pins[..] {
                [] => 0,
                [a] => self.visit(i, [a], count_mask),
                [a, b] => self.visit(i, [a, b], count_mask),
                [a, b, c] => self.visit(i, [a, b, c], count_mask),
                _ => self.visit(i, &mut pins[..], count_mask),
            };
        }
        self.end = 1;
        events
    }

    /// Computes instruction `i`'s gate waveform from its changed fanins'
    /// `pins`; returns the evaluations made.
    #[inline(always)]
    fn visit(&mut self, i: usize, mut pins: impl AsMut<[Pin<W>]>, count_mask: W) -> u64 {
        let WideTimedSim { program, delays, times, changes, end, run, values, transitions, .. } =
            self;
        let (pins, ins, delay) = (pins.as_mut(), &program.instrs[i], delays[i]);
        let (g, first, mut events) = (ins.out as usize, *end, 0);
        let mut value = values[g];
        grow(times, changes, first + 16);
        let (mut ts, mut cs, values) = (&mut times[..], &mut changes[..], &mut values[..]);
        let mut at = first;
        // Four carry-save planes count this gate's toggles; they fold
        // into `transitions` every 15 changes, before they can overflow.
        let (mut planes, mut held) = ([W::zero(); 4], 0);
        loop {
            let s = pins.iter().map(|p| ts[p.next]).min().expect("a changed fanin");
            if s == u64::MAX {
                break;
            }
            let t = s + delay;
            let mut sched = W::zero();
            for p in pins.iter_mut() {
                let hit = ts[p.next] == s;
                sched = sched.or(cs[p.next].and(W::splat(hit)));
                p.next += usize::from(hit);
                let seen = t + u64::from(p.node < g);
                while ts[p.read] < seen {
                    p.value = p.value.xor(cs[p.read]);
                    p.read += 1;
                }
                values[p.node] = p.value;
            }
            events += 1;
            let changed = value.xor(program.eval(values, ins)).and(sched);
            value = value.xor(changed);
            (ts[at], cs[at]) = (t, changed);
            let moved = !changed.is_zero();
            at += usize::from(moved);
            let mut carry = changed.and(count_mask);
            for p in &mut planes {
                (*p, carry) = (p.xor(carry), p.and(carry));
            }
            debug_assert!(carry.is_zero(), "carry-save planes overflowed");
            held += usize::from(moved);
            if held == 15 {
                transitions.fold(g, &mut planes);
                held = 0;
                grow(times, changes, at + 16);
                (ts, cs) = (&mut times[..], &mut changes[..]);
            }
        }
        transitions.fold(g, &mut planes);
        values[g] = value;
        if at > first {
            run[g] = first as u32;
            (ts[at], cs[at]) = (u64::MAX, W::zero());
            at += 1;
        }
        *end = at;
        events
    }

    /// Advances every lane by one clock cycle. `inputs[i]` packs the bit
    /// of primary input `i` for all lanes.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if `inputs` does not
    /// have one word per primary input.
    pub fn step(&mut self, inputs: &[W]) -> Result<(), NetlistError> {
        self.step_masked(inputs, W::splat(true))
    }

    /// [`step`](Self::step) restricted to the lanes set in `mask`.
    ///
    /// The contract matches [`WideSim::step_masked`]: a prefix-closed
    /// active set per lane (active for its first `k` steps, inactive
    /// afterwards) makes lane `l` bit-identical to a scalar
    /// [`crate::EventDrivenSim`] run over a `k`-vector stream. Input bits
    /// of inactive lanes are don't-cares.
    ///
    /// # Errors
    ///
    /// As [`step`](Self::step).
    pub fn step_masked(&mut self, inputs: &[W], mask: W) -> Result<(), NetlistError> {
        if inputs.len() != self.netlist.input_count() {
            return Err(NetlistError::InputWidthMismatch {
                got: inputs.len(),
                expected: self.netlist.input_count(),
            });
        }
        // The first step only establishes values; count nothing.
        let count_mask = if self.initialized { mask } else { W::zero() };
        self.step_start.copy_from_slice(&self.values);
        let dffs = self.dff_next.len();
        let new = |sim: &Self, k, _| if k < dffs { sim.dff_next[k] } else { inputs[k - dffs] };
        self.propagate(new, mask, count_mask);
        // Functional transition accounting: settled-state diff.
        if !count_mask.is_zero() {
            for node in 0..self.values.len() {
                let diff = self.step_start[node].xor(self.values[node]).and(count_mask);
                if !diff.is_zero() {
                    self.functional.bump_at(node, 0, diff);
                }
            }
        }
        // Sample D inputs for the next cycle.
        for (i, &d) in self.dff_d.iter().enumerate() {
            self.dff_next[i] = self.values[d as usize];
        }
        if self.initialized {
            obs::SIM_EVP_LANE_CYCLES.add(mask.count_ones() as u64);
            for l in 0..W::LANES {
                self.lane_cycles[l] += mask.lane(l) as u64;
            }
        }
        self.initialized = true;
        Ok(())
    }

    /// Replays [`Word::LANES`] independent *transitions*: lane `l` starts
    /// from settled state `from` and receives the source-node (primary
    /// input and flip-flop output) values of settled state `to`, both
    /// packed per node with lane `l` = transition `l`. The lanes need not
    /// share a stream or a cycle. Every lane in `mask` counts (no
    /// initialization step) and adds one cycle, and flip-flop latching
    /// state is bypassed, so do not mix transition blocks with
    /// [`step`](Self::step) calls on one instance. The transition-block
    /// packer behind [`crate::timed_activity`] and
    /// [`crate::simulate_packed_glitch_lanes`] calls it once per word.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ActivitySizeMismatch`] if `from`/`to` do
    /// not have one word per node.
    pub fn eval_transition_block(
        &mut self,
        from: &[W],
        to: &[W],
        mask: W,
    ) -> Result<(), NetlistError> {
        let n = self.values.len();
        if from.len() != n || to.len() != n {
            return Err(NetlistError::ActivitySizeMismatch {
                left: n,
                right: if from.len() != n { from.len() } else { to.len() },
            });
        }
        self.values.copy_from_slice(from);
        self.step_start.copy_from_slice(from);
        self.propagate(|_, _, node| to[node], mask, mask);
        obs::SIM_EVP_LANE_CYCLES.add(mask.count_ones() as u64);
        for node in 0..n {
            debug_assert!(
                self.values[node].xor(to[node]).and(mask).is_zero(),
                "event-driven settle diverged from the zero-delay trajectory at node {node}"
            );
            let diff = from[node].xor(self.values[node]).and(mask);
            if !diff.is_zero() {
                self.functional.bump_at(node, 0, diff);
            }
        }
        for l in 0..W::LANES {
            self.lane_cycles[l] += mask.lane(l) as u64;
        }
        Ok(())
    }

    /// Returns the per-lane timed-activity records and resets the
    /// counters (values, flip-flop state, and the initialized flag are
    /// preserved so runs can be chained, mirroring the scalar
    /// `take_activity`).
    ///
    /// Lane `l`'s record is bit-identical to what a scalar
    /// [`crate::EventDrivenSim`] run over lane `l`'s stream would have
    /// accumulated.
    pub fn take_lane_activities(&mut self) -> Vec<TimedActivity> {
        self.check_functional();
        let (toggles, functional) = (self.transitions.take_lanes(), self.functional.take_lanes());
        let sum = |lanes: &[Vec<u64>]| lanes.iter().flatten().sum();
        count_transitions(sum(&toggles), sum(&functional));
        let out = (toggles.into_iter().zip(functional).zip(&self.lane_cycles))
            .map(|((toggles, functional), &cycles)| TimedActivity {
                activity: Activity { toggles, cycles },
                functional,
            })
            .collect();
        self.lane_cycles.fill(0);
        out
    }

    /// Finalizes the run straight into per-lane `(total power µW,
    /// counted cycles)` samples under a precomputed [`PowerModel`] — the
    /// glitch-aware sibling of [`WideSim::take_lane_powers`], over the
    /// glitch-inclusive toggle totals. Lane `l`'s sample is bit-identical
    /// to `model.total_power_uw(&lane.activity)` of the record
    /// [`take_lane_activities`](Self::take_lane_activities) would have
    /// returned for that lane.
    pub fn take_lane_powers(&mut self, model: &PowerModel) -> Vec<(f64, u64)> {
        self.check_functional();
        let (out, transitions) = self.transitions.take_lane_powers(model, &self.lane_cycles);
        count_transitions(transitions, self.functional.take_total());
        self.lane_cycles.fill(0);
        out
    }

    /// Returns the lane-collapsed timed activity (all lanes merged:
    /// transitions and functional transitions summed per node, cycles
    /// summed) and resets the counters like
    /// [`take_lane_activities`](Self::take_lane_activities). Each node's
    /// counts are its planes' popcounts, with no per-lane array.
    pub fn take_activity(&mut self) -> TimedActivity {
        self.check_functional();
        let (toggles, functional) = (self.transitions.take_nodes(), self.functional.take_nodes());
        count_transitions(toggles.iter().sum(), functional.iter().sum());
        let cycles = self.lane_cycles.iter().sum();
        self.lane_cycles.fill(0);
        TimedActivity { activity: Activity { toggles, cycles }, functional }
    }

    /// Checks, in debug builds, that no lane counted more functional
    /// transitions than transitions at any node: a settled change always
    /// takes at least one transition.
    fn check_functional(&self) {
        debug_assert!(
            (self.transitions.lane_totals().iter())
                .zip(&self.functional.lane_totals())
                .all(|(t, f)| f <= t),
            "a lane counted more functional transitions than transitions"
        );
    }
}

/// Adds one take's totals to the `sim_evp` counters. The glitch count is
/// the difference of the transition and functional totals, which equals
/// the per-lane, per-node sum of `transitions - functional` because no
/// lane counts more functional transitions than transitions at a node
/// (see `WideTimedSim::check_functional`).
fn count_transitions(transitions: u64, functional: u64) {
    obs::SIM_EVP_TRANSITIONS.add(transitions);
    obs::SIM_EVP_GLITCHES.add(transitions - functional);
}

/// Profiles one input-vector stream with the chosen timed kernel and
/// returns the glitch-decomposed activity.
///
/// All kernels return bit-identical records. The scalar kernel steps an
/// [`EventDrivenSim`] over the stream; the packed kernels compute the
/// zero-delay stable-state trajectory once, then replay the stream's
/// `N - 1` transitions [`Word::LANES`] per word on a [`WideTimedSim`] and
/// sum the lanes per node ([`WideTimedSim::take_activity`]; exact integer
/// sums, so the reorganization is invisible). [`McKernel::Auto`] resolves
/// to the widest word the transition count can fill.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists or
/// [`NetlistError::InputWidthMismatch`] for a bad vector width.
pub fn timed_activity(
    netlist: &Netlist,
    lib: &Library,
    stream: &[Vec<bool>],
    kernel: McKernel,
) -> Result<TimedActivity, NetlistError> {
    match kernel.resolve(stream.len().saturating_sub(1)) {
        McKernel::Scalar => {
            let mut sim = EventDrivenSim::new(netlist, lib)?;
            sim.run(stream.iter().cloned())
        }
        McKernel::Packed64 => timed_activity_packed::<u64>(netlist, lib, stream),
        McKernel::Packed256 => timed_activity_packed::<W256>(netlist, lib, stream),
        McKernel::Packed512 => timed_activity_packed::<W512>(netlist, lib, stream),
        McKernel::Auto => unreachable!("resolve never returns Auto"),
    }
}

/// The packed [`timed_activity`] driver: zero-delay trajectory +
/// transition blocks, at any word width. Chunk `k` of the blocks is the 64
/// consecutive transitions `64k + 1 ..= 64k + 64` of the stream.
fn timed_activity_packed<W: Word>(
    netlist: &Netlist,
    lib: &Library,
    stream: &[Vec<bool>],
) -> Result<TimedActivity, NetlistError> {
    let mut blocks = TransitionBlocks::new(WideTimedSim::<W>::new(netlist, lib)?);
    if stream.is_empty() {
        return Ok(TimedActivity::zero(netlist));
    }
    // Settled-state trajectory: the event-driven simulator always
    // settles to exactly this state, so it is both the per-transition
    // start state and the functional reference.
    let traj = Trajectory::record(netlist, stream)?;
    let transitions = stream.len() - 1;
    for t0 in (1..=transitions).step_by(64) {
        let mask = u64::low_mask((transitions - t0 + 1).min(64));
        blocks.push(mask, |node| {
            let w = traj.row(node);
            (window(w, t0 - 1), window(w, t0))
        })?;
    }
    Ok(blocks.finish()?.take_activity())
}

/// The transition-block packer behind both packed glitch-aware paths:
/// fills `T` words with independent transitions a slot of whole 64-lane
/// chunks at a time and replays each full word as one
/// [`WideTimedSim::eval_transition_block`]. [`timed_activity`] pushes 64
/// consecutive transitions of one stream per slot; the Monte-Carlo
/// glitch word ([`TimePacked`]) pushes one cycle of its lanes.
#[derive(Debug)]
struct TransitionBlocks<'a, T: Word> {
    sim: WideTimedSim<'a, T>,
    /// Per node: the settled value each lane starts from, and the one it
    /// ends at (only source nodes' `to` values drive the replay).
    from: Vec<T>,
    to: Vec<T>,
    /// The lanes of the filled slots that hold a transition.
    mask: T,
    /// Chunks filled so far.
    filled: usize,
}

impl<'a, T: Word> TransitionBlocks<'a, T> {
    fn new(sim: WideTimedSim<'a, T>) -> Self {
        let n = sim.values.len();
        TransitionBlocks {
            sim,
            from: vec![T::zero(); n],
            to: vec![T::zero(); n],
            mask: T::zero(),
            filled: 0,
        }
    }

    /// Fills the next `W::CHUNKS` chunks: lane `l` of the slot moves from
    /// `transition(node).0` to `transition(node).1` at every node if `mask`
    /// has it. Replays the block once it is full.
    fn push<W: Word>(
        &mut self,
        mask: W,
        transition: impl Fn(usize) -> (W, W),
    ) -> Result<(), NetlistError> {
        let slot = self.filled..self.filled + W::CHUNKS;
        for (node, (from, to)) in self.from.iter_mut().zip(&mut self.to).enumerate() {
            let (f, t) = transition(node);
            from.chunks_mut()[slot.clone()].copy_from_slice(f.chunks());
            to.chunks_mut()[slot.clone()].copy_from_slice(t.chunks());
        }
        self.mask.chunks_mut()[slot].copy_from_slice(mask.chunks());
        self.filled += W::CHUNKS;
        if self.filled == T::CHUNKS {
            self.flush()?;
        }
        Ok(())
    }

    /// Replays the filled slots, if any; the empty rest of the word is
    /// masked out.
    fn flush(&mut self) -> Result<(), NetlistError> {
        if self.filled > 0 {
            self.sim.eval_transition_block(&self.from, &self.to, self.mask)?;
            (self.mask, self.filled) = (T::zero(), 0);
        }
        Ok(())
    }

    /// Replays what is left and hands back the simulator to take from.
    fn finish(mut self) -> Result<WideTimedSim<'a, T>, NetlistError> {
        self.flush()?;
        Ok(self.sim)
    }
}

/// One word of `W` glitch-aware Monte-Carlo lanes, replayed time-packed
/// on a `T`-wide timed simulator (`T` at least as wide as `W`).
///
/// Each step settles the word zero-delay at width `W`, counting nothing;
/// every step after the first then pushes its cycle's transitions
/// (settled state of the previous cycle to this cycle's) as the next slot
/// of a [`TransitionBlocks`] packer, whole 64-lane chunks with no bit
/// shuffling, masked to the step's active lanes. So cycle `c >= 1` lands
/// in slot `(c - 1) % (T::LANES / W::LANES)`, and lane `l` of the word in
/// lane `l % W::LANES` of every slot; the take folds the slots back per
/// lane before any multiply. The event-driven replay of a cycle settles to
/// the zero-delay state, so every lane's counts are the integers its
/// cycle-by-cycle [`WideTimedSim::step_masked`] run would have counted.
#[derive(Debug)]
pub(crate) struct TimePacked<'a, W: Word, T: Word> {
    blocks: TransitionBlocks<'a, T>,
    /// This cycle's settled values, and the previous cycle's.
    values: Vec<W>,
    prev: Vec<W>,
    /// Next-state words latched per DFF (parallel to `netlist.dffs()`).
    dff_next: Vec<W>,
    /// Per-DFF D-input slots.
    dff_d: Vec<u32>,
    /// Whether a first step has set the values.
    initialized: bool,
}

impl<'a, W: Word, T: Word> TimePacked<'a, W, T> {
    /// A word at its power-on values, replaying on `sim`.
    pub(crate) fn new(sim: WideTimedSim<'a, T>) -> Self {
        assert!(T::CHUNKS % W::CHUNKS == 0, "{} lanes cannot pack {}", T::LANES, W::LANES);
        let values = sim.program.init_words::<W>();
        let (dff_next, dff_d) = registers(sim.netlist);
        TimePacked {
            prev: values.clone(),
            values,
            dff_next,
            dff_d,
            blocks: TransitionBlocks::new(sim),
            initialized: false,
        }
    }

    /// Advances every lane by one clock cycle, as
    /// [`WideTimedSim::step_masked`]: the same prefix-closed active-set
    /// contract, with `inputs` one word per primary input.
    pub(crate) fn step_masked(&mut self, inputs: &[W], mask: W) -> Result<(), NetlistError> {
        let TimePacked { blocks, values, prev, dff_next, dff_d, initialized } = self;
        let nl = blocks.sim.netlist;
        debug_assert_eq!(inputs.len(), nl.input_count(), "one word per primary input");
        prev.copy_from_slice(values);
        for (q, &next) in nl.dffs().iter().zip(dff_next.iter()) {
            values[q.index()] = next;
        }
        for (i, &word) in nl.inputs().iter().zip(inputs) {
            values[i.index()] = word;
        }
        // The dispatched settle loop, counting nothing: a zero count mask
        // never touches the (empty) planes.
        settle(&blocks.sim.program, values, &mut Planes { planes: &mut [], mask: W::zero() });
        for (next, &d) in dff_next.iter_mut().zip(dff_d.iter()) {
            *next = values[d as usize];
        }
        if std::mem::replace(initialized, true) {
            blocks.push(mask, |node| (prev[node], values[node]))?;
        }
        Ok(())
    }

    /// Replays the remaining transitions and returns one `(power µW,
    /// counted cycles)` sample per lane of `W`, each bit-identical to the
    /// [`WideTimedSim::take_lane_powers`] sample of the cycle-by-cycle run:
    /// every lane's integer counts and cycles are summed over its slots
    /// (`Counts::fold_slots`) before the finalize multiplies.
    pub(crate) fn take_lane_powers(
        self,
        model: &PowerModel,
    ) -> Result<Vec<(f64, u64)>, NetlistError> {
        let mut sim = self.blocks.finish()?;
        sim.check_functional();
        let mut cycles = vec![0u64; W::LANES];
        for slot in sim.lane_cycles.chunks_exact(W::LANES) {
            cycles.iter_mut().zip(slot).for_each(|(c, &s)| *c += s);
        }
        let (out, transitions) = sim.transitions.fold_slots::<W>().take_lane_powers(model, &cycles);
        count_transitions(transitions, sim.functional.take_total());
        Ok(out)
    }
}

/// Extracts 64 bits starting at `start` from a bit-packed word slice
/// (bits beyond the slice read as zero; callers mask off unused lanes).
#[inline]
fn window(words: &[u64], start: usize) -> u64 {
    let w = start / 64;
    let b = start % 64;
    if w >= words.len() {
        return 0;
    }
    let mut x = words[w] >> b;
    if b != 0 && w + 1 < words.len() {
        x |= words[w + 1] << (64 - b);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventDrivenSim;
    use crate::sim::ZeroDelaySim;
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

    fn mult(width: usize) -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", width);
        let b = nl.input_bus("b", width);
        let p = gen::array_multiplier(&mut nl, &a, &b);
        nl.output_bus("p", &p);
        nl
    }

    /// Packs per-lane bool vectors into input words.
    fn pack<W: Word>(vectors: &[Vec<bool>]) -> Vec<W> {
        let width = vectors[0].len();
        let mut words = vec![W::zero(); width];
        for (lane, v) in vectors.iter().enumerate() {
            for (i, &b) in v.iter().enumerate() {
                words[i].set_lane(lane, b);
            }
        }
        words
    }

    fn wide_lanes_match_scalar<W: Word>(sample: &[usize]) {
        let nl = fir();
        let w = nl.input_count();
        let root = Rng::seed_from_u64(42);
        let cycles = 60;
        let mut sim = WideSim::<W>::new(&nl).unwrap();
        let mut iters: Vec<_> =
            (0..W::LANES).map(|l| streams::random_rng(root.split(l as u64), w)).collect();
        for _ in 0..cycles {
            let vectors: Vec<Vec<bool>> = iters.iter_mut().map(|it| it.next().unwrap()).collect();
            sim.step(&pack(&vectors)).unwrap();
        }
        let lanes = sim.take_lane_activities();
        assert_eq!(lanes.len(), W::LANES);
        for &l in sample {
            let mut scalar = ZeroDelaySim::new(&nl).unwrap();
            let act = scalar
                .run(streams::random_rng(root.split(l as u64), w).take(cycles))
                .expect("width matches");
            assert_eq!(lanes[l], act, "lane {l} diverged from its scalar stream");
        }
    }

    #[test]
    fn w256_lanes_match_scalar_streams() {
        wide_lanes_match_scalar::<W256>(&[0, 63, 64, 128, 255]);
    }

    #[test]
    fn w512_lanes_match_scalar_streams() {
        wide_lanes_match_scalar::<W512>(&[0, 64, 255, 256, 511]);
    }

    fn wide_timed_lanes_match_scalar<W: Word>(sample: &[usize]) {
        let nl = adder(4);
        let lib = Library::default();
        let w = nl.input_count();
        let root = Rng::seed_from_u64(7);
        let cycles = 40;
        let mut sim = WideTimedSim::<W>::new(&nl, &lib).unwrap();
        let mut iters: Vec<_> =
            (0..W::LANES).map(|l| streams::random_rng(root.split(l as u64), w)).collect();
        for _ in 0..cycles {
            let vectors: Vec<Vec<bool>> = iters.iter_mut().map(|it| it.next().unwrap()).collect();
            sim.step(&pack(&vectors)).unwrap();
        }
        let lanes = sim.take_lane_activities();
        for &l in sample {
            let mut scalar = EventDrivenSim::new(&nl, &lib).unwrap();
            let act =
                scalar.run(streams::random_rng(root.split(l as u64), w).take(cycles)).unwrap();
            assert_eq!(lanes[l], act, "timed lane {l} diverged from its scalar stream");
        }
    }

    #[test]
    fn w256_timed_lanes_match_scalar_event_sim() {
        wide_timed_lanes_match_scalar::<W256>(&[0, 64, 255]);
    }

    #[test]
    fn w512_timed_lanes_match_scalar_event_sim() {
        wide_timed_lanes_match_scalar::<W512>(&[0, 256, 511]);
    }

    #[test]
    fn lanes_match_scalar_streams_on_sequential_circuit() {
        let nl = fir();
        let w = nl.input_count();
        let root = Rng::seed_from_u64(42);
        let cycles = 150;
        let mut sim = WideSim::<u64>::new(&nl).unwrap();
        let mut iters: Vec<_> =
            (0..u64::LANES).map(|l| streams::random_rng(root.split(l as u64), w)).collect();
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
            let mut sim = WideSim::<u64>::new(&nl).unwrap();
            let mut iters: Vec<_> =
                (0..u64::LANES).map(|l| streams::random_rng(root.split(l as u64), w)).collect();
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
        assert_eq!(collapsed.cycles, 79 * u64::LANES as u64);
    }

    #[test]
    fn masked_lanes_stop_where_scalar_streams_end() {
        let nl = adder(4);
        let w = nl.input_count();
        let root = Rng::seed_from_u64(17);
        // Lane l runs for 10 + l cycles.
        let len = |l: usize| 10 + l;
        let mut sim = WideSim::<u64>::new(&nl).unwrap();
        let mut iters: Vec<_> = (0..u64::LANES)
            .map(|l| streams::random_rng(root.split(l as u64), w).take(len(l)))
            .collect();
        loop {
            let mut mask = 0u64;
            let mut vectors = vec![vec![false; w]; u64::LANES];
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
        let mut sim = WideSim::<u64>::new(&nl).unwrap();
        let cycles = 300;
        for c in 0..cycles {
            sim.step(&[u64::splat(c % 2 == 0)]).unwrap();
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
        let mut sim = WideSim::<u64>::new(&nl).unwrap();
        assert!(matches!(
            sim.step(&[0u64; 3]),
            Err(NetlistError::InputWidthMismatch { got: 3, expected: 8 })
        ));
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
        let mut sim = WideSim::<u64>::new(&nl).unwrap();
        let mut iters: Vec<_> =
            (0..u64::LANES).map(|l| streams::random_rng(root.split(l as u64), w)).collect();
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

    #[test]
    fn lanes_match_scalar_event_sim_on_sequential_circuit() {
        let nl = fir();
        let lib = Library::default();
        let w = nl.input_count();
        let root = Rng::seed_from_u64(42);
        let cycles = 80;
        let mut sim = WideTimedSim::<u64>::new(&nl, &lib).unwrap();
        let mut iters: Vec<_> =
            (0..u64::LANES).map(|l| streams::random_rng(root.split(l as u64), w)).collect();
        for _ in 0..cycles {
            let vectors: Vec<Vec<bool>> = iters.iter_mut().map(|it| it.next().unwrap()).collect();
            sim.step(&pack(&vectors)).unwrap();
        }
        let lanes = sim.take_lane_activities();
        for l in [0usize, 1, 31, 63] {
            let mut scalar = EventDrivenSim::new(&nl, &lib).unwrap();
            let act =
                scalar.run(streams::random_rng(root.split(l as u64), w).take(cycles)).unwrap();
            assert_eq!(lanes[l], act, "lane {l} diverged from its scalar stream");
        }
    }

    #[test]
    fn timed_masked_lanes_stop_where_scalar_streams_end() {
        let nl = mult(3);
        let lib = Library::default();
        let w = nl.input_count();
        let root = Rng::seed_from_u64(17);
        let len = |l: usize| 5 + l / 2;
        let mut sim = WideTimedSim::<u64>::new(&nl, &lib).unwrap();
        let mut iters: Vec<_> = (0..u64::LANES)
            .map(|l| streams::random_rng(root.split(l as u64), w).take(len(l)))
            .collect();
        loop {
            let mut mask = 0u64;
            let mut vectors = vec![vec![false; w]; u64::LANES];
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
        for l in [0usize, 9, 63] {
            let mut scalar = EventDrivenSim::new(&nl, &lib).unwrap();
            let act =
                scalar.run(streams::random_rng(root.split(l as u64), w).take(len(l))).unwrap();
            assert_eq!(lanes[l], act, "masked lane {l} diverged");
        }
    }

    #[test]
    fn timed_activity_kernels_agree_on_combinational_circuit() {
        let nl = mult(4);
        let lib = Library::default();
        let stream: Vec<Vec<bool>> = streams::random(3, nl.input_count()).take(150).collect();
        let scalar = timed_activity(&nl, &lib, &stream, McKernel::Scalar).unwrap();
        for kernel in [McKernel::Packed64, McKernel::Packed256, McKernel::Packed512, McKernel::Auto]
        {
            let packed = timed_activity(&nl, &lib, &stream, kernel).unwrap();
            assert_eq!(scalar, packed, "{kernel:?}");
        }
        assert!(scalar.total_glitches().unwrap() > 0, "multiplier should glitch");
    }

    #[test]
    fn timed_activity_kernels_agree_on_sequential_circuit() {
        let nl = fir();
        let lib = Library::default();
        let stream: Vec<Vec<bool>> = streams::random(8, nl.input_count()).take(130).collect();
        let scalar = timed_activity(&nl, &lib, &stream, McKernel::Scalar).unwrap();
        for kernel in [McKernel::Packed64, McKernel::Packed256, McKernel::Packed512, McKernel::Auto]
        {
            let packed = timed_activity(&nl, &lib, &stream, kernel).unwrap();
            assert_eq!(scalar, packed, "{kernel:?}");
        }
    }

    #[test]
    fn timed_activity_handles_degenerate_streams() {
        let nl = mult(3);
        let lib = Library::default();
        for take in [0usize, 1, 2, 64, 65, 256, 257] {
            let stream: Vec<Vec<bool>> = streams::random(5, nl.input_count()).take(take).collect();
            let scalar = timed_activity(&nl, &lib, &stream, McKernel::Scalar).unwrap();
            for kernel in [McKernel::Packed64, McKernel::Packed512, McKernel::Auto] {
                let packed = timed_activity(&nl, &lib, &stream, kernel).unwrap();
                assert_eq!(scalar, packed, "stream length {take}, {kernel:?}");
            }
        }
    }

    #[test]
    fn auto_kernel_scales_width_with_the_workload() {
        assert_eq!(McKernel::Auto.resolve(0), McKernel::Packed64);
        assert_eq!(McKernel::Auto.resolve(255), McKernel::Packed64);
        assert_eq!(McKernel::Auto.resolve(256), McKernel::Packed256);
        assert_eq!(McKernel::Auto.resolve(511), McKernel::Packed256);
        assert_eq!(McKernel::Auto.resolve(512), McKernel::Packed512);
        assert_eq!(McKernel::Scalar.resolve(10_000), McKernel::Scalar);
        assert_eq!(McKernel::Packed64.lanes(), 64);
        assert_eq!(McKernel::Packed512.lanes(), 512);
    }

    #[test]
    fn timed_activity_propagates_width_mismatch() {
        let nl = mult(3);
        let lib = Library::default();
        let stream = vec![vec![false; nl.input_count()], vec![true; 2]];
        for kernel in [McKernel::Scalar, McKernel::Packed64, McKernel::Auto] {
            assert!(matches!(
                timed_activity(&nl, &lib, &stream, kernel),
                Err(NetlistError::InputWidthMismatch { got: 2, .. })
            ));
        }
    }

    #[test]
    fn timed_input_width_is_validated() {
        let nl = mult(3);
        let lib = Library::default();
        let mut sim = WideTimedSim::<u64>::new(&nl, &lib).unwrap();
        assert!(matches!(
            sim.step(&[0u64; 3]),
            Err(NetlistError::InputWidthMismatch { got: 3, expected: 6 })
        ));
    }

    #[test]
    fn plane_spill_is_exact_past_the_top_plane() {
        // Force the carry chain out of the 16-plane stack of node 1 and
        // check that the spilled weight lands exactly in every count a
        // take reads, for every word width.
        fn check<W: Word>() {
            let mut counts = Counts::<W>::new(3);
            let reps = (1u64 << PLANES) + 5;
            for _ in 0..reps {
                counts.bump_at(1, 0, W::splat(true));
            }
            counts.bump_at(2, 0, W::low_mask(3));
            let lanes = W::LANES as u64;
            let want: Vec<Vec<u64>> =
                (0..W::LANES).map(|l| vec![0, reps, u64::from(l < 3)]).collect();
            assert_eq!(counts.clone().take_lanes(), want);
            assert_eq!(counts.clone().take_nodes(), vec![0, reps * lanes, 3]);
            assert_eq!(counts.clone().take_total(), reps * lanes + 3);
            counts.flush();
            assert_eq!(counts.take_lanes(), want);
            assert_eq!(counts.take_total(), 0, "a take zeroes the counters");
        }
        check::<u64>();
        check::<W256>();
        check::<W512>();
    }

    #[test]
    fn folded_lane_powers_stay_exact_past_a_plane_spill() {
        // Node 1 of a 3-bit multiplier spills out of its plane stack on
        // every lane before the fold, node 2's slots sum past the plane
        // stack only in the fold, and node 3 gets a pattern that differs
        // per slot. Each folded lane's power must be bit-identical to
        // `total_power_uw` of its summed record.
        fn check<T: Word, V: Word>(model: &PowerModel, n: usize) {
            let at = format!("{} lanes folded to {}", T::LANES, V::LANES);
            let mut counts = Counts::<T>::new(n);
            let mut want = vec![vec![0u64; n]; V::LANES];
            let slots = (T::LANES / V::LANES) as u64;
            for (node, reps) in [(1, (1u64 << PLANES) + 5), (2, (1 << PLANES) / 2)] {
                for _ in 0..reps {
                    counts.bump_at(node, 0, T::splat(true));
                }
                want.iter_mut().for_each(|lane| lane[node] += reps * slots);
            }
            for k in 0..100 {
                let mut set = T::zero();
                for j in (0..T::LANES).filter(|j| (j + k) % 7 == 0) {
                    set.set_lane(j, true);
                    want[j % V::LANES][3] += 1;
                }
                counts.bump_at(3, 0, set);
            }
            let mut folded = counts.fold_slots::<V>();
            assert_eq!(counts.take_total(), 0, "{at}: the fold zeroes the source");
            let cycles: Vec<u64> = (0..V::LANES as u64).map(|l| l % 4 + 1).collect();
            let (samples, total) = folded.take_lane_powers(model, &cycles);
            assert_eq!(total, want.iter().flatten().sum::<u64>(), "{at}");
            for (l, (toggles, &cycles)) in want.into_iter().zip(&cycles).enumerate() {
                let uw = model.total_power_uw(&Activity { toggles, cycles });
                assert_eq!(samples[l].0.to_bits(), uw.to_bits(), "{at}: lane {l}");
                assert_eq!(samples[l].1, cycles, "{at}: lane {l}");
            }
        }
        let nl = mult(3);
        let model = PowerModel::new(&nl, &Library::default());
        let n = nl.node_count();
        check::<u64, u64>(&model, n);
        check::<W256, u64>(&model, n);
        check::<W512, u64>(&model, n);
        check::<W512, W256>(&model, n);
    }

    #[test]
    fn simd_level_is_stable_and_ordered() {
        let level = simd_level();
        assert_eq!(level, simd_level(), "detection must be cached/consistent");
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
        assert!(SimdLevel::Avx2 < SimdLevel::Avx512);
    }
}
