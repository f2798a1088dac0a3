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
//! # Runtime SIMD fast path
//!
//! The zero-delay settle loop — the hot core of every packed step — is
//! compiled a second time inside `#[target_feature]` wrappers for AVX2
//! (and AVX-512F for [`W512`]) and dispatched at runtime via
//! [`simd_level`], so wide words use full-width vector loads and logic
//! ops on machines that have them while the portable per-chunk code
//! remains the fallback everywhere else. The two per-word steps around
//! it get the same wrappers, written once over `u64` chunk slices: the
//! fused finalize of both kernels' `take_lane_powers` (count planes
//! straight to per-lane power) and [`random_words`], the lane-parallel
//! random stimulus of the Monte-Carlo kernels. The timed kernel's wheel
//! drain is dominated by data-dependent scheduling rather than
//! straight-line word ops, so it intentionally has no hand-dispatched
//! variant: it relies on ordinary autovectorization of the generic chunk
//! loops.
//!
//! # Determinism contract
//!
//! Lane `l` of a packed run is *bit-identical* to a scalar run over the
//! same stream for **every** word width, and the SIMD fast path computes
//! the same words as the portable path (bitwise boolean algebra has no
//! rounding). `tests/wide_differential.rs` locks both claims in across
//! every circuit generator and the ingested example netlists.

use std::any::TypeId;
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

/// Adds `carry` into a node's vertical bit-plane counter, spilling
/// exactly into the 64-bit totals if the carry ripples out of the top
/// plane (the timed kernel can toggle a node many times per step, so the
/// flush-schedule trick of the zero-delay kernel does not apply).
#[inline]
fn bump_planes_spill<W: Word>(
    planes: &mut [W],
    base: usize,
    lane_totals: &mut Vec<u64>,
    lane_base: usize,
    mut carry: W,
) {
    for p in 0..PLANES {
        if carry.is_zero() {
            return;
        }
        let t = planes[base + p];
        planes[base + p] = t.xor(carry);
        carry = carry.and(t);
    }
    // Carry out of the top plane: the plane stack wrapped modulo
    // `2^PLANES` for these lanes, so credit the wrapped weight directly.
    let lane_totals = spill_totals(lane_totals, planes.len() / PLANES * W::LANES);
    for (c, &chunk) in carry.chunks().iter().enumerate() {
        let mut m = chunk;
        while m != 0 {
            let l = c * 64 + m.trailing_zeros() as usize;
            lane_totals[lane_base + l] += 1u64 << PLANES;
            m &= m - 1;
        }
    }
}

/// Drains a bit-plane array into exact per-lane totals
/// (`node * W::LANES + lane`).
fn flush_planes<W: Word>(planes: &mut [W], lane_totals: &mut [u64], nodes: usize) {
    for node in 0..nodes {
        let base = node * PLANES;
        for p in 0..PLANES {
            let w = planes[base + p];
            if w.is_zero() {
                continue;
            }
            planes[base + p] = W::zero();
            let weight = 1u64 << p;
            for (c, &chunk) in w.chunks().iter().enumerate() {
                let mut m = chunk;
                while m != 0 {
                    let l = c * 64 + m.trailing_zeros() as usize;
                    lane_totals[node * W::LANES + l] += weight;
                    m &= m - 1;
                }
            }
        }
    }
}

/// The exact per-lane totals spilled out of a plane array (`node *
/// W::LANES + lane`), allocated as `len` zeros on first use: most runs
/// never spill, so most never pay for the `nodes x lanes` array.
fn spill_totals(totals: &mut Vec<u64>, len: usize) -> &mut [u64] {
    if totals.is_empty() {
        totals.resize(len, 0);
    }
    totals
}

/// Zeroes a plane array and returns the toggle count it held: plane `p`
/// weighs `2^p` per set lane.
fn drain_planes<W: Word>(planes: &mut [W]) -> u64 {
    let mut total = 0u64;
    for node in planes.chunks_exact_mut(PLANES) {
        for (p, w) in node.iter_mut().enumerate() {
            total += u64::from(w.count_ones()) << p;
            *w = W::zero();
        }
    }
    total
}

/// Turns a run's count planes (zeroed on return) and spilled totals
/// (empty if none spilled) into per-lane `(power µW, counted cycles)`
/// samples in one pass, and returns them with the run's total count.
///
/// Lane `l`'s sample is bit-identical to `model.total_power_uw` of lane
/// `l`'s activity record: its count at each node is the same integer, and
/// the same products accumulate in the same node order. Nodes and 64-lane
/// chunks whose count is zero add nothing, and where they do add, the
/// product is `+0.0` onto a sum that started at `+0.0` (the coefficients
/// are finite and non-negative), which changes no bit.
fn lane_powers(
    planes: &mut [u64],
    spill: &[u64],
    model: &PowerModel,
    lane_cycles: &[u64],
) -> (Vec<(f64, u64)>, u64) {
    let mut net_fj = vec![0.0f64; lane_cycles.len()];
    let mut int_fj = vec![0.0f64; lane_cycles.len()];
    let (net, int) = model.toggle_energies_fj();
    let total = lane_energy(planes, spill, (net, int, &mut net_fj, &mut int_fj));
    let samples = (net_fj.iter().zip(&int_fj).zip(lane_cycles))
        .map(|((&net, &int), &cycles)| (model.power_uw(net, int, cycles), cycles))
        .collect();
    (samples, total + spill.iter().sum::<u64>())
}

/// Runs `lane_energy_body` on the widest vector ISA this machine has.
fn lane_energy(planes: &mut [u64], spill: &[u64], energy: Energy<'_>) -> u64 {
    #[cfg(target_arch = "x86_64")]
    match simd_level() {
        // SAFETY (both arms): the wrapper's feature was runtime-detected.
        SimdLevel::Avx512 => return unsafe { lane_energy_avx512(planes, spill, energy) },
        SimdLevel::Avx2 => return unsafe { lane_energy_avx2(planes, spill, energy) },
        SimdLevel::Scalar => {}
    }
    lane_energy_body(planes, spill, energy)
}

/// Per-node `(net, internal)` fJ per toggle, and the per-lane `(net,
/// internal)` fJ accumulators the finalize adds into.
type Energy<'a> = (&'a [f64], &'a [f64], &'a mut [f64], &'a mut [f64]);

/// The fused finalize over `u64` chunks: for each node and 64-lane chunk,
/// rebuilds each lane's count from the nonzero planes (bit `p` from plane
/// `p`) and adds `c * count` into the lane's energies, zeroing the planes.
/// Returns the planes' total count. Kept `#[inline(always)]` so the
/// `#[target_feature]` wrappers below re-compile it per ISA.
#[inline(always)]
fn lane_energy_body(planes: &mut [u64], spill: &[u64], energy: Energy<'_>) -> u64 {
    let (net_per_toggle, int_per_toggle, net_fj, int_fj) = energy;
    let lanes = net_fj.len();
    let chunks = lanes / 64;
    let mut total = 0u64;
    for (node, node_planes) in planes.chunks_exact_mut(PLANES * chunks).enumerate() {
        let (c_net, c_int) = (net_per_toggle[node], int_per_toggle[node]);
        for c in 0..chunks {
            let mut halves = [[0u32; 32]; 2];
            let mut any = false;
            for p in 0..PLANES {
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
unsafe fn lane_energy_avx2(planes: &mut [u64], spill: &[u64], energy: Energy<'_>) -> u64 {
    lane_energy_body(planes, spill, energy)
}

/// `lane_energy_body` re-compiled with AVX-512F codegen.
///
/// # Safety
///
/// The caller must have verified AVX-512F support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn lane_energy_avx512(planes: &mut [u64], spill: &[u64], energy: Energy<'_>) -> u64 {
    lane_energy_body(planes, spill, energy)
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

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The zero-delay settle loop: evaluates the compiled instruction stream
/// against the packed values, bumping toggle planes for changed lanes.
/// Kept as one `#[inline(always)]` body so the `#[target_feature]`
/// wrappers below re-compile the identical code under wider vector ISAs.
#[inline(always)]
fn settle_body<W: Word>(program: &Program, values: &mut [W], planes: &mut [W], count_mask: W) {
    for idx in 0..program.instrs.len() {
        let ins = program.instrs[idx];
        let new = program.eval(values, &ins);
        let slot = ins.out as usize;
        bump_planes(planes, slot * PLANES, values[slot].xor(new).and(count_mask));
        values[slot] = new;
    }
}

/// `settle_body` re-compiled with AVX2 codegen. Monomorphic (rather than
/// a generic `#[target_feature]` fn) so dispatch stays a plain TypeId
/// check with identity slice casts.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn settle_avx2_w256(
    program: &Program,
    values: &mut [W256],
    planes: &mut [W256],
    count_mask: W256,
) {
    settle_body(program, values, planes, count_mask);
}

/// `settle_body` for [`W512`] under AVX2 (two 256-bit ops per word).
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn settle_avx2_w512(
    program: &Program,
    values: &mut [W512],
    planes: &mut [W512],
    count_mask: W512,
) {
    settle_body(program, values, planes, count_mask);
}

/// `settle_body` for [`W512`] under AVX-512F (one 512-bit op per word).
///
/// # Safety
///
/// The caller must have verified AVX-512F support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn settle_avx512_w512(
    program: &Program,
    values: &mut [W512],
    planes: &mut [W512],
    count_mask: W512,
) {
    settle_body(program, values, planes, count_mask);
}

/// Dispatches the settle loop to the widest vector path this machine and
/// word width support. Bit-identical to the portable path by
/// construction (pure boolean algebra, no reassociation-sensitive math).
fn settle<W: Word>(program: &Program, values: &mut [W], planes: &mut [W], count_mask: W) {
    #[cfg(target_arch = "x86_64")]
    {
        let level = simd_level();
        if level >= SimdLevel::Avx2 && TypeId::of::<W>() == TypeId::of::<W256>() {
            // SAFETY: the TypeId check proves `W == W256`, so the raw
            // slice casts are identity casts; AVX2 was runtime-verified.
            unsafe {
                settle_avx2_w256(
                    program,
                    &mut *(values as *mut [W] as *mut [W256]),
                    &mut *(planes as *mut [W] as *mut [W256]),
                    *(&count_mask as *const W as *const W256),
                );
            }
            return;
        }
        if TypeId::of::<W>() == TypeId::of::<W512>() && level >= SimdLevel::Avx2 {
            // SAFETY: as above with `W == W512`; the chosen wrapper's
            // feature was runtime-verified.
            unsafe {
                let values = &mut *(values as *mut [W] as *mut [W512]);
                let planes = &mut *(planes as *mut [W] as *mut [W512]);
                let count_mask = *(&count_mask as *const W as *const W512);
                if level >= SimdLevel::Avx512 {
                    settle_avx512_w512(program, values, planes, count_mask);
                } else {
                    settle_avx2_w512(program, values, planes, count_mask);
                }
            }
            return;
        }
    }
    settle_body(program, values, planes, count_mask);
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
    /// Vertical carry-save toggle counters: `PLANES` words per node.
    planes: Vec<W>,
    /// Exact per-lane toggle counts flushed out of the planes
    /// (`node * W::LANES + lane`); empty until a flush needs it.
    lane_toggles: Vec<u64>,
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
        let mut dff_next = Vec::with_capacity(netlist.dffs().len());
        let mut dff_d = Vec::with_capacity(netlist.dffs().len());
        for &q in netlist.dffs() {
            if let NodeKind::Dff { d, init } = netlist.kind(q) {
                dff_next.push(W::splat(*init));
                dff_d.push(d.index() as u32);
            }
        }
        let n = netlist.node_count();
        Ok(WideSim {
            netlist,
            program,
            values,
            dff_next,
            dff_d,
            planes: vec![W::zero(); n * PLANES],
            lane_toggles: Vec::new(),
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
                &mut self.planes,
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
                &mut self.planes,
                slot * PLANES,
                self.values[slot].xor(new).and(count_mask),
            );
            self.values[slot] = new;
        }
        // Settle combinational logic via the compiled instruction stream
        // (runtime-dispatched to the widest available vector path).
        settle(&self.program, &mut self.values, &mut self.planes, count_mask);
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
                self.flush();
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
        let n = self.netlist.node_count();
        self.flush();
        // Transpose node-major: one sequential pass over the strided
        // totals, scattering into at most `LANES` write streams (which
        // stay cache-resident), instead of `LANES` strided gathers that
        // each touch one cache line per node.
        let mut out: Vec<Activity> = self
            .lane_cycles
            .iter()
            .map(|&cycles| Activity { toggles: vec![0u64; n], cycles })
            .collect();
        let mut total_toggles = 0u64;
        for (node, row) in self.lane_toggles.chunks_exact(W::LANES).enumerate() {
            for (l, &t) in row.iter().enumerate() {
                if t != 0 {
                    out[l].toggles[node] = t;
                    total_toggles += t;
                }
            }
        }
        obs::SIM64_TOGGLES.add(total_toggles);
        self.lane_toggles.clear();
        self.lane_cycles.fill(0);
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
    /// unless the run spilled its planes mid-run. Lane `l`'s sample is
    /// bit-identical to `model.total_power_uw(&lane_activity)` of the
    /// record [`take_lane_activities`](Self::take_lane_activities) would
    /// have returned for that lane.
    pub fn take_lane_powers(&mut self, model: &PowerModel) -> Vec<(f64, u64)> {
        self.pending = 0;
        let planes = W::flat_chunks_mut(&mut self.planes);
        let (out, toggles) = lane_powers(planes, &self.lane_toggles, model, &self.lane_cycles);
        obs::SIM64_TOGGLES.add(toggles);
        self.lane_toggles.clear();
        self.lane_cycles.fill(0);
        out
    }

    /// Returns the lane-collapsed activity (all lanes merged: toggles
    /// summed per node, cycles summed) and resets the counters.
    pub fn take_activity(&mut self) -> Activity {
        let n = self.netlist.node_count();
        self.flush();
        let mut toggles = vec![0u64; n];
        for (node, t) in toggles.iter_mut().enumerate() {
            *t = self.lane_toggles[node * W::LANES..(node + 1) * W::LANES].iter().sum();
        }
        obs::SIM64_TOGGLES.add(toggles.iter().sum::<u64>());
        self.lane_toggles.clear();
        let cycles = self.lane_cycles.iter().sum();
        self.lane_cycles.fill(0);
        Activity { toggles, cycles }
    }

    /// Drains the planes into the exact per-lane totals.
    fn flush(&mut self) {
        let n = self.netlist.node_count();
        flush_planes(&mut self.planes, spill_totals(&mut self.lane_toggles, n * W::LANES), n);
        self.pending = 0;
    }
}

/// The width-generic lane-parallel compiled *timed* (glitch-capturing)
/// simulator: [`Word::LANES`] independent stimulus lanes advance one
/// clock cycle per [`step`](WideTimedSim::step), with every glitch
/// counted.
///
/// Sequencing per step matches [`crate::EventDrivenSim`] exactly:
/// flip-flop outputs and primary inputs change at time zero, events
/// propagate through a discretized time wheel in `(time, node)` order
/// under the library's transport delays, functional transitions are
/// recovered from the settled-state diff, and flip-flops sample their D
/// inputs. The first step initializes values without counting.
#[derive(Debug, Clone)]
pub struct WideTimedSim<'a, W: Word> {
    netlist: &'a Netlist,
    program: Program,
    /// Per-node index into `program.instrs`, `u32::MAX` for non-gates.
    instr_of: Vec<u32>,
    /// CSR fanout graph restricted to gate fanouts: entry `(gate, delay)`
    /// where `delay` is the *bucketed* transport delay of the fanout gate.
    fan_start: Vec<u32>,
    fan: Vec<(u32, u32)>,
    /// Time-wheel extent: max bucketed gate delay + 1 (all pending events
    /// lie within one wheel revolution of the cursor).
    wheel_len: usize,
    /// Pending-evaluation lane masks, `wheel_len x node_count`.
    wheel: Vec<W>,
    /// Nodes with a nonzero mask per wheel slot.
    touched: Vec<Vec<u32>>,
    /// Total touched entries pending across all slots.
    outstanding: usize,
    /// Packed node values; lane `l` of a word is stimulus stream `l`.
    values: Vec<W>,
    /// Settled values at the start of the current step (functional diff).
    step_start: Vec<W>,
    /// Next-state words latched per DFF (parallel to `netlist.dffs()`).
    dff_next: Vec<W>,
    /// Per-DFF D-input slots.
    dff_d: Vec<u32>,
    /// Scratch buffer for one wheel slot's node list (sorted ascending).
    slot_nodes: Vec<u32>,
    /// Vertical counters for all transitions (functional + glitch).
    toggle_planes: Vec<W>,
    /// Vertical counters for functional (settled-state) transitions.
    func_planes: Vec<W>,
    /// Exact per-lane totals spilled or flushed out of the planes
    /// (`node * W::LANES + lane`); empty until a spill or flush needs them.
    lane_toggles: Vec<u64>,
    lane_functional: Vec<u64>,
    lane_cycles: Vec<u64>,
    initialized: bool,
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
    /// recompiling the instruction stream. The delay wheel and fanout
    /// graph are still derived per instance (they depend on `lib`), but
    /// the dominant topological-sort + instruction-selection cost is
    /// skipped.
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
        let mut instr_of = vec![u32::MAX; n];
        for (i, ins) in program.instrs.iter().enumerate() {
            instr_of[ins.out as usize] = i as u32;
        }
        // Bucket gate delays to the library's resolution: the GCD of all
        // gate delays. (1 for the default library; coarser libraries get a
        // proportionally shorter wheel.)
        let delays_ps = gate_delays_ps(netlist, lib);
        let resolution =
            delays_ps.iter().filter(|&&d| d > 0).fold(0u64, |acc, &d| gcd(d, acc)).max(1);
        let buckets: Vec<u64> = delays_ps.iter().map(|&d| d / resolution).collect();
        let wheel_len = buckets.iter().max().copied().unwrap_or(0) as usize + 1;
        // Gate-only fanout CSR, annotated with the fanout's own delay.
        let fanouts = netlist.fanouts();
        let mut fan_start = vec![0u32; n + 1];
        let mut fan = Vec::new();
        for u in 0..n {
            for &f in &fanouts[u] {
                if matches!(netlist.kind(f), NodeKind::Gate { .. }) {
                    fan.push((f.index() as u32, buckets[f.index()] as u32));
                }
            }
            fan_start[u + 1] = fan.len() as u32;
        }
        // Settle the combinational network from the broadcast initial
        // state, mirroring the scalar constructor.
        let mut values = program.init_words::<W>();
        for ins in &program.instrs {
            values[ins.out as usize] = program.eval(&values, ins);
        }
        let mut dff_next = Vec::with_capacity(netlist.dffs().len());
        let mut dff_d = Vec::with_capacity(netlist.dffs().len());
        for &q in netlist.dffs() {
            if let NodeKind::Dff { d, init } = netlist.kind(q) {
                dff_next.push(W::splat(*init));
                dff_d.push(d.index() as u32);
            }
        }
        Ok(WideTimedSim {
            netlist,
            program,
            instr_of,
            fan_start,
            fan,
            wheel_len,
            wheel: vec![W::zero(); wheel_len * n],
            touched: vec![Vec::new(); wheel_len],
            outstanding: 0,
            values,
            step_start: vec![W::zero(); n],
            dff_next,
            dff_d,
            slot_nodes: Vec::new(),
            toggle_planes: vec![W::zero(); n * PLANES],
            func_planes: vec![W::zero(); n * PLANES],
            lane_toggles: Vec::new(),
            lane_functional: Vec::new(),
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

    /// Applies a source-node change: updates lanes in `mask`, counts
    /// toggles in `count_mask`, and schedules the gate fanouts of the
    /// changed lanes at their transport delays (time zero of this step).
    fn seed_source(&mut self, node: usize, new: W, mask: W, count_mask: W) {
        let changed = self.values[node].xor(new).and(mask);
        if changed.is_zero() {
            return;
        }
        self.values[node] = self.values[node].xor(changed);
        bump_planes_spill(
            &mut self.toggle_planes,
            node * PLANES,
            &mut self.lane_toggles,
            node * W::LANES,
            changed.and(count_mask),
        );
        let n = self.instr_of.len();
        for k in self.fan_start[node] as usize..self.fan_start[node + 1] as usize {
            let (f, db) = self.fan[k];
            // Gate delays are >= 1 bucket, so at time zero the target slot
            // is the delay itself (no wrap).
            let idx = db as usize * n + f as usize;
            if self.wheel[idx].is_zero() {
                self.touched[db as usize].push(f);
                self.outstanding += 1;
            }
            self.wheel[idx] = self.wheel[idx].or(changed);
        }
    }

    /// Processes the wheel until no events remain, counting toggles in
    /// `count_mask`. Returns the number of word-wide evaluations (each
    /// coalesces up to `W::LANES` scalar heap pops at one `(time, node)`
    /// point).
    fn drain(&mut self, count_mask: W) -> u64 {
        let n = self.instr_of.len();
        let mut events = 0u64;
        let mut t = 0usize;
        while self.outstanding > 0 {
            t += 1;
            let slot = t % self.wheel_len;
            if self.touched[slot].is_empty() {
                continue;
            }
            let mut nodes = std::mem::take(&mut self.slot_nodes);
            std::mem::swap(&mut nodes, &mut self.touched[slot]);
            self.outstanding -= nodes.len();
            // Scalar tie-break: equal-time events pop in ascending node-id
            // order. A node appears at most once per slot (wheel dedup).
            nodes.sort_unstable();
            for &node in &nodes {
                let idx = slot * n + node as usize;
                let sched = self.wheel[idx];
                self.wheel[idx] = W::zero();
                events += 1;
                let ins = self.program.instrs[self.instr_of[node as usize] as usize];
                let new = self.program.eval(&self.values, &ins);
                let node = node as usize;
                let changed = self.values[node].xor(new).and(sched);
                if changed.is_zero() {
                    continue;
                }
                self.values[node] = self.values[node].xor(changed);
                bump_planes_spill(
                    &mut self.toggle_planes,
                    node * PLANES,
                    &mut self.lane_toggles,
                    node * W::LANES,
                    changed.and(count_mask),
                );
                for k in self.fan_start[node] as usize..self.fan_start[node + 1] as usize {
                    let (f, db) = self.fan[k];
                    // Delays are in [1, wheel_len - 1], so the target slot
                    // never collides with the slot being processed.
                    let slot2 = (t + db as usize) % self.wheel_len;
                    let idx2 = slot2 * n + f as usize;
                    if self.wheel[idx2].is_zero() {
                        self.touched[slot2].push(f);
                        self.outstanding += 1;
                    }
                    self.wheel[idx2] = self.wheel[idx2].or(changed);
                }
            }
            nodes.clear();
            self.slot_nodes = nodes;
        }
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
        // Time-zero events: DFF outputs and primary inputs.
        for i in 0..self.dff_next.len() {
            let q = self.netlist.dffs()[i].index();
            let new = self.dff_next[i];
            self.seed_source(q, new, mask, count_mask);
        }
        for (i, &new) in inputs.iter().enumerate() {
            let inp = self.netlist.inputs()[i].index();
            self.seed_source(inp, new, mask, count_mask);
        }
        let events = self.drain(count_mask);
        obs::SIM_EVP_STEPS.inc();
        obs::SIM_EVP_EVENTS.add(events);
        // Functional transition accounting: settled-state diff.
        if !count_mask.is_zero() {
            for node in 0..self.values.len() {
                let diff = self.step_start[node].xor(self.values[node]).and(count_mask);
                if !diff.is_zero() {
                    bump_planes_spill(
                        &mut self.func_planes,
                        node * PLANES,
                        &mut self.lane_functional,
                        node * W::LANES,
                        diff,
                    );
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

    /// Replays [`Word::LANES`] independent *transitions* of a single
    /// stream: lane `l` starts from settled state `from` and receives the
    /// source-node (primary input and flip-flop output) values of settled
    /// state `to`, both packed per node with lane `l` = transition `l`.
    /// Used by [`crate::timed_activity`]'s trajectory driver; every lane
    /// counts (no initialization step), and flip-flop latching state is
    /// bypassed, so do not mix transition blocks with
    /// [`step`](Self::step) calls on one instance.
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
        for i in 0..self.dff_next.len() {
            let q = self.netlist.dffs()[i].index();
            self.seed_source(q, to[q], mask, mask);
        }
        for i in 0..self.netlist.input_count() {
            // Primary inputs change at time zero like DFF outputs.
            let inp = self.netlist.inputs()[i].index();
            self.seed_source(inp, to[inp], mask, mask);
        }
        let events = self.drain(mask);
        obs::SIM_EVP_STEPS.inc();
        obs::SIM_EVP_EVENTS.add(events);
        obs::SIM_EVP_LANE_CYCLES.add(mask.count_ones() as u64);
        for node in 0..n {
            debug_assert!(
                self.values[node].xor(to[node]).and(mask).is_zero(),
                "event-driven settle diverged from the zero-delay trajectory at node {node}"
            );
            let diff = from[node].xor(self.values[node]).and(mask);
            if !diff.is_zero() {
                bump_planes_spill(
                    &mut self.func_planes,
                    node * PLANES,
                    &mut self.lane_functional,
                    node * W::LANES,
                    diff,
                );
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
        let n = self.values.len();
        let len = n * W::LANES;
        flush_planes(&mut self.toggle_planes, spill_totals(&mut self.lane_toggles, len), n);
        flush_planes(&mut self.func_planes, spill_totals(&mut self.lane_functional, len), n);
        // Node-major transpose, for the same cache reasons as
        // `WideSim::take_lane_activities`.
        let mut out: Vec<TimedActivity> = self
            .lane_cycles
            .iter()
            .map(|&cycles| TimedActivity {
                activity: Activity { toggles: vec![0u64; n], cycles },
                functional: vec![0u64; n],
            })
            .collect();
        let mut total_toggles = 0u64;
        let mut total_glitches = 0u64;
        for node in 0..n {
            let row = &self.lane_toggles[node * W::LANES..(node + 1) * W::LANES];
            let func = &self.lane_functional[node * W::LANES..(node + 1) * W::LANES];
            for (l, (&t, &f)) in row.iter().zip(func).enumerate() {
                if t != 0 || f != 0 {
                    out[l].activity.toggles[node] = t;
                    out[l].functional[node] = f;
                    total_toggles += t;
                    total_glitches += t.saturating_sub(f);
                }
            }
        }
        obs::SIM_EVP_TRANSITIONS.add(total_toggles);
        obs::SIM_EVP_GLITCHES.add(total_glitches);
        self.reset_totals();
        out
    }

    /// Finalizes the run straight into per-lane `(total power µW,
    /// counted cycles)` samples under a precomputed [`PowerModel`] — the
    /// glitch-aware sibling of [`WideSim::take_lane_powers`], over the
    /// glitch-inclusive toggle totals. Lane `l`'s sample is bit-identical
    /// to `model.total_power_uw(&lane.activity)` of the record
    /// [`take_lane_activities`](Self::take_lane_activities) would have
    /// returned for that lane.
    ///
    /// The glitch counter is the difference of the run's transition and
    /// functional totals, which equals the per-lane, per-node sum of
    /// [`take_lane_activities`](Self::take_lane_activities) because a
    /// settled change always takes at least one transition (checked in
    /// debug builds).
    pub fn take_lane_powers(&mut self, model: &PowerModel) -> Vec<(f64, u64)> {
        debug_assert!(
            functional_within_total(
                (&self.toggle_planes, &self.lane_toggles),
                (&self.func_planes, &self.lane_functional)
            ),
            "a lane counted more functional transitions than transitions"
        );
        let planes = W::flat_chunks_mut(&mut self.toggle_planes);
        let (out, transitions) = lane_powers(planes, &self.lane_toggles, model, &self.lane_cycles);
        let functional =
            drain_planes(&mut self.func_planes) + self.lane_functional.iter().sum::<u64>();
        obs::SIM_EVP_TRANSITIONS.add(transitions);
        obs::SIM_EVP_GLITCHES.add(transitions - functional);
        self.reset_totals();
        out
    }

    /// Empties the spilled totals and zeroes the per-lane cycle counts.
    fn reset_totals(&mut self) {
        self.lane_toggles.clear();
        self.lane_functional.clear();
        self.lane_cycles.fill(0);
    }
}

/// Profiles one input-vector stream with the chosen timed kernel and
/// returns the glitch-decomposed activity.
///
/// All kernels return bit-identical records. The scalar kernel steps an
/// [`EventDrivenSim`] over the stream; the packed kernels compute the
/// zero-delay stable-state trajectory once, then replay the stream's
/// `N - 1` transitions [`Word::LANES`] per word on a [`WideTimedSim`] and
/// merge the lanes (exact integer sums, so the reorganization is
/// invisible). [`McKernel::Auto`] resolves to the widest word the
/// transition count can fill.
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
/// transition blocks, at any word width.
fn timed_activity_packed<W: Word>(
    netlist: &Netlist,
    lib: &Library,
    stream: &[Vec<bool>],
) -> Result<TimedActivity, NetlistError> {
    let n = netlist.node_count();
    let mut sim = WideTimedSim::<W>::new(netlist, lib)?;
    if stream.is_empty() {
        return Ok(TimedActivity::zero(netlist));
    }
    // Settled-state trajectory: the event-driven simulator always
    // settles to exactly this state, so it is both the per-transition
    // start state and the functional reference.
    let traj = Trajectory::record(netlist, stream)?;
    let mut from = vec![W::zero(); n];
    let mut to = vec![W::zero(); n];
    let transitions = stream.len() - 1;
    let mut t0 = 1usize;
    while t0 <= transitions {
        let lanes = (transitions - t0 + 1).min(W::LANES);
        let mask = W::low_mask(lanes);
        for node in 0..n {
            let w = traj.row(node);
            for c in 0..W::CHUNKS {
                from[node].chunks_mut()[c] = window(w, t0 - 1 + 64 * c);
                to[node].chunks_mut()[c] = window(w, t0 + 64 * c);
            }
        }
        sim.eval_transition_block(&from, &to, mask)?;
        t0 += lanes;
    }
    let mut out = TimedActivity::zero(netlist);
    for lane in sim.take_lane_activities() {
        out.merge(&lane)?;
    }
    Ok(out)
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

/// Whether every lane's functional count is at most its transition count
/// at every node, each given as `(planes, spilled totals)`.
fn functional_within_total<W: Word>(toggles: (&[W], &[u64]), functional: (&[W], &[u64])) -> bool {
    let totals = |(planes, spill): (&[W], &[u64])| {
        let n = planes.len() / PLANES;
        let mut totals = spill.to_vec();
        flush_planes(&mut planes.to_vec(), spill_totals(&mut totals, n * W::LANES), n);
        totals
    };
    totals(toggles).iter().zip(&totals(functional)).all(|(t, f)| f <= t)
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
        // Force the carry chain out of the 16-plane stack and check that
        // the spilled weight lands exactly in the 64-bit totals, for every
        // word width.
        fn check<W: Word>() {
            let mut planes = vec![W::zero(); PLANES];
            let mut totals = vec![0u64; W::LANES];
            let reps = (1u64 << PLANES) + 5;
            for _ in 0..reps {
                bump_planes_spill(&mut planes, 0, &mut totals, 0, W::splat(true));
            }
            flush_planes(&mut planes, &mut totals, 1);
            for (l, &t) in totals.iter().enumerate() {
                assert_eq!(t, reps, "lane {l}");
            }
        }
        check::<u64>();
        check::<W256>();
        check::<W512>();
    }

    #[test]
    fn simd_level_is_stable_and_ordered() {
        let level = simd_level();
        assert_eq!(level, simd_level(), "detection must be cached/consistent");
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
        assert!(SimdLevel::Avx2 < SimdLevel::Avx512);
    }
}
