//! The time-packed trajectory and the dirty-cone front end of
//! [`crate::IncrementalSim`].
//!
//! * [`Trajectory`] — every node's settled per-cycle value, bit-packed 64
//!   cycles per `u64` word (flip-flop rows are the register-boundary
//!   snapshots; bits past the last vector are zero), with the toggle word
//!   and the commit-time row splice. [`Trajectory::record`] is the one
//!   place a stimulus stream is time-packed, for every netlist: the
//!   compiled program runs once per pass over a 64-cycle block, and
//!   registers relax to a fixpoint per block.
//!   [`crate::IncrementalSim::record`] (and through it the estimate
//!   crate's macro-model harness) and the packed [`crate::timed_activity`]
//!   driver (its stable-state reference) call it. The resim front end
//!   lives here too: the fanout CSR and topological order of the edited
//!   netlist and the forward closure that is the dirty cone;
//! * [`hold_word`] — the latch word (a masked fill-forward), with which
//!   a replay holds a frozen node while a guard is on;
//! * [`ResimScratch`] — the reusable working memory of a resim.

use hlpower_obs::metrics as obs;

use crate::error::NetlistError;
use crate::netlist::{Netlist, NodeId, NodeKind, TopoScratch};
use crate::simwide::Program;
use crate::words::Word;

/// Clears `v` and refills it with `n` copies of `fill`, reusing capacity.
pub(crate) fn refill<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) {
    v.clear();
    v.resize(n, fill);
}

/// Every node's settled value on every vector of a stream, bit-packed:
/// bit `c % 64` of word `node * blocks + c / 64` is the node's value after
/// vector `c`. Bits of each row's final word past the last vector are
/// zero, so rows compare word for word.
#[derive(Debug, Clone)]
pub(crate) struct Trajectory {
    /// Number of vectors recorded (at least one).
    pub(crate) n_vectors: usize,
    /// `u64` words per node (`n_vectors.div_ceil(64)`).
    pub(crate) blocks: usize,
    /// The rows, node-major.
    pub(crate) values: Vec<u64>,
}

impl Trajectory {
    /// Records `netlist`'s settled trajectory over `stream`, 64 cycles
    /// per word, running the compiled [`Program`] in passes over each
    /// block. Every valid bit is the scalar [`crate::ZeroDelaySim`]'s
    /// settled value (flip-flop rows are the register-boundary
    /// snapshots); bits past the last vector are zero.
    ///
    /// # Errors
    ///
    /// [`NetlistError::EmptyStream`] for an empty stream,
    /// [`NetlistError::InputWidthMismatch`] for a bad vector width, or
    /// [`NetlistError::CombinationalCycle`] for a cyclic netlist.
    pub(crate) fn record(netlist: &Netlist, stream: &[Vec<bool>]) -> Result<Self, NetlistError> {
        if stream.is_empty() {
            return Err(NetlistError::EmptyStream);
        }
        let width = netlist.input_count();
        if let Some(v) = stream.iter().find(|v| v.len() != width) {
            return Err(NetlistError::InputWidthMismatch { got: v.len(), expected: width });
        }
        let (n_vectors, blocks) = (stream.len(), stream.len().div_ceil(64));
        let values = vec![0; netlist.node_count() * blocks];
        let mut traj = Trajectory { n_vectors, blocks, values };
        let program = Program::compile(netlist)?;
        let mut cur = program.init_words::<u64>();
        // (Q, D, carry) per flip-flop; the carry starts at the power-on
        // value, which `init_words` also broadcasts as block 0's guess.
        let mut regs: Vec<(usize, usize, u64)> = netlist
            .dffs()
            .iter()
            .map(|&q| match netlist.kind(q) {
                NodeKind::Dff { d, init } => (q.index(), d.index(), *init as u64),
                _ => unreachable!("dffs() lists flip-flops only"),
            })
            .collect();
        for (b, vectors) in stream.chunks(64).enumerate() {
            obs::SIM64_BLOCKS.inc();
            obs::SIM64_LANE_CYCLES.add(vectors.len() as u64);
            for (i, &inp) in netlist.inputs().iter().enumerate() {
                cur[inp.index()] =
                    vectors.iter().enumerate().fold(0, |w, (c, v)| w | (v[i] as u64) << c);
            }
            // Relax the registers to a fixpoint. A flip-flop's word is its
            // D word one cycle late, `(D << 1) | carry`, with `carry` its
            // power-on value in block 0 and bit 63 of D's previous word
            // after that. Each pass evaluates every gate, then recomputes
            // every register word from that pass's D words, until none
            // moves. Exact in at most 65 passes: bit 0 of a register word
            // is its carry, and bit `k` depends only on bits below `k` of
            // the previous pass, so bit `k` is final after pass `k + 1`
            // and pass 65 moves nothing. A fixpoint is therefore the
            // unique true trajectory, and a register-free block stops
            // after one pass.
            loop {
                obs::SIM64_GATE_EVALS.add(program.instrs.len() as u64);
                program.run(&mut cur);
                let mut moved = false;
                for &(q, d, carry) in &regs {
                    let w = (cur[d] << 1) | carry;
                    moved |= w != cur[q];
                    cur[q] = w;
                }
                if !moved {
                    break;
                }
            }
            for (_, d, carry) in &mut regs {
                *carry = cur[*d] >> 63;
            }
            let valid = traj.valid_mask(b);
            for (node, &w) in cur.iter().enumerate() {
                traj.values[node * traj.blocks + b] = w & valid;
            }
        }
        Ok(traj)
    }

    /// Number of recorded rows (nodes).
    pub(crate) fn nodes(&self) -> usize {
        self.values.len() / self.blocks
    }

    /// The packed row of `node`.
    pub(crate) fn row(&self, node: usize) -> &[u64] {
        &self.values[node * self.blocks..(node + 1) * self.blocks]
    }

    /// Valid-bit mask of word `b` of a row.
    pub(crate) fn valid_mask(&self, b: usize) -> u64 {
        if b + 1 == self.blocks {
            !0 >> (self.blocks * 64 - self.n_vectors)
        } else {
            !0
        }
    }

    /// Toggle word of block `b` of `row` (a trajectory row, or a replayed
    /// row of the same shape): bit `c` is set when the value on vector
    /// `64 * b + c` differs from the one on the vector before. Vector 0
    /// never counts (the scalar "first vector initializes" rule), the
    /// carry crosses block boundaries, and bits past the last vector are
    /// clear.
    #[inline]
    pub(crate) fn toggle_word(&self, row: &[u64], b: usize) -> u64 {
        let w = row[b];
        let carry = if b == 0 { w & 1 } else { row[b - 1] >> 63 };
        (w ^ ((w << 1) | carry)) & self.valid_mask(b)
    }

    /// Exact toggle count of `row` over the recorded vectors.
    pub(crate) fn toggles(&self, row: &[u64]) -> u64 {
        (0..self.blocks).map(|b| self.toggle_word(row, b).count_ones() as u64).sum()
    }

    /// Resim front end: computes the dirty cone of an edit of the
    /// recorded netlist — the forward closure of the `changed` gates and
    /// every node appended past the recorded ones, through register
    /// boundaries — into `cone` in topological order, maps node -> cone
    /// index in `scratch.update_of`, and zero-fills `updates` with one
    /// row per cone node for the replay to fill.
    ///
    /// `netlist` and `changed` come from the edit session's
    /// [`crate::NetlistEditor`], whose journal holds every edit: only
    /// gates are rewired, nodes are only appended, and inputs and
    /// pre-existing flip-flops never change.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CombinationalCycle`] if the edit introduced a
    /// cycle.
    pub(crate) fn cone_into(
        &self,
        netlist: &Netlist,
        changed: &[NodeId],
        scratch: &mut ResimScratch,
        cone: &mut Vec<NodeId>,
        updates: &mut Vec<u64>,
    ) -> Result<(), NetlistError> {
        let (n_base, n_new) = (self.nodes(), netlist.node_count());
        // Fanout CSR + topological order of the edited netlist: rewiring
        // can invalidate the recorded order, and this is also where a
        // freshly introduced combinational cycle surfaces.
        netlist.topo_into(&mut scratch.topo)?;
        // Dirty cone: changed gates and appended nodes, plus their forward
        // closure through the fanout graph — crossing register boundaries:
        // a dirty D input dirties the flip-flop's Q row and its readers.
        refill(&mut scratch.in_cone, n_new, false);
        scratch.stack.clear();
        scratch.stack.extend(changed.iter().map(|c| c.index() as u32));
        scratch.stack.extend(n_base as u32..n_new as u32);
        while let Some(u) = scratch.stack.pop() {
            let u = u as usize;
            if scratch.in_cone[u] {
                continue;
            }
            scratch.in_cone[u] = true;
            for &f in scratch.topo.readers(u) {
                if !scratch.in_cone[f as usize] {
                    scratch.stack.push(f);
                }
            }
        }
        cone.clear();
        cone.extend(scratch.topo.order.iter().copied().filter(|id| scratch.in_cone[id.index()]));
        refill(&mut scratch.update_of, n_new, usize::MAX);
        for (ci, &id) in cone.iter().enumerate() {
            scratch.update_of[id.index()] = ci;
        }
        refill(updates, cone.len() * self.blocks, 0u64);
        Ok(())
    }

    /// Folds a committed edit of `nodes` nodes in: the replayed rows of
    /// the cone replace the stale ones and appended nodes get new rows.
    pub(crate) fn splice(&mut self, nodes: usize, cone: &[NodeId], updates: &[u64]) {
        let blocks = self.blocks;
        self.values.resize(nodes * blocks, 0);
        for (&id, row) in cone.iter().zip(updates.chunks(blocks)) {
            self.values[id.index() * blocks..(id.index() + 1) * blocks].copy_from_slice(row);
        }
    }
}

/// The latch word: bit `c` is the result's bit `c - 1` where `hold` is
/// set and `base`'s bit `c` elsewhere, with `carry` as bit `-1` (chain
/// blocks with the previous result's bit 63). A log-step fill-forward:
/// six doubling steps carry each `base` bit forward over held bits.
pub fn hold_word(base: u64, hold: u64, carry: bool) -> u64 {
    let (mut v, mut resolved) = (base & !hold, !hold);
    for s in [1, 2, 4, 8, 16, 32] {
        v |= (v << s) & !resolved;
        resolved |= resolved << s;
    }
    v | (u64::splat(carry) & !resolved)
}

/// Reusable working memory for
/// [`EditSession::resim_into`](crate::EditSession::resim_into). One
/// scratch serves any number of candidates (and any number of netlists);
/// every buffer is cleared and refilled in place, so a candidate search
/// allocates nothing once the buffers have grown to the netlist's size —
/// rejected candidates leave no garbage behind.
#[derive(Debug, Clone, Default)]
pub struct ResimScratch {
    /// Membership flags for the dirty cone.
    in_cone: Vec<bool>,
    /// DFS stack for the forward closure (node indices).
    stack: Vec<u32>,
    /// Node index -> cone index, `usize::MAX` outside the cone.
    pub(crate) update_of: Vec<usize>,
    /// Fanout CSR and topological order of the edited netlist.
    topo: TopoScratch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ZeroDelaySim;
    use crate::{gen, streams};

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

    /// The recorder against the scalar simulator, cycle by cycle, on a
    /// combinational and a registered netlist over a ragged length
    /// (257 = 4 * 64 + 1): every output bit, and every node's toggle bit.
    #[test]
    fn recorder_matches_scalar_per_cycle() {
        for nl in [adder(8), fir()] {
            let vectors: Vec<Vec<bool>> = streams::random(23, nl.input_count()).take(257).collect();
            let traj = Trajectory::record(&nl, &vectors).unwrap();
            assert_eq!(traj.blocks, 5);
            let mut scalar = ZeroDelaySim::new(&nl).unwrap();
            for (c, v) in vectors.iter().enumerate() {
                scalar.step(v).unwrap();
                let outs: Vec<bool> = nl
                    .outputs()
                    .iter()
                    .map(|&(_, n)| traj.row(n.index())[c / 64] >> (c % 64) & 1 != 0)
                    .collect();
                assert_eq!(outs, scalar.output_values(), "cycle {c}");
                let toggles = scalar.take_activity().toggles;
                for id in nl.node_ids() {
                    let word = traj.toggle_word(traj.row(id.index()), c / 64);
                    assert_eq!((word >> (c % 64)) & 1, toggles[id.index()], "node {id}, cycle {c}");
                }
            }
            for id in nl.node_ids() {
                let tail = traj.toggle_word(traj.row(id.index()), 4);
                assert_eq!(tail >> 1, 0, "node {id}: toggle bits past the last vector");
            }
        }
    }

    /// The log-step latch word against a bit-serial latch, on hold words
    /// from sparse to solid (runs longer than 32 cycles need every
    /// doubling step) and both carries.
    #[test]
    fn hold_word_matches_a_serial_latch() {
        let mut rng = hlpower_rng::Rng::seed_from_u64(5);
        for case in 0..400 {
            let base = rng.next_u64();
            let hold = match case % 4 {
                0 => rng.next_u64(),
                1 => rng.next_u64() | rng.next_u64() | rng.next_u64(),
                2 => !0 << rng.gen_range(0..64u32),
                _ => !0,
            };
            let carry = case % 8 < 4;
            let mut last = carry;
            let mut want = 0u64;
            for c in 0..64 {
                if (hold >> c) & 1 == 0 {
                    last = (base >> c) & 1 != 0;
                }
                want |= (last as u64) << c;
            }
            assert_eq!(hold_word(base, hold, carry), want, "base {base:#x} hold {hold:#x}");
        }
    }

    #[test]
    fn recorder_validates_the_stream() {
        let nl = adder(2);
        assert!(matches!(Trajectory::record(&nl, &[]), Err(NetlistError::EmptyStream)));
        let bad = vec![vec![false; 4], vec![true; 3]];
        assert!(matches!(
            Trajectory::record(&nl, &bad),
            Err(NetlistError::InputWidthMismatch { got: 3, expected: 4 })
        ));
    }
}
