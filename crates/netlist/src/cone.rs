//! The time-packed trajectory and the dirty-cone front end of
//! [`crate::IncrementalSim`].
//!
//! * [`Trajectory`] — every node's settled per-cycle value, bit-packed 64
//!   cycles per `u64` word (flip-flop rows are the register-boundary
//!   snapshots; bits past the last vector are zero), with the toggle word
//!   and the commit-time row splice. [`Trajectory::record`] is the one
//!   place a stimulus stream is time-packed.
//!   [`crate::IncrementalSim::record`] (and through it the estimate
//!   crate's macro-model harness) and the packed [`crate::timed_activity`]
//!   driver (its stable-state reference) call it. The resim front end
//!   lives here too: the fanout CSR and topological order of the edited
//!   netlist and the forward closure that is the dirty cone;
//! * [`ResimScratch`] — the reusable working memory of a resim.

use hlpower_obs::metrics as obs;

use crate::error::NetlistError;
use crate::netlist::{Netlist, NodeId, TopoScratch};
use crate::sim::ZeroDelaySim;
use crate::simwide::Program;

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
    /// Valid-bit mask of each row's final word.
    tail_mask: u64,
    /// The rows, node-major.
    pub(crate) values: Vec<u64>,
}

impl Trajectory {
    /// An all-zero trajectory of `nodes` rows over `n_vectors >= 1`
    /// vectors.
    pub(crate) fn zeroed(nodes: usize, n_vectors: usize) -> Self {
        let blocks = n_vectors.div_ceil(64);
        let tail_valid = n_vectors - (blocks - 1) * 64;
        let tail_mask = if tail_valid == 64 { !0 } else { (1u64 << tail_valid) - 1 };
        Trajectory { n_vectors, blocks, tail_mask, values: vec![0; nodes * blocks] }
    }

    /// Records `netlist`'s settled trajectory over `stream`, 64 cycles
    /// per word. A combinational netlist evaluates the compiled
    /// [`Program`] once per 64-cycle block: gates read only same-cycle
    /// values, so each block settles on its own. A sequential netlist
    /// steps a [`ZeroDelaySim`] and packs each cycle, so its flip-flop
    /// rows are the register-boundary snapshots. Either way every valid
    /// bit is the scalar simulator's settled value and every bit past the
    /// last vector is zero.
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
        let mut traj = Trajectory::zeroed(netlist.node_count(), stream.len());
        if !netlist.dffs().is_empty() {
            let mut sim = ZeroDelaySim::new(netlist)?;
            for (c, v) in stream.iter().enumerate() {
                sim.step(v)?;
                traj.pack(c, sim.values_raw());
            }
            return Ok(traj);
        }
        let program = Program::compile(netlist)?;
        let mut cur = program.init_words::<u64>();
        for (b, vectors) in stream.chunks(64).enumerate() {
            obs::SIM64_BLOCKS.inc();
            obs::SIM64_GATE_EVALS.add(program.instrs.len() as u64);
            obs::SIM64_LANE_CYCLES.add(vectors.len() as u64);
            for (i, &inp) in netlist.inputs().iter().enumerate() {
                cur[inp.index()] =
                    vectors.iter().enumerate().fold(0, |w, (c, v)| w | (v[i] as u64) << c);
            }
            for ins in &program.instrs {
                cur[ins.out as usize] = program.eval(&cur, ins);
            }
            let valid = traj.valid_mask(b);
            for (node, &w) in cur.iter().enumerate() {
                traj.values[node * traj.blocks + b] = w & valid;
            }
        }
        Ok(traj)
    }

    /// Packs one cycle's settled node values (indexed by node) into bit
    /// `cycle` of every row.
    pub(crate) fn pack(&mut self, cycle: usize, values: &[bool]) {
        let (b, bit) = (cycle / 64, cycle % 64);
        for (node, &val) in values.iter().enumerate() {
            self.values[node * self.blocks + b] |= (val as u64) << bit;
        }
    }

    /// Number of recorded rows (nodes).
    pub(crate) fn nodes(&self) -> usize {
        self.values.len() / self.blocks
    }

    /// The packed row of `node`.
    pub(crate) fn row(&self, node: usize) -> &[u64] {
        &self.values[node * self.blocks..(node + 1) * self.blocks]
    }

    /// The settled value of `node` after vector `cycle`.
    #[inline]
    pub(crate) fn bit(&self, node: usize, cycle: usize) -> bool {
        (self.values[node * self.blocks + cycle / 64] >> (cycle % 64)) & 1 != 0
    }

    /// Valid-bit mask of word `b` of a row.
    pub(crate) fn valid_mask(&self, b: usize) -> u64 {
        if b + 1 == self.blocks {
            self.tail_mask
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
    /// Per-cycle cone state of the register-dirty replay: current values
    /// and the values cone registers present at the next clock edge.
    pub(crate) cur: Vec<bool>,
    pub(crate) dff_next: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;
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
                let outs: Vec<bool> =
                    nl.outputs().iter().map(|&(_, n)| traj.bit(n.index(), c)).collect();
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
