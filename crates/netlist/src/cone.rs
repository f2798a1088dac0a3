//! The dirty-cone core shared by both incremental simulators.
//!
//! [`crate::IncrementalSim`] (zero-delay) and
//! [`crate::IncrementalTimedSim`] (transport delay, glitches) differ only
//! in how they *replay* a dirty cone. Everything around the replay lives
//! here, once:
//!
//! * [`Trajectory`] — every node's settled per-cycle value, bit-packed 64
//!   cycles per `u64` word (flip-flop rows are the register-boundary
//!   snapshots), with the tail-masked row diff, the toggle word and the
//!   commit-time row splice. [`Trajectory::record`] is the one place a
//!   stimulus stream is time-packed. [`crate::IncrementalSim::record`]
//!   (and through it the estimate crate's macro-model harness) and the
//!   packed [`crate::timed_activity`] driver (its stable-state
//!   reference) call it;
//! * [`Recording`] — a trajectory plus the netlist it was recorded from,
//!   and the resim front end: the incremental-edit precondition checks,
//!   the fanout CSR and topological order of the mutated netlist, the
//!   forward closure that is the dirty cone, and the back end that diffs
//!   the replayed rows and bumps the `sim_incremental` counters;
//! * [`ResimScratch`] — the reusable working memory of both replays.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hlpower_obs::metrics as obs;

use crate::error::NetlistError;
use crate::netlist::{Netlist, NodeId, NodeKind, TopoScratch};
use crate::sim::ZeroDelaySim;
use crate::simwide::Program;

/// Clears `v` and refills it with `n` copies of `fill`, reusing capacity.
pub(crate) fn refill<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) {
    v.clear();
    v.resize(n, fill);
}

/// Every node's settled value on every vector of a stream, bit-packed:
/// bit `c % 64` of word `node * blocks + c / 64` is the node's value after
/// vector `c`. Trailing bits of each row's final word are don't-cares
/// (zero when packed cycle by cycle); every reader masks them.
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
    /// bit is the scalar simulator's settled value.
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
            for (node, &w) in cur.iter().enumerate() {
                traj.values[node * traj.blocks + b] = w;
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
    fn valid_mask(&self, b: usize) -> u64 {
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

    /// Whether `words` differs from the row of `node` on any valid cycle.
    fn differs(&self, node: usize, words: &[u64]) -> bool {
        let old = self.row(node);
        (0..self.blocks).any(|b| (old[b] ^ words[b]) & self.valid_mask(b) != 0)
    }
}

/// Reusable working memory for [`IncrementalSim::resim_into`] and
/// [`IncrementalTimedSim::resim_into`]. One scratch serves any number of
/// candidates (and any number of netlists, timed or not); every buffer is
/// cleared and refilled in place, so a candidate search allocates nothing
/// once the buffers have grown to the netlist's size — rejected candidates
/// leave no garbage behind.
///
/// [`IncrementalSim::resim_into`]: crate::IncrementalSim::resim_into
/// [`IncrementalTimedSim::resim_into`]: crate::IncrementalTimedSim::resim_into
#[derive(Debug, Clone, Default)]
pub struct ResimScratch {
    /// Membership flags for the declared change set.
    in_changed: Vec<bool>,
    /// Membership flags for the dirty cone.
    pub(crate) in_cone: Vec<bool>,
    /// DFS stack for the forward closure (node indices).
    stack: Vec<u32>,
    /// Node index -> cone index, `usize::MAX` outside the cone.
    pub(crate) update_of: Vec<usize>,
    /// Fanout CSR and topological order of the mutated netlist.
    pub(crate) topo: TopoScratch,
    /// Per-cycle cone state of both replays: current values and the
    /// values cone registers present at the next clock edge.
    pub(crate) cur: Vec<bool>,
    pub(crate) dff_next: Vec<bool>,
    /// Timed replay only: the cone's direct out-of-cone fan-ins, whose
    /// recorded waveforms are played back.
    pub(crate) boundary: Vec<u32>,
    /// Node index -> boundary index, `usize::MAX` elsewhere.
    pub(crate) b_index: Vec<usize>,
    /// Current boundary values during timed replay.
    pub(crate) bvals: Vec<bool>,
    /// Per-boundary-node cursor into its recorded waveform.
    pub(crate) cursors: Vec<usize>,
    /// Last settled cone values (functional-transition reference).
    pub(crate) settled: Vec<bool>,
    /// Transport delay of each cone gate.
    pub(crate) delays: Vec<u64>,
    /// `(time, node)` event queue of the timed replay.
    pub(crate) heap: BinaryHeap<Reverse<(u64, u32)>>,
}

/// A settled trajectory together with the netlist it was recorded from:
/// the state both incremental simulators share, and the front and back
/// ends of their dirty-cone resims.
#[derive(Debug, Clone)]
pub(crate) struct Recording {
    /// The netlist the trajectory corresponds to.
    pub(crate) base: Netlist,
    pub(crate) traj: Trajectory,
}

impl Recording {
    /// Wraps a freshly recorded trajectory of `base`.
    pub(crate) fn new(base: &Netlist, traj: Trajectory) -> Self {
        obs::SIM_INC_RECORDS.inc();
        Recording { base: base.clone(), traj }
    }

    /// Resim front end: checks that `mutated` is an incremental edit of
    /// the base, computes its dirty cone (the forward closure of `changed`
    /// and every appended node, through register boundaries) into `cone`
    /// in topological order, maps node -> cone index in
    /// `scratch.update_of`, and zero-fills `updates` with one row per cone
    /// node for the replay to fill.
    ///
    /// # Errors
    ///
    /// [`NetlistError::IncrementalMismatch`] if `mutated` removed nodes,
    /// changed the primary inputs or a pre-existing flip-flop, or differs
    /// from the base at a node missing from `changed` (out-of-cone nodes
    /// are never re-checked, so an undeclared edit would silently
    /// desynchronize the cache); [`NetlistError::CombinationalCycle`] if
    /// the edit introduced a cycle.
    pub(crate) fn cone_into(
        &self,
        mutated: &Netlist,
        changed: &[NodeId],
        scratch: &mut ResimScratch,
        cone: &mut Vec<NodeId>,
        updates: &mut Vec<u64>,
    ) -> Result<(), NetlistError> {
        let base = &self.base;
        let n_base = base.node_count();
        let n_new = mutated.node_count();
        let mismatch = |reason: String| NetlistError::IncrementalMismatch { reason };
        if n_new < n_base {
            return Err(mismatch(format!(
                "mutated netlist has {n_new} nodes, base has {n_base} (nodes were removed)"
            )));
        }
        if mutated.inputs() != base.inputs() {
            return Err(mismatch("primary inputs differ from the base netlist".into()));
        }
        let base_dffs = base.dffs().len();
        if mutated.dffs().len() < base_dffs || mutated.dffs()[..base_dffs] != *base.dffs() {
            return Err(mismatch("pre-existing flip-flops differ from the base netlist".into()));
        }
        refill(&mut scratch.in_changed, n_new, false);
        for &c in changed {
            if c.index() >= n_new {
                return Err(mismatch(format!("changed node {c} is out of range")));
            }
            if !matches!(mutated.kind(c), NodeKind::Gate { .. }) {
                return Err(mismatch(format!("changed node {c} is not a combinational gate")));
            }
            scratch.in_changed[c.index()] = true;
        }
        for id in base.node_ids() {
            if !scratch.in_changed[id.index()] && base.kind(id) != mutated.kind(id) {
                return Err(mismatch(format!(
                    "node {id} differs from the base but is not in the change set"
                )));
            }
        }
        // Fanout CSR + topological order of the mutated netlist: rewiring
        // can invalidate the base order, and this is also where a freshly
        // introduced combinational cycle surfaces.
        mutated.topo_into(&mut scratch.topo)?;
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
        refill(updates, cone.len() * self.traj.blocks, 0u64);
        Ok(())
    }

    /// Resim back end, after the replay filled `updates`: collects the
    /// cone nodes whose rows differ from the recording on a valid cycle
    /// (appended nodes always count: they had no prior value) into
    /// `changed_values`, and records the resim in the metrics registry.
    pub(crate) fn finish(
        &self,
        mutated: &Netlist,
        cone: &[NodeId],
        updates: &[u64],
        changed_values: &mut Vec<NodeId>,
    ) {
        let (n_base, blocks) = (self.base.node_count(), self.traj.blocks);
        changed_values.clear();
        changed_values.extend(cone.iter().zip(updates.chunks(blocks)).filter_map(|(&id, new)| {
            (id.index() >= n_base || self.traj.differs(id.index(), new)).then_some(id)
        }));
        obs::SIM_INC_RESIMS.inc();
        obs::SIM_INC_CONE_NODES.add(cone.len() as u64);
        obs::SIM_INC_REUSED_NODES.add((mutated.node_count() - cone.len()) as u64);
    }

    /// Folds an accepted mutation in: the replayed rows of the cone
    /// replace the stale ones (appended nodes get new rows) and `mutated`
    /// becomes the base.
    pub(crate) fn commit(&mut self, mutated: &Netlist, cone: &[NodeId], updates: &[u64]) {
        let blocks = self.traj.blocks;
        let values = &mut self.traj.values;
        values.resize(mutated.node_count() * blocks, 0);
        for (&id, row) in cone.iter().zip(updates.chunks(blocks)) {
            values[id.index() * blocks..(id.index() + 1) * blocks].copy_from_slice(row);
        }
        self.base = mutated.clone();
    }
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
