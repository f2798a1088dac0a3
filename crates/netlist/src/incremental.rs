//! Dirty-cone incremental re-simulation for optimization loops.
//!
//! An optimize pass that rewrites `k` gates of an `n`-gate netlist does
//! not need a full recompile-and-replay to re-score the candidate: only
//! the **output cone** of the touched gates (their forward closure through
//! the fanout graph) can change value, and every other node's packed
//! stimulus response is already known. [`IncrementalSim`] records one
//! full time-packed evaluation of a netlist over a stimulus stream (64
//! cycles per `u64` word), caches every node's words, and then answers
//! *"what does this edited netlist do on the same stream?"* by
//! re-evaluating just the dirty cone against the cached fan-in words — no
//! instruction-stream recompile, no replay of untouched nodes.
//!
//! The settled trajectory and the cone builder (fanout CSR, topological
//! sort, forward closure) live in the `cone` module. This is the one
//! incremental simulator: the glitch-aware passes (`retime`, `balance`)
//! score each candidate with one packed [`crate::timed_activity`] of the
//! edited netlist, whose stable-state reference comes from the same
//! trajectory recorder.
//!
//! Sequential circuits replay the same way: the recording stores every
//! flip-flop output's settled trajectory alongside the combinational
//! nodes (the register-boundary snapshots), and a cone that takes in a
//! register (its D input changed, or a register was appended) relaxes
//! the cone's register words to a fixpoint per 64-cycle block, as the
//! recorder does for the whole netlist — still proportional to the
//! edit, never to the circuit.
//!
//! The simulator owns the netlist it recorded, and the only way to edit
//! it is an [`EditSession`] from [`IncrementalSim::edit`]: a
//! [`crate::NetlistEditor`] on that netlist whose journal is the change
//! set. [`EditSession::resim_into`] fills a reusable [`ConeResim`] with
//! the cone that was re-evaluated and a full [`Activity`] for the edited
//! netlist that is **bit-identical** to a from-scratch recording (the
//! in-tree property battery locks this in, together with the invariant
//! that no node outside the cone changes value).
//! [`EditSession::commit`] keeps the edit and splices the cone rows in
//! `O(cone)`; [`EditSession::rollback`] (or dropping the session) undoes
//! it in place. With a reusable [`ResimScratch`] + [`ConeResim`] pair,
//! rejecting a candidate allocates nothing once the buffers are warm.
//! `optimize::rewrite` and the precompute search in the optimize crate
//! are the canonical consumers.

use std::ops::{Deref, DerefMut};

use hlpower_obs::metrics as obs;

use crate::cone::{refill, ResimScratch, Trajectory};
use crate::editor::NetlistEditor;
use crate::error::NetlistError;
use crate::netlist::{Netlist, NodeId, NodeKind};
use crate::sim::Activity;
use crate::words::Word;

/// A recorded time-packed simulation of a netlist over a fixed stimulus
/// stream, supporting dirty-cone re-simulation of edits made through
/// [`edit`](Self::edit) sessions. See the `incremental` module docs for
/// the workflow.
#[derive(Debug, Clone)]
pub struct IncrementalSim {
    /// The recorded netlist, edited in place by sessions.
    netlist: Netlist,
    cache: Cache,
}

/// Everything the zero-delay recording caches besides the netlist.
#[derive(Debug, Clone)]
struct Cache {
    /// The settled trajectory (flip-flop rows are the register-boundary
    /// snapshots).
    traj: Trajectory,
    /// Exact per-node toggle counts over the recorded stream.
    toggles: Vec<u64>,
}

/// The outcome of one dirty-cone re-simulation
/// ([`EditSession::resim_into`]): which nodes were re-evaluated and the
/// edited netlist's full activity.
#[derive(Debug, Clone, Default)]
pub struct ConeResim {
    /// Every node that was re-evaluated (the rewired gates, all appended
    /// nodes, and their forward closure), in evaluation (topological)
    /// order. No node outside it changes value.
    pub cone: Vec<NodeId>,
    /// Activity of the edited netlist over the recorded stream,
    /// bit-identical to a from-scratch [`IncrementalSim::record`] of it.
    pub activity: Activity,
    /// Re-evaluated packed values, cone-index-major (one row per cone
    /// node).
    updates: Vec<u64>,
}

impl ConeResim {
    /// Packed `u64` words re-evaluated by this resim (`cone × blocks`) —
    /// the work metric the `opt_search` observability section reports.
    pub fn words_replayed(&self) -> u64 {
        self.updates.len() as u64
    }
}

impl IncrementalSim {
    /// Records a full time-packed evaluation of `netlist` over `stream`,
    /// caching every node's packed values for later dirty-cone
    /// re-simulation. Every netlist evaluates block-parallel on the
    /// compiled instruction stream, its registers relaxed to a fixpoint
    /// per 64-cycle block, so the cache (register-boundary snapshots
    /// included) is bit-identical to a scalar [`crate::ZeroDelaySim`]
    /// run.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::EmptyStream`] for an empty stream,
    /// [`NetlistError::InputWidthMismatch`] for a bad vector width, or
    /// [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn record(netlist: &Netlist, stream: &[Vec<bool>]) -> Result<Self, NetlistError> {
        let traj = Trajectory::record(netlist, stream)?;
        let toggles = (0..netlist.node_count()).map(|node| traj.toggles(traj.row(node))).collect();
        obs::SIM_INC_RECORDS.inc();
        Ok(IncrementalSim { netlist: netlist.clone(), cache: Cache { traj, toggles } })
    }

    /// Starts an edit session on the recorded netlist.
    pub fn edit(&mut self) -> EditSession<'_> {
        EditSession { ed: NetlistEditor::begin(&mut self.netlist), cache: &mut self.cache }
    }

    /// The netlist the cached recording corresponds to (updated by
    /// [`EditSession::commit`]).
    pub fn base(&self) -> &Netlist {
        &self.netlist
    }

    /// The recorded netlist, with every committed edit, by value.
    pub fn into_base(self) -> Netlist {
        self.netlist
    }

    /// Number of stimulus vectors in the recorded stream.
    pub fn vectors(&self) -> usize {
        self.cache.traj.n_vectors
    }

    /// The cached packed value words of a node (bit `c` of word `b` is
    /// the settled value on vector `b * 64 + c`; bits of the final word
    /// past the last vector are zero).
    pub fn value_words(&self, node: NodeId) -> &[u64] {
        self.cache.traj.row(node.index())
    }

    /// Toggle word of a node on one 64-vector block: bit `c` is set when
    /// its settled value on vector `64 * block + c` differs from the one
    /// on the vector before. Vector 0 never counts and bits past the last
    /// vector are clear, so the popcounts over every block sum to the
    /// node's entry in [`activity`](Self::activity).
    pub fn toggle_word(&self, node: NodeId, block: usize) -> u64 {
        let traj = &self.cache.traj;
        traj.toggle_word(traj.row(node.index()), block)
    }

    /// Valid-bit mask of one 64-vector block: all ones except in the
    /// final block, whose bits past the last vector are clear (as they
    /// are in every cached row).
    pub fn block_mask(&self, block: usize) -> u64 {
        self.cache.traj.valid_mask(block)
    }

    /// Exact toggle count of a packed row shaped like a cached one (one
    /// word per block, such as a replayed row): the count
    /// [`activity`](Self::activity) reports for a node with that row.
    pub fn row_toggles(&self, row: &[u64]) -> u64 {
        self.cache.traj.toggles(row)
    }

    /// A node's settled value on one recorded cycle.
    pub fn value_at(&self, node: NodeId, cycle: usize) -> bool {
        self.value_words(node)[cycle / 64] >> (cycle % 64) & 1 != 0
    }

    /// Activity of the base netlist over the recorded stream,
    /// bit-identical to a scalar [`crate::ZeroDelaySim`] run.
    pub fn activity(&self) -> Activity {
        Activity { toggles: self.cache.toggles.clone(), cycles: (self.vectors() - 1) as u64 }
    }
}

/// An edit session on an [`IncrementalSim`]'s recorded netlist, from
/// [`IncrementalSim::edit`]: a [`NetlistEditor`] on that netlist — every
/// editor method is available through `Deref` — plus the recording it is
/// scored against. End it with [`commit`](Self::commit) or
/// [`rollback`](Self::rollback); dropping it rolls back.
#[derive(Debug)]
pub struct EditSession<'a> {
    ed: NetlistEditor<'a>,
    cache: &'a mut Cache,
}

impl EditSession<'_> {
    /// Re-simulates the session's edits over the recorded stream by
    /// replaying only the dirty cone: the forward closure of the rewired
    /// gates plus any appended nodes (through register boundaries — a
    /// flip-flop whose D input is dirty dirties its own Q trajectory and
    /// everything reading it). The cone replays packed, 64 cycles per
    /// word; untouched nodes reuse their cached rows verbatim. Results
    /// land in `out`, working memory in `scratch`; both are reused across
    /// calls, so a rejected candidate costs no allocation once the
    /// buffers are warm.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the edits
    /// introduced a cycle.
    pub fn resim_into(
        &self,
        scratch: &mut ResimScratch,
        out: &mut ConeResim,
    ) -> Result<(), NetlistError> {
        let (netlist, traj) = (self.ed.netlist(), &self.cache.traj);
        traj.cone_into(netlist, self.ed.changed(), scratch, &mut out.cone, &mut out.updates)?;
        let (cone, blocks) = (&out.cone, traj.blocks);
        replay_packed(traj, netlist, cone, scratch, &mut out.updates);
        obs::SIM_INC_RESIMS.inc();
        obs::SIM_INC_CONE_NODES.add(cone.len() as u64);
        obs::SIM_INC_REUSED_NODES.add((netlist.node_count() - cone.len()) as u64);
        // Delta activity: untouched nodes keep their recorded toggle
        // counts, cone nodes are re-counted from their new words.
        let toggles = &self.cache.toggles;
        refill(&mut out.activity.toggles, netlist.node_count(), 0u64);
        out.activity.toggles[..toggles.len()].copy_from_slice(toggles);
        out.activity.cycles = (traj.n_vectors - 1) as u64;
        for (&id, words) in cone.iter().zip(out.updates.chunks(blocks)) {
            out.activity.toggles[id.index()] = traj.toggles(words);
        }
        Ok(())
    }

    /// Keeps the session's edits and folds `out` into the recording —
    /// the cone's re-evaluated rows replace the stale ones in `O(cone)`,
    /// the re-counted toggles the recorded ones, and nothing is cloned —
    /// so the next session builds on them. `out` must be this session's
    /// latest [`resim_into`](Self::resim_into) result; it is borrowed, so
    /// a search loop can keep reusing the same buffer.
    pub fn commit(self, out: &ConeResim) {
        let nodes = self.ed.netlist().node_count();
        debug_assert_eq!(out.activity.toggles.len(), nodes, "resim is stale");
        self.cache.traj.splice(nodes, &out.cone, &out.updates);
        self.cache.toggles.clone_from(&out.activity.toggles);
        self.ed.finish();
    }

    /// Undoes the session's edits in place; the recording is untouched.
    pub fn rollback(self) {
        self.ed.rollback();
    }
}

impl<'a> Deref for EditSession<'a> {
    type Target = NetlistEditor<'a>;

    fn deref(&self) -> &NetlistEditor<'a> {
        &self.ed
    }
}

impl<'a> DerefMut for EditSession<'a> {
    fn deref_mut(&mut self) -> &mut NetlistEditor<'a> {
        &mut self.ed
    }
}

/// Packed replay of the cone, 64 cycles per word: it reads cached words
/// (including register-boundary snapshots) outside the cone and
/// same-cycle cone values inside it. A cone register's word is its D
/// word one cycle late, so a block with registers in the cone repeats
/// until no register word moves, exact in at most 65 passes by the
/// argument on [`Trajectory::record`]'s pass loop.
fn replay_packed(
    traj: &Trajectory,
    netlist: &Netlist,
    cone: &[NodeId],
    scratch: &ResimScratch,
    updates: &mut [u64],
) {
    let (values, blocks, update_of) = (&traj.values, traj.blocks, &scratch.update_of);
    // A fan-in's word of block `b`: replayed in the cone, cached outside
    // it.
    let read = |updates: &[u64], f: NodeId, b: usize| {
        let u = update_of[f.index()];
        if u != usize::MAX {
            updates[u * blocks + b]
        } else {
            values[f.index() * blocks + b]
        }
    };
    for b in 0..blocks {
        let valid = traj.valid_mask(b);
        for pass in 0.. {
            let mut moved = false;
            for (ci, &id) in cone.iter().enumerate() {
                let w = match netlist.kind(id) {
                    NodeKind::Const(v) => u64::splat(*v),
                    // Cone fan-ins precede ci in topo order.
                    NodeKind::Gate { kind, inputs } => {
                        kind.eval_word(inputs, |f| read(updates, f, b))
                    }
                    // Registers lead the topo order, so this reads the
                    // previous pass's D word; the first pass always
                    // counts as moved.
                    NodeKind::Dff { d, init } => {
                        let carry =
                            if b == 0 { *init as u64 } else { read(updates, *d, b - 1) >> 63 };
                        let w = ((read(updates, *d, b) << 1) | carry) & valid;
                        moved |= pass == 0 || w != updates[ci * blocks + b];
                        w
                    }
                    // Inputs never enter the cone (sessions cannot rewire
                    // or append them).
                    NodeKind::Input => unreachable!("primary input {id} in the cone"),
                };
                updates[ci * blocks + b] = w & valid;
            }
            if !moved {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{GateKind, Library};
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

    /// A registered adder: inputs land in flip-flops, the sum is computed
    /// over the registered values and registered again. It is
    /// feed-forward: no register reads its own output.
    fn registered_adder(bits: usize) -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", bits);
        let b = nl.input_bus("b", bits);
        let aq = nl.dff_bus(&a);
        let bq = nl.dff_bus(&b);
        let c0 = nl.constant(false);
        let s = gen::ripple_adder(&mut nl, &aq, &bq, c0);
        let sq = nl.dff_bus(&s);
        nl.output_bus("s", &sq);
        nl
    }

    fn stream_for(nl: &Netlist, seed: u64, cycles: usize) -> Vec<Vec<bool>> {
        streams::random(seed, nl.input_count()).take(cycles).collect()
    }

    /// The `nth` gate of `kind` with two inputs.
    fn nth_gate(nl: &Netlist, kind: GateKind, nth: usize) -> NodeId {
        nl.node_ids()
            .filter(|&id| {
                matches!(nl.kind(id), NodeKind::Gate { kind: k, inputs } if *k == kind && inputs.len() == 2)
            })
            .nth(nth)
            .unwrap()
    }

    fn fanins(nl: &Netlist, id: NodeId) -> Vec<NodeId> {
        nl.kind(id).fanins().to_vec()
    }

    /// Resims a session into fresh buffers.
    fn resim(s: &EditSession<'_>) -> ConeResim {
        let mut out = ConeResim::default();
        s.resim_into(&mut ResimScratch::default(), &mut out).unwrap();
        out
    }

    #[test]
    fn recording_matches_the_scalar_oracle() {
        let nl = adder(6);
        let stream = stream_for(&nl, 11, 130);
        let inc = IncrementalSim::record(&nl, &stream).unwrap();
        let mut scalar = ZeroDelaySim::new(&nl).unwrap();
        let act = scalar.run(stream.iter().cloned()).unwrap();
        assert_eq!(inc.activity(), act);
    }

    #[test]
    fn sequential_recording_matches_the_scalar_oracle() {
        let nl = registered_adder(5);
        let stream = stream_for(&nl, 17, 170);
        let inc = IncrementalSim::record(&nl, &stream).unwrap();
        let mut scalar = ZeroDelaySim::new(&nl).unwrap();
        let act = scalar.run(stream.iter().cloned()).unwrap();
        assert_eq!(inc.activity(), act);
        // Register-boundary snapshots: every flip-flop's Q trajectory is
        // cached like any other node.
        for &q in nl.dffs() {
            assert_eq!(inc.value_words(q).len(), stream.len().div_ceil(64));
        }
    }

    /// Rows are canonical: the bits past the last vector are zero whether
    /// the row was recorded in a combinational or a sequential netlist,
    /// or replayed and committed.
    #[test]
    fn trajectory_tails_are_zero_on_every_path() {
        let stream: Vec<Vec<bool>> = (0..10).map(|c| vec![c % 2 == 0]).collect();
        let mut comb = Netlist::new();
        let a = comb.input("a");
        let y = comb.not(a);
        comb.set_output("y", y);
        let mut seq = comb.clone();
        let q = seq.dff(a, false);
        seq.set_output("q", q);
        let comb_inc = IncrementalSim::record(&comb, &stream).unwrap();
        let seq_inc = IncrementalSim::record(&seq, &stream).unwrap();
        assert_eq!(comb_inc.value_words(y), &[0x2aa]);
        assert_eq!(comb_inc.value_words(y), seq_inc.value_words(y));
        // The same row, replayed packed after a Buf -> Not edit.
        let mut buf = Netlist::new();
        let a = buf.input("a");
        let y = buf.buf(a);
        buf.set_output("y", y);
        let mut inc = IncrementalSim::record(&buf, &stream).unwrap();
        let mut s = inc.edit();
        s.replace_gate(y, GateKind::Not, [a]).unwrap();
        let out = resim(&s);
        s.commit(&out);
        assert_eq!(inc.value_words(y), seq_inc.value_words(y));
    }

    #[test]
    fn resim_matches_full_rerecord_after_a_rewrite() {
        let nl = adder(5);
        let stream = stream_for(&nl, 3, 200);
        let mut inc = IncrementalSim::record(&nl, &stream).unwrap();
        let rows: Vec<Vec<u64>> = nl.node_ids().map(|id| inc.value_words(id).to_vec()).collect();
        // Rewire the first 2-input XOR into an XNOR (a real functional
        // change) and check the dirty-cone result against a full rerecord.
        let target = nth_gate(&nl, GateKind::Xor, 0);
        let mut s = inc.edit();
        s.replace_gate(target, GateKind::Xnor, fanins(&nl, target)).unwrap();
        let resim = resim(&s);
        let full = IncrementalSim::record(s.netlist(), &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
        // The target's row changed, and every row that changed is in the
        // cone.
        assert_ne!(full.value_words(target), rows[target.index()]);
        for id in nl.node_ids() {
            if full.value_words(id) != rows[id.index()] {
                assert!(resim.cone.contains(&id), "{id} changed outside the cone");
            }
        }
        // Untouched siblings were not re-evaluated.
        assert!(resim.cone.len() < nl.node_count());
    }

    #[test]
    fn combinational_cone_in_a_sequential_netlist_replays_packed() {
        // Append logic reading a register boundary: the cone stays clear
        // of the registers, so the packed path must serve it against the
        // cached Q snapshots.
        let nl = registered_adder(4);
        let stream = stream_for(&nl, 23, 150);
        let mut inc = IncrementalSim::record(&nl, &stream).unwrap();
        let (q0, q1) = (nl.dffs()[0], nl.dffs()[1]);
        let mut s = inc.edit();
        let watch = s.insert_gate(GateKind::Xor, [q0, q1]).unwrap();
        s.insert_gate(GateKind::Not, [watch]).unwrap();
        let resim = resim(&s);
        assert_eq!(resim.cone.len(), 2);
        let full = IncrementalSim::record(s.netlist(), &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
    }

    #[test]
    fn register_dirty_cone_matches_full_rerecord() {
        // Rewire a gate that feeds a flip-flop: the register's Q
        // trajectory shifts, which must propagate through the next
        // register stage.
        let nl = registered_adder(4);
        let stream = stream_for(&nl, 31, 190);
        let mut inc = IncrementalSim::record(&nl, &stream).unwrap();
        let target = nth_gate(&nl, GateKind::Xor, 0);
        let mut s = inc.edit();
        s.replace_gate(target, GateKind::Xnor, fanins(&nl, target)).unwrap();
        let resim = resim(&s);
        // The cone crossed a register boundary.
        assert!(resim.cone.iter().any(|&id| matches!(nl.kind(id), NodeKind::Dff { .. })));
        let full = IncrementalSim::record(s.netlist(), &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
        for (&id, row) in resim.cone.iter().zip(resim.updates.chunks(stream.len().div_ceil(64))) {
            assert_eq!(row, full.value_words(id), "cone value words diverged at {id}");
        }
    }

    #[test]
    fn appended_register_joins_the_cone() {
        // Retiming-style edit: insert a flip-flop on an internal net and
        // repoint a reader at it.
        let nl = adder(4);
        let stream = stream_for(&nl, 41, 140);
        let mut inc = IncrementalSim::record(&nl, &stream).unwrap();
        let target = nth_gate(&nl, GateKind::Or, 0);
        let mut s = inc.edit();
        let q = s.insert_dff(fanins(&nl, target)[0], false).unwrap();
        s.rewire_input(target, 0, q).unwrap();
        let resim = resim(&s);
        assert!(resim.cone.contains(&q));
        let full = IncrementalSim::record(s.netlist(), &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
    }

    #[test]
    fn commit_chains_mutations() {
        let nl = adder(4);
        let lib = Library::default();
        let stream = stream_for(&nl, 9, 150);
        let mut inc = IncrementalSim::record(&nl, &stream).unwrap();
        // Two successive mutations, committing each; the cache must track.
        for flip in 0..2usize {
            let target = nth_gate(inc.base(), GateKind::And, flip);
            let ins = fanins(inc.base(), target);
            let mut s = inc.edit();
            s.replace_gate(target, GateKind::Nand, ins).unwrap();
            let resim = resim(&s);
            s.commit(&resim);
        }
        let full = IncrementalSim::record(inc.base(), &stream).unwrap();
        assert_eq!(inc.activity(), full.activity());
        assert_eq!(
            inc.activity().power(inc.base(), &lib).total_power_uw().to_bits(),
            full.activity().power(inc.base(), &lib).total_power_uw().to_bits()
        );
    }

    #[test]
    fn resim_into_reuses_buffers_across_candidates() {
        let nl = adder(5);
        let stream = stream_for(&nl, 13, 120);
        let mut inc = IncrementalSim::record(&nl, &stream).unwrap();
        let mut scratch = ResimScratch::default();
        let mut out = ConeResim::default();
        for nth in 0..3 {
            let target = nth_gate(&nl, GateKind::And, nth);
            let mut s = inc.edit();
            s.replace_gate(target, GateKind::Nand, fanins(&nl, target)).unwrap();
            s.resim_into(&mut scratch, &mut out).unwrap();
            let full = IncrementalSim::record(s.netlist(), &stream).unwrap();
            assert_eq!(out.activity, full.activity(), "buffer reuse corrupted {target}");
            assert!(out.words_replayed() > 0);
            s.rollback();
        }
    }

    #[test]
    fn appended_logic_joins_the_cone() {
        let nl = adder(4);
        let stream = stream_for(&nl, 21, 90);
        let mut inc = IncrementalSim::record(&nl, &stream).unwrap();
        // Append an inverter and repoint an existing gate at it.
        let target = nth_gate(&nl, GateKind::Or, 0);
        let mut s = inc.edit();
        let inv = s.insert_gate(GateKind::Not, [nl.inputs()[0]]).unwrap();
        s.rewire_input(target, 1, inv).unwrap();
        let resim = resim(&s);
        assert!(resim.cone.contains(&inv));
        let full = IncrementalSim::record(s.netlist(), &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
    }
}
