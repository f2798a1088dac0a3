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
//! This is the zero-delay replay over the dirty-cone core it shares with
//! [`crate::IncrementalTimedSim`]: one settled trajectory, one cone
//! builder (fanout CSR, topological sort, forward closure), one row diff
//! and one commit splice. Only the replay below is this simulator's own.
//!
//! Sequential circuits are supported through **per-cycle register-boundary
//! snapshots**: the recording stores every flip-flop output's settled
//! per-cycle trajectory alongside the combinational nodes, so an edit
//! whose cone stays clear of the registers replays packed against the
//! cached boundary words exactly like the combinational case, and an
//! edit that dirties a register (its D input changed, or a register was
//! appended) falls back to a per-cycle replay of just the cone with the
//! register feedback threaded cycle to cycle — still proportional to the
//! edit, never to the circuit.
//!
//! The simulator owns the netlist it recorded, and the only way to edit
//! it is an [`EditSession`] from [`IncrementalSim::edit`]: a
//! [`crate::NetlistEditor`] on that netlist whose journal is the change
//! set. [`EditSession::resim_into`] fills a reusable [`ConeResim`] with
//! the cone that was re-evaluated, the subset of nodes whose values
//! actually changed, and a full [`Activity`] for the edited netlist that
//! is **bit-identical** to a from-scratch recording (the in-tree property
//! battery locks this in, together with the cone-superset invariant).
//! [`EditSession::commit`] keeps the edit and splices the cone rows in
//! `O(cone)`; [`EditSession::rollback`] (or dropping the session) undoes
//! it in place. With a reusable [`ResimScratch`] + [`ConeResim`] pair,
//! rejecting a candidate allocates nothing once the buffers are warm.
//! `optimize::rewrite` and the precompute search in the optimize crate
//! are the canonical consumers.

use hlpower_obs::metrics as obs;

use crate::cone::{refill, EditSession, Replay, ResimScratch, Trajectory};
use crate::error::NetlistError;
use crate::library::GateKind;
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
/// ([`EditSession::resim_into`]): which nodes were re-evaluated, which
/// actually changed, and the edited netlist's full activity.
#[derive(Debug, Clone, Default)]
pub struct ConeResim {
    /// Every node that was re-evaluated (the rewired gates, all appended
    /// nodes, and their forward closure), in evaluation (topological)
    /// order. Guaranteed to be a superset of
    /// [`changed_values`](Self::changed_values).
    pub cone: Vec<NodeId>,
    /// The cone nodes whose packed values differ from the cached base
    /// recording (appended nodes always count: they had no prior value).
    pub changed_values: Vec<NodeId>,
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

/// Evaluates one gate function over packed words: the word-parallel
/// counterpart of [`GateKind::eval_with`], lane for lane.
#[inline]
pub(crate) fn eval_gate(kind: GateKind, inputs: &[NodeId], get: impl Fn(NodeId) -> u64) -> u64 {
    let fold =
        |unit: u64, f: fn(u64, u64) -> u64| inputs.iter().fold(unit, |acc, &i| f(acc, get(i)));
    match kind {
        GateKind::Buf => get(inputs[0]),
        GateKind::Not => !get(inputs[0]),
        GateKind::And => fold(!0, |a, b| a & b),
        GateKind::Or => fold(0, |a, b| a | b),
        GateKind::Nand => !fold(!0, |a, b| a & b),
        GateKind::Nor => !fold(0, |a, b| a | b),
        GateKind::Xor => fold(0, |a, b| a ^ b),
        GateKind::Xnor => !fold(0, |a, b| a ^ b),
        GateKind::Mux => {
            let s = get(inputs[0]);
            (!s & get(inputs[1])) | (s & get(inputs[2]))
        }
    }
}

impl IncrementalSim {
    /// Records a full time-packed evaluation of `netlist` over `stream`,
    /// caching every node's packed values for later dirty-cone
    /// re-simulation. Combinational netlists evaluate block-parallel on
    /// the compiled instruction stream; sequential netlists replay the
    /// scalar simulator once and pack the per-cycle register-boundary
    /// snapshots, so either way the cache is bit-identical to a scalar
    /// [`crate::ZeroDelaySim`] run.
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
    pub fn edit(&mut self) -> EditSession<'_, ConeResim> {
        EditSession::new(&mut self.netlist, &mut self.cache)
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

    /// A node's settled value on one recorded cycle.
    pub fn value_at(&self, node: NodeId, cycle: usize) -> bool {
        self.cache.traj.bit(node.index(), cycle)
    }

    /// Activity of the base netlist over the recorded stream,
    /// bit-identical to a scalar [`crate::ZeroDelaySim`] run.
    pub fn activity(&self) -> Activity {
        Activity { toggles: self.cache.toggles.clone(), cycles: (self.vectors() - 1) as u64 }
    }
}

impl Replay for Cache {
    type Out = ConeResim;

    /// The zero-delay replay: packed for a cone clear of the registers,
    /// per cycle otherwise, then the toggle re-count.
    fn resim(
        &self,
        netlist: &Netlist,
        changed: &[NodeId],
        scratch: &mut ResimScratch,
        out: &mut ConeResim,
    ) -> Result<(), NetlistError> {
        let traj = &self.traj;
        traj.cone_into(netlist, changed, scratch, &mut out.cone, &mut out.updates)?;
        let (cone, blocks) = (&out.cone, traj.blocks);
        if cone.iter().any(|&id| matches!(netlist.kind(id), NodeKind::Dff { .. })) {
            // A register is dirty: its Q trajectory shifts cycle by cycle,
            // so the cone replays per cycle with the flip-flop feedback
            // threaded through `dff_next` — the cached rows of everything
            // outside the cone are still read verbatim (the snapshots make
            // any boundary value an O(1) bit extraction).
            replay_per_cycle(traj, netlist, cone, scratch, &mut out.updates);
        } else {
            replay_packed(traj, netlist, cone, scratch, &mut out.updates);
        }
        traj.finish(netlist, cone, &out.updates, &mut out.changed_values);
        // Delta activity: untouched nodes keep their recorded toggle
        // counts, cone nodes are re-counted from their new words.
        let toggles = &self.toggles;
        refill(&mut out.activity.toggles, netlist.node_count(), 0u64);
        out.activity.toggles[..toggles.len()].copy_from_slice(toggles);
        out.activity.cycles = (traj.n_vectors - 1) as u64;
        for (&id, words) in cone.iter().zip(out.updates.chunks(blocks)) {
            out.activity.toggles[id.index()] = traj.toggles(words);
        }
        Ok(())
    }

    /// The re-evaluated words replace the stale ones and the re-counted
    /// toggles the recorded ones.
    fn commit(&mut self, netlist: &Netlist, resim: &ConeResim) {
        let nodes = netlist.node_count();
        debug_assert_eq!(resim.activity.toggles.len(), nodes, "resim is stale");
        self.traj.splice(nodes, &resim.cone, &resim.updates);
        self.toggles.clone_from(&resim.activity.toggles);
    }
}

/// Packed replay of a cone clear of the registers: it reads only cached
/// words (including register-boundary snapshots) and same-cycle cone
/// values, so it settles 64 cycles per gate evaluation.
fn replay_packed(
    traj: &Trajectory,
    netlist: &Netlist,
    cone: &[NodeId],
    scratch: &ResimScratch,
    updates: &mut [u64],
) {
    let (values, blocks, update_of) = (&traj.values, traj.blocks, &scratch.update_of);
    for b in 0..blocks {
        let valid = traj.valid_mask(b);
        for (ci, &id) in cone.iter().enumerate() {
            let w = match netlist.kind(id) {
                NodeKind::Const(v) => u64::splat(*v),
                NodeKind::Gate { kind, inputs } => eval_gate(*kind, inputs, |f| {
                    let u = update_of[f.index()];
                    if u != usize::MAX {
                        // Cone fan-ins precede ci in topo order.
                        updates[u * blocks + b]
                    } else {
                        values[f.index() * blocks + b]
                    }
                }),
                // Inputs never enter the cone (sessions cannot rewire or
                // append them), and a register in the cone takes the
                // per-cycle replay.
                NodeKind::Input | NodeKind::Dff { .. } => unreachable!("{id} in a packed cone"),
            };
            updates[ci * blocks + b] = w & valid;
        }
    }
}

/// Per-cycle replay of a register-dirty cone: flip-flop outputs in the
/// cone present their previously sampled value at the top of each cycle,
/// gates settle in topological order, and D inputs sample at the bottom —
/// exactly the scalar [`crate::ZeroDelaySim`] schedule, but only over the
/// cone.
fn replay_per_cycle(
    traj: &Trajectory,
    netlist: &Netlist,
    cone: &[NodeId],
    scratch: &mut ResimScratch,
    updates: &mut [u64],
) {
    let blocks = traj.blocks;
    refill(&mut scratch.cur, cone.len(), false);
    refill(&mut scratch.dff_next, cone.len(), false);
    // Power-on values for cone registers.
    for (ci, &id) in cone.iter().enumerate() {
        if let NodeKind::Dff { init, .. } = netlist.kind(id) {
            scratch.dff_next[ci] = *init;
        }
    }
    // A fan-in's value this cycle: replayed in the cone, cached outside
    // it.
    let read = |cur: &[bool], update_of: &[usize], f: NodeId, c: usize| {
        let u = update_of[f.index()];
        if u != usize::MAX {
            cur[u]
        } else {
            traj.bit(f.index(), c)
        }
    };
    for c in 0..traj.n_vectors {
        let (b, bit) = (c / 64, c % 64);
        // Settle the cone for this cycle. `cone` is in topological order
        // with non-gates (registers, constants) first, matching the
        // scalar simulator's present-then-settle schedule.
        for (ci, &id) in cone.iter().enumerate() {
            let v = match netlist.kind(id) {
                NodeKind::Dff { .. } => scratch.dff_next[ci],
                NodeKind::Const(v) => *v,
                NodeKind::Gate { kind, inputs } => {
                    kind.eval_with(inputs, |f| read(&scratch.cur, &scratch.update_of, f, c))
                }
                NodeKind::Input => unreachable!("primary input {id} in the cone"),
            };
            scratch.cur[ci] = v;
            updates[ci * blocks + b] |= (v as u64) << bit;
        }
        // Sample D inputs for the next cycle.
        for (ci, &id) in cone.iter().enumerate() {
            if let NodeKind::Dff { d, .. } = netlist.kind(id) {
                scratch.dff_next[ci] = read(&scratch.cur, &scratch.update_of, *d, c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;
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
    /// over the registered values, and an accumulator bit feeds back.
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
    fn resim(s: &EditSession<'_, ConeResim>) -> ConeResim {
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
    /// the row was recorded packed (combinational), recorded cycle by
    /// cycle (sequential), or replayed packed and committed.
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
        // Rewire the first 2-input XOR into an XNOR (a real functional
        // change) and check the dirty-cone result against a full rerecord.
        let target = nth_gate(&nl, GateKind::Xor, 0);
        let mut s = inc.edit();
        s.replace_gate(target, GateKind::Xnor, fanins(&nl, target)).unwrap();
        let resim = resim(&s);
        let full = IncrementalSim::record(s.netlist(), &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
        // Cone covers everything that changed.
        for &id in &resim.changed_values {
            assert!(resim.cone.contains(&id));
        }
        assert!(resim.changed_values.contains(&target));
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
        // trajectory shifts, which must propagate cycle by cycle.
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
