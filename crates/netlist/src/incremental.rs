//! Dirty-cone incremental re-simulation for optimization loops.
//!
//! An optimize pass that rewrites `k` gates of an `n`-gate netlist does
//! not need a full recompile-and-replay to re-score the candidate: only
//! the **output cone** of the touched gates (their forward closure through
//! the fanout graph) can change value, and every other node's packed
//! stimulus response is already known. [`IncrementalSim`] records one
//! full time-packed evaluation of a netlist over a stimulus stream (64
//! cycles per `u64` word), caches every node's words, and then answers
//! *"what does this mutated netlist do on the same stream?"* by
//! re-evaluating just the dirty cone against the cached fan-in words — no
//! instruction-stream recompile, no replay of untouched nodes.
//!
//! This is the zero-delay replay over the dirty-cone core it shares with
//! [`crate::IncrementalTimedSim`]: one settled trajectory, one set of
//! incremental-edit checks, one cone builder (fanout CSR, topological
//! sort, forward closure), one row diff and one commit splice. Only the
//! replay below is this simulator's own.
//!
//! Sequential circuits are supported through **per-cycle register-boundary
//! snapshots**: the recording stores every flip-flop output's settled
//! per-cycle trajectory alongside the combinational nodes, so a mutation
//! whose cone stays clear of the registers replays packed against the
//! cached boundary words exactly like the combinational case, and a
//! mutation that dirties a register (its D input changed, or a register
//! was appended) falls back to a per-cycle replay of just the cone with
//! the register feedback threaded cycle to cycle — still proportional to
//! the edit, never to the circuit.
//!
//! The result of a [`resim`](IncrementalSim::resim) is a [`ConeResim`]:
//! the cone that was re-evaluated, the subset of nodes whose values
//! actually changed, and a full [`Activity`] for the mutated netlist that
//! is **bit-identical** to a from-scratch recording (the in-tree property
//! battery locks this in, together with the cone-superset invariant).
//! Accepted candidates are folded back with
//! [`commit`](IncrementalSim::commit), which updates the cache in
//! `O(cone)` and re-arms the simulator for the next mutation. Candidate
//! searches that score thousands of rejected mutations should use
//! [`resim_into`](IncrementalSim::resim_into) with a reusable
//! [`ResimScratch`] + [`ConeResim`] pair, which makes rejection
//! allocation-free once the buffers have warmed up.
//!
//! Mutations are expressed with [`crate::NetlistEditor`] (in-place
//! rewiring with an undo journal, node ids stable) or directly with
//! [`crate::Netlist::replace_gate`] plus append-only construction;
//! `optimize::rewrite` and the guard/precompute/clock-gating searches in
//! the optimize crate are the canonical consumers.

use crate::cone::{refill, Recording, ResimScratch, Trajectory};
use crate::error::NetlistError;
use crate::library::GateKind;
use crate::netlist::{Netlist, NodeId, NodeKind};
use crate::sim::Activity;
use crate::words::Word;

/// A recorded time-packed simulation of a netlist over a fixed stimulus
/// stream, supporting dirty-cone re-simulation of mutated variants. See
/// the `incremental` module docs for the workflow.
#[derive(Debug, Clone)]
pub struct IncrementalSim {
    /// The settled trajectory (flip-flop rows are the register-boundary
    /// snapshots) and the netlist it belongs to.
    rec: Recording,
    /// Exact per-node toggle counts over the recorded stream.
    toggles: Vec<u64>,
}

/// The outcome of one dirty-cone re-simulation
/// ([`IncrementalSim::resim`]): which nodes were re-evaluated, which
/// actually changed, and the mutated netlist's full activity.
#[derive(Debug, Clone, Default)]
pub struct ConeResim {
    /// Every node that was re-evaluated (the mutation seeds, all appended
    /// nodes, and their forward closure), in evaluation (topological)
    /// order. Guaranteed to be a superset of
    /// [`changed_values`](Self::changed_values).
    pub cone: Vec<NodeId>,
    /// The cone nodes whose packed values differ from the cached base
    /// recording (appended nodes always count: they had no prior value).
    pub changed_values: Vec<NodeId>,
    /// Activity of the mutated netlist over the recorded stream,
    /// bit-identical to a from-scratch [`IncrementalSim::record`] of the
    /// mutated netlist.
    pub activity: Activity,
    /// Re-evaluated packed values, cone-index-major (`blocks` words per
    /// cone node).
    updates: Vec<u64>,
    /// Words per node, copied from the recording for indexing `updates`.
    blocks: usize,
}

impl ConeResim {
    /// Packed `u64` words re-evaluated by this resim (`cone × blocks`) —
    /// the work metric the `opt_search` observability section reports.
    pub fn words_replayed(&self) -> u64 {
        (self.cone.len() * self.blocks) as u64
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

/// The error for a cone node no replay can evaluate (a primary input).
fn not_combinational(id: NodeId, kind: &NodeKind) -> NetlistError {
    NetlistError::IncrementalMismatch {
        reason: format!("cone node {id} has non-combinational kind {kind:?}"),
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
        Ok(IncrementalSim { rec: Recording::new(netlist, traj), toggles })
    }

    /// The netlist the cached recording corresponds to (updated by
    /// [`commit`](Self::commit)).
    pub fn base(&self) -> &Netlist {
        &self.rec.base
    }

    /// Number of stimulus vectors in the recorded stream.
    pub fn vectors(&self) -> usize {
        self.rec.traj.n_vectors
    }

    /// The cached packed value words of a node (bit `c` of word `b` is
    /// the settled value on vector `b * 64 + c`; bits of the final word
    /// past the last vector are unspecified, so mask them).
    pub fn value_words(&self, node: NodeId) -> &[u64] {
        self.rec.traj.row(node.index())
    }

    /// Toggle word of a node on one 64-vector block: bit `c` is set when
    /// its settled value on vector `64 * block + c` differs from the one
    /// on the vector before. Vector 0 never counts and bits past the last
    /// vector are clear, so the popcounts over every block sum to the
    /// node's entry in [`activity`](Self::activity).
    pub fn toggle_word(&self, node: NodeId, block: usize) -> u64 {
        let traj = &self.rec.traj;
        traj.toggle_word(traj.row(node.index()), block)
    }

    /// A node's settled value on one recorded cycle.
    pub fn value_at(&self, node: NodeId, cycle: usize) -> bool {
        self.rec.traj.bit(node.index(), cycle)
    }

    /// Activity of the base netlist over the recorded stream,
    /// bit-identical to a scalar [`crate::ZeroDelaySim`] run.
    pub fn activity(&self) -> Activity {
        Activity { toggles: self.toggles.clone(), cycles: (self.vectors() - 1) as u64 }
    }

    /// Re-simulates a mutated variant of the base netlist over the
    /// recorded stream, allocating a fresh [`ConeResim`]. Candidate
    /// searches should prefer [`resim_into`](Self::resim_into), which
    /// reuses buffers across candidates.
    ///
    /// # Errors
    ///
    /// As [`resim_into`](Self::resim_into).
    pub fn resim(&self, mutated: &Netlist, changed: &[NodeId]) -> Result<ConeResim, NetlistError> {
        let mut scratch = ResimScratch::default();
        let mut out = ConeResim::default();
        self.resim_into(mutated, changed, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Re-simulates a mutated variant of the base netlist over the
    /// recorded stream by evaluating only the dirty cone: the forward
    /// closure of the `changed` gates plus any appended nodes (through
    /// register boundaries — a flip-flop whose D input is dirty dirties
    /// its own Q trajectory and everything reading it). Untouched nodes
    /// reuse their cached words verbatim. Results land in `out`, working
    /// memory in `scratch`; both are reused across calls, so a rejected
    /// candidate costs no allocation once the buffers are warm.
    ///
    /// `mutated` must be an *incremental edit* of the base: same primary
    /// inputs, same pre-existing flip-flops, no removed nodes, and every
    /// pre-existing node that differs from the base declared in `changed`
    /// (out-of-cone nodes are never re-checked — an undeclared edit would
    /// silently desynchronize the cache, so it is rejected up front).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::IncrementalMismatch`] if `mutated` violates
    /// the preconditions above, or
    /// [`NetlistError::CombinationalCycle`] if the rewiring introduced a
    /// cycle.
    pub fn resim_into(
        &self,
        mutated: &Netlist,
        changed: &[NodeId],
        scratch: &mut ResimScratch,
        out: &mut ConeResim,
    ) -> Result<(), NetlistError> {
        self.rec.cone_into(mutated, changed, scratch, &mut out.cone, &mut out.updates)?;
        let (cone, traj) = (&out.cone, &self.rec.traj);
        let blocks = traj.blocks;
        out.blocks = blocks;
        if cone.iter().any(|&id| matches!(mutated.kind(id), NodeKind::Dff { .. })) {
            // A register is dirty: its Q trajectory shifts cycle by cycle,
            // so the cone replays per cycle with the flip-flop feedback
            // threaded through `dff_next` — the cached rows of everything
            // outside the cone are still read verbatim (the snapshots make
            // any boundary value an O(1) bit extraction).
            self.replay_per_cycle(mutated, cone, scratch, &mut out.updates)?;
        } else {
            self.replay_packed(mutated, cone, scratch, &mut out.updates)?;
        }
        self.rec.finish(mutated, cone, &out.updates, &mut out.changed_values);
        // Delta activity: untouched nodes keep their recorded toggle
        // counts, cone nodes are re-counted from their new words.
        refill(&mut out.activity.toggles, mutated.node_count(), 0u64);
        out.activity.toggles[..self.toggles.len()].copy_from_slice(&self.toggles);
        out.activity.cycles = (traj.n_vectors - 1) as u64;
        for (&id, words) in cone.iter().zip(out.updates.chunks(blocks)) {
            out.activity.toggles[id.index()] = traj.toggles(words);
        }
        Ok(())
    }

    /// Packed replay of a cone clear of the registers: it reads only
    /// cached words (including register-boundary snapshots) and
    /// same-cycle cone values, so it settles 64 cycles per gate
    /// evaluation.
    fn replay_packed(
        &self,
        mutated: &Netlist,
        cone: &[NodeId],
        scratch: &ResimScratch,
        updates: &mut [u64],
    ) -> Result<(), NetlistError> {
        let (values, blocks, update_of) =
            (&self.rec.traj.values, self.rec.traj.blocks, &scratch.update_of);
        for b in 0..blocks {
            for (ci, &id) in cone.iter().enumerate() {
                let w = match mutated.kind(id) {
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
                    // Inputs are never in the cone (they have no declared
                    // change and cannot be appended), and a register in
                    // the cone takes the per-cycle replay.
                    other => return Err(not_combinational(id, other)),
                };
                updates[ci * blocks + b] = w;
            }
        }
        Ok(())
    }

    /// Per-cycle replay of a register-dirty cone: flip-flop outputs in
    /// the cone present their previously sampled value at the top of each
    /// cycle, gates settle in topological order, and D inputs sample at
    /// the bottom — exactly the scalar [`ZeroDelaySim`] schedule, but
    /// only over the cone.
    fn replay_per_cycle(
        &self,
        mutated: &Netlist,
        cone: &[NodeId],
        scratch: &mut ResimScratch,
        updates: &mut [u64],
    ) -> Result<(), NetlistError> {
        let (traj, blocks) = (&self.rec.traj, self.rec.traj.blocks);
        refill(&mut scratch.cur, cone.len(), false);
        refill(&mut scratch.dff_next, cone.len(), false);
        // Power-on values for cone registers.
        for (ci, &id) in cone.iter().enumerate() {
            if let NodeKind::Dff { init, .. } = mutated.kind(id) {
                scratch.dff_next[ci] = *init;
            }
        }
        // A fan-in's value this cycle: replayed in the cone, cached
        // outside it.
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
            // Settle the cone for this cycle. `cone` is in topological
            // order with non-gates (registers, constants) first, matching
            // the scalar simulator's present-then-settle schedule.
            for (ci, &id) in cone.iter().enumerate() {
                let v = match mutated.kind(id) {
                    NodeKind::Dff { .. } => scratch.dff_next[ci],
                    NodeKind::Const(v) => *v,
                    NodeKind::Gate { kind, inputs } => {
                        kind.eval_with(inputs, |f| read(&scratch.cur, &scratch.update_of, f, c))
                    }
                    other => return Err(not_combinational(id, other)),
                };
                scratch.cur[ci] = v;
                updates[ci * blocks + b] |= (v as u64) << bit;
            }
            // Sample D inputs for the next cycle.
            for (ci, &id) in cone.iter().enumerate() {
                if let NodeKind::Dff { d, .. } = mutated.kind(id) {
                    scratch.dff_next[ci] = read(&scratch.cur, &scratch.update_of, *d, c);
                }
            }
        }
        Ok(())
    }

    /// Folds an accepted mutation back into the cache in `O(cone)`:
    /// `mutated` becomes the new base and the re-evaluated words replace
    /// the stale ones, so the next [`resim`](Self::resim) builds on it.
    /// The [`ConeResim`] is borrowed, so a search loop can keep reusing
    /// the same output buffer afterwards.
    ///
    /// `resim` must be the result of [`Self::resim`] /
    /// [`Self::resim_into`] for exactly this `mutated` netlist.
    pub fn commit(&mut self, mutated: &Netlist, resim: &ConeResim) {
        debug_assert_eq!(
            resim.activity.toggles.len(),
            mutated.node_count(),
            "resim is for a different netlist"
        );
        self.rec.commit(mutated, &resim.cone, &resim.updates);
        self.toggles.clear();
        self.toggles.extend_from_slice(&resim.activity.toggles);
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

    #[test]
    fn resim_matches_full_rerecord_after_a_rewrite() {
        let nl = adder(5);
        let stream = stream_for(&nl, 3, 200);
        let inc = IncrementalSim::record(&nl, &stream).unwrap();
        // Rewire the first 2-input XOR into an XNOR (a real functional
        // change) and check the dirty-cone result against a full rerecord.
        let mut mutated = nl.clone();
        let target = mutated
            .node_ids()
            .find(|&id| {
                matches!(mutated.kind(id),
                    NodeKind::Gate { kind: GateKind::Xor, inputs } if inputs.len() == 2)
            })
            .unwrap();
        let NodeKind::Gate { inputs, .. } = mutated.kind(target).clone() else { unreachable!() };
        mutated.replace_gate(target, GateKind::Xnor, inputs).unwrap();
        let resim = inc.resim(&mutated, &[target]).unwrap();
        let full = IncrementalSim::record(&mutated, &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
        // Cone covers everything that changed.
        for &id in &resim.changed_values {
            assert!(resim.cone.contains(&id));
        }
        assert!(resim.changed_values.contains(&target));
        // Untouched siblings were not re-evaluated.
        assert!(resim.cone.len() < mutated.node_count());
    }

    #[test]
    fn combinational_cone_in_a_sequential_netlist_replays_packed() {
        // Append logic reading a register boundary: the cone stays clear
        // of the registers, so the packed path must serve it against the
        // cached Q snapshots.
        let nl = registered_adder(4);
        let stream = stream_for(&nl, 23, 150);
        let inc = IncrementalSim::record(&nl, &stream).unwrap();
        let mut mutated = nl.clone();
        let q0 = nl.dffs()[0];
        let q1 = nl.dffs()[1];
        let watch = mutated.xor([q0, q1]);
        let _watch2 = mutated.not(watch);
        let resim = inc.resim(&mutated, &[]).unwrap();
        assert_eq!(resim.cone.len(), 2);
        let full = IncrementalSim::record(&mutated, &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
    }

    #[test]
    fn register_dirty_cone_matches_full_rerecord() {
        // Rewire a gate that feeds a flip-flop: the register's Q
        // trajectory shifts, which must propagate cycle by cycle.
        let nl = registered_adder(4);
        let stream = stream_for(&nl, 31, 190);
        let inc = IncrementalSim::record(&nl, &stream).unwrap();
        let mut mutated = nl.clone();
        let target = mutated
            .node_ids()
            .find(|&id| {
                matches!(mutated.kind(id),
                    NodeKind::Gate { kind: GateKind::Xor, inputs } if inputs.len() == 2)
            })
            .unwrap();
        let NodeKind::Gate { inputs, .. } = mutated.kind(target).clone() else { unreachable!() };
        mutated.replace_gate(target, GateKind::Xnor, inputs).unwrap();
        let resim = inc.resim(&mutated, &[target]).unwrap();
        // The cone crossed a register boundary.
        assert!(resim.cone.iter().any(|&id| matches!(mutated.kind(id), NodeKind::Dff { .. })));
        let full = IncrementalSim::record(&mutated, &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
        for (ci, &id) in resim.cone.iter().enumerate() {
            assert_eq!(
                &resim.updates[ci * resim.blocks..(ci + 1) * resim.blocks],
                full.value_words(id),
                "cone value words diverged at {id}"
            );
        }
    }

    #[test]
    fn appended_register_joins_the_cone() {
        // Retiming-style edit: insert a flip-flop on an internal net and
        // repoint a reader at it.
        let nl = adder(4);
        let stream = stream_for(&nl, 41, 140);
        let inc = IncrementalSim::record(&nl, &stream).unwrap();
        let mut mutated = nl.clone();
        let target = mutated
            .node_ids()
            .find(|&id| {
                matches!(mutated.kind(id),
                    NodeKind::Gate { kind: GateKind::Or, inputs } if inputs.len() == 2)
            })
            .unwrap();
        let NodeKind::Gate { kind, inputs } = mutated.kind(target).clone() else { unreachable!() };
        let q = mutated.dff(inputs[0], false);
        let mut ins = inputs;
        ins[0] = q;
        mutated.replace_gate(target, kind, ins).unwrap();
        let resim = inc.resim(&mutated, &[target]).unwrap();
        assert!(resim.cone.contains(&q));
        let full = IncrementalSim::record(&mutated, &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
    }

    #[test]
    fn commit_chains_mutations() {
        let nl = adder(4);
        let lib = Library::default();
        let stream = stream_for(&nl, 9, 150);
        let mut inc = IncrementalSim::record(&nl, &stream).unwrap();
        let mut current = nl.clone();
        // Two successive mutations, committing each; the cache must track.
        for flip in 0..2usize {
            let target = current
                .node_ids()
                .filter(|&id| {
                    matches!(current.kind(id),
                        NodeKind::Gate { kind: GateKind::And, inputs } if inputs.len() == 2)
                })
                .nth(flip)
                .unwrap();
            let NodeKind::Gate { inputs, .. } = current.kind(target).clone() else {
                unreachable!()
            };
            let mut mutated = current.clone();
            mutated.replace_gate(target, GateKind::Nand, inputs).unwrap();
            let resim = inc.resim(&mutated, &[target]).unwrap();
            inc.commit(&mutated, &resim);
            current = mutated;
        }
        let full = IncrementalSim::record(&current, &stream).unwrap();
        assert_eq!(inc.activity(), full.activity());
        assert_eq!(
            inc.activity().power(&current, &lib).total_power_uw().to_bits(),
            full.activity().power(&current, &lib).total_power_uw().to_bits()
        );
    }

    #[test]
    fn resim_into_reuses_buffers_across_candidates() {
        let nl = adder(5);
        let stream = stream_for(&nl, 13, 120);
        let inc = IncrementalSim::record(&nl, &stream).unwrap();
        let mut scratch = ResimScratch::default();
        let mut out = ConeResim::default();
        let targets: Vec<NodeId> = nl
            .node_ids()
            .filter(|&id| {
                matches!(nl.kind(id),
                    NodeKind::Gate { kind: GateKind::And, inputs } if inputs.len() == 2)
            })
            .take(3)
            .collect();
        for &target in &targets {
            let mut mutated = nl.clone();
            let NodeKind::Gate { inputs, .. } = nl.kind(target).clone() else { unreachable!() };
            mutated.replace_gate(target, GateKind::Nand, inputs).unwrap();
            inc.resim_into(&mutated, &[target], &mut scratch, &mut out).unwrap();
            let full = IncrementalSim::record(&mutated, &stream).unwrap();
            assert_eq!(out.activity, full.activity(), "buffer reuse corrupted {target}");
            assert!(out.words_replayed() > 0);
        }
    }

    #[test]
    fn appended_logic_joins_the_cone() {
        let nl = adder(4);
        let stream = stream_for(&nl, 21, 90);
        let inc = IncrementalSim::record(&nl, &stream).unwrap();
        // Append an inverter chain and repoint an existing gate at it.
        let mut mutated = nl.clone();
        let a0 = mutated.inputs()[0];
        let inv = mutated.not(a0);
        let target = mutated
            .node_ids()
            .find(|&id| {
                matches!(mutated.kind(id),
                    NodeKind::Gate { kind: GateKind::Or, inputs } if inputs.len() == 2)
            })
            .unwrap();
        let NodeKind::Gate { inputs, .. } = mutated.kind(target).clone() else { unreachable!() };
        mutated.replace_gate(target, GateKind::Or, vec![inputs[0], inv]).unwrap();
        let resim = inc.resim(&mutated, &[target]).unwrap();
        assert!(resim.cone.contains(&inv));
        let full = IncrementalSim::record(&mutated, &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
    }

    #[test]
    fn undeclared_edits_and_bad_bases_are_rejected() {
        let nl = adder(4);
        let stream = stream_for(&nl, 5, 70);
        let inc = IncrementalSim::record(&nl, &stream).unwrap();
        // Undeclared edit.
        let mut sneaky = nl.clone();
        let target = sneaky
            .node_ids()
            .find(|&id| {
                matches!(sneaky.kind(id),
                    NodeKind::Gate { kind: GateKind::And, inputs } if inputs.len() == 2)
            })
            .unwrap();
        let NodeKind::Gate { inputs, .. } = sneaky.kind(target).clone() else { unreachable!() };
        sneaky.replace_gate(target, GateKind::Nand, inputs).unwrap();
        assert!(matches!(inc.resim(&sneaky, &[]), Err(NetlistError::IncrementalMismatch { .. })));
        // Different inputs.
        let mut extra_input = nl.clone();
        extra_input.input("z");
        assert!(matches!(
            inc.resim(&extra_input, &[]),
            Err(NetlistError::IncrementalMismatch { .. })
        ));
        // A rewiring that introduces a cycle surfaces as such.
        let mut cyclic = nl.clone();
        let NodeKind::Gate { inputs, kind } = cyclic.kind(target).clone() else { unreachable!() };
        let downstream = NodeId(cyclic.node_count() as u32 - 1);
        cyclic.replace_gate(target, kind, vec![inputs[0], downstream]).unwrap();
        assert!(matches!(
            inc.resim(&cyclic, &[target]),
            Err(NetlistError::CombinationalCycle { .. })
        ));
        // A sequential base whose pre-existing register set is edited
        // under the table is rejected.
        let seq = registered_adder(3);
        let seq_stream = stream_for(&seq, 7, 60);
        let seq_inc = IncrementalSim::record(&seq, &seq_stream).unwrap();
        let mut retuned = seq.clone();
        let q = retuned.dffs()[0];
        let NodeKind::Dff { d, .. } = *retuned.kind(q) else { unreachable!() };
        retuned.connect_dff_d(q, d); // no-op rewire keeps structure equal
        assert!(seq_inc.resim(&retuned, &[]).is_ok());
        let other_d = retuned.inputs()[1];
        retuned.connect_dff_d(q, other_d);
        assert!(matches!(
            seq_inc.resim(&retuned, &[]),
            Err(NetlistError::IncrementalMismatch { .. })
        ));
    }
}
