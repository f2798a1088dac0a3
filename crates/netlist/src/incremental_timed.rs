//! Dirty-cone incremental re-simulation with real delays and glitches.
//!
//! [`crate::IncrementalSim`] answers "what is the *functional* activity of
//! this mutated netlist" in time proportional to the edit; the balance and
//! retiming passes need the same question answered under the transport-
//! delay model, where the quantity of interest is the *glitch* delta of a
//! candidate buffer insertion or register move. [`IncrementalTimedSim`]
//! provides that: it records one full event-driven simulation
//! ([`crate::EventDrivenSim`]) of the base netlist, caching
//!
//! * every node's settled per-cycle trajectory (packed 64 cycles/word,
//!   the same register-boundary snapshots as the untimed recording),
//! * every node's **event waveform** — the `(cycle, time_ps)` list of its
//!   actual value flips, glitches included, and
//! * the per-node toggle/functional totals,
//!
//! and then re-scores a mutated variant by replaying *only the dirty
//! cone*: a per-cycle miniature event loop over the cone's gates, with
//! the cone's boundary fan-ins played back from the cached waveforms
//! through the same `(time, node)`-ordered heap discipline as the scalar
//! engine. Because out-of-cone nodes cannot observe the mutation (the
//! cone is forward-closed), their cached waveforms are exact, and the
//! replay reproduces the scalar simulator's event order bit for bit — the
//! resulting [`TimedActivity`] is identical to a from-scratch re-record
//! of the mutated netlist, glitch counts and all. The in-file tests and
//! the optimize-crate differential suites lock this in.
//!
//! The settled trajectory, the incremental-edit checks, the cone builder,
//! the row diff behind `changed_values` and the commit splice are the
//! dirty-cone core this simulator shares with the untimed one; the event
//! playback below is its own replay. The workflow is the same too:
//! [`record`](IncrementalTimedSim::record) once,
//! [`resim_into`](IncrementalTimedSim::resim_into) per candidate with a
//! reusable [`ResimScratch`] + [`TimedConeResim`] pair (rejection is
//! allocation-free once warm), [`commit`](IncrementalTimedSim::commit)
//! on acceptance.

use std::cmp::Reverse;

use crate::cone::{refill, Recording, ResimScratch, Trajectory};
use crate::error::NetlistError;
use crate::event::{transport_delay_ps, EventDrivenSim, TimedActivity};
use crate::library::Library;
use crate::netlist::{Netlist, NodeId, NodeKind};
use crate::sim::Activity;

/// One recorded flip: the cycle it happened in and the in-cycle
/// timestamp (picoseconds from the clock edge).
type Flip = (u32, u64);

/// A recorded event-driven simulation of a netlist over a fixed stimulus
/// stream, supporting dirty-cone re-simulation of mutated variants with
/// exact glitch deltas. See the module docs for the workflow.
#[derive(Debug, Clone)]
pub struct IncrementalTimedSim {
    /// The settled trajectory and the netlist it belongs to.
    rec: Recording,
    lib: Library,
    /// Power-on settle values (all-false inputs, registers at init).
    init_values: Vec<bool>,
    /// Per-node event waveforms: every value flip of the recording, in
    /// chronological order. This is what boundary playback reads.
    events_of: Vec<Vec<Flip>>,
    /// Cached totals of the base recording.
    toggles: Vec<u64>,
    functional: Vec<u64>,
}

/// The outcome of one timed dirty-cone re-simulation
/// ([`IncrementalTimedSim::resim`]): the replayed cone and the mutated
/// netlist's full timed activity, bit-identical to a from-scratch
/// event-driven run.
#[derive(Debug, Clone, Default)]
pub struct TimedConeResim {
    /// Every node that was replayed, in topological order.
    pub cone: Vec<NodeId>,
    /// Cone nodes whose settled trajectory differs from the base
    /// recording (appended nodes always count).
    pub changed_values: Vec<NodeId>,
    /// Timed activity of the mutated netlist over the recorded stream —
    /// glitches included — bit-identical to a from-scratch
    /// [`IncrementalTimedSim::record`].
    pub activity: TimedActivity,
    /// Settled packed values of the cone, cone-index-major.
    updates: Vec<u64>,
    blocks: usize,
    /// Replayed event waveforms of the cone (for
    /// [`IncrementalTimedSim::commit`]).
    cone_events: Vec<Vec<Flip>>,
    /// Power-on settle values of the cone under the mutated netlist.
    cone_init: Vec<bool>,
}

impl TimedConeResim {
    /// Packed `u64` words of settled trajectory this resim recomputed
    /// (`cone × blocks`) — the work metric the `opt_search` section
    /// reports.
    pub fn words_replayed(&self) -> u64 {
        (self.cone.len() * self.blocks) as u64
    }
}

impl IncrementalTimedSim {
    /// Records a full event-driven simulation of `netlist` over `stream`
    /// under `lib`'s delay model, caching settled trajectories and event
    /// waveforms for later dirty-cone re-simulation.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::EmptyStream`],
    /// [`NetlistError::InputWidthMismatch`], or
    /// [`NetlistError::CombinationalCycle`] as the scalar engine would.
    pub fn record(
        netlist: &Netlist,
        lib: &Library,
        stream: &[Vec<bool>],
    ) -> Result<Self, NetlistError> {
        if stream.is_empty() {
            return Err(NetlistError::EmptyStream);
        }
        let n = netlist.node_count();
        let mut sim = EventDrivenSim::new(netlist, lib)?;
        let init_values = sim.values_raw().to_vec();
        let mut traj = Trajectory::zeroed(n, stream.len());
        let mut events_of: Vec<Vec<Flip>> = vec![Vec::new(); n];
        let mut trace: Vec<(u64, u32)> = Vec::new();
        for (c, v) in stream.iter().enumerate() {
            trace.clear();
            sim.step_traced(v, &mut trace)?;
            for &(t, node) in &trace {
                events_of[node as usize].push((c as u32, t));
            }
            traj.pack(c, sim.values_raw());
        }
        let timed = sim.take_activity();
        Ok(IncrementalTimedSim {
            rec: Recording::new(netlist, traj),
            lib: lib.clone(),
            init_values,
            events_of,
            toggles: timed.activity.toggles,
            functional: timed.functional,
        })
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

    /// Timed activity of the base netlist over the recorded stream,
    /// bit-identical to a scalar [`EventDrivenSim`] run.
    pub fn activity(&self) -> TimedActivity {
        TimedActivity {
            activity: Activity {
                toggles: self.toggles.clone(),
                cycles: (self.vectors() - 1) as u64,
            },
            functional: self.functional.clone(),
        }
    }

    /// The cached settled packed values of a node.
    pub fn value_words(&self, node: NodeId) -> &[u64] {
        self.rec.traj.row(node.index())
    }

    /// Re-simulates a mutated variant, allocating fresh buffers. Searches
    /// should prefer [`resim_into`](Self::resim_into).
    ///
    /// # Errors
    ///
    /// As [`resim_into`](Self::resim_into).
    pub fn resim(
        &self,
        mutated: &Netlist,
        changed: &[NodeId],
    ) -> Result<TimedConeResim, NetlistError> {
        let mut scratch = ResimScratch::default();
        let mut out = TimedConeResim::default();
        self.resim_into(mutated, changed, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Re-simulates a mutated variant of the base netlist over the
    /// recorded stream with exact glitch accounting, replaying only the
    /// dirty cone. Preconditions on `mutated` are those of
    /// [`crate::IncrementalSim::resim_into`]: an incremental edit with the
    /// same inputs, the pre-existing registers intact, and every
    /// pre-existing diff declared in `changed`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::IncrementalMismatch`] on a violated precondition,
    /// [`NetlistError::CombinationalCycle`] if the edit introduced a
    /// cycle.
    pub fn resim_into(
        &self,
        mutated: &Netlist,
        changed: &[NodeId],
        scratch: &mut ResimScratch,
        out: &mut TimedConeResim,
    ) -> Result<(), NetlistError> {
        self.rec.cone_into(mutated, changed, scratch, &mut out.cone, &mut out.updates)?;
        out.blocks = self.rec.traj.blocks;
        self.replay_cone(mutated, scratch, out)?;
        self.rec.finish(mutated, &out.cone, &out.updates, &mut out.changed_values);
        Ok(())
    }

    /// The per-cycle miniature event loop over the cone, with boundary
    /// waveform playback. Reproduces the scalar engine's `(time, node)`
    /// pop order exactly: boundary flips are injected as heap entries
    /// carrying their real node ids, so ties at equal timestamps resolve
    /// the same way they did during recording.
    fn replay_cone(
        &self,
        mutated: &Netlist,
        scratch: &mut ResimScratch,
        out: &mut TimedConeResim,
    ) -> Result<(), NetlistError> {
        let cone = &out.cone;
        let blocks = self.rec.traj.blocks;
        let n_base = self.rec.base.node_count();
        // Boundary set: direct out-of-cone fan-ins of cone nodes. Appended
        // nodes are always in the cone, so boundary indices are < n_base.
        refill(&mut scratch.b_index, n_base, usize::MAX);
        scratch.boundary.clear();
        for &id in cone.iter() {
            for &f in mutated.kind(id).fanins() {
                if !scratch.in_cone[f.index()] && scratch.b_index[f.index()] == usize::MAX {
                    scratch.b_index[f.index()] = scratch.boundary.len();
                    scratch.boundary.push(f.index() as u32);
                }
            }
        }
        refill(&mut scratch.bvals, scratch.boundary.len(), false);
        refill(&mut scratch.cursors, scratch.boundary.len(), 0usize);
        for (bi, &u) in scratch.boundary.iter().enumerate() {
            scratch.bvals[bi] = self.init_values[u as usize];
        }
        // Cone gate delays under the mutated netlist (a changed gate kind
        // or arity changes its transport delay).
        refill(&mut scratch.delays, cone.len(), 0u64);
        for (ci, &id) in cone.iter().enumerate() {
            if let NodeKind::Gate { kind, inputs } = mutated.kind(id) {
                scratch.delays[ci] = transport_delay_ps(&self.lib, *kind, inputs.len());
            }
        }
        // Power-on settle of the cone (all-false inputs, registers at
        // init) — the same settle `EventDrivenSim::new` performs, but the
        // cone reads cached init values across the boundary.
        out.cone_init.clear();
        for &id in cone.iter() {
            let v = match mutated.kind(id) {
                NodeKind::Dff { init, .. } => *init,
                NodeKind::Const(v) => *v,
                NodeKind::Input => {
                    return Err(NetlistError::IncrementalMismatch {
                        reason: format!("primary input {id} cannot be in the cone"),
                    })
                }
                NodeKind::Gate { kind, inputs } => kind.eval_with(inputs, |f| {
                    let u = scratch.update_of[f.index()];
                    if u != usize::MAX {
                        out.cone_init[u]
                    } else {
                        self.init_values[f.index()]
                    }
                }),
            };
            out.cone_init.push(v);
        }
        scratch.cur.clear();
        scratch.cur.extend_from_slice(&out.cone_init);
        scratch.settled.clear();
        scratch.settled.extend_from_slice(&out.cone_init);
        refill(&mut scratch.dff_next, cone.len(), false);
        for (ci, &id) in cone.iter().enumerate() {
            if let NodeKind::Dff { init, .. } = mutated.kind(id) {
                scratch.dff_next[ci] = *init;
            }
        }
        // Totals: cached rows for everything outside the cone, replayed
        // rows (accumulated below) for the cone.
        let n_new = mutated.node_count();
        refill(&mut out.activity.activity.toggles, n_new, 0u64);
        out.activity.activity.toggles[..n_base].copy_from_slice(&self.toggles);
        refill(&mut out.activity.functional, n_new, 0u64);
        out.activity.functional[..n_base].copy_from_slice(&self.functional);
        out.activity.activity.cycles = (self.vectors() - 1) as u64;
        for &id in cone.iter() {
            out.activity.activity.toggles[id.index()] = 0;
            out.activity.functional[id.index()] = 0;
        }
        for v in &mut out.cone_events {
            v.clear();
        }
        out.cone_events.resize_with(cone.len(), Vec::new);
        // Schedules the in-cone gate readers of `u` at `base_time` plus
        // their own transport delay, mirroring the scalar engine.
        macro_rules! schedule_readers {
            ($u:expr, $base_time:expr) => {
                for &f in scratch.topo.readers($u) {
                    let fc = scratch.update_of[f as usize];
                    if fc != usize::MAX && matches!(mutated.kind(NodeId(f)), NodeKind::Gate { .. })
                    {
                        scratch.heap.push(Reverse(($base_time + scratch.delays[fc], f)));
                    }
                }
            };
        }

        for s in 0..self.vectors() {
            let count = s >= 1;
            scratch.heap.clear();
            // Time-zero flips of cone registers (their own Q updates).
            for (ci, &id) in cone.iter().enumerate() {
                if matches!(mutated.kind(id), NodeKind::Dff { .. }) {
                    let new = scratch.dff_next[ci];
                    if scratch.cur[ci] != new {
                        scratch.cur[ci] = new;
                        if count {
                            out.activity.activity.toggles[id.index()] += 1;
                        }
                        out.cone_events[ci].push((s as u32, 0));
                        schedule_readers!(id.index(), 0);
                    }
                }
            }
            // Boundary playback: inject this cycle's cached flips. Heap
            // ordering by (time, node id) then interleaves them with cone
            // evaluations exactly as the recording interleaved them.
            for (bi, &u) in scratch.boundary.iter().enumerate() {
                let ev = &self.events_of[u as usize];
                while scratch.cursors[bi] < ev.len() && ev[scratch.cursors[bi]].0 == s as u32 {
                    scratch.heap.push(Reverse((ev[scratch.cursors[bi]].1, u)));
                    scratch.cursors[bi] += 1;
                }
            }
            // Drain in time order with the scalar engine's duplicate
            // coalescing.
            while let Some(Reverse((t, u))) = scratch.heap.pop() {
                while scratch.heap.peek() == Some(&Reverse((t, u))) {
                    scratch.heap.pop();
                }
                let ci = scratch.update_of[u as usize];
                if ci == usize::MAX {
                    // Boundary flip playback.
                    let bi = scratch.b_index[u as usize];
                    scratch.bvals[bi] = !scratch.bvals[bi];
                    schedule_readers!(u as usize, t);
                    continue;
                }
                let NodeKind::Gate { kind, inputs } = mutated.kind(cone[ci]) else {
                    // Only gates are ever scheduled.
                    unreachable!("non-gate {} popped from the event heap", cone[ci]);
                };
                let new = kind.eval_with(inputs, |f| {
                    let fc = scratch.update_of[f.index()];
                    if fc != usize::MAX {
                        scratch.cur[fc]
                    } else {
                        scratch.bvals[scratch.b_index[f.index()]]
                    }
                });
                if new != scratch.cur[ci] {
                    scratch.cur[ci] = new;
                    if count {
                        out.activity.activity.toggles[cone[ci].index()] += 1;
                    }
                    out.cone_events[ci].push((s as u32, t));
                    schedule_readers!(u as usize, t);
                }
            }
            // Stable-state accounting: functional diff, settled packing.
            let (b, bit) = (s / 64, s % 64);
            for ci in 0..cone.len() {
                if scratch.settled[ci] != scratch.cur[ci] && count {
                    out.activity.functional[cone[ci].index()] += 1;
                }
                scratch.settled[ci] = scratch.cur[ci];
                out.updates[ci * blocks + b] |= (scratch.cur[ci] as u64) << bit;
            }
            // Sample D inputs of cone registers for the next cycle.
            for (ci, &id) in cone.iter().enumerate() {
                if let NodeKind::Dff { d, .. } = mutated.kind(id) {
                    let fc = scratch.update_of[d.index()];
                    scratch.dff_next[ci] = if fc != usize::MAX {
                        scratch.cur[fc]
                    } else {
                        scratch.bvals[scratch.b_index[d.index()]]
                    };
                }
            }
        }
        Ok(())
    }

    /// Folds an accepted mutation back into the cache in `O(cone)`:
    /// settled trajectories, event waveforms, and totals of the cone are
    /// replaced, everything else is kept, and `mutated` becomes the new
    /// base.
    pub fn commit(&mut self, mutated: &Netlist, resim: &TimedConeResim) {
        let n_new = mutated.node_count();
        debug_assert_eq!(
            resim.activity.activity.toggles.len(),
            n_new,
            "resim is for a different netlist"
        );
        self.rec.commit(mutated, &resim.cone, &resim.updates);
        self.events_of.resize_with(n_new, Vec::new);
        self.init_values.resize(n_new, false);
        for (ci, &id) in resim.cone.iter().enumerate() {
            self.events_of[id.index()].clear();
            self.events_of[id.index()].extend_from_slice(&resim.cone_events[ci]);
            self.init_values[id.index()] = resim.cone_init[ci];
        }
        self.toggles.clear();
        self.toggles.extend_from_slice(&resim.activity.activity.toggles);
        self.functional.clear();
        self.functional.extend_from_slice(&resim.activity.functional);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::GateKind;
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

    fn first_gate(nl: &Netlist, kind: GateKind, arity: usize) -> NodeId {
        nl.node_ids()
            .find(|&id| {
                matches!(nl.kind(id), NodeKind::Gate { kind: k, inputs } if *k == kind && inputs.len() == arity)
            })
            .unwrap()
    }

    #[test]
    fn recording_matches_the_event_driven_oracle() {
        for nl in [adder(5), registered_adder(4)] {
            let lib = Library::default();
            let stream = stream_for(&nl, 19, 130);
            let inc = IncrementalTimedSim::record(&nl, &lib, &stream).unwrap();
            let mut scalar = EventDrivenSim::new(&nl, &lib).unwrap();
            let timed = scalar.run(stream.iter().cloned()).unwrap();
            assert_eq!(inc.activity(), timed);
        }
    }

    #[test]
    fn resim_matches_full_rerecord_with_glitches() {
        let nl = adder(5);
        let lib = Library::default();
        let stream = stream_for(&nl, 3, 160);
        let inc = IncrementalTimedSim::record(&nl, &lib, &stream).unwrap();
        let mut mutated = nl.clone();
        let target = first_gate(&nl, GateKind::Xor, 2);
        let NodeKind::Gate { inputs, .. } = mutated.kind(target).clone() else { unreachable!() };
        mutated.replace_gate(target, GateKind::Xnor, inputs).unwrap();
        let resim = inc.resim(&mutated, &[target]).unwrap();
        let full = IncrementalTimedSim::record(&mutated, &lib, &stream).unwrap();
        assert_eq!(resim.activity, full.activity(), "timed activity (incl. glitches) diverged");
        assert!(resim.activity.total_glitches().unwrap() > 0, "adder cones should glitch");
        for (ci, &id) in resim.cone.iter().enumerate() {
            assert_eq!(
                &resim.updates[ci * resim.blocks..(ci + 1) * resim.blocks],
                full.value_words(id),
                "settled trajectory diverged at {id}"
            );
        }
        assert!(resim.cone.len() < nl.node_count(), "cone should be a strict subset");
    }

    #[test]
    fn buffer_insertion_cone_matches_full_rerecord() {
        // Balance-style edit: lengthen one input path with buffers, which
        // changes glitch timing downstream.
        let nl = adder(4);
        let lib = Library::default();
        let stream = stream_for(&nl, 29, 140);
        let inc = IncrementalTimedSim::record(&nl, &lib, &stream).unwrap();
        let mut mutated = nl.clone();
        let target = first_gate(&nl, GateKind::And, 2);
        let NodeKind::Gate { kind, inputs } = mutated.kind(target).clone() else { unreachable!() };
        let b1 = mutated.buf(inputs[0]);
        let b2 = mutated.buf(b1);
        let mut ins = inputs;
        ins[0] = b2;
        mutated.replace_gate(target, kind, ins).unwrap();
        let resim = inc.resim(&mutated, &[target]).unwrap();
        assert!(resim.cone.contains(&b1) && resim.cone.contains(&b2));
        let full = IncrementalTimedSim::record(&mutated, &lib, &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
    }

    #[test]
    fn register_insertion_cone_matches_full_rerecord() {
        // Retime-style edit: pipeline an internal net through a new
        // flip-flop; the cone crosses the new register cycle to cycle.
        let nl = registered_adder(4);
        let lib = Library::default();
        let stream = stream_for(&nl, 37, 150);
        let inc = IncrementalTimedSim::record(&nl, &lib, &stream).unwrap();
        let mut mutated = nl.clone();
        let target = first_gate(&nl, GateKind::Or, 2);
        let NodeKind::Gate { kind, inputs } = mutated.kind(target).clone() else { unreachable!() };
        let q = mutated.dff(inputs[0], false);
        let mut ins = inputs;
        ins[0] = q;
        mutated.replace_gate(target, kind, ins).unwrap();
        let resim = inc.resim(&mutated, &[target]).unwrap();
        assert!(resim.cone.contains(&q));
        let full = IncrementalTimedSim::record(&mutated, &lib, &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
    }

    #[test]
    fn commit_chains_timed_mutations() {
        let nl = adder(4);
        let lib = Library::default();
        let stream = stream_for(&nl, 9, 120);
        let mut inc = IncrementalTimedSim::record(&nl, &lib, &stream).unwrap();
        let mut current = nl.clone();
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
        let full = IncrementalTimedSim::record(&current, &lib, &stream).unwrap();
        assert_eq!(inc.activity(), full.activity());
    }

    #[test]
    fn resim_into_reuses_buffers_across_candidates() {
        let nl = adder(5);
        let lib = Library::default();
        let stream = stream_for(&nl, 13, 100);
        let inc = IncrementalTimedSim::record(&nl, &lib, &stream).unwrap();
        let mut scratch = ResimScratch::default();
        let mut out = TimedConeResim::default();
        let targets: Vec<NodeId> = nl
            .node_ids()
            .filter(|&id| {
                matches!(nl.kind(id),
                    NodeKind::Gate { kind: GateKind::Or, inputs } if inputs.len() == 2)
            })
            .take(3)
            .collect();
        for &target in &targets {
            let mut mutated = nl.clone();
            let NodeKind::Gate { inputs, .. } = nl.kind(target).clone() else { unreachable!() };
            mutated.replace_gate(target, GateKind::Nor, inputs).unwrap();
            inc.resim_into(&mutated, &[target], &mut scratch, &mut out).unwrap();
            let full = IncrementalTimedSim::record(&mutated, &lib, &stream).unwrap();
            assert_eq!(out.activity, full.activity(), "buffer reuse corrupted {target}");
            assert!(out.words_replayed() > 0);
        }
    }

    #[test]
    fn undeclared_edits_are_rejected() {
        let nl = adder(4);
        let lib = Library::default();
        let stream = stream_for(&nl, 5, 60);
        let inc = IncrementalTimedSim::record(&nl, &lib, &stream).unwrap();
        let mut sneaky = nl.clone();
        let target = first_gate(&nl, GateKind::And, 2);
        let NodeKind::Gate { inputs, .. } = sneaky.kind(target).clone() else { unreachable!() };
        sneaky.replace_gate(target, GateKind::Nand, inputs).unwrap();
        assert!(matches!(inc.resim(&sneaky, &[]), Err(NetlistError::IncrementalMismatch { .. })));
    }
}
