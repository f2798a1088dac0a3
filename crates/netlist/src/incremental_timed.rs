//! Dirty-cone incremental re-simulation with real delays and glitches.
//!
//! [`crate::IncrementalSim`] answers "what is the *functional* activity of
//! this edited netlist" in time proportional to the edit; the balance and
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
//! and then re-scores an edited variant by replaying *only the dirty
//! cone*: a per-cycle miniature event loop over the cone's gates, with
//! the cone's boundary fan-ins played back from the cached waveforms
//! through the same `(time, node)`-ordered heap discipline as the scalar
//! engine. Because out-of-cone nodes cannot observe the mutation (the
//! cone is forward-closed), their cached waveforms are exact, and the
//! replay reproduces the scalar simulator's event order bit for bit — the
//! resulting [`TimedActivity`] is identical to a from-scratch re-record
//! of the edited netlist, glitch counts and all. The in-file tests and
//! the optimize-crate differential suites lock this in.
//!
//! The settled trajectory, the cone builder, the row diff behind
//! `changed_values` and the commit splice are the dirty-cone core this
//! simulator shares with the untimed one; the event playback below is
//! its own replay. The workflow is the same too:
//! [`record`](IncrementalTimedSim::record) once, then per candidate an
//! [`edit`](IncrementalTimedSim::edit) session on the recorded netlist,
//! [`resim_into`](EditSession::resim_into) with a reusable
//! [`ResimScratch`] + [`TimedConeResim`] pair (rejection is
//! allocation-free once warm), and [`commit`](EditSession::commit) on
//! acceptance or [`rollback`](EditSession::rollback) otherwise.

use std::cmp::Reverse;

use hlpower_obs::metrics as obs;

use crate::cone::{refill, EditSession, Replay, ResimScratch, Trajectory};
use crate::error::NetlistError;
use crate::event::{transport_delay_ps, EventDrivenSim, TimedActivity};
use crate::library::Library;
use crate::netlist::{Netlist, NodeId, NodeKind};
use crate::sim::Activity;

/// One recorded flip: the cycle it happened in and the in-cycle
/// timestamp (picoseconds from the clock edge).
type Flip = (u32, u64);

/// A recorded event-driven simulation of a netlist over a fixed stimulus
/// stream, supporting dirty-cone re-simulation of edits made through
/// [`edit`](Self::edit) sessions, with exact glitch deltas. See the
/// module docs for the workflow.
#[derive(Debug, Clone)]
pub struct IncrementalTimedSim {
    /// The recorded netlist, edited in place by sessions.
    netlist: Netlist,
    cache: Cache,
}

/// Everything the timed recording caches besides the netlist.
#[derive(Debug, Clone)]
struct Cache {
    /// The settled trajectory.
    traj: Trajectory,
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
/// ([`EditSession::resim_into`]): the replayed cone and the
/// edited netlist's full timed activity, bit-identical to a from-scratch
/// event-driven run.
#[derive(Debug, Clone, Default)]
pub struct TimedConeResim {
    /// Every node that was replayed, in topological order.
    pub cone: Vec<NodeId>,
    /// Cone nodes whose settled trajectory differs from the base
    /// recording (appended nodes always count).
    pub changed_values: Vec<NodeId>,
    /// Timed activity of the edited netlist over the recorded stream —
    /// glitches included — bit-identical to a from-scratch
    /// [`IncrementalTimedSim::record`].
    pub activity: TimedActivity,
    /// Settled packed values of the cone, cone-index-major.
    updates: Vec<u64>,
    /// Replayed event waveforms of the cone (for
    /// [`EditSession::commit`]).
    cone_events: Vec<Vec<Flip>>,
    /// Power-on settle values of the cone under the edited netlist.
    cone_init: Vec<bool>,
}

impl TimedConeResim {
    /// Packed `u64` words of settled trajectory this resim recomputed
    /// (`cone × blocks`) — the work metric the `opt_search` section
    /// reports.
    pub fn words_replayed(&self) -> u64 {
        self.updates.len() as u64
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
        obs::SIM_INC_RECORDS.inc();
        Ok(IncrementalTimedSim {
            netlist: netlist.clone(),
            cache: Cache {
                traj,
                lib: lib.clone(),
                init_values,
                events_of,
                toggles: timed.activity.toggles,
                functional: timed.functional,
            },
        })
    }

    /// Starts an edit session on the recorded netlist.
    pub fn edit(&mut self) -> EditSession<'_, TimedConeResim> {
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

    /// Timed activity of the base netlist over the recorded stream,
    /// bit-identical to a scalar [`EventDrivenSim`] run.
    pub fn activity(&self) -> TimedActivity {
        TimedActivity {
            activity: Activity {
                toggles: self.cache.toggles.clone(),
                cycles: (self.vectors() - 1) as u64,
            },
            functional: self.cache.functional.clone(),
        }
    }

    /// The cached settled packed values of a node (bits of the final word
    /// past the last vector are zero).
    pub fn value_words(&self, node: NodeId) -> &[u64] {
        self.cache.traj.row(node.index())
    }
}

impl Replay for Cache {
    type Out = TimedConeResim;

    /// The event-playback replay of the dirty cone.
    fn resim(
        &self,
        netlist: &Netlist,
        changed: &[NodeId],
        scratch: &mut ResimScratch,
        out: &mut TimedConeResim,
    ) -> Result<(), NetlistError> {
        let traj = &self.traj;
        traj.cone_into(netlist, changed, scratch, &mut out.cone, &mut out.updates)?;
        self.replay_cone(netlist, scratch, out);
        traj.finish(netlist, &out.cone, &out.updates, &mut out.changed_values);
        Ok(())
    }

    /// Settled trajectories, event waveforms, and totals of the cone are
    /// replaced, everything else is kept.
    fn commit(&mut self, netlist: &Netlist, resim: &TimedConeResim) {
        let n_new = netlist.node_count();
        debug_assert_eq!(resim.activity.activity.toggles.len(), n_new, "resim is stale");
        self.traj.splice(n_new, &resim.cone, &resim.updates);
        self.events_of.resize_with(n_new, Vec::new);
        self.init_values.resize(n_new, false);
        for (ci, &id) in resim.cone.iter().enumerate() {
            self.events_of[id.index()].clone_from(&resim.cone_events[ci]);
            self.init_values[id.index()] = resim.cone_init[ci];
        }
        self.toggles.clone_from(&resim.activity.activity.toggles);
        self.functional.clone_from(&resim.activity.functional);
    }
}

impl Cache {
    /// The per-cycle miniature event loop over the cone, with boundary
    /// waveform playback. Reproduces the scalar engine's `(time, node)`
    /// pop order exactly: boundary flips are injected as heap entries
    /// carrying their real node ids, so ties at equal timestamps resolve
    /// the same way they did during recording.
    fn replay_cone(&self, netlist: &Netlist, scratch: &mut ResimScratch, out: &mut TimedConeResim) {
        let cone = &out.cone;
        let (blocks, n_base) = (self.traj.blocks, self.traj.nodes());
        // Boundary set: direct out-of-cone fan-ins of cone nodes. Appended
        // nodes are always in the cone, so boundary indices are < n_base.
        refill(&mut scratch.b_index, n_base, usize::MAX);
        scratch.boundary.clear();
        for &id in cone.iter() {
            for &f in netlist.kind(id).fanins() {
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
        // Cone gate delays under the edited netlist (a changed gate kind
        // or arity changes its transport delay).
        refill(&mut scratch.delays, cone.len(), 0u64);
        for (ci, &id) in cone.iter().enumerate() {
            if let NodeKind::Gate { kind, inputs } = netlist.kind(id) {
                scratch.delays[ci] = transport_delay_ps(&self.lib, *kind, inputs.len());
            }
        }
        // Power-on settle of the cone (all-false inputs, registers at
        // init) — the same settle `EventDrivenSim::new` performs, but the
        // cone reads cached init values across the boundary.
        out.cone_init.clear();
        for &id in cone.iter() {
            let v = match netlist.kind(id) {
                NodeKind::Dff { init, .. } => *init,
                NodeKind::Const(v) => *v,
                NodeKind::Input => unreachable!("primary input {id} in the cone"),
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
            if let NodeKind::Dff { init, .. } = netlist.kind(id) {
                scratch.dff_next[ci] = *init;
            }
        }
        // Totals: cached rows for everything outside the cone, replayed
        // rows (accumulated below) for the cone.
        let n_new = netlist.node_count();
        refill(&mut out.activity.activity.toggles, n_new, 0u64);
        out.activity.activity.toggles[..n_base].copy_from_slice(&self.toggles);
        refill(&mut out.activity.functional, n_new, 0u64);
        out.activity.functional[..n_base].copy_from_slice(&self.functional);
        out.activity.activity.cycles = (self.traj.n_vectors - 1) as u64;
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
                    if fc != usize::MAX && matches!(netlist.kind(NodeId(f)), NodeKind::Gate { .. })
                    {
                        scratch.heap.push(Reverse(($base_time + scratch.delays[fc], f)));
                    }
                }
            };
        }

        for s in 0..self.traj.n_vectors {
            let count = s >= 1;
            scratch.heap.clear();
            // Time-zero flips of cone registers (their own Q updates).
            for (ci, &id) in cone.iter().enumerate() {
                if matches!(netlist.kind(id), NodeKind::Dff { .. }) {
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
                let NodeKind::Gate { kind, inputs } = netlist.kind(cone[ci]) else {
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
                if let NodeKind::Dff { d, .. } = netlist.kind(id) {
                    let fc = scratch.update_of[d.index()];
                    scratch.dff_next[ci] = if fc != usize::MAX {
                        scratch.cur[fc]
                    } else {
                        scratch.bvals[scratch.b_index[d.index()]]
                    };
                }
            }
        }
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
    fn resim(s: &EditSession<'_, TimedConeResim>) -> TimedConeResim {
        let mut out = TimedConeResim::default();
        s.resim_into(&mut ResimScratch::default(), &mut out).unwrap();
        out
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
        let mut inc = IncrementalTimedSim::record(&nl, &lib, &stream).unwrap();
        let target = nth_gate(&nl, GateKind::Xor, 0);
        let mut s = inc.edit();
        s.replace_gate(target, GateKind::Xnor, fanins(&nl, target)).unwrap();
        let resim = resim(&s);
        let full = IncrementalTimedSim::record(s.netlist(), &lib, &stream).unwrap();
        assert_eq!(resim.activity, full.activity(), "timed activity (incl. glitches) diverged");
        assert!(resim.activity.total_glitches().unwrap() > 0, "adder cones should glitch");
        for (&id, row) in resim.cone.iter().zip(resim.updates.chunks(stream.len().div_ceil(64))) {
            assert_eq!(row, full.value_words(id), "settled trajectory diverged at {id}");
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
        let mut inc = IncrementalTimedSim::record(&nl, &lib, &stream).unwrap();
        let target = nth_gate(&nl, GateKind::And, 0);
        let mut s = inc.edit();
        let b1 = s.insert_gate(GateKind::Buf, [fanins(&nl, target)[0]]).unwrap();
        let b2 = s.insert_gate(GateKind::Buf, [b1]).unwrap();
        s.rewire_input(target, 0, b2).unwrap();
        let resim = resim(&s);
        assert!(resim.cone.contains(&b1) && resim.cone.contains(&b2));
        let full = IncrementalTimedSim::record(s.netlist(), &lib, &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
    }

    #[test]
    fn register_insertion_cone_matches_full_rerecord() {
        // Retime-style edit: pipeline an internal net through a new
        // flip-flop; the cone crosses the new register cycle to cycle.
        let nl = registered_adder(4);
        let lib = Library::default();
        let stream = stream_for(&nl, 37, 150);
        let mut inc = IncrementalTimedSim::record(&nl, &lib, &stream).unwrap();
        let target = nth_gate(&nl, GateKind::Or, 0);
        let mut s = inc.edit();
        let q = s.insert_dff(fanins(&nl, target)[0], false).unwrap();
        s.rewire_input(target, 0, q).unwrap();
        let resim = resim(&s);
        assert!(resim.cone.contains(&q));
        let full = IncrementalTimedSim::record(s.netlist(), &lib, &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
    }

    #[test]
    fn commit_chains_timed_mutations() {
        let nl = adder(4);
        let lib = Library::default();
        let stream = stream_for(&nl, 9, 120);
        let mut inc = IncrementalTimedSim::record(&nl, &lib, &stream).unwrap();
        for flip in 0..2usize {
            let target = nth_gate(inc.base(), GateKind::And, flip);
            let ins = fanins(inc.base(), target);
            let mut s = inc.edit();
            s.replace_gate(target, GateKind::Nand, ins).unwrap();
            let resim = resim(&s);
            s.commit(&resim);
        }
        let full = IncrementalTimedSim::record(inc.base(), &lib, &stream).unwrap();
        assert_eq!(inc.activity(), full.activity());
    }

    #[test]
    fn resim_into_reuses_buffers_across_candidates() {
        let nl = adder(5);
        let lib = Library::default();
        let stream = stream_for(&nl, 13, 100);
        let mut inc = IncrementalTimedSim::record(&nl, &lib, &stream).unwrap();
        let mut scratch = ResimScratch::default();
        let mut out = TimedConeResim::default();
        for nth in 0..3 {
            let target = nth_gate(&nl, GateKind::Or, nth);
            let mut s = inc.edit();
            s.replace_gate(target, GateKind::Nor, fanins(&nl, target)).unwrap();
            s.resim_into(&mut scratch, &mut out).unwrap();
            let full = IncrementalTimedSim::record(s.netlist(), &lib, &stream).unwrap();
            assert_eq!(out.activity, full.activity(), "buffer reuse corrupted {target}");
            assert!(out.words_replayed() > 0);
            s.rollback();
        }
    }
}
