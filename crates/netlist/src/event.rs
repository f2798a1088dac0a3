//! Event-driven, real-delay simulation capturing glitches.
//!
//! The zero-delay simulator in [`crate::ZeroDelaySim`] counts at most one
//! transition per node per cycle. Real circuits also produce *glitches*
//! (spurious transitions caused by unequal path delays) which can dominate
//! power in arithmetic circuits; the survey's retiming and guarded-evaluation
//! sections depend on them. This simulator propagates events under the
//! library's transport-delay model, counting every transition.
//!
//! [`EventDrivenSim`] is the scalar reference engine; the compiled
//! [`WideTimedSim`](crate::WideTimedSim) reproduces its per-lane results
//! bit-for-bit at 64, 256 or 512 lanes per word and much higher
//! throughput.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hlpower_obs::metrics as obs;

use crate::error::NetlistError;
use crate::library::Library;
use crate::netlist::{Netlist, NodeId, NodeKind};
use crate::power::PowerReport;
use crate::sim::Activity;

/// Activity record with glitch decomposition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimedActivity {
    /// All transitions per node (functional + glitches).
    pub activity: Activity,
    /// Functional (zero-delay) transitions per node; `activity.toggles -
    /// functional` is the per-node glitch count.
    pub functional: Vec<u64>,
}

impl TimedActivity {
    /// An all-zero timed-activity record for a netlist.
    pub fn zero(netlist: &Netlist) -> Self {
        TimedActivity {
            activity: Activity::zero(netlist),
            functional: vec![0; netlist.node_count()],
        }
    }

    /// Checks that the functional vector is parallel to the toggle vector.
    fn check_shape(&self) -> Result<(), NetlistError> {
        if self.activity.toggles.len() != self.functional.len() {
            return Err(NetlistError::FunctionalSizeMismatch {
                toggles: self.activity.toggles.len(),
                functional: self.functional.len(),
            });
        }
        Ok(())
    }

    /// Total number of glitch transitions across the circuit.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::FunctionalSizeMismatch`] if the toggle and
    /// functional vectors have different lengths, or
    /// [`NetlistError::GlitchUnderflow`] if any node records more
    /// functional transitions than total transitions (a record assembled
    /// from mismatched runs).
    pub fn total_glitches(&self) -> Result<u64, NetlistError> {
        self.check_shape()?;
        let mut total = 0u64;
        for (node, (&t, &f)) in self.activity.toggles.iter().zip(&self.functional).enumerate() {
            total += t.checked_sub(f).ok_or(NetlistError::GlitchUnderflow {
                node,
                toggles: t,
                functional: f,
            })?;
        }
        Ok(total)
    }

    /// Glitch transitions on one node.
    ///
    /// # Errors
    ///
    /// As [`total_glitches`](Self::total_glitches), for this node.
    pub fn node_glitches(&self, node: NodeId) -> Result<u64, NetlistError> {
        self.check_shape()?;
        let t = self.activity.toggles[node.index()];
        let f = self.functional[node.index()];
        t.checked_sub(f).ok_or(NetlistError::GlitchUnderflow {
            node: node.index(),
            toggles: t,
            functional: f,
        })
    }

    /// Fraction of all transitions that are glitches.
    ///
    /// # Errors
    ///
    /// As [`total_glitches`](Self::total_glitches).
    pub fn glitch_fraction(&self) -> Result<f64, NetlistError> {
        let glitches = self.total_glitches()?;
        let total: u64 = self.activity.toggles.iter().sum();
        if total == 0 {
            Ok(0.0)
        } else {
            Ok(glitches as f64 / total as f64)
        }
    }

    /// Sum of glitch counts with per-node saturation, for contexts (metric
    /// flushes) that must not fail on a malformed record.
    pub(crate) fn total_glitches_saturating(&self) -> u64 {
        self.activity.toggles.iter().zip(&self.functional).map(|(&t, &f)| t.saturating_sub(f)).sum()
    }

    /// Merges another timed-activity record (same netlist) into this one.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ActivitySizeMismatch`] or
    /// [`NetlistError::FunctionalSizeMismatch`] if the records disagree in
    /// shape; `self` is left unchanged in that case.
    pub fn merge(&mut self, other: &TimedActivity) -> Result<(), NetlistError> {
        self.check_shape()?;
        other.check_shape()?;
        self.activity.merge(&other.activity)?;
        for (t, o) in self.functional.iter_mut().zip(&other.functional) {
            *t += o;
        }
        Ok(())
    }

    /// Converts the (glitch-inclusive) activity into a power report.
    pub fn power(&self, netlist: &Netlist, lib: &Library) -> PowerReport {
        self.activity.power(netlist, lib)
    }
}

/// Per-gate transport delays derived from a library (0 for non-gates):
/// each gate's delay rounded to whole picoseconds and at least 1 (an
/// event never reschedules at its own timestamp).
pub(crate) fn gate_delays_ps(netlist: &Netlist, lib: &Library) -> Vec<u64> {
    netlist
        .node_ids()
        .map(|id| match netlist.kind(id) {
            NodeKind::Gate { kind, inputs } => {
                lib.gate_delay_ps(*kind, inputs.len()).round().max(1.0) as u64
            }
            _ => 0,
        })
        .collect()
}

/// An event-driven simulator with per-gate transport delays.
///
/// Each [`step`](EventDrivenSim::step) models one clock cycle: primary
/// inputs and flip-flop outputs change at time zero, and the resulting
/// events propagate through the gates in timestamp order. All transitions —
/// including glitches — are counted.
#[derive(Debug, Clone)]
pub struct EventDrivenSim<'a> {
    netlist: &'a Netlist,
    fanouts: Vec<Vec<NodeId>>,
    delays: Vec<u64>,
    values: Vec<bool>,
    dff_next: Vec<bool>,
    toggles: Vec<u64>,
    functional: Vec<u64>,
    cycles: u64,
    initialized: bool,
    order: Vec<NodeId>,
    /// Heap entries pushed during the last step (one per changed fanin of
    /// a changed node; dedup diagnostics for the in-file tests).
    events_scheduled: u64,
    /// Unique `(time, node)` evaluations performed during the last step.
    events_processed: u64,
}

impl<'a> EventDrivenSim<'a> {
    /// Creates an event-driven simulator for `netlist` under `lib`'s delay
    /// model.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// network is cyclic.
    pub fn new(netlist: &'a Netlist, lib: &Library) -> Result<Self, NetlistError> {
        let order = netlist.topo_order()?;
        let mut values = netlist.power_on_values();
        let dff_next = netlist.dffs().iter().map(|q| values[q.index()]).collect();
        // Settle the combinational network so the initial state is
        // consistent (all-false inputs, flip-flops at their init values);
        // otherwise the first input changes would propagate through stale
        // gate values.
        for &id in &order {
            if let NodeKind::Gate { kind, inputs } = netlist.kind(id) {
                values[id.index()] = kind.eval_with(inputs, |f| values[f.index()]);
            }
        }
        Ok(EventDrivenSim {
            netlist,
            fanouts: netlist.fanouts(),
            delays: gate_delays_ps(netlist, lib),
            values,
            dff_next,
            toggles: vec![0; netlist.node_count()],
            functional: vec![0; netlist.node_count()],
            cycles: 0,
            initialized: false,
            order,
            events_scheduled: 0,
            events_processed: 0,
        })
    }

    /// A node's value re-evaluated from its fan-ins' current values (a
    /// non-gate keeps its value).
    fn eval_gate(&self, id: NodeId) -> bool {
        match self.netlist.kind(id) {
            NodeKind::Gate { kind, inputs } => kind.eval_with(inputs, |f| self.values[f.index()]),
            _ => self.values[id.index()],
        }
    }

    /// Simulates one clock cycle with the given input vector.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if `inputs` does not
    /// have one bit per primary input.
    pub fn step(&mut self, inputs: &[bool]) -> Result<(), NetlistError> {
        if inputs.len() != self.netlist.input_count() {
            return Err(NetlistError::InputWidthMismatch {
                got: inputs.len(),
                expected: self.netlist.input_count(),
            });
        }
        let count = self.initialized;
        // Record functional transitions by diffing stable states: snapshot
        // old stable values of gates first.
        let old_values = self.values.clone();

        let mut scheduled = 0u64;
        let mut heap: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
        let nl = self.netlist;
        // Flips `node` to `new` at time `t`: counts the transition and
        // schedules every gate reading `node` at `t` plus that gate's own
        // delay.
        macro_rules! flip {
            ($node:expr, $new:expr, $t:expr) => {
                let (node, t) = ($node, $t);
                self.values[node.index()] = $new;
                if count {
                    self.toggles[node.index()] += 1;
                }
                for &f in &self.fanouts[node.index()] {
                    if matches!(nl.kind(f), NodeKind::Gate { .. }) {
                        heap.push(Reverse((t + self.delays[f.index()], f)));
                        scheduled += 1;
                    }
                }
            };
        }
        // Time-zero events: DFF outputs, then primary inputs.
        let time_zero = nl.dffs().iter().zip(&self.dff_next).chain(nl.inputs().iter().zip(inputs));
        for (&node, &new) in time_zero {
            if self.values[node.index()] != new {
                flip!(node, new, 0);
            }
        }
        // Queue depth after the time-zero schedule: how bursty this cycle's
        // stimulus is (purely observational, never read back).
        obs::SIM_EV_QUEUE_DEPTH.record(heap.len() as u64);
        // Propagate events in time order (transport delay: every scheduled
        // evaluation re-reads current fanin values).
        let mut events = 0u64;
        while let Some(Reverse((t, id))) = heap.pop() {
            // Coalesce duplicate (time, node) entries: one entry was pushed
            // per changed fanin, but fanin values only change when an event
            // at a *later* timestamp fires (delays are >= 1), so the extra
            // evaluations of the same gate at the same time are no-ops.
            while heap.peek() == Some(&Reverse((t, id))) {
                heap.pop();
            }
            events += 1;
            let new = self.eval_gate(id);
            if new != self.values[id.index()] {
                flip!(id, new, t);
            }
        }
        self.events_scheduled = scheduled;
        self.events_processed = events;
        obs::SIM_EV_STEPS.inc();
        obs::SIM_EV_EVENTS.add(events);
        // Functional transition accounting: stable-state diff.
        if count {
            for &id in &self.order {
                if old_values[id.index()] != self.values[id.index()] {
                    self.functional[id.index()] += 1;
                }
            }
            self.cycles += 1;
        }
        // Sample D inputs at the (next) clock edge.
        for (i, &q) in self.netlist.dffs().iter().enumerate() {
            if let NodeKind::Dff { d, .. } = self.netlist.kind(q) {
                self.dff_next[i] = self.values[d.index()];
            }
        }
        self.initialized = true;
        Ok(())
    }

    /// Current value of a node.
    pub fn value(&self, node: NodeId) -> bool {
        self.values[node.index()]
    }

    /// Current primary-output values.
    pub fn output_values(&self) -> Vec<bool> {
        self.netlist.outputs().iter().map(|&(_, n)| self.values[n.index()]).collect()
    }

    /// Runs over a stream of vectors and returns the timed activity.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] from the failing step
    /// if any vector's width does not match the input count. (Earlier
    /// versions silently truncated the run instead, under-reporting power
    /// with no signal.)
    pub fn run(
        &mut self,
        stream: impl IntoIterator<Item = Vec<bool>>,
    ) -> Result<TimedActivity, NetlistError> {
        for v in stream {
            self.step(&v)?;
        }
        Ok(self.take_activity())
    }

    /// Returns the accumulated activity, resetting the counters.
    pub fn take_activity(&mut self) -> TimedActivity {
        let toggles = std::mem::replace(&mut self.toggles, vec![0; self.netlist.node_count()]);
        let functional =
            std::mem::replace(&mut self.functional, vec![0; self.netlist.node_count()]);
        let cycles = self.cycles;
        self.cycles = 0;
        let timed = TimedActivity { activity: Activity { toggles, cycles }, functional };
        obs::SIM_EV_CYCLES.add(cycles);
        obs::SIM_EV_TRANSITIONS.add(timed.activity.toggles.iter().sum::<u64>());
        obs::SIM_EV_GLITCHES.add(timed.total_glitches_saturating());
        timed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;
    use crate::netlist::Netlist;
    use crate::sim::ZeroDelaySim;

    /// A classic glitch generator: y = a AND (NOT a) settles to 0 but
    /// produces a pulse when `a` rises (the AND sees the new `a` before the
    /// inverted one).
    fn glitcher() -> (Netlist, NodeId) {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let na = nl.not(a);
        // Lengthen the inverting path to widen the hazard window.
        let na2 = nl.buf(na);
        let na3 = nl.buf(na2);
        let y = nl.and([a, na3]);
        nl.set_output("y", y);
        (nl, y)
    }

    fn ripple8() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", 4);
        let b = nl.input_bus("b", 4);
        let zero = nl.constant(false);
        let sum = crate::gen::ripple_adder(&mut nl, &a, &b, zero);
        nl.output_bus("s", &sum);
        nl
    }

    /// One step of the pre-dedup event loop: every duplicate `(time, node)`
    /// heap entry is popped and re-evaluated individually. Used as the
    /// reference to show that coalescing duplicates preserves the activity
    /// while strictly reducing the event count.
    fn step_naive(sim: &mut EventDrivenSim<'_>, inputs: &[bool]) -> u64 {
        assert_eq!(inputs.len(), sim.netlist.input_count());
        let count = sim.initialized;
        let old_values = sim.values.clone();
        let mut heap: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
        for (i, &q) in sim.netlist.dffs().iter().enumerate() {
            let new = sim.dff_next[i];
            if sim.values[q.index()] != new {
                sim.values[q.index()] = new;
                if count {
                    sim.toggles[q.index()] += 1;
                }
                for &f in &sim.fanouts[q.index()] {
                    if matches!(sim.netlist.kind(f), NodeKind::Gate { .. }) {
                        heap.push(Reverse((sim.delays[f.index()], f)));
                    }
                }
            }
        }
        for (i, &inp) in sim.netlist.inputs().iter().enumerate() {
            if sim.values[inp.index()] != inputs[i] {
                sim.values[inp.index()] = inputs[i];
                if count {
                    sim.toggles[inp.index()] += 1;
                }
                for &f in &sim.fanouts[inp.index()] {
                    if matches!(sim.netlist.kind(f), NodeKind::Gate { .. }) {
                        heap.push(Reverse((sim.delays[f.index()], f)));
                    }
                }
            }
        }
        let mut events = 0u64;
        while let Some(Reverse((t, id))) = heap.pop() {
            events += 1;
            let new = sim.eval_gate(id);
            if new != sim.values[id.index()] {
                sim.values[id.index()] = new;
                if count {
                    sim.toggles[id.index()] += 1;
                }
                for &f in &sim.fanouts[id.index()] {
                    if matches!(sim.netlist.kind(f), NodeKind::Gate { .. }) {
                        heap.push(Reverse((t + sim.delays[f.index()], f)));
                    }
                }
            }
        }
        if count {
            for &id in &sim.order.clone() {
                if old_values[id.index()] != sim.values[id.index()] {
                    sim.functional[id.index()] += 1;
                }
            }
            sim.cycles += 1;
        }
        for (i, &q) in sim.netlist.dffs().iter().enumerate() {
            if let NodeKind::Dff { d, .. } = sim.netlist.kind(q) {
                sim.dff_next[i] = sim.values[d.index()];
            }
        }
        sim.initialized = true;
        events
    }

    #[test]
    fn static_hazard_is_counted_as_glitch() {
        let (nl, y) = glitcher();
        let lib = Library::default();
        let mut sim = EventDrivenSim::new(&nl, &lib).unwrap();
        sim.step(&[false]).unwrap();
        sim.step(&[true]).unwrap(); // rising edge: glitch pulse on y
        let act = sim.take_activity();
        // y stays functionally 0 but glitched (two transitions: 0->1->0).
        assert_eq!(act.functional[y.index()], 0);
        assert_eq!(act.activity.toggles[y.index()], 2);
        assert_eq!(act.node_glitches(y).unwrap(), 2);
    }

    #[test]
    fn settles_to_functional_values() {
        let (nl, _) = glitcher();
        let lib = Library::default();
        let mut ev = EventDrivenSim::new(&nl, &lib).unwrap();
        let mut zd = ZeroDelaySim::new(&nl).unwrap();
        for v in [false, true, true, false, true] {
            ev.step(&[v]).unwrap();
            zd.step(&[v]).unwrap();
            assert_eq!(ev.output_values(), zd.output_values());
        }
    }

    #[test]
    fn event_toggles_at_least_functional() {
        // On a random-ish circuit: event-driven counts >= zero-delay counts.
        let nl = ripple8();
        let lib = Library::default();
        let mut ev = EventDrivenSim::new(&nl, &lib).unwrap();
        let vecs: Vec<Vec<bool>> = crate::streams::random(3, nl.input_count()).take(50).collect();
        let timed = ev.run(vecs.clone()).unwrap();
        let mut zd = ZeroDelaySim::new(&nl).unwrap();
        let plain = zd.run(vecs).unwrap();
        let ev_total: u64 = timed.activity.toggles.iter().sum();
        let zd_total: u64 = plain.toggles.iter().sum();
        assert!(ev_total >= zd_total);
        // Functional decomposition must match the zero-delay simulator.
        assert_eq!(timed.functional, plain.toggles);
    }

    #[test]
    fn glitch_fraction_bounded() {
        let (nl, _) = glitcher();
        let lib = Library::default();
        let mut sim = EventDrivenSim::new(&nl, &lib).unwrap();
        let t = sim.run(crate::streams::random(11, 1).take(200)).unwrap();
        let f = t.glitch_fraction().unwrap();
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn run_propagates_width_mismatch_instead_of_truncating() {
        let nl = ripple8();
        let lib = Library::default();
        let mut sim = EventDrivenSim::new(&nl, &lib).unwrap();
        let mut vecs: Vec<Vec<bool>> =
            crate::streams::random(5, nl.input_count()).take(10).collect();
        vecs.push(vec![true; nl.input_count() + 1]); // poison the tail
        let err = sim.run(vecs);
        assert!(
            matches!(err, Err(NetlistError::InputWidthMismatch { got, expected })
                if got == nl.input_count() + 1 && expected == nl.input_count()),
            "got {err:?}"
        );
    }

    #[test]
    fn glitch_underflow_is_a_structured_error_not_a_wrap() {
        let nl = ripple8();
        let lib = Library::default();
        let mut sim = EventDrivenSim::new(&nl, &lib).unwrap();
        let mut timed = sim.run(crate::streams::random(7, nl.input_count()).take(30)).unwrap();
        // Corrupt the record the way a mismatched merge would: more
        // functional transitions than total transitions on node 0.
        timed.functional[0] = timed.activity.toggles[0] + 5;
        let id = nl.node_ids().next().unwrap();
        assert!(matches!(
            timed.node_glitches(id),
            Err(NetlistError::GlitchUnderflow { node: 0, .. })
        ));
        assert!(matches!(
            timed.total_glitches(),
            Err(NetlistError::GlitchUnderflow { node: 0, .. })
        ));
        assert!(matches!(
            timed.glitch_fraction(),
            Err(NetlistError::GlitchUnderflow { node: 0, .. })
        ));
        // The saturating path (metric flushes) clamps instead of failing.
        let sat = timed.total_glitches_saturating();
        let rest: u64 = timed
            .activity
            .toggles
            .iter()
            .zip(&timed.functional)
            .skip(1)
            .map(|(&t, &f)| t - f)
            .sum();
        assert_eq!(sat, rest);
    }

    #[test]
    fn mismatched_functional_length_is_a_structured_error() {
        let nl = ripple8();
        let timed = TimedActivity {
            activity: Activity::zero(&nl),
            functional: vec![0; nl.node_count() + 2],
        };
        assert!(matches!(
            timed.total_glitches(),
            Err(NetlistError::FunctionalSizeMismatch { toggles, functional })
                if toggles == nl.node_count() && functional == nl.node_count() + 2
        ));
        let mut ok = TimedActivity::zero(&nl);
        assert!(ok.merge(&timed).is_err());
    }

    #[test]
    fn merge_accumulates_both_counter_sets() {
        let nl = ripple8();
        let lib = Library::default();
        let w = nl.input_count();
        let vecs: Vec<Vec<bool>> = crate::streams::random(21, w).take(60).collect();
        // One 60-vector run == merge of two 30-vector runs on one simulator
        // instance (state carries across take_activity).
        let mut sim = EventDrivenSim::new(&nl, &lib).unwrap();
        let whole = sim.run(vecs.clone()).unwrap();
        let mut sim2 = EventDrivenSim::new(&nl, &lib).unwrap();
        let first = sim2.run(vecs[..30].to_vec()).unwrap();
        let second = sim2.run(vecs[30..].to_vec()).unwrap();
        let mut merged = TimedActivity::zero(&nl);
        merged.merge(&first).unwrap();
        merged.merge(&second).unwrap();
        // Simulator state (values, initialized flag) carries across
        // `take_activity`, so the two-part run is the whole run exactly.
        assert_eq!(merged, whole);
    }

    #[test]
    fn dedup_preserves_activity_and_strictly_reduces_events() {
        let nl = ripple8();
        let lib = Library::default();
        let vecs: Vec<Vec<bool>> = crate::streams::random(13, nl.input_count()).take(80).collect();
        let mut deduped = EventDrivenSim::new(&nl, &lib).unwrap();
        let mut naive = EventDrivenSim::new(&nl, &lib).unwrap();
        let mut deduped_events = 0u64;
        let mut naive_events = 0u64;
        for v in &vecs {
            deduped.step(v).unwrap();
            deduped_events += deduped.events_processed;
            naive_events += step_naive(&mut naive, v);
            assert_eq!(deduped.values, naive.values, "states diverged");
        }
        let a = deduped.take_activity();
        let b = naive.take_activity();
        assert_eq!(a, b, "dedup changed the timed activity");
        assert!(
            deduped_events < naive_events,
            "expected strictly fewer unique events ({deduped_events}) than naive heap pops \
             ({naive_events}) on the ripple adder"
        );
    }
}
