//! Zero-delay (functional) cycle-based simulation with toggle counting.

use hlpower_obs::metrics as obs;

use crate::error::NetlistError;
use crate::library::Library;
use crate::netlist::{Netlist, NodeId, NodeKind};
use crate::power::PowerReport;

/// Per-node toggle counts collected by a simulation run.
///
/// An `Activity` is the common currency between simulators and the power
/// model: both the zero-delay and the event-driven simulator produce one,
/// and [`Activity::power`] converts it into a [`PowerReport`] under a
/// [`Library`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Activity {
    /// Number of output transitions observed per node, indexed by node id.
    pub toggles: Vec<u64>,
    /// Number of clock cycles simulated.
    pub cycles: u64,
}

impl Activity {
    /// An all-zero activity record for a netlist.
    pub fn zero(netlist: &Netlist) -> Self {
        Activity { toggles: vec![0; netlist.node_count()], cycles: 0 }
    }

    /// Average switching activity (transitions per cycle) of a node.
    pub fn node_activity(&self, node: NodeId) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.toggles[node.index()] as f64 / self.cycles as f64
        }
    }

    /// Average switching activity over a set of nodes (e.g. a bus).
    pub fn mean_activity(&self, nodes: &[NodeId]) -> f64 {
        if nodes.is_empty() {
            return 0.0;
        }
        nodes.iter().map(|&n| self.node_activity(n)).sum::<f64>() / nodes.len() as f64
    }

    /// Converts toggle counts into a power report under a library.
    pub fn power(&self, netlist: &Netlist, lib: &Library) -> PowerReport {
        PowerReport::from_activity(netlist, lib, self)
    }

    /// Merges another activity record (same netlist) into this one.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ActivitySizeMismatch`] if the records have
    /// different node counts; `self` is left unchanged in that case.
    pub fn merge(&mut self, other: &Activity) -> Result<(), NetlistError> {
        if self.toggles.len() != other.toggles.len() {
            return Err(NetlistError::ActivitySizeMismatch {
                left: self.toggles.len(),
                right: other.toggles.len(),
            });
        }
        for (t, o) in self.toggles.iter_mut().zip(&other.toggles) {
            *t += o;
        }
        self.cycles += other.cycles;
        Ok(())
    }
}

/// A cycle-based, zero-delay functional simulator.
///
/// Each [`step`](ZeroDelaySim::step) models one clock cycle: flip-flops
/// first present their previously-sampled values, the combinational network
/// settles instantly (no glitches), outputs are read, and flip-flops sample
/// their D inputs for the next cycle. Toggle counts therefore reflect the
/// *zero-delay* switching activity used by most of the survey's macro-model
/// characterization flows.
#[derive(Debug, Clone)]
pub struct ZeroDelaySim<'a> {
    netlist: &'a Netlist,
    order: Vec<NodeId>,
    values: Vec<bool>,
    /// Next-state values latched for each DFF (parallel to `netlist.dffs()`).
    dff_next: Vec<bool>,
    activity: Activity,
    initialized: bool,
    /// Gate count, cached so `step` can bump the evaluation metric once.
    gates_per_step: u64,
}

impl<'a> ZeroDelaySim<'a> {
    /// Creates a simulator, validating that the netlist is acyclic.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// part of the netlist is cyclic.
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        let order = netlist.topo_order()?;
        let values = netlist.power_on_values();
        let dff_next = netlist.dffs().iter().map(|q| values[q.index()]).collect();
        let gates_per_step = netlist.gate_count() as u64;
        Ok(ZeroDelaySim {
            netlist,
            order,
            values,
            dff_next,
            activity: Activity::zero(netlist),
            initialized: false,
            gates_per_step,
        })
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Current value of a node (after the last step).
    pub fn value(&self, node: NodeId) -> bool {
        self.values[node.index()]
    }

    /// Current values of the primary outputs, in declaration order.
    pub fn output_values(&self) -> Vec<bool> {
        self.netlist.outputs().iter().map(|&(_, n)| self.values[n.index()]).collect()
    }

    /// Simulates one clock cycle with the given primary-input vector.
    ///
    /// The first step establishes initial values without counting input
    /// transitions as toggles (there is no "previous" vector yet); every
    /// subsequent step counts transitions on all nodes.
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
        obs::SIM_ZD_STEPS.inc();
        obs::SIM_ZD_GATE_EVALS.add(self.gates_per_step);
        let count = self.initialized;
        // Present DFF outputs (sampled at the previous edge), then apply
        // primary inputs.
        let nl = self.netlist;
        let sources = nl.dffs().iter().zip(&self.dff_next).chain(nl.inputs().iter().zip(inputs));
        for (&node, &new) in sources {
            if count && self.values[node.index()] != new {
                self.activity.toggles[node.index()] += 1;
            }
            self.values[node.index()] = new;
        }
        // Settle combinational logic in topological order.
        for &id in &self.order {
            if let NodeKind::Gate { kind, inputs } = self.netlist.kind(id) {
                let new = kind.eval_with(inputs, |f| self.values[f.index()]);
                if count && self.values[id.index()] != new {
                    self.activity.toggles[id.index()] += 1;
                }
                self.values[id.index()] = new;
            }
        }
        // Sample D inputs for the next cycle.
        for (i, &q) in self.netlist.dffs().iter().enumerate() {
            if let NodeKind::Dff { d, .. } = self.netlist.kind(q) {
                self.dff_next[i] = self.values[d.index()];
            }
        }
        if self.initialized {
            self.activity.cycles += 1;
        }
        self.initialized = true;
        Ok(())
    }

    /// Runs the simulator over a stream of input vectors and returns the
    /// accumulated activity.
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
    ) -> Result<Activity, NetlistError> {
        for v in stream {
            self.step(&v)?;
        }
        Ok(self.take_activity())
    }

    /// Returns the accumulated activity and resets the counter (values and
    /// flip-flop state are preserved so runs can be chained).
    pub fn take_activity(&mut self) -> Activity {
        let mut fresh = Activity::zero(self.netlist);
        std::mem::swap(&mut fresh, &mut self.activity);
        obs::SIM_ZD_CYCLES.add(fresh.cycles);
        obs::SIM_ZD_TOGGLES.add(fresh.toggles.iter().sum::<u64>());
        fresh
    }

    /// Evaluates the netlist once as pure combinational logic (flip-flops
    /// hold their current state) and returns the primary output values.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] on a bad vector width.
    pub fn eval_combinational(&mut self, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
        if inputs.len() != self.netlist.input_count() {
            return Err(NetlistError::InputWidthMismatch {
                got: inputs.len(),
                expected: self.netlist.input_count(),
            });
        }
        obs::SIM_ZD_GATE_EVALS.add(self.gates_per_step);
        for (i, &inp) in self.netlist.inputs().iter().enumerate() {
            self.values[inp.index()] = inputs[i];
        }
        for &id in &self.order {
            if let NodeKind::Gate { kind, inputs } = self.netlist.kind(id) {
                self.values[id.index()] = kind.eval_with(inputs, |f| self.values[f.index()]);
            }
        }
        Ok(self.output_values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    fn xor_circuit() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let y = nl.xor([a, b]);
        nl.set_output("y", y);
        nl
    }

    #[test]
    fn functional_correctness() {
        let nl = xor_circuit();
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            sim.step(&[a, b]).unwrap();
            assert_eq!(sim.output_values(), vec![a ^ b]);
        }
    }

    #[test]
    fn toggle_counting_skips_first_vector() {
        let nl = xor_circuit();
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        sim.step(&[true, false]).unwrap(); // establishes values, no toggles
        sim.step(&[false, false]).unwrap(); // a toggles, y toggles
        let act = sim.take_activity();
        assert_eq!(act.cycles, 1);
        let total: u64 = act.toggles.iter().sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn dff_delays_by_one_cycle() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let q = nl.dff(a, false);
        nl.set_output("q", q);
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        sim.step(&[true]).unwrap();
        assert_eq!(sim.output_values(), vec![false]); // init value
        sim.step(&[false]).unwrap();
        assert_eq!(sim.output_values(), vec![true]); // sampled last cycle
        sim.step(&[false]).unwrap();
        assert_eq!(sim.output_values(), vec![false]);
    }

    #[test]
    fn input_width_is_validated() {
        let nl = xor_circuit();
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        assert!(matches!(
            sim.step(&[true]),
            Err(NetlistError::InputWidthMismatch { got: 1, expected: 2 })
        ));
    }

    #[test]
    fn run_propagates_width_mismatch_instead_of_truncating() {
        let nl = xor_circuit();
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        let vecs = vec![vec![false, true], vec![true]];
        assert!(matches!(
            sim.run(vecs),
            Err(NetlistError::InputWidthMismatch { got: 1, expected: 2 })
        ));
    }

    #[test]
    fn activity_merge_accumulates() {
        let nl = xor_circuit();
        let mut a = Activity::zero(&nl);
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        sim.step(&[false, false]).unwrap();
        sim.step(&[true, false]).unwrap();
        let first = sim.take_activity();
        sim.step(&[false, false]).unwrap();
        let second = sim.take_activity();
        a.merge(&first).unwrap();
        a.merge(&second).unwrap();
        assert_eq!(a.cycles, first.cycles + second.cycles);
    }

    #[test]
    fn activity_merge_rejects_size_mismatch() {
        let nl = xor_circuit();
        let mut a = Activity::zero(&nl);
        a.toggles[0] = 7;
        a.cycles = 3;
        let other = Activity { toggles: vec![0; nl.node_count() + 1], cycles: 9 };
        let err = a.merge(&other);
        assert!(
            matches!(err, Err(NetlistError::ActivitySizeMismatch { left, right })
                if left == nl.node_count() && right == nl.node_count() + 1),
            "got {err:?}"
        );
        // The failed merge must not have modified the destination.
        assert_eq!(a.toggles[0], 7);
        assert_eq!(a.cycles, 3);
    }

    #[test]
    fn constants_never_toggle() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let c = nl.constant(true);
        let y = nl.and([a, c]);
        nl.set_output("y", y);
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        for v in [false, true, false, true] {
            sim.step(&[v]).unwrap();
        }
        let act = sim.take_activity();
        assert_eq!(act.toggles[c.index()], 0);
        assert!(act.toggles[y.index()] > 0);
    }
}
