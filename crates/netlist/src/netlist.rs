//! Structural netlist representation.

use std::collections::HashMap;
use std::fmt;

use crate::cone::refill;
use crate::error::NetlistError;
use crate::ingest::emit::split_bus_bit;
use crate::library::{GateKind, Library};

/// Identifier of a node (net driver) within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index of this node in the netlist's node arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a named power-accounting group.
///
/// Groups let a caller attribute switched capacitance to design components
/// (e.g. "execution units" vs "control logic" as in the survey's Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId(pub(crate) u32);

/// A bus is an ordered list of nodes, least-significant bit first.
pub type Bus = Vec<NodeId>;

/// The functional kind of a netlist node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A constant driver.
    Const(bool),
    /// A primary input.
    Input,
    /// A combinational gate over the listed fanins.
    Gate {
        /// The logic function.
        kind: GateKind,
        /// Fanin nodes, in pin order.
        inputs: Vec<NodeId>,
    },
    /// A rising-edge D flip-flop. Its output is a sequential boundary: the
    /// value of `d` sampled at the previous clock edge.
    Dff {
        /// Data input node.
        d: NodeId,
        /// Power-on value.
        init: bool,
    },
}

impl NodeKind {
    /// The nodes this one reads: a gate's input pins or a flip-flop's D
    /// pin (empty for sources).
    pub(crate) fn fanins(&self) -> &[NodeId] {
        match self {
            NodeKind::Gate { inputs, .. } => inputs,
            NodeKind::Dff { d, .. } => std::slice::from_ref(d),
            NodeKind::Const(_) | NodeKind::Input => &[],
        }
    }
}

/// Reusable working memory of [`Netlist::topo_into`]: the CSR fanout
/// graph it builds (all reader edges, flip-flop D pins included) and the
/// Kahn worklist. `order` holds the result.
#[derive(Debug, Clone, Default)]
pub(crate) struct TopoScratch {
    fan_start: Vec<u32>,
    fan: Vec<u32>,
    /// Scatter cursor for the CSR build.
    cursor: Vec<u32>,
    indeg: Vec<u32>,
    stack: Vec<u32>,
    pub(crate) order: Vec<NodeId>,
}

impl TopoScratch {
    /// The nodes reading node `u`, in node-index order.
    pub(crate) fn readers(&self, u: usize) -> &[u32] {
        &self.fan[self.fan_start[u] as usize..self.fan_start[u + 1] as usize]
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Node {
    pub(crate) kind: NodeKind,
    pub(crate) name: Option<String>,
    pub(crate) group: Option<GroupId>,
}

/// A gate-level netlist: an arena of nodes (constants, primary inputs,
/// combinational gates, flip-flops) with named primary outputs.
///
/// Netlists are built incrementally through the gate constructor methods and
/// are then analyzed/simulated in place. Construction methods validate gate
/// arity eagerly; combinational cycles are detected when an evaluation order
/// is first requested.
///
/// # Example
///
/// ```
/// use hlpower_netlist::Netlist;
///
/// let mut nl = Netlist::new();
/// let a = nl.input("a");
/// let b = nl.input("b");
/// let y = nl.and([a, b]);
/// nl.set_output("y", y);
/// assert_eq!(nl.gate_count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Netlist {
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<(String, NodeId)>,
    dffs: Vec<NodeId>,
    groups: Vec<String>,
    default_group: Option<GroupId>,
    /// Each declared port name (`base` for a bus bit `base[k]`, else the
    /// full name): whether it declares inputs, and a bus's bit indices,
    /// sorted.
    ports: HashMap<String, (bool, Option<Vec<u64>>)>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    fn push(&mut self, kind: NodeKind, name: Option<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { kind, name, group: self.default_group });
        id
    }

    /// Adds a named primary input and returns its node.
    ///
    /// # Panics
    ///
    /// Panics if the name clashes with a port already declared (see
    /// [`check_port`](Self::check_port)).
    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        self.declare_port(&name, true);
        let id = self.push(NodeKind::Input, Some(name));
        self.inputs.push(id);
        id
    }

    /// Checks that a port named `name`, an input if `input`, can be
    /// declared, so that [`crate::emit_verilog`] does not declare one name
    /// twice: no port has that name, and a declared name (`base` for a bus
    /// bit `base[k]`, else the full name) is shared only by bus bits of one
    /// direction.
    ///
    /// # Errors
    ///
    /// Returns a message naming the clash.
    pub fn check_port(&self, name: &str, input: bool) -> Result<(), String> {
        let (base, bit) = split_bus_bit(name).map_or((name, None), |(base, k)| (base, Some(k)));
        let clash = match (self.ports.get(base), bit) {
            (None, _) => false,
            (Some((was_input, Some(bits))), Some(k)) => {
                *was_input != input || bits.binary_search(&k).is_ok()
            }
            _ => true,
        };
        match clash {
            true => Err(format!("port '{name}' is declared twice")),
            false => Ok(()),
        }
    }

    /// Records a port declaration, panicking on a clash.
    fn declare_port(&mut self, name: &str, input: bool) {
        if let Err(clash) = self.check_port(name, input) {
            panic!("{clash}");
        }
        let Some((base, k)) = split_bus_bit(name) else {
            self.ports.insert(name.to_string(), (input, None));
            return;
        };
        let bits = self.ports.entry(base.to_string()).or_insert((input, Some(Vec::new())));
        let bits = bits.1.as_mut().expect("a bus entry");
        let at = bits.partition_point(|&b| b < k);
        bits.insert(at, k);
    }

    /// Adds a bus of `width` primary inputs named `name[0]..name[width-1]`,
    /// least-significant bit first.
    pub fn input_bus(&mut self, name: &str, width: usize) -> Bus {
        (0..width).map(|i| self.input(format!("{name}[{i}]"))).collect()
    }

    /// Adds (or reuses) a constant driver.
    pub fn constant(&mut self, value: bool) -> NodeId {
        // Reuse an existing constant node if one exists.
        for (i, n) in self.nodes.iter().enumerate() {
            if n.kind == NodeKind::Const(value) {
                return NodeId(i as u32);
            }
        }
        self.push(NodeKind::Const(value), None)
    }

    /// Adds a combinational gate of the given kind.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] if the number of inputs
    /// violates the gate kind's arity.
    pub fn gate(
        &mut self,
        kind: GateKind,
        inputs: impl IntoIterator<Item = NodeId>,
    ) -> Result<NodeId, NetlistError> {
        let inputs: Vec<NodeId> = inputs.into_iter().collect();
        let min = kind.min_arity();
        let ok = if kind.is_variadic() { inputs.len() >= min } else { inputs.len() == min };
        if !ok {
            return Err(NetlistError::ArityMismatch {
                gate: kind.name(),
                got: inputs.len(),
                expected: min,
            });
        }
        Ok(self.push(NodeKind::Gate { kind, inputs }, None))
    }

    fn gate_infallible(&mut self, kind: GateKind, inputs: Vec<NodeId>) -> NodeId {
        self.gate(kind, inputs).expect("arity checked by caller")
    }

    /// N-input AND gate.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two inputs are supplied.
    pub fn and(&mut self, inputs: impl IntoIterator<Item = NodeId>) -> NodeId {
        self.gate_infallible(GateKind::And, inputs.into_iter().collect())
    }

    /// N-input OR gate.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two inputs are supplied.
    pub fn or(&mut self, inputs: impl IntoIterator<Item = NodeId>) -> NodeId {
        self.gate_infallible(GateKind::Or, inputs.into_iter().collect())
    }

    /// N-input NAND gate.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two inputs are supplied.
    pub fn nand(&mut self, inputs: impl IntoIterator<Item = NodeId>) -> NodeId {
        self.gate_infallible(GateKind::Nand, inputs.into_iter().collect())
    }

    /// N-input NOR gate.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two inputs are supplied.
    pub fn nor(&mut self, inputs: impl IntoIterator<Item = NodeId>) -> NodeId {
        self.gate_infallible(GateKind::Nor, inputs.into_iter().collect())
    }

    /// N-input XOR (odd parity) gate.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two inputs are supplied.
    pub fn xor(&mut self, inputs: impl IntoIterator<Item = NodeId>) -> NodeId {
        self.gate_infallible(GateKind::Xor, inputs.into_iter().collect())
    }

    /// N-input XNOR (even parity) gate.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two inputs are supplied.
    pub fn xnor(&mut self, inputs: impl IntoIterator<Item = NodeId>) -> NodeId {
        self.gate_infallible(GateKind::Xnor, inputs.into_iter().collect())
    }

    /// Inverter.
    pub fn not(&mut self, input: NodeId) -> NodeId {
        self.gate_infallible(GateKind::Not, vec![input])
    }

    /// Buffer.
    pub fn buf(&mut self, input: NodeId) -> NodeId {
        self.gate_infallible(GateKind::Buf, vec![input])
    }

    /// 2:1 multiplexer: returns `a` when `sel` is false, `b` when true.
    pub fn mux(&mut self, sel: NodeId, a: NodeId, b: NodeId) -> NodeId {
        self.gate_infallible(GateKind::Mux, vec![sel, a, b])
    }

    /// Adds a rising-edge D flip-flop with the given data input and power-on
    /// value; returns the flip-flop's output node.
    pub fn dff(&mut self, d: NodeId, init: bool) -> NodeId {
        let id = self.push(NodeKind::Dff { d, init }, None);
        self.dffs.push(id);
        id
    }

    /// Registers a whole bus through flip-flops initialized to zero.
    pub fn dff_bus(&mut self, d: &[NodeId]) -> Bus {
        d.iter().map(|&b| self.dff(b, false)).collect()
    }

    /// Adds a D flip-flop whose data input is not yet known (it temporarily
    /// feeds back from its own output). Use [`connect_dff_d`] to patch in
    /// the real data input once it has been built — this is how sequential
    /// feedback (e.g. FSM state registers) is expressed in an append-only
    /// netlist.
    ///
    /// [`connect_dff_d`]: Netlist::connect_dff_d
    pub fn dff_placeholder(&mut self, init: bool) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Dff { d: id, init },
            name: None,
            group: self.default_group,
        });
        self.dffs.push(id);
        id
    }

    /// Patches the data input of a flip-flop created with
    /// [`dff_placeholder`](Netlist::dff_placeholder).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a flip-flop.
    pub fn connect_dff_d(&mut self, q: NodeId, d: NodeId) {
        match &mut self.nodes[q.index()].kind {
            NodeKind::Dff { d: slot, .. } => *slot = d,
            _ => panic!("connect_dff_d called on non-flip-flop node {q}"),
        }
    }

    /// Rewires an existing combinational gate in place: `node` keeps its
    /// id, name, and group but computes `kind` over `inputs` from now on.
    /// This is the mutation primitive behind dirty-cone incremental
    /// re-simulation ([`crate::IncrementalSim`]) and the local rewrite
    /// optimization passes — the arena stays append-only for everything
    /// else, so downstream node ids remain stable.
    ///
    /// The rewiring is *not* checked for combinational cycles here; a
    /// cycle introduced by pointing an input at a downstream node is
    /// caught by the next [`topo_order`](Netlist::topo_order) (and thus by
    /// every simulator constructor).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] if the number of inputs
    /// violates the gate kind's arity.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a combinational gate (inputs, constants,
    /// and flip-flops have no gate function to replace).
    pub fn replace_gate(
        &mut self,
        node: NodeId,
        kind: GateKind,
        inputs: impl IntoIterator<Item = NodeId>,
    ) -> Result<(), NetlistError> {
        let inputs: Vec<NodeId> = inputs.into_iter().collect();
        let min = kind.min_arity();
        let ok = if kind.is_variadic() { inputs.len() >= min } else { inputs.len() == min };
        if !ok {
            return Err(NetlistError::ArityMismatch {
                gate: kind.name(),
                got: inputs.len(),
                expected: min,
            });
        }
        match &mut self.nodes[node.index()].kind {
            k @ NodeKind::Gate { .. } => *k = NodeKind::Gate { kind, inputs },
            _ => panic!("replace_gate called on non-gate node {node}"),
        }
        Ok(())
    }

    /// Restores a node's functional kind without validation — the undo
    /// primitive of [`crate::NetlistEditor`]'s journal. Only ever called
    /// with a kind that was previously read from the same node.
    pub(crate) fn set_kind_raw(&mut self, node: NodeId, kind: NodeKind) {
        self.nodes[node.index()].kind = kind;
    }

    /// Drops every node appended after the first `nodes` nodes and every
    /// group after the first `groups` — the rollback primitive of
    /// [`crate::NetlistEditor`]. The caller guarantees no surviving node,
    /// output, or input references a truncated id (the editor only
    /// appends gates/flip-flops and never declares new outputs, so undoing
    /// its journaled rewires and output rebinds first restores that
    /// invariant).
    pub(crate) fn truncate_raw(&mut self, nodes: usize, groups: usize) {
        self.nodes.truncate(nodes);
        self.dffs.retain(|q| q.index() < nodes);
        self.groups.truncate(groups);
    }

    /// Repoints an existing primary-output binding — the output-rebind
    /// primitive of [`crate::NetlistEditor`]. The caller guarantees the
    /// index is in range and the node exists.
    pub(crate) fn set_output_node_raw(&mut self, index: usize, node: NodeId) {
        self.outputs[index].1 = node;
    }

    /// Declares a named primary output.
    ///
    /// # Panics
    ///
    /// Panics if the name clashes with a port already declared (see
    /// [`check_port`](Self::check_port)).
    pub fn set_output(&mut self, name: impl Into<String>, node: NodeId) {
        let name = name.into();
        self.declare_port(&name, false);
        self.outputs.push((name, node));
    }

    /// Declares a bus of primary outputs named `name[0]..`.
    pub fn output_bus(&mut self, name: &str, bus: &[NodeId]) {
        for (i, &b) in bus.iter().enumerate() {
            self.set_output(format!("{name}[{i}]"), b);
        }
    }

    /// Creates (or finds) a power-accounting group with the given name.
    pub fn group(&mut self, name: impl Into<String>) -> GroupId {
        let name = name.into();
        if let Some(i) = self.groups.iter().position(|g| *g == name) {
            return GroupId(i as u32);
        }
        self.groups.push(name);
        GroupId((self.groups.len() - 1) as u32)
    }

    /// Sets the group that subsequently created nodes are attributed to.
    /// Pass `None` to stop attributing.
    pub fn set_default_group(&mut self, group: Option<GroupId>) {
        self.default_group = group;
    }

    /// Runs `f` with the default group set to `name`, restoring it after.
    pub fn with_group<T>(&mut self, name: &str, f: impl FnOnce(&mut Netlist) -> T) -> T {
        let g = self.group(name);
        let prev = self.default_group;
        self.default_group = Some(g);
        let out = f(self);
        self.default_group = prev;
        out
    }

    /// Assigns a node to an accounting group.
    pub fn set_node_group(&mut self, node: NodeId, group: GroupId) {
        self.nodes[node.index()].group = Some(group);
    }

    /// The group a node is attributed to, if any.
    pub fn node_group(&self, node: NodeId) -> Option<GroupId> {
        self.nodes[node.index()].group
    }

    /// The name of a group.
    pub fn group_name(&self, group: GroupId) -> &str {
        &self.groups[group.0 as usize]
    }

    /// Number of accounting groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The node's functional kind.
    pub fn kind(&self, node: NodeId) -> &NodeKind {
        &self.nodes[node.index()].kind
    }

    /// The node's name, if it was given one (primary inputs always are).
    pub fn name(&self, node: NodeId) -> Option<&str> {
        self.nodes[node.index()].name.as_deref()
    }

    /// Assigns a debug name to a node.
    pub fn set_name(&mut self, node: NodeId, name: impl Into<String>) {
        self.nodes[node.index()].name = Some(name.into());
    }

    /// Total number of nodes (inputs + constants + gates + flip-flops).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Named primary outputs, in declaration order.
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Primary output nodes, in declaration order.
    pub fn output_nodes(&self) -> Vec<NodeId> {
        self.outputs.iter().map(|&(_, n)| n).collect()
    }

    /// Flip-flop nodes, in creation order.
    pub fn dffs(&self) -> &[NodeId] {
        &self.dffs
    }

    /// Number of combinational gates.
    pub fn gate_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n.kind, NodeKind::Gate { .. })).count()
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Equivalent-gate area of the netlist under a library.
    pub fn area_gates(&self, lib: &Library) -> f64 {
        self.nodes
            .iter()
            .map(|n| match &n.kind {
                NodeKind::Gate { kind, .. } => lib.cell(*kind).area_gates,
                NodeKind::Dff { .. } => lib.dff_area_gates,
                _ => 0.0,
            })
            .sum()
    }

    /// Number of fanout pins of every node (how many gate/flip-flop input
    /// pins each node drives), plus primary-output loads counted separately
    /// by the power model.
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.nodes.len()];
        for n in &self.nodes {
            for i in n.kind.fanins() {
                counts[i.index()] += 1;
            }
        }
        counts
    }

    /// Every node's power-on value before any settling: constants at
    /// their value, flip-flops at their init value, everything else
    /// false.
    pub(crate) fn power_on_values(&self) -> Vec<bool> {
        let on = |kind: &NodeKind| {
            matches!(kind, NodeKind::Const(true) | NodeKind::Dff { init: true, .. })
        };
        self.nodes.iter().map(|n| on(&n.kind)).collect()
    }

    /// Fanout adjacency: for each node, the list of nodes that read it.
    pub fn fanouts(&self) -> Vec<Vec<NodeId>> {
        let mut f = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for inp in n.kind.fanins() {
                f[inp.index()].push(NodeId(i as u32));
            }
        }
        f
    }

    /// Load capacitance (in femtofarads) presented to each node: the sum of
    /// the input-pin capacitances of its fanouts, a statistical wire load,
    /// and pad load for primary outputs.
    pub fn load_caps_ff(&self, lib: &Library) -> Vec<f64> {
        let mut caps = vec![0.0f64; self.nodes.len()];
        let mut fanout_pins = vec![0u32; self.nodes.len()];
        for n in &self.nodes {
            match &n.kind {
                NodeKind::Gate { kind, inputs } => {
                    let pin = lib.cell(*kind).input_cap_ff;
                    for i in inputs {
                        caps[i.index()] += pin;
                        fanout_pins[i.index()] += 1;
                    }
                }
                NodeKind::Dff { d, .. } => {
                    caps[d.index()] += lib.dff_d_cap_ff;
                    fanout_pins[d.index()] += 1;
                }
                _ => {}
            }
        }
        for &(_, o) in &self.outputs {
            caps[o.index()] += lib.output_load_ff;
            fanout_pins[o.index()] += 1;
        }
        for (i, c) in caps.iter_mut().enumerate() {
            if fanout_pins[i] > 0 {
                *c += lib.wire_cap_base_ff + lib.wire_cap_per_fanout_ff * fanout_pins[i] as f64;
            }
        }
        caps
    }

    /// A topological order over the combinational part of the netlist.
    /// Constants, primary inputs and flip-flop outputs are sources; gates
    /// appear after all of their fanins.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the gates form a
    /// cycle (flip-flops legally break cycles).
    pub fn topo_order(&self) -> Result<Vec<NodeId>, NetlistError> {
        let mut scratch = TopoScratch::default();
        self.topo_into(&mut scratch)?;
        Ok(scratch.order)
    }

    /// The topological sort behind [`topo_order`](Self::topo_order), into
    /// reusable buffers: builds the CSR fanout graph, then runs Kahn's
    /// algorithm — non-gates first in index order, then gates as they
    /// become ready (indegree counts gate->gate edges only).
    pub(crate) fn topo_into(&self, s: &mut TopoScratch) -> Result<(), NetlistError> {
        let n = self.nodes.len();
        let is_gate = |i: usize| matches!(self.nodes[i].kind, NodeKind::Gate { .. });
        // CSR fanout graph: count readers per node, prefix-sum, scatter.
        refill(&mut s.fan_start, n + 1, 0u32);
        for node in &self.nodes {
            for f in node.kind.fanins() {
                s.fan_start[f.index() + 1] += 1;
            }
        }
        for i in 0..n {
            s.fan_start[i + 1] += s.fan_start[i];
        }
        refill(&mut s.fan, s.fan_start[n] as usize, 0u32);
        s.cursor.clear();
        s.cursor.extend_from_slice(&s.fan_start[..n]);
        for (i, node) in self.nodes.iter().enumerate() {
            for f in node.kind.fanins() {
                s.fan[s.cursor[f.index()] as usize] = i as u32;
                s.cursor[f.index()] += 1;
            }
        }
        // Kahn's algorithm.
        refill(&mut s.indeg, n, 0u32);
        s.stack.clear();
        s.order.clear();
        s.order.reserve(n);
        let mut gate_total = 0usize;
        for (i, node) in self.nodes.iter().enumerate() {
            match &node.kind {
                NodeKind::Gate { inputs, .. } => {
                    gate_total += 1;
                    s.indeg[i] = inputs.iter().filter(|x| is_gate(x.index())).count() as u32;
                    if s.indeg[i] == 0 {
                        s.stack.push(i as u32);
                    }
                }
                _ => s.order.push(NodeId(i as u32)),
            }
        }
        let mut emitted = 0usize;
        while let Some(u) = s.stack.pop() {
            s.order.push(NodeId(u));
            emitted += 1;
            for k in s.fan_start[u as usize] as usize..s.fan_start[u as usize + 1] as usize {
                let f = s.fan[k] as usize;
                if is_gate(f) {
                    s.indeg[f] -= 1;
                    if s.indeg[f] == 0 {
                        s.stack.push(f as u32);
                    }
                }
            }
        }
        if emitted != gate_total {
            // Report some gate that is still blocked.
            let node = (0..n)
                .find(|&i| is_gate(i) && s.indeg[i] > 0)
                .map(|i| NodeId(i as u32))
                .expect("a blocked gate must exist when the order is incomplete");
            return Err(NetlistError::CombinationalCycle { node });
        }
        Ok(())
    }

    /// Logic depth (number of gates on the longest combinational path).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn logic_depth(&self) -> Result<u32, NetlistError> {
        let order = self.topo_order()?;
        let mut depth = vec![0u32; self.nodes.len()];
        let mut max = 0;
        for id in order {
            if let NodeKind::Gate { inputs, .. } = &self.nodes[id.index()].kind {
                let d = 1 + inputs.iter().map(|i| depth[i.index()]).max().unwrap_or(0);
                depth[id.index()] = d;
                max = max.max(d);
            }
        }
        Ok(max)
    }

    /// Arrival time of each node in picoseconds under the library's delay
    /// model (transport delay, zero input arrival).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn arrival_times_ps(&self, lib: &Library) -> Result<Vec<f64>, NetlistError> {
        let order = self.topo_order()?;
        let mut at = vec![0.0f64; self.nodes.len()];
        for id in order {
            if let NodeKind::Gate { kind, inputs } = &self.nodes[id.index()].kind {
                let worst = inputs.iter().map(|i| at[i.index()]).fold(0.0, f64::max);
                at[id.index()] = worst + lib.gate_delay_ps(*kind, inputs.len());
            }
        }
        Ok(at)
    }

    /// Critical-path delay in picoseconds.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn critical_path_ps(&self, lib: &Library) -> Result<f64, NetlistError> {
        Ok(self.arrival_times_ps(lib)?.into_iter().fold(0.0, f64::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let y = nl.and([a, b]);
        nl.set_output("y", y);
        assert_eq!(nl.input_count(), 2);
        assert_eq!(nl.gate_count(), 1);
        assert_eq!(nl.outputs().len(), 1);
        assert_eq!(nl.name(a), Some("a"));
    }

    #[test]
    fn constants_are_shared() {
        let mut nl = Netlist::new();
        let c1 = nl.constant(true);
        let c2 = nl.constant(true);
        let c3 = nl.constant(false);
        assert_eq!(c1, c2);
        assert_ne!(c1, c3);
    }

    #[test]
    fn arity_validation() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let err = nl.gate(GateKind::And, [a]).unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
        let err = nl.gate(GateKind::Mux, [a, a]).unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
    }

    #[test]
    fn topo_order_is_consistent() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.xor([a, b]);
        let y = nl.and([x, a]);
        let z = nl.or([y, x]);
        nl.set_output("z", z);
        let order = nl.topo_order().unwrap();
        let pos: std::collections::HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        assert!(pos[&x] < pos[&y]);
        assert!(pos[&y] < pos[&z]);
        assert!(pos[&a] < pos[&x]);
    }

    #[test]
    fn dff_breaks_cycles() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        // q feeds back through a gate into its own D input: legal.
        // Build with a placeholder then patch is not supported, so build the
        // feedback with dff-of-gate-of-dff: create dff first via two-step.
        // Here: g = xor(a, q) where q = dff(g). Construct via late binding:
        // netlist nodes are append-only, so make q = dff of a temporary buf
        // chain is impossible; instead test that dff output as gate input
        // topologically sorts (q is a source).
        let q = nl.dff(a, false);
        let g = nl.xor([a, q]);
        nl.set_output("g", g);
        assert!(nl.topo_order().is_ok());
        assert_eq!(nl.dffs().len(), 1);
    }

    #[test]
    fn combinational_cycle_detected() {
        // Hand-craft a cycle by constructing a netlist through the public
        // API is impossible (append-only), which is itself the safety
        // property; verify depth on an acyclic circuit instead and that a
        // diamond has depth 2.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let x = nl.not(a);
        let y = nl.not(a);
        let z = nl.and([x, y]);
        nl.set_output("z", z);
        assert_eq!(nl.logic_depth().unwrap(), 2);
    }

    #[test]
    fn load_caps_reflect_fanout() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.and([a, b]);
        let _y1 = nl.not(x);
        let _y2 = nl.not(x);
        let lib = Library::default();
        let caps = nl.load_caps_ff(&lib);
        // x drives two inverter pins; a drives one AND pin.
        assert!(caps[x.index()] > caps[a.index()]);
    }

    #[test]
    fn groups_attribute_nodes() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let x = nl.with_group("exec", |nl| nl.and([a, b]));
        let y = nl.or([a, b]);
        assert_eq!(nl.group_name(nl.node_group(x).unwrap()), "exec");
        assert!(nl.node_group(y).is_none());
    }

    #[test]
    fn critical_path_grows_with_depth() {
        let lib = Library::default();
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let mut x = nl.and([a, b]);
        let d1 = nl.critical_path_ps(&lib).unwrap();
        for _ in 0..4 {
            x = nl.xor([x, b]);
        }
        nl.set_output("x", x);
        let d2 = nl.critical_path_ps(&lib).unwrap();
        assert!(d2 > d1);
    }
}
