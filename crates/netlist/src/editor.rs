//! In-place, invariant-checked netlist mutation with an undo journal.
//!
//! Optimize passes explore many candidate edits per accepted one. Cloning
//! the whole [`Netlist`] per candidate makes scoring `O(circuit)` before
//! a single gate is re-simulated; [`NetlistEditor`] instead applies the
//! edit *in place*, records exactly what it changed, and can
//! [`rollback`](NetlistEditor::rollback) a rejected candidate in
//! `O(edit)` — the mutation-safe core of the incremental optimization
//! loop. The incremental simulator hands one out per candidate
//! ([`IncrementalSim::edit`]) over the netlist it recorded, and reads its
//! journal as the change set; the glitch-aware passes edit a working copy
//! through one directly and score it with [`crate::timed_activity`].
//!
//! Invariants the editor enforces at each operation:
//!
//! * every fanin id is in range and refers to an existing node;
//! * gate arity matches the gate kind (via the same checks as
//!   [`Netlist::gate`]);
//! * only combinational gates are rewired in place (inputs, constants,
//!   and flip-flops keep their kind), and node ids are stable — "remove"
//!   ties a gate to a constant buffer instead of deleting it;
//! * appended nodes come after every pre-existing node, so the arena
//!   stays append-only and a rollback is a truncation.
//!
//! Combinational cycles are *not* checked per operation (a rewire's
//! legality can depend on later edits of the same candidate); the next
//! simulator construction or session `resim_into` surfaces them as
//! [`NetlistError::CombinationalCycle`].
//!
//! [`IncrementalSim::edit`]: crate::IncrementalSim::edit

use crate::error::NetlistError;
use crate::library::GateKind;
use crate::netlist::{Netlist, NodeId, NodeKind};

/// One journaled, undoable edit.
#[derive(Debug, Clone)]
enum UndoOp {
    /// `node` was a gate with this kind before the edit.
    Rewired { node: NodeId, prev: NodeKind },
    /// The `index`-th primary output was bound to `prev` before the edit.
    OutputRebound { index: usize, prev: NodeId },
}

/// An in-place mutation session over a [`Netlist`]: apply candidate
/// edits, read the change set for dirty-cone re-simulation, then either
/// [`finish`](NetlistEditor::finish) (keep) or
/// [`rollback`](NetlistEditor::rollback) (undo everything, restoring the
/// netlist to structural equality with its pre-session state). Dropping
/// an editor without finishing it rolls it back.
///
/// # Example
///
/// ```
/// use hlpower_netlist::{GateKind, Netlist, NetlistEditor};
///
/// let mut nl = Netlist::new();
/// let a = nl.input("a");
/// let b = nl.input("b");
/// let y = nl.and([a, b]);
/// nl.set_output("y", y);
/// let before = nl.clone();
///
/// let mut ed = NetlistEditor::begin(&mut nl);
/// ed.replace_gate(y, GateKind::Nand, [a, b]).unwrap();
/// assert_eq!(ed.changed(), &[y]);
/// ed.rollback();
/// assert_eq!(nl, before);
/// ```
#[derive(Debug)]
pub struct NetlistEditor<'a> {
    netlist: &'a mut Netlist,
    journal: Vec<UndoOp>,
    /// Node count at `begin`; everything past it was appended here.
    base_nodes: usize,
    /// Group count at `begin`; [`append`](Self::append) may add groups.
    base_groups: usize,
    /// Pre-existing nodes whose function or fanins changed, deduplicated,
    /// in first-edit order.
    changed: Vec<NodeId>,
}

impl<'a> NetlistEditor<'a> {
    /// Starts a mutation session on `netlist`.
    pub fn begin(netlist: &'a mut Netlist) -> Self {
        let (base_nodes, base_groups) = (netlist.node_count(), netlist.group_count());
        NetlistEditor { netlist, journal: Vec::new(), base_nodes, base_groups, changed: Vec::new() }
    }

    /// The netlist in its current (edited) state.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Pre-existing gates whose function or fanins changed so far,
    /// deduplicated — the change set an incremental simulator's edit
    /// session resimulates from. Appended nodes are not listed (the
    /// incremental engine discovers them from the node-count delta).
    pub fn changed(&self) -> &[NodeId] {
        &self.changed
    }

    fn check_fanins(&self, node: Option<NodeId>, inputs: &[NodeId]) -> Result<(), NetlistError> {
        let n = self.netlist.node_count();
        for &f in inputs {
            if f.index() >= n {
                return Err(NetlistError::IncrementalMismatch {
                    reason: format!("fanin {f} is out of range (netlist has {n} nodes)"),
                });
            }
            if Some(f) == node {
                return Err(NetlistError::IncrementalMismatch {
                    reason: format!("gate {f} cannot feed itself combinationally"),
                });
            }
        }
        Ok(())
    }

    /// Records the pre-edit kind of a just-rewired gate. Appended nodes
    /// roll back by truncation; pre-existing ones need their original kind
    /// journaled once (first edit wins, so a rollback replays to the
    /// pre-session state, not an intermediate). Called only after the
    /// mutation succeeded, so a rejected edit journals nothing.
    fn journal_rewire(&mut self, node: NodeId, prev: NodeKind) {
        if node.index() < self.base_nodes && !self.changed.contains(&node) {
            self.journal.push(UndoOp::Rewired { node, prev });
            self.changed.push(node);
        }
    }

    /// Rewires `node` in place to compute `kind` over `inputs`. The node
    /// keeps its id, name, group, and output bindings.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] for a bad input count, or
    /// [`NetlistError::IncrementalMismatch`] if `node` is not a gate, a
    /// fanin is out of range, or a fanin is the node itself.
    pub fn replace_gate(
        &mut self,
        node: NodeId,
        kind: GateKind,
        inputs: impl IntoIterator<Item = NodeId>,
    ) -> Result<(), NetlistError> {
        let inputs: Vec<NodeId> = inputs.into_iter().collect();
        self.check_fanins(Some(node), &inputs)?;
        let prev = match self.netlist.kind(node) {
            g @ NodeKind::Gate { .. } => g.clone(),
            other => {
                return Err(NetlistError::IncrementalMismatch {
                    reason: format!("node {node} is not a combinational gate ({other:?})"),
                })
            }
        };
        self.netlist.replace_gate(node, kind, inputs)?;
        self.journal_rewire(node, prev);
        Ok(())
    }

    /// Repoints one fanin pin of an existing gate at `new_src`, keeping
    /// the gate kind and every other pin.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::IncrementalMismatch`] if `node` is not a
    /// gate, `pin` is out of range, or `new_src` is invalid.
    pub fn rewire_input(
        &mut self,
        node: NodeId,
        pin: usize,
        new_src: NodeId,
    ) -> Result<(), NetlistError> {
        let NodeKind::Gate { kind, inputs } = self.netlist.kind(node) else {
            return Err(NetlistError::IncrementalMismatch {
                reason: format!("node {node} is not a combinational gate"),
            });
        };
        if pin >= inputs.len() {
            return Err(NetlistError::IncrementalMismatch {
                reason: format!("gate {node} has {} pins, no pin {pin}", inputs.len()),
            });
        }
        let (kind, mut ins) = (*kind, inputs.clone());
        ins[pin] = new_src;
        self.replace_gate(node, kind, ins)
    }

    /// Appends a fresh gate over existing nodes and returns its id.
    /// Appended nodes are discovered by the incremental engine from the
    /// node-count delta and vanish on [`rollback`](Self::rollback).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] for a bad input count or
    /// [`NetlistError::IncrementalMismatch`] for an out-of-range fanin.
    pub fn insert_gate(
        &mut self,
        kind: GateKind,
        inputs: impl IntoIterator<Item = NodeId>,
    ) -> Result<NodeId, NetlistError> {
        let inputs: Vec<NodeId> = inputs.into_iter().collect();
        self.check_fanins(None, &inputs)?;
        self.netlist.gate(kind, inputs)
    }

    /// Appends a rising-edge flip-flop fed by `d` (a register-insertion
    /// edit, e.g. a retiming pipeline cut) and returns its output node.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::IncrementalMismatch`] if `d` is out of
    /// range.
    pub fn insert_dff(&mut self, d: NodeId, init: bool) -> Result<NodeId, NetlistError> {
        self.check_fanins(None, &[d])?;
        Ok(self.netlist.dff(d, init))
    }

    /// Repoints the `index`-th primary output binding at `node` — the
    /// boundary step of a register-insertion edit (a retiming cut
    /// registers outputs whose arrival lies below the threshold).
    /// Output bindings carry load capacitance but compute nothing, so a
    /// rebind never joins the [`changed`](Self::changed) set.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::IncrementalMismatch`] if `index` is out
    /// of range or `node` does not exist.
    pub fn rebind_output(&mut self, index: usize, node: NodeId) -> Result<(), NetlistError> {
        self.check_fanins(None, &[node])?;
        let Some(&(_, prev)) = self.netlist.outputs().get(index) else {
            return Err(NetlistError::IncrementalMismatch {
                reason: format!(
                    "netlist has {} outputs, no output {index}",
                    self.netlist.outputs().len()
                ),
            });
        };
        self.netlist.set_output_node_raw(index, node);
        self.journal.push(UndoOp::OutputRebound { index, prev });
        Ok(())
    }

    /// "Removes" a gate by tying it to a constant-false buffer: the id
    /// stays valid (downstream indices are untouched) but the gate stops
    /// toggling and presents no function. The rewrite pass's dead-gate
    /// sweep ties off through this.
    ///
    /// Returns `false` and edits nothing if the gate is still observed
    /// (it has a fanout or an output binding): removing a live gate would
    /// silently change the circuit function.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::IncrementalMismatch`] if `node` is not a
    /// gate.
    pub fn remove_gate(&mut self, node: NodeId) -> Result<bool, NetlistError> {
        if !matches!(self.netlist.kind(node), NodeKind::Gate { .. }) {
            return Err(NetlistError::IncrementalMismatch {
                reason: format!("node {node} is not a combinational gate"),
            });
        }
        let nl = &*self.netlist;
        let read = nl.node_ids().any(|id| nl.kind(id).fanins().contains(&node));
        if read || nl.outputs().iter().any(|&(_, o)| o == node) {
            return Ok(false);
        }
        let tie = self.netlist.constant(false);
        self.replace_gate(node, GateKind::Buf, [tie])?;
        Ok(true)
    }

    /// Runs `f` on the netlist to append nodes, for builders that take a
    /// `&mut Netlist` (such as BDD-to-mux synthesis), and returns its
    /// result. `f` may only append: nodes, flip-flops and accounting
    /// groups. Everything it appends rolls back with the session, group
    /// table included. Debug builds assert that `f` left everything that
    /// existed before the call untouched.
    pub fn append<T>(&mut self, f: impl FnOnce(&mut Netlist) -> T) -> T {
        #[cfg(debug_assertions)]
        let before = self.netlist.clone();
        let out = f(self.netlist);
        #[cfg(debug_assertions)]
        {
            let mut kept = self.netlist.clone();
            kept.truncate_raw(before.node_count(), before.group_count());
            assert!(kept == before, "append edited pre-existing state");
        }
        out
    }

    /// Keeps every edit and ends the session.
    pub fn finish(mut self) {
        // With nothing journaled and nothing past the base, the drop
        // below undoes nothing.
        self.journal.clear();
        (self.base_nodes, self.base_groups) =
            (self.netlist.node_count(), self.netlist.group_count());
    }

    /// Undoes every edit of this session in reverse order: journaled
    /// rewires are restored and appended nodes and groups are truncated
    /// away, leaving the netlist structurally equal (`==`) to its
    /// pre-session state. Dropping the editor does the same.
    pub fn rollback(self) {}
}

impl Drop for NetlistEditor<'_> {
    fn drop(&mut self) {
        for op in self.journal.drain(..).rev() {
            match op {
                UndoOp::Rewired { node, prev } => self.netlist.set_kind_raw(node, prev),
                UndoOp::OutputRebound { index, prev } => {
                    self.netlist.set_output_node_raw(index, prev)
                }
            }
        }
        self.netlist.truncate_raw(self.base_nodes, self.base_groups);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Netlist, NodeId, NodeId, NodeId) {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let y = nl.and([a, b]);
        nl.set_output("y", y);
        (nl, a, b, y)
    }

    #[test]
    fn rollback_restores_structural_equality() {
        let (mut nl, a, b, y) = small();
        let before = nl.clone();
        let mut ed = NetlistEditor::begin(&mut nl);
        ed.replace_gate(y, GateKind::Nand, [a, b]).unwrap();
        let inv = ed.insert_gate(GateKind::Not, [a]).unwrap();
        let q = ed.insert_dff(inv, false).unwrap();
        ed.rewire_input(y, 1, q).unwrap();
        let grouped = ed.append(|nl| nl.with_group("fresh", |nl| nl.or([a, q])));
        ed.rewire_input(y, 0, grouped).unwrap();
        assert_eq!(ed.changed(), &[y]);
        assert_eq!((inv.index(), q.index()), (before.node_count(), before.node_count() + 1));
        ed.rollback();
        assert_eq!(nl, before, "rollback restores nodes, registers and the group table");
        // Dropping an unfinished editor rolls it back too.
        NetlistEditor::begin(&mut nl).replace_gate(y, GateKind::Xor, [a, b]).unwrap();
        assert_eq!(nl, before);
    }

    #[test]
    fn finish_keeps_edits_and_changed_is_deduplicated() {
        let (mut nl, a, b, y) = small();
        let mut ed = NetlistEditor::begin(&mut nl);
        ed.replace_gate(y, GateKind::Or, [a, b]).unwrap();
        ed.replace_gate(y, GateKind::Xor, [a, b]).unwrap();
        assert_eq!(ed.changed(), &[y], "double edit journals once");
        ed.finish();
        assert!(matches!(nl.kind(y), NodeKind::Gate { kind: GateKind::Xor, .. }));
    }

    #[test]
    fn rollback_after_double_edit_restores_the_original() {
        let (mut nl, a, b, y) = small();
        let before = nl.clone();
        let mut ed = NetlistEditor::begin(&mut nl);
        ed.replace_gate(y, GateKind::Or, [a, b]).unwrap();
        ed.rewire_input(y, 0, b).unwrap();
        ed.rollback();
        assert_eq!(nl, before);
    }

    #[test]
    fn structural_validation_rejects_bad_edits() {
        let (mut nl, a, _b, y) = small();
        let before = nl.clone();
        let mut ed = NetlistEditor::begin(&mut nl);
        // Out-of-range fanin.
        let ghost = NodeId(99);
        assert!(matches!(
            ed.replace_gate(y, GateKind::And, [a, ghost]),
            Err(NetlistError::IncrementalMismatch { .. })
        ));
        // Self-loop.
        assert!(matches!(
            ed.replace_gate(y, GateKind::And, [a, y]),
            Err(NetlistError::IncrementalMismatch { .. })
        ));
        // Rewiring a non-gate.
        assert!(matches!(
            ed.replace_gate(a, GateKind::Not, [y]),
            Err(NetlistError::IncrementalMismatch { .. })
        ));
        // Arity violation.
        assert!(matches!(
            ed.replace_gate(y, GateKind::Mux, [a, a]),
            Err(NetlistError::ArityMismatch { .. })
        ));
        // Failed edits edit and journal nothing.
        assert!(ed.changed().is_empty());
        assert_eq!(ed.netlist(), &before);
        ed.rollback();
    }

    #[test]
    fn session_resim_surfaces_cycles() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let g1 = nl.not(a);
        let g2 = nl.not(g1);
        nl.set_output("y", g2);
        let mut inc = crate::IncrementalSim::record(&nl, &[vec![false], vec![true]]).unwrap();
        let mut s = inc.edit();
        s.rewire_input(g1, 0, g2).unwrap();
        let r = s.resim_into(&mut Default::default(), &mut Default::default());
        assert!(matches!(r, Err(NetlistError::CombinationalCycle { .. })));
        s.rollback();
        assert_eq!(inc.base(), &nl);
    }

    #[test]
    fn rebind_output_moves_the_binding_and_rolls_back() {
        let (mut nl, _a, _b, y) = small();
        let before = nl.clone();
        let mut ed = NetlistEditor::begin(&mut nl);
        let q = ed.insert_dff(y, false).unwrap();
        ed.rebind_output(0, q).unwrap();
        assert_eq!(ed.netlist().outputs()[0].1, q);
        assert!(ed.changed().is_empty(), "output rebinds change no node values");
        ed.rollback();
        assert_eq!(nl, before);

        let mut ed = NetlistEditor::begin(&mut nl);
        let q = ed.insert_dff(y, false).unwrap();
        ed.rebind_output(0, q).unwrap();
        assert!(ed.rebind_output(5, q).is_err(), "out-of-range output index");
        ed.finish();
        assert_eq!(nl.outputs()[0].1, q);
        assert_eq!(nl.outputs()[0].0, "y", "rebinding keeps the name");
    }

    #[test]
    fn remove_gate_ties_off_and_rejects_live_gates() {
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let b = nl.input("b");
        let live = nl.and([a, b]);
        let dead = nl.xor([a, b]);
        let dead2 = nl.or([a, b]);
        nl.set_output("y", live);
        let before = nl.clone();
        let mut ed = NetlistEditor::begin(&mut nl);
        assert!(!ed.remove_gate(live).unwrap(), "output-bound gate must not be removable");
        assert_eq!(ed.netlist(), &before, "a refused removal edits nothing");
        assert!(ed.remove_gate(dead).unwrap());
        assert!(ed.remove_gate(dead2).unwrap());
        // The netlist had no constant: the first tie-off appended one and
        // the second reused it.
        let tie = NodeId(before.node_count() as u32);
        assert_eq!(ed.netlist().node_count(), before.node_count() + 1);
        assert!(matches!(ed.netlist().kind(tie), NodeKind::Const(false)));
        assert_eq!(ed.changed(), &[dead, dead2]);
        ed.rollback();
        assert_eq!(nl, before, "rollback restores both gates and drops the constant");

        let mut ed = NetlistEditor::begin(&mut nl);
        assert!(ed.remove_gate(dead).unwrap());
        ed.finish();
        let NodeKind::Gate { kind: GateKind::Buf, inputs } = nl.kind(dead) else {
            panic!("tied-off gate must be a buffer")
        };
        assert!(matches!(nl.kind(inputs[0]), NodeKind::Const(false)));
    }

    #[test]
    fn remove_gate_rejects_non_gates_without_residue() {
        let mut nl = Netlist::new();
        let unread = nl.input("a");
        let before = nl.clone();
        let mut ed = NetlistEditor::begin(&mut nl);
        assert!(matches!(ed.remove_gate(unread), Err(NetlistError::IncrementalMismatch { .. })));
        assert_eq!(ed.netlist(), &before, "a failed removal appends no constant");
        ed.finish();
    }
}
