//! Guarded evaluation (survey §III-I, Fig. 8, reference 105).
//!
//! For an internal signal `z` with observability don't-care set `D_z(X)`,
//! any existing signal `s` with `s ⇒ D_z` can guard the logic cone `F`
//! driving `z`: when `s = 1`, transparent latches at `F`'s inputs hold
//! their values and the cone does not switch — the outputs are unaffected
//! *by construction* of the ODC. The timing condition `t_l(s) < t_e(Y)`
//! ensures the latches close before the cone's inputs move.

use std::collections::{HashMap, HashSet};

use hlpower_bdd::{build_node_bdds, gate_bdd, BddRef};
use hlpower_netlist::{
    hold_word, IncrementalSim, Library, Netlist, NetlistError, NodeId, NodeKind, ZeroDelaySim,
};
use hlpower_obs::metrics as obs;

/// One guarded-evaluation opportunity.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardCandidate {
    /// The guarded signal whose cone is latched.
    pub target: NodeId,
    /// The existing signal used as the guard (asserts when `target` is
    /// unobservable).
    pub guard: NodeId,
    /// Probability that the guard asserts (shutdown fraction) under
    /// uniform inputs.
    pub guard_probability: f64,
    /// Nodes in the guarded cone (the logic that stops switching).
    pub cone: Vec<NodeId>,
    /// Whether the timing condition `t_l(s) < t_e(Y)` holds under the
    /// library's delay model.
    pub timing_ok: bool,
}

/// The transitive fan-in cone of a node (gates only, the node included).
fn cone_of(netlist: &Netlist, target: NodeId) -> Vec<NodeId> {
    let mut seen = HashSet::new();
    let mut stack = vec![target];
    let mut cone = Vec::new();
    while let Some(x) = stack.pop() {
        if !seen.insert(x) {
            continue;
        }
        if let NodeKind::Gate { inputs, .. } = netlist.kind(x) {
            cone.push(x);
            stack.extend(inputs.iter().copied());
        }
    }
    cone
}

/// Finds guarded-evaluation opportunities: for each internal signal with
/// a non-trivial ODC, search the other signals for one that implies it,
/// check timing, and report the candidates ranked by expected saving
/// (guard probability x cone size).
///
/// The netlist's BDDs are built once. For each target, only its forward
/// closure is re-derived, as the cofactor pair `(f|t=0, f|t=1)` of every
/// closure node: `ODC = AND_out XNOR(out|t=0, out|t=1)` over the outputs
/// in the closure. Signals outside the closure keep their shared BDDs.
///
/// # Errors
///
/// Returns a netlist error for cyclic circuits.
pub fn find_candidates(
    netlist: &Netlist,
    lib: &Library,
    max_targets: usize,
) -> Result<Vec<GuardCandidate>, NetlistError> {
    let arrivals = netlist.arrival_times_ps(lib)?;
    let order = netlist.topo_order()?;
    let (mut m, map) = build_node_bdds(netlist)?;
    let gates: Vec<NodeId> = netlist
        .node_ids()
        .filter(|&id| matches!(netlist.kind(id), NodeKind::Gate { .. }))
        .collect();
    // Any existing signal may serve as a guard, including primary inputs
    // (the paper's "a signal s in C"). Built once; the search below only
    // indexes into it.
    let guard_pool: Vec<NodeId> =
        gates.iter().copied().chain(netlist.inputs().iter().copied()).collect();
    let output_set: HashSet<NodeId> = netlist.outputs().iter().map(|&(_, n)| n).collect();
    let mut out = Vec::new();
    // Prefer targets with large cones. `sort_by_cached_key` computes each
    // cone once instead of once per comparison.
    let mut targets: Vec<NodeId> =
        gates.iter().copied().filter(|id| !output_set.contains(id)).collect();
    targets.sort_by_cached_key(|&t| std::cmp::Reverse(cone_of(netlist, t).len()));
    // The current target's forward closure (gates reading it, itself
    // included), each node with its pair `(f|t=0, f|t=1)`.
    let mut closure: HashMap<NodeId, (BddRef, BddRef)> = HashMap::new();
    let (mut lo, mut hi) = (Vec::new(), Vec::new());
    for &target in targets.iter().take(max_targets) {
        closure.clear();
        closure.insert(target, (BddRef::FALSE, BddRef::TRUE));
        for &id in order.iter().skip_while(|&&id| id != target) {
            let NodeKind::Gate { kind, inputs } = netlist.kind(id) else { continue };
            if !inputs.iter().any(|f| closure.contains_key(f)) {
                continue;
            }
            lo.clear();
            hi.clear();
            for f in inputs {
                let (f0, f1) = closure.get(f).copied().unwrap_or((map[f], map[f]));
                lo.push(f0);
                hi.push(f1);
            }
            let pair = (gate_bdd(&mut m, *kind, &lo), gate_bdd(&mut m, *kind, &hi));
            closure.insert(id, pair);
        }
        let mut odc = BddRef::TRUE;
        for (_, o) in netlist.outputs() {
            if let Some(&(f0, f1)) = closure.get(o) {
                let same = m.xnor(f0, f1);
                odc = m.and(odc, same);
            }
        }
        if odc == BddRef::FALSE {
            continue;
        }
        let cone = cone_of(netlist, target);
        let cone_set: HashSet<NodeId> = cone.iter().copied().collect();
        // Earliest switching time of the cone's inputs.
        let t_e = cone
            .iter()
            .flat_map(|&c| match netlist.kind(c) {
                NodeKind::Gate { inputs, .. } => inputs.clone(),
                _ => Vec::new(),
            })
            .filter(|x| !cone_set.contains(x))
            .map(|x| arrivals[x.index()])
            .fold(f64::INFINITY, f64::min);
        let nodc = m.not(odc);
        for &guard in &guard_pool {
            // The guard must lie outside the target's cone and must not
            // read the target (the closure holds the target itself).
            if cone_set.contains(&guard) || closure.contains_key(&guard) {
                continue;
            }
            let s = map[&guard];
            // s implies ODC: s & !ODC == false.
            if m.and(s, nodc) != BddRef::FALSE {
                continue;
            }
            let p = m.sat_fraction(s);
            if p < 0.05 {
                continue;
            }
            let timing_ok = arrivals[guard.index()] < t_e;
            out.push(GuardCandidate {
                target,
                guard,
                guard_probability: p,
                cone: cone.clone(),
                timing_ok,
            });
        }
    }
    out.sort_by(|a, b| {
        let sa = a.guard_probability * a.cone.len() as f64;
        let sb = b.guard_probability * b.cone.len() as f64;
        sb.partial_cmp(&sa).expect("finite")
    });
    Ok(out)
}

/// Per-node switching energy table: load energy plus internal energy for
/// gates, indexed by node id.
fn energy_table(netlist: &Netlist, lib: &Library) -> Vec<f64> {
    let caps = netlist.load_caps_ff(lib);
    netlist
        .node_ids()
        .map(|id| {
            let mut e = lib.switching_energy_fj(caps[id.index()]);
            if let NodeKind::Gate { kind, .. } = netlist.kind(id) {
                e += lib.cell(*kind).internal_energy_fj;
            }
            e
        })
        .collect()
}

/// Energy of integer per-node toggle counts: one dot product in node-index
/// order. Both the from-scratch and the incremental scorer finish through
/// this, so equal integer counts give bit-identical f64 energies.
fn toggle_energy_fj(toggles: &[u64], energy_of: &[f64]) -> f64 {
    toggles.iter().zip(energy_of).map(|(&t, &e)| t as f64 * e).sum()
}

/// Simulates the circuit with guarded evaluation applied to one
/// candidate: on cycles where the guard (computed from current inputs)
/// asserts, the cone's nodes hold their previous values (the transparent
/// latches are opaque) and dissipate nothing; outputs remain correct by
/// the ODC property. Returns `(baseline_energy_fj, guarded_energy_fj,
/// outputs_match)`.
///
/// This is the from-scratch reference scorer: it replays the whole
/// netlist for every call. [`GuardScorer`] produces bit-identical results
/// by replaying only the candidate's dirty region against a recording;
/// both accumulate integer toggle counts and convert to energy with one
/// node-order dot product, so their f64 outputs agree exactly.
///
/// # Errors
///
/// Returns a netlist error for cyclic circuits or width mismatches.
pub fn evaluate(
    netlist: &Netlist,
    lib: &Library,
    candidate: &GuardCandidate,
    stream: &[Vec<bool>],
) -> Result<(f64, f64, bool), NetlistError> {
    let order = netlist.topo_order()?;
    let energy_of = energy_table(netlist, lib);
    let cone_set: HashSet<NodeId> = candidate.cone.iter().copied().collect();

    // Baseline: one full run, integer toggle totals.
    let mut base_sim = ZeroDelaySim::new(netlist)?;
    let mut base_outputs = Vec::new();
    for v in stream {
        base_sim.step(v)?;
        base_outputs.push(base_sim.output_values());
    }
    let base_energy = toggle_energy_fj(&base_sim.take_activity().toggles, &energy_of);

    // Guarded interpretation. The guard's own cone is disjoint from the
    // target cone (checked during candidate search), so it is settled
    // first each cycle to decide the freeze; then one topological pass
    // evaluates everything else, holding the target cone when the guard
    // asserts.
    let guard_cone: HashSet<NodeId> = {
        let mut gc: HashSet<NodeId> = cone_of(netlist, candidate.guard).into_iter().collect();
        gc.insert(candidate.guard);
        gc
    };
    let mut values = vec![false; netlist.node_count()];
    for id in netlist.node_ids() {
        if let NodeKind::Const(c) = netlist.kind(id) {
            values[id.index()] = *c;
        }
    }
    let mut toggles = vec![0u64; netlist.node_count()];
    let mut outputs_match = true;
    let mut first = true;
    for (t, v) in stream.iter().enumerate() {
        // Apply inputs.
        for (i, &inp) in netlist.inputs().iter().enumerate() {
            if !first && values[inp.index()] != v[i] {
                toggles[inp.index()] += 1;
            }
            values[inp.index()] = v[i];
        }
        let mut guard_asserted = false;
        for guard_pass in [true, false] {
            if !guard_pass {
                guard_asserted = values[candidate.guard.index()];
            }
            for &id in &order {
                // Latched target-cone nodes hold their previous value and
                // dissipate nothing.
                if guard_cone.contains(&id) != guard_pass
                    || (guard_asserted && cone_set.contains(&id))
                {
                    continue;
                }
                if let NodeKind::Gate { kind, inputs } = netlist.kind(id) {
                    let new = kind.eval_with(inputs, |f| values[f.index()]);
                    if !first && new != values[id.index()] {
                        toggles[id.index()] += 1;
                    }
                    values[id.index()] = new;
                }
            }
        }
        // Compare outputs.
        let outs: Vec<bool> = netlist.outputs().iter().map(|&(_, n)| values[n.index()]).collect();
        if outs != base_outputs[t] {
            outputs_match = false;
        }
        first = false;
    }
    Ok((base_energy, toggle_energy_fj(&toggles, &energy_of), outputs_match))
}

/// Incremental candidate scorer: records the baseline once with
/// [`IncrementalSim`] and scores each guard candidate by replaying only
/// its *dirty region* — the forward closure of the frozen gates (the
/// target cone minus the guard's own cone) — 64 cycles per word. Every
/// node outside that region provably keeps its baseline values under the
/// guarded interpretation, so its cached toggle counts are reused as-is.
///
/// Scores are bit-identical to [`evaluate`] on the same candidate: both
/// accumulate integer toggle counts and convert them to energy with the
/// same node-order dot product.
#[derive(Debug)]
pub struct GuardScorer {
    inc: IncrementalSim,
    energy_of: Vec<f64>,
    base_toggles: Vec<u64>,
    base_energy_fj: f64,
    order: Vec<NodeId>,
    // Reusable per-candidate scratch: scoring a candidate allocates
    // nothing once these reach steady-state capacity.
    in_cone: Vec<bool>,
    in_guard_cone: Vec<bool>,
    dirty_idx: Vec<u32>,
    dirty: Vec<NodeId>,
    /// Replayed dirty rows, one word per 64-cycle block.
    rows: Vec<u64>,
}

impl GuardScorer {
    /// Records the baseline netlist over the profiling stream.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotCombinational`] for sequential netlists
    /// (the guarded interpretation has no register semantics), or the
    /// usual recording errors for cyclic netlists and bad streams.
    pub fn new(
        netlist: &Netlist,
        lib: &Library,
        stream: &[Vec<bool>],
    ) -> Result<Self, NetlistError> {
        if !netlist.dffs().is_empty() {
            return Err(NetlistError::NotCombinational { dffs: netlist.dffs().len() });
        }
        let inc = IncrementalSim::record(netlist, stream)?;
        let energy_of = energy_table(netlist, lib);
        let base_toggles = inc.activity().toggles;
        let base_energy_fj = toggle_energy_fj(&base_toggles, &energy_of);
        let order = netlist.topo_order()?;
        let n = netlist.node_count();
        Ok(GuardScorer {
            inc,
            energy_of,
            base_toggles,
            base_energy_fj,
            order,
            in_cone: vec![false; n],
            in_guard_cone: vec![false; n],
            dirty_idx: vec![u32::MAX; n],
            dirty: Vec::new(),
            rows: Vec::new(),
        })
    }

    /// The recorded baseline netlist.
    pub fn base(&self) -> &Netlist {
        self.inc.base()
    }

    /// Baseline energy over the recorded stream, in fJ.
    pub fn base_energy_fj(&self) -> f64 {
        self.base_energy_fj
    }

    /// Scores one candidate: `(baseline_energy_fj, guarded_energy_fj,
    /// outputs_match)`, bit-identical to [`evaluate`] on the same inputs.
    ///
    /// The candidate must come from [`find_candidates`] on the recorded
    /// netlist (its node ids index the recording).
    pub fn score(&mut self, candidate: &GuardCandidate) -> (f64, f64, bool) {
        let GuardScorer {
            inc,
            energy_of,
            base_toggles,
            base_energy_fj,
            order,
            in_cone,
            in_guard_cone,
            dirty_idx,
            dirty,
            rows,
        } = self;
        let nl = inc.base();
        for &id in &candidate.cone {
            in_cone[id.index()] = true;
        }
        // The guard's fan-in cone, by one reverse topological sweep:
        // always at baseline values (its gate fanins are transitively
        // inside it, so no frozen gate can feed it).
        in_guard_cone[candidate.guard.index()] = true;
        for &id in order.iter().rev() {
            let NodeKind::Gate { inputs, .. } = nl.kind(id) else { continue };
            if in_guard_cone[id.index()] {
                inputs.iter().for_each(|f| in_guard_cone[f.index()] = true);
            }
        }
        // Dirty region, in topological order: the frozen gates (the
        // target cone minus the guard cone) and every gate reading a
        // dirty node.
        dirty.clear();
        for &id in order.iter() {
            let NodeKind::Gate { inputs, .. } = nl.kind(id) else { continue };
            let frozen = in_cone[id.index()] && !in_guard_cone[id.index()];
            if frozen || inputs.iter().any(|f| dirty_idx[f.index()] != u32::MAX) {
                dirty_idx[id.index()] = dirty.len() as u32;
                dirty.push(id);
            }
        }
        // Packed replay of the dirty region only, 64 cycles per word,
        // reading fanins outside it (the guard included) from the
        // recording. A frozen node recomputes its baseline while the
        // guard is off (its fanin cone is closed down to the inputs) and
        // holds while it is on, from `false` as in `evaluate`.
        let blocks = inc.vectors().div_ceil(64);
        rows.clear();
        rows.resize(dirty.len() * blocks, 0);
        for b in 0..blocks {
            let valid = inc.block_mask(b);
            let guard_on = inc.value_words(candidate.guard)[b];
            for (k, &id) in dirty.iter().enumerate() {
                let w = if in_cone[id.index()] {
                    let carry = b > 0 && rows[k * blocks + b - 1] >> 63 != 0;
                    hold_word(inc.value_words(id)[b], guard_on, carry)
                } else {
                    let NodeKind::Gate { kind, inputs } = nl.kind(id) else {
                        unreachable!("dirty region contains gates only")
                    };
                    kind.eval_word(inputs, |f| {
                        let u = dirty_idx[f.index()];
                        if u != u32::MAX {
                            rows[u as usize * blocks + b]
                        } else {
                            inc.value_words(f)[b]
                        }
                    })
                };
                rows[k * blocks + b] = w & valid;
            }
        }
        let row = |u: u32| &rows[u as usize * blocks..][..blocks];
        let outputs_match = nl.outputs().iter().all(|&(_, o)| {
            let u = dirty_idx[o.index()];
            u == u32::MAX || row(u) == inc.value_words(o)
        });
        // Energy: dirty counts substituted into the cached baseline
        // counts, one dot product in node-index order (the same order
        // `evaluate` uses).
        let mut guarded_energy = 0.0;
        for (i, &e) in energy_of.iter().enumerate() {
            let u = dirty_idx[i];
            let t = if u != u32::MAX { inc.row_toggles(row(u)) } else { base_toggles[i] };
            guarded_energy += t as f64 * e;
        }
        obs::OPT_CANDIDATES_EVALUATED.inc();
        obs::OPT_CONE_SIZE.record(dirty.len() as u64);
        obs::OPT_RESIM_WORDS.add((dirty.len() * blocks) as u64);
        // Clear the per-candidate marks.
        for &id in candidate.cone.iter() {
            in_cone[id.index()] = false;
        }
        in_guard_cone.fill(false);
        for &id in dirty.iter() {
            dirty_idx[id.index()] = u32::MAX;
        }
        (*base_energy_fj, guarded_energy, outputs_match)
    }
}

/// Options for [`search`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardSearchOptions {
    /// Targets examined by candidate discovery. The default doubles the
    /// historical budget of 8: incremental scoring made candidates cheap.
    pub max_targets: usize,
    /// Only consider candidates whose latch-timing condition holds. Off
    /// by default: zero-delay arrival times make the condition vacuously
    /// fail for input-driven guards (`0 < 0`), and each candidate already
    /// reports its own `timing_ok` bit.
    pub require_timing: bool,
}

impl Default for GuardSearchOptions {
    fn default() -> Self {
        GuardSearchOptions { max_targets: 16, require_timing: false }
    }
}

/// Outcome of [`search`].
#[derive(Debug, Clone)]
pub struct GuardSearchOutcome {
    /// Baseline energy over the profiling stream, in fJ.
    pub base_energy_fj: f64,
    /// The best correct, energy-saving candidate and its guarded energy
    /// in fJ, if any candidate saves energy.
    pub best: Option<(GuardCandidate, f64)>,
    /// Candidates scored.
    pub candidates_evaluated: usize,
}

/// Full guarded-evaluation search: discovers candidates, scores every one
/// through the incremental [`GuardScorer`], and returns the best
/// energy-saving candidate whose outputs stayed correct.
///
/// # Errors
///
/// Returns a netlist error for cyclic or sequential circuits and bad
/// streams.
pub fn search(
    netlist: &Netlist,
    lib: &Library,
    stream: &[Vec<bool>],
    opts: &GuardSearchOptions,
) -> Result<GuardSearchOutcome, NetlistError> {
    let candidates = find_candidates(netlist, lib, opts.max_targets)?;
    let mut scorer = GuardScorer::new(netlist, lib, stream)?;
    let mut best: Option<(GuardCandidate, f64)> = None;
    let mut candidates_evaluated = 0usize;
    for c in &candidates {
        if opts.require_timing && !c.timing_ok {
            continue;
        }
        let (_, guarded, ok) = scorer.score(c);
        candidates_evaluated += 1;
        if !ok || guarded >= scorer.base_energy_fj() {
            continue;
        }
        if best.as_ref().is_none_or(|&(_, g)| guarded < g) {
            obs::OPT_CANDIDATES_ACCEPTED.inc();
            best = Some((c.clone(), guarded));
        }
    }
    Ok(GuardSearchOutcome { base_energy_fj: scorer.base_energy_fj(), best, candidates_evaluated })
}

/// A mux-dominated example circuit with a natural guard: `y = sel ? a_fn :
/// b_fn` where `sel` makes one branch unobservable.
pub fn guarded_mux_example(width: usize) -> Netlist {
    let mut nl = Netlist::new();
    let sel = nl.input("sel");
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);
    // Branch A: parity chain (deep cone).
    let mut pa = a[0];
    for &bit in &a[1..] {
        pa = nl.xor([pa, bit]);
    }
    // Branch B: AND-OR tree.
    let mut pb = b[0];
    for &bit in &b[1..] {
        pb = nl.and([pb, bit]);
    }
    let y = nl.mux(sel, pa, pb);
    nl.set_output("y", y);
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlpower_netlist::streams;

    #[test]
    fn finds_mux_guard() {
        let nl = guarded_mux_example(6);
        let lib = Library::default();
        let candidates = find_candidates(&nl, &lib, 8).unwrap();
        assert!(!candidates.is_empty(), "mux select must guard a branch");
        // The guard probability of a select-like guard is ~1/2.
        assert!(candidates.iter().any(|c| (c.guard_probability - 0.5).abs() < 1e-9));
    }

    #[test]
    fn guarded_outputs_stay_correct() {
        let nl = guarded_mux_example(6);
        let lib = Library::default();
        let candidates = find_candidates(&nl, &lib, 8).unwrap();
        let stream: Vec<Vec<bool>> = streams::random(2, nl.input_count()).take(500).collect();
        let best = &candidates[0];
        let (_, _, ok) = evaluate(&nl, &lib, best, &stream).unwrap();
        assert!(ok, "guarded evaluation changed outputs for {best:?}");
    }

    #[test]
    fn guarding_saves_energy() {
        let nl = guarded_mux_example(8);
        let lib = Library::default();
        let candidates = find_candidates(&nl, &lib, 8).unwrap();
        let stream: Vec<Vec<bool>> = streams::random(3, nl.input_count()).take(1500).collect();
        let best = &candidates[0];
        let (base, guarded, ok) = evaluate(&nl, &lib, best, &stream).unwrap();
        assert!(ok);
        assert!(guarded < 0.95 * base, "expected >5% energy saving: {base:.0} -> {guarded:.0}");
    }

    #[test]
    fn incremental_scorer_matches_evaluate_bit_for_bit() {
        let nl = guarded_mux_example(6);
        let lib = Library::default();
        let candidates = find_candidates(&nl, &lib, 8).unwrap();
        assert!(!candidates.is_empty());
        // Each candidate again under a guard that does not imply its ODC
        // (another primary input), so some verdicts are `false`.
        let misguarded: Vec<GuardCandidate> = candidates
            .iter()
            .map(|c| {
                let guard = *nl.inputs().iter().find(|&&i| i != c.guard).unwrap();
                GuardCandidate { guard, ..c.clone() }
            })
            .collect();
        // 300 vectors, plus the block boundaries of the packed replay.
        for len in [300, 1, 63, 64, 65, 129] {
            let stream: Vec<Vec<bool>> = streams::random(9, nl.input_count()).take(len).collect();
            let mut scorer = GuardScorer::new(&nl, &lib, &stream).unwrap();
            for c in candidates.iter().chain(&misguarded) {
                let (base_ref, guarded_ref, ok_ref) = evaluate(&nl, &lib, c, &stream).unwrap();
                let (base, guarded, ok) = scorer.score(c);
                assert_eq!(base.to_bits(), base_ref.to_bits(), "baseline diverged for {c:?}");
                assert_eq!(guarded.to_bits(), guarded_ref.to_bits(), "guarded diverged for {c:?}");
                assert_eq!(ok, ok_ref, "correctness verdict diverged for {c:?}");
            }
        }
    }

    #[test]
    fn scorer_dirty_region_is_smaller_than_the_netlist() {
        // The economy claim: scoring a candidate replays only the frozen
        // cone's forward closure, not the whole netlist.
        let nl = guarded_mux_example(8);
        let lib = Library::default();
        let candidates = find_candidates(&nl, &lib, 8).unwrap();
        let stream: Vec<Vec<bool>> = streams::random(4, nl.input_count()).take(128).collect();
        hlpower_obs::metrics::reset_all();
        let mut scorer = GuardScorer::new(&nl, &lib, &stream).unwrap();
        let best = &candidates[0];
        let _ = scorer.score(best);
        let words = hlpower_obs::metrics::OPT_RESIM_WORDS.get();
        let full = (nl.node_count() * stream.len().div_ceil(64)) as u64;
        assert!(words > 0 && words < full, "dirty replay {words} vs full {full}");
    }

    #[test]
    fn search_returns_a_correct_saving_candidate() {
        let nl = guarded_mux_example(8);
        let lib = Library::default();
        let stream: Vec<Vec<bool>> = streams::random(3, nl.input_count()).take(1024).collect();
        let outcome = search(&nl, &lib, &stream, &GuardSearchOptions::default()).unwrap();
        assert!(outcome.candidates_evaluated > 0);
        let (best, guarded) = outcome.best.expect("the mux select guards a branch");
        assert!(guarded < outcome.base_energy_fj);
        // The chosen candidate re-validates under the from-scratch scorer.
        let (base_ref, guarded_ref, ok) = evaluate(&nl, &lib, &best, &stream).unwrap();
        assert!(ok);
        assert_eq!(guarded.to_bits(), guarded_ref.to_bits());
        assert_eq!(outcome.base_energy_fj.to_bits(), base_ref.to_bits());
    }

    #[test]
    fn sequential_netlists_are_rejected_by_the_scorer() {
        let mut nl = Netlist::new();
        let x = nl.input("x");
        let q = nl.dff(x, false);
        nl.set_output("q", q);
        let lib = Library::default();
        let err = GuardScorer::new(&nl, &lib, &[vec![false]]);
        assert!(matches!(err, Err(NetlistError::NotCombinational { .. })));
    }

    #[test]
    fn no_candidates_in_fully_observable_circuit() {
        // A parity tree: every node is always observable (ODC empty).
        let mut nl = Netlist::new();
        let xs = nl.input_bus("x", 6);
        let mut p = xs[0];
        for &x in &xs[1..] {
            p = nl.xor([p, x]);
        }
        nl.set_output("p", p);
        let lib = Library::default();
        let candidates = find_candidates(&nl, &lib, 10).unwrap();
        assert!(candidates.is_empty());
    }
}
