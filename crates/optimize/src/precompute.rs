//! Precomputation-based shutdown (survey §III-I, Fig. 6, refs 99,
//! \[100\]).
//!
//! For a single-output block `f(X)`, predictor functions over a subset `S`
//! of the inputs are derived by universal quantification:
//! `g1 = ∀_{X\S} f` and `g0 = ∀_{X\S} ¬f`. When either asserts, the
//! block's registered inputs are disabled for the next cycle and the
//! output is taken from the registered predictor result. The expected
//! saving is the shutdown probability times the block's power, minus the
//! predictor's own cost.

use hlpower_bdd::{bdd_to_mux_netlist, build_output_bdds, BddManager, BddRef};
use hlpower_netlist::{
    ConeResim, GateKind, IncrementalSim, Library, Netlist, NetlistEditor, NetlistError, NodeId,
    NodeKind, ResimScratch, ZeroDelaySim,
};
use hlpower_obs::metrics as obs;

/// Analysis of one candidate precomputation architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecomputeCandidate {
    /// Indices (into the primary inputs) of the retained subset `S`.
    pub subset: Vec<usize>,
    /// Probability (under uniform inputs) that `g1 + g0` asserts — the
    /// fraction of cycles the block can be shut down.
    pub shutdown_probability: f64,
    /// Number of BDD nodes in the two predictors (predictor size proxy).
    pub predictor_nodes: usize,
}

/// Enumerates all input subsets of size `k` of a single-output block and
/// ranks them by shutdown probability (§III-I's predictor selection).
///
/// # Errors
///
/// Returns a netlist error for cyclic blocks.
///
/// # Panics
///
/// Panics if the block does not have exactly one output.
pub fn rank_subsets(block: &Netlist, k: usize) -> Result<Vec<PrecomputeCandidate>, NetlistError> {
    let (mut m, f) = block_bdd(block)?;
    Ok(rank(&mut m, f, block.input_count(), k))
}

/// The BDD of a single-output block's function, in a fresh manager over
/// the block's inputs.
///
/// # Panics
///
/// Panics if the block does not have exactly one output.
fn block_bdd(block: &Netlist) -> Result<(BddManager, BddRef), NetlistError> {
    assert_eq!(block.outputs().len(), 1, "precomputation predictor needs a single-output block");
    let (m, roots) = build_output_bdds(block)?;
    Ok((m, roots[0]))
}

/// [`rank_subsets`] over the block function `f` of `n` inputs in `m`.
fn rank(m: &mut BddManager, f: BddRef, n: usize, k: usize) -> Vec<PrecomputeCandidate> {
    let mut out = Vec::new();
    for_each_subset(n, k, |subset| {
        let (g1, g0) = predictors(m, f, n, subset);
        let either = m.or(g1, g0);
        let p = m.sat_fraction(either);
        out.push(PrecomputeCandidate {
            subset: subset.to_vec(),
            shutdown_probability: p,
            predictor_nodes: m.node_count_many(&[g0, g1]),
        });
    });
    out.sort_by(|a, b| {
        b.shutdown_probability.partial_cmp(&a.shutdown_probability).expect("finite probabilities")
    });
    out
}

/// Calls `visit` with every size-`k` subset of `0..n` in lexicographic
/// order. One scratch buffer is advanced in place (the classic
/// next-combination walk), so enumeration allocates nothing per subset.
fn for_each_subset(n: usize, k: usize, mut visit: impl FnMut(&[usize])) {
    if k > n {
        return;
    }
    let mut cur: Vec<usize> = (0..k).collect();
    loop {
        visit(&cur);
        // Bump the rightmost index that can still grow, then restack
        // everything after it.
        let Some(i) = (0..k).rev().find(|&i| cur[i] < n - k + i) else { break };
        cur[i] += 1;
        for j in i + 1..k {
            cur[j] = cur[j - 1] + 1;
        }
    }
}

/// Universal-quantification predictor pair for a retained subset:
/// `g1 = ∀_{X\S} f` and `g0 = ∀_{X\S} ¬f`.
fn predictors(m: &mut BddManager, f: BddRef, n: usize, subset: &[usize]) -> (BddRef, BddRef) {
    let others: Vec<u32> = (0..n as u32).filter(|v| !subset.contains(&(*v as usize))).collect();
    let g1 = m.forall(f, &others);
    let nf = m.not(f);
    let g0 = m.forall(nf, &others);
    (g1, g0)
}

/// A synthesized precomputation architecture (Fig. 6): the original block
/// with input registers gated by the predictor pair.
#[derive(Debug)]
pub struct PrecomputeArchitecture {
    /// The transformed sequential netlist.
    pub netlist: Netlist,
    /// The candidate the architecture was built from.
    pub candidate: PrecomputeCandidate,
}

/// Builds the Fig. 6 architecture for the best subset of size `k`.
///
/// The block's inputs are registered; when `g1 + g0` asserted in the
/// previous cycle, the input registers hold their values (emulated with
/// recirculating muxes, as enable flip-flops would be in a real library)
/// and the output is taken from the registered predictor decision.
///
/// # Errors
///
/// Returns a netlist error for cyclic blocks.
///
/// # Panics
///
/// Panics if the block does not have exactly one output or has no
/// feasible candidate.
pub fn build_architecture(
    block: &Netlist,
    k: usize,
) -> Result<PrecomputeArchitecture, NetlistError> {
    let (mut m, f) = block_bdd(block)?;
    let n = block.input_count();
    let candidate = rank(&mut m, f, n, k).into_iter().next().expect("at least one subset");
    let (g1, g0) = predictors(&mut m, f, n, &candidate.subset);
    let (netlist, _) = synth_architecture(&m, f, n, g1, g0);
    Ok(PrecomputeArchitecture { netlist, candidate })
}

/// Node handles into a synthesized architecture that the candidate-swap
/// editor path rewires: the `fire` OR gate, the buffer feeding the g1
/// register (so a swap never touches a flip-flop's D pin directly), the
/// arena range holding the current predictor logic, and the raw inputs.
struct ArchHandles {
    fire: NodeId,
    g1_buf: NodeId,
    predictor: (usize, usize),
    raw: Vec<NodeId>,
}

/// Synthesizes the Fig. 6 architecture for one predictor pair: raw
/// inputs, predictor logic, hold registers, the block `f` (of `n` inputs,
/// in `m`) over held inputs, and the output mux.
fn synth_architecture(
    m: &BddManager,
    f: BddRef,
    n: usize,
    g1: BddRef,
    g0: BddRef,
) -> (Netlist, ArchHandles) {
    // New netlist with fresh inputs; predictors over raw inputs;
    // registered inputs recirculate when the registered predictor fired.
    let mut nl = Netlist::new();
    let raw: Vec<NodeId> = (0..n).map(|i| nl.input(format!("x[{i}]"))).collect();
    let p_start = nl.node_count();
    let g1_node = nl.with_group("predictor", |nl| bdd_to_mux_netlist(m, g1, &raw, nl));
    let g0_node = nl.with_group("predictor", |nl| bdd_to_mux_netlist(m, g0, &raw, nl));
    let p_end = nl.node_count();
    let fire = nl.with_group("predictor", |nl| nl.or([g1_node, g0_node]));
    // The g1 register is fed through a buffer so a candidate swap can
    // repoint it with a gate rewire (flip-flops keep their kind under
    // the editor).
    let g1_buf = nl.with_group("predictor", |nl| nl.buf(g1_node));
    let fire_q = nl.with_group("predictor", |nl| nl.dff(fire, false));
    let g1_q = nl.with_group("predictor", |nl| nl.dff(g1_buf, false));
    // Input registers with hold: q = dff(mux(fire, x, q)).
    let mut held = Vec::with_capacity(n);
    nl.with_group("registers/clock", |nl| {
        for &x in &raw {
            let q = nl.dff_placeholder(false);
            let d = nl.mux(fire, x, q);
            nl.connect_dff_d(q, d);
            held.push(q);
        }
    });
    // Rebuild the block over the held inputs.
    let block_out = nl.with_group("block", |nl| bdd_to_mux_netlist(m, f, &held, nl));
    // Output: if the predictor fired last cycle, g1_q is the answer;
    // otherwise the block's output over the (freshly loaded) registers.
    let y = nl.mux(fire_q, block_out, g1_q);
    nl.set_output("y", y);
    (nl, ArchHandles { fire, g1_buf, predictor: (p_start, p_end), raw })
}

/// Expresses a candidate's architecture as an in-place edit of the
/// template through `ed` (an editor on the template): the new predictor
/// pair is appended over the raw inputs, `fire` and the g1 register feed
/// are rewired onto it, and the template's old predictor gates are tied
/// to a constant so they stop toggling (dead logic costs no dynamic
/// power).
fn swap_predictor(
    ed: &mut NetlistEditor<'_>,
    handles: &ArchHandles,
    m: &BddManager,
    g1: BddRef,
    g0: BddRef,
) -> Result<(), NetlistError> {
    // The BDD synthesizer builds on a `&mut Netlist`, so the new
    // predictor is appended through the editor's append-only entry point
    // and rolls back with the session.
    let (g1_node, g0_node, tie) = ed.append(|nl| {
        let g1_node = nl.with_group("predictor", |nl| bdd_to_mux_netlist(m, g1, &handles.raw, nl));
        let g0_node = nl.with_group("predictor", |nl| bdd_to_mux_netlist(m, g0, &handles.raw, nl));
        (g1_node, g0_node, nl.constant(false))
    });
    let (p_start, p_end) = handles.predictor;
    let arch = ed.netlist();
    let old_gates: Vec<NodeId> = arch
        .node_ids()
        .skip(p_start)
        .take(p_end - p_start)
        .filter(|&id| matches!(arch.kind(id), NodeKind::Gate { .. }))
        .collect();
    ed.replace_gate(handles.fire, GateKind::Or, [g1_node, g0_node])?;
    ed.replace_gate(handles.g1_buf, GateKind::Buf, [g1_node])?;
    for &id in &old_gates {
        ed.replace_gate(id, GateKind::Buf, [tie])?;
    }
    Ok(())
}

/// Measured outcome of a precomputation transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecomputeOutcome {
    /// Baseline block power (registered inputs, no predictor), in µW.
    pub baseline_uw: f64,
    /// Precomputed-architecture power, in µW.
    pub optimized_uw: f64,
    /// Measured shutdown fraction.
    pub shutdown_fraction: f64,
}

impl PrecomputeOutcome {
    /// Fractional power saving.
    pub fn saving(&self) -> f64 {
        1.0 - self.optimized_uw / self.baseline_uw.max(1e-12)
    }
}

/// One measured-power candidate in a [`search`] outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCandidate {
    /// The BDD-ranked candidate.
    pub candidate: PrecomputeCandidate,
    /// Measured power of its architecture under the stream, in µW.
    pub optimized_uw: f64,
}

/// Outcome of the measured-power candidate [`search`].
#[derive(Debug, Clone, PartialEq)]
pub struct PrecomputeSearchOutcome {
    /// Baseline block power (registered inputs, no predictor), in µW.
    pub baseline_uw: f64,
    /// Measured candidates, in BDD rank order.
    pub scored: Vec<ScoredCandidate>,
    /// Index into `scored` of the lowest measured power.
    pub best: usize,
}

impl PrecomputeSearchOutcome {
    /// The best measured candidate as a [`PrecomputeOutcome`].
    pub fn best_outcome(&self) -> PrecomputeOutcome {
        let b = &self.scored[self.best];
        PrecomputeOutcome {
            baseline_uw: self.baseline_uw,
            optimized_uw: b.optimized_uw,
            shutdown_fraction: b.candidate.shutdown_probability,
        }
    }
}

/// Measures the top-`top_r` BDD-ranked subsets by simulated power and
/// picks the cheapest — the Fig. 1 estimate/transform/re-estimate loop
/// run incrementally. The baseline and the top candidate's architecture
/// are each recorded once ([`IncrementalSim::record`]); every further
/// candidate is a predictor swap made in an edit session on the
/// template's recording ([`IncrementalSim::edit`]), scored by dirty-cone
/// replay — bit-identical to recording its netlist from scratch — and
/// rolled back.
///
/// # Errors
///
/// Returns a netlist error for cyclic blocks.
///
/// # Panics
///
/// Panics if the block does not have exactly one output.
pub fn search(
    block: &Netlist,
    k: usize,
    top_r: usize,
    stream: &[Vec<bool>],
    lib: &Library,
) -> Result<PrecomputeSearchOutcome, NetlistError> {
    let (mut m, f) = block_bdd(block)?;
    let n = block.input_count();
    let ranked = rank(&mut m, f, n, k);
    let take = top_r.clamp(1, ranked.len());

    // Baseline: inputs registered, block evaluated every cycle. Recorded
    // once, shared by every candidate comparison.
    let mut base = Netlist::new();
    let raw: Vec<NodeId> = (0..n).map(|i| base.input(format!("x[{i}]"))).collect();
    let regs = base.dff_bus(&raw);
    let y = bdd_to_mux_netlist(&m, f, &regs, &mut base);
    base.set_output("y", y);
    let base_rec = IncrementalSim::record(&base, stream)?;
    let baseline_uw = base_rec.activity().power(&base, lib).total_power_uw();

    // Template: the top-ranked candidate's architecture, recorded once.
    let (g1, g0) = predictors(&mut m, f, n, &ranked[0].subset);
    let (tpl, handles) = synth_architecture(&m, f, n, g1, g0);
    let mut inc = IncrementalSim::record(&tpl, stream)?;
    obs::OPT_CANDIDATES_EVALUATED.inc();
    let mut scored = Vec::with_capacity(take);
    scored.push(ScoredCandidate {
        candidate: ranked[0].clone(),
        optimized_uw: inc.activity().power(&tpl, lib).total_power_uw(),
    });

    // Every further candidate: predictor swap + dirty-cone replay.
    let mut scratch = ResimScratch::default();
    let mut resim = ConeResim::default();
    for cand in ranked.iter().take(take).skip(1) {
        let (g1, g0) = predictors(&mut m, f, n, &cand.subset);
        let mut swapped = inc.edit();
        swap_predictor(&mut swapped, &handles, &m, g1, g0)?;
        swapped.resim_into(&mut scratch, &mut resim)?;
        obs::OPT_CANDIDATES_EVALUATED.inc();
        obs::OPT_CONE_SIZE.record(resim.cone.len() as u64);
        obs::OPT_RESIM_WORDS.add(resim.words_replayed());
        scored.push(ScoredCandidate {
            candidate: cand.clone(),
            optimized_uw: resim.activity.power(swapped.netlist(), lib).total_power_uw(),
        });
        swapped.rollback();
    }
    let best = scored
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.optimized_uw.partial_cmp(&b.1.optimized_uw).expect("finite powers"))
        .map(|(i, _)| i)
        .expect("at least one candidate");
    if scored[best].optimized_uw < baseline_uw {
        obs::OPT_CANDIDATES_ACCEPTED.inc();
    }
    Ok(PrecomputeSearchOutcome { baseline_uw, scored, best })
}

/// Simulates the baseline (registered-input block) and the precomputation
/// architecture of the top-ranked subset under the same stream and
/// compares power — [`search`] restricted to one candidate.
///
/// # Errors
///
/// Returns a netlist error for cyclic blocks.
pub fn evaluate(
    block: &Netlist,
    k: usize,
    stream: &[Vec<bool>],
    lib: &Library,
) -> Result<PrecomputeOutcome, NetlistError> {
    let s = search(block, k, 1, stream, lib)?;
    let b = &s.scored[0];
    Ok(PrecomputeOutcome {
        baseline_uw: s.baseline_uw,
        optimized_uw: b.optimized_uw,
        shutdown_fraction: b.candidate.shutdown_probability,
    })
}

/// Functional-equivalence check between block and architecture over a
/// stream (the architecture has one cycle of latency).
///
/// # Errors
///
/// Returns a netlist error for cyclic blocks.
pub fn check_equivalence(
    block: &Netlist,
    k: usize,
    stream: &[Vec<bool>],
) -> Result<bool, NetlistError> {
    let arch = build_architecture(block, k)?;
    let mut ref_sim = ZeroDelaySim::new(block)?;
    let mut arch_sim = ZeroDelaySim::new(&arch.netlist)?;
    let mut expected = Vec::new();
    let mut got = Vec::new();
    for v in stream {
        expected.push(ref_sim.eval_combinational(v)?[0]);
        arch_sim.step(v)?;
        got.push(arch_sim.output_values()[0]);
    }
    // The architecture outputs, delayed by one cycle, must match: got[t]
    // corresponds to inputs at t-1.
    Ok(got[1..] == expected[..expected.len() - 1])
}

/// The survey's canonical precomputation example: an n-bit magnitude
/// comparator, where the two MSBs decide the output most of the time.
pub fn comparator_block(width: usize) -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);
    let lt = hlpower_netlist::gen::less_than(&mut nl, &a, &b);
    nl.set_output("lt", lt);
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlpower_netlist::streams;

    #[test]
    fn msb_subset_has_half_shutdown_probability() {
        // For a < b, knowing the MSBs a_{n-1} != b_{n-1} decides the
        // output: probability 1/2.
        let block = comparator_block(4);
        let ranked = rank_subsets(&block, 2).unwrap();
        let best = &ranked[0];
        // Best subset should be the two MSBs: inputs 3 (a[3]) and 7 (b[3]).
        assert_eq!(best.subset, vec![3, 7], "{best:?}");
        assert!((best.shutdown_probability - 0.5).abs() < 1e-9);
    }

    #[test]
    fn architecture_is_functionally_equivalent() {
        let block = comparator_block(4);
        let stream: Vec<Vec<bool>> = streams::random(3, 8).take(300).collect();
        assert!(check_equivalence(&block, 2, &stream).unwrap());
    }

    #[test]
    fn precomputation_saves_power_on_comparator() {
        let block = comparator_block(8);
        let lib = Library::default();
        let stream: Vec<Vec<bool>> = streams::random(4, 16).take(2000).collect();
        let outcome = evaluate(&block, 2, &stream, &lib).unwrap();
        assert!(
            outcome.saving() > 0.1,
            "expected >10% saving, got {:.1}% ({outcome:?})",
            outcome.saving() * 100.0
        );
    }

    #[test]
    fn swap_scored_candidates_match_from_scratch_recording() {
        // Every µW the incremental search reports must be bit-identical
        // to recording the same (template or swapped) netlist from
        // scratch.
        let block = comparator_block(4);
        let lib = Library::default();
        let stream: Vec<Vec<bool>> = streams::random(9, 8).take(200).collect();
        let outcome = search(&block, 2, 6, &stream, &lib).unwrap();
        assert_eq!(outcome.scored.len(), 6);

        // Replay the search's construction sequence on a fresh manager so
        // node ids line up, then record each netlist from scratch.
        let (mut m, f) = block_bdd(&block).unwrap();
        let n = block.input_count();
        let ranked = rank(&mut m, f, n, 2);
        let (g1, g0) = predictors(&mut m, f, n, &ranked[0].subset);
        let (tpl, handles) = synth_architecture(&m, f, n, g1, g0);
        for (i, sc) in outcome.scored.iter().enumerate() {
            let nl = if i == 0 {
                tpl.clone()
            } else {
                let (g1, g0) = predictors(&mut m, f, n, &sc.candidate.subset);
                let mut sw = tpl.clone();
                let mut ed = NetlistEditor::begin(&mut sw);
                swap_predictor(&mut ed, &handles, &m, g1, g0).unwrap();
                ed.finish();
                sw
            };
            let full = IncrementalSim::record(&nl, &stream).unwrap();
            assert_eq!(
                sc.optimized_uw.to_bits(),
                full.activity().power(&nl, &lib).total_power_uw().to_bits(),
                "candidate {i} ({:?})",
                sc.candidate.subset
            );
        }
    }

    #[test]
    fn swapped_architecture_stays_equivalent_to_the_block() {
        // A predictor swap must leave the architecture functionally the
        // one-cycle-latency block: the old predictor is fully detached.
        let block = comparator_block(3);
        let ranked = rank_subsets(&block, 2).unwrap();
        let (mut m, f) = block_bdd(&block).unwrap();
        let n = block.input_count();
        let (g1, g0) = predictors(&mut m, f, n, &ranked[0].subset);
        let (tpl, handles) = synth_architecture(&m, f, n, g1, g0);
        let (g1b, g0b) = predictors(&mut m, f, n, &ranked[1].subset);
        let mut sw = tpl.clone();
        let mut ed = NetlistEditor::begin(&mut sw);
        swap_predictor(&mut ed, &handles, &m, g1b, g0b).unwrap();
        ed.finish();

        let stream: Vec<Vec<bool>> = streams::random(12, 6).take(200).collect();
        let mut ref_sim = ZeroDelaySim::new(&block).unwrap();
        let mut sw_sim = ZeroDelaySim::new(&sw).unwrap();
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for v in &stream {
            expected.push(ref_sim.eval_combinational(v).unwrap()[0]);
            sw_sim.step(v).unwrap();
            got.push(sw_sim.output_values()[0]);
        }
        assert_eq!(got[1..], expected[..expected.len() - 1]);
    }

    #[test]
    fn search_picks_the_measured_best() {
        let block = comparator_block(4);
        let lib = Library::default();
        let stream: Vec<Vec<bool>> = streams::random(2, 8).take(400).collect();
        let outcome = search(&block, 2, 5, &stream, &lib).unwrap();
        let min = outcome.scored.iter().map(|s| s.optimized_uw).fold(f64::INFINITY, f64::min);
        assert_eq!(outcome.scored[outcome.best].optimized_uw.to_bits(), min.to_bits());
        assert!(outcome.best_outcome().baseline_uw > 0.0);
    }

    #[test]
    fn full_subset_gives_certain_shutdown() {
        let block = comparator_block(3);
        let ranked = rank_subsets(&block, 6).unwrap();
        assert!((ranked[0].shutdown_probability - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_subset_gives_no_shutdown_for_nonconstant_f() {
        let block = comparator_block(3);
        let ranked = rank_subsets(&block, 0).unwrap();
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].shutdown_probability, 0.0);
    }
}
