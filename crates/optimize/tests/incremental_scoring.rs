//! Property-based differential tests for the incremental candidate
//! scorers: every converted optimize pass must produce results
//! bit-identical to the historical clone-and-fully-resimulate path,
//! across a pool of generated circuit families and both ingested example
//! netlists. Runs on the in-tree [`hlpower_rng::check`] harness.

use hlpower_netlist::{
    attribute, gen, parse_edif, parse_verilog, streams, timed_activity, IncrementalSim, Library,
    McKernel, Netlist,
};
use hlpower_opt::{balance, guard, rewrite};
use hlpower_rng::check::Check;
use hlpower_rng::Rng;

/// The combinational EDIF example shipped with the repo.
const MAJORITY_EDF: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/majority.edf"));
/// The sequential structural-Verilog example shipped with the repo.
const GRAY_COUNTER_V: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/gray_counter4.v"));

/// Six combinational circuit families plus the ingested EDIF example.
/// Every case draws one at random, so over a run the differential
/// properties see adders, multipliers, ALUs, mux trees, CSD shifters,
/// unstructured random logic, and an externally-authored netlist.
fn combinational(rng: &mut Rng) -> (&'static str, Netlist) {
    match rng.gen_range(0u32..7) {
        0 => {
            let bits = rng.gen_range(3usize..7);
            let mut nl = Netlist::new();
            let a = nl.input_bus("a", bits);
            let b = nl.input_bus("b", bits);
            let zero = nl.constant(false);
            let s = gen::ripple_adder(&mut nl, &a, &b, zero);
            nl.output_bus("s", &s);
            ("adder", nl)
        }
        1 => {
            let bits = rng.gen_range(2usize..5);
            let mut nl = Netlist::new();
            let a = nl.input_bus("a", bits);
            let b = nl.input_bus("b", bits);
            let p = gen::array_multiplier(&mut nl, &a, &b);
            nl.output_bus("p", &p);
            ("multiplier", nl)
        }
        2 => {
            let bits = rng.gen_range(2usize..5);
            let mut nl = Netlist::new();
            let op = [nl.input("op0"), nl.input("op1")];
            let a = nl.input_bus("a", bits);
            let b = nl.input_bus("b", bits);
            let y = gen::alu(&mut nl, op, &a, &b);
            nl.output_bus("y", &y);
            ("alu", nl)
        }
        3 => ("guarded_mux", guard::guarded_mux_example(rng.gen_range(4usize..9))),
        4 => {
            let k = rng.gen_range(3u64..200);
            let mut nl = Netlist::new();
            let a = nl.input_bus("a", 5);
            let p = gen::csd_const_multiplier(&mut nl, &a, k);
            nl.output_bus("p", &p);
            ("csd_mult", nl)
        }
        5 => {
            let mut nl = Netlist::new();
            gen::random_logic(&mut nl, rng.next_u64(), rng.gen_range(4usize..8), 30, 3);
            ("random_logic", nl)
        }
        _ => ("majority_edf", parse_edif(MAJORITY_EDF).expect("shipped example parses")),
    }
}

/// The guard scorer replays only a candidate's dirty region against one
/// recording; the reference scorer replays the whole netlist per
/// candidate. Their `(base, guarded, ok)` triples must agree to the bit
/// on every candidate, and [`guard::search`] must select exactly the
/// candidate the reference scores would pick.
#[test]
fn guard_scorer_matches_from_scratch_on_diverse_circuits() {
    Check::new("guard_scorer_matches_from_scratch").cases(12).run(|rng| {
        let lib = Library::default();
        let (name, nl) = combinational(rng);
        let cycles = rng.gen_range(48usize..192);
        let stream: Vec<Vec<bool>> =
            streams::random(rng.next_u64(), nl.input_count()).take(cycles).collect();
        let candidates = guard::find_candidates(&nl, &lib, 12).expect("acyclic");
        if candidates.is_empty() {
            return;
        }
        let reference: Vec<(f64, f64, bool)> = candidates
            .iter()
            .map(|c| guard::evaluate(&nl, &lib, c, &stream).expect("acyclic"))
            .collect();
        let mut scorer = guard::GuardScorer::new(&nl, &lib, &stream).expect("acyclic");
        for (c, r) in candidates.iter().zip(&reference) {
            let (base, guarded, ok) = scorer.score(c);
            assert_eq!(base.to_bits(), r.0.to_bits(), "{name}: baseline diverged");
            assert_eq!(guarded.to_bits(), r.1.to_bits(), "{name}: guarded energy diverged");
            assert_eq!(ok, r.2, "{name}: correctness bit diverged");
        }
        // Replay the search's selection rule over the reference scores.
        let opts =
            guard::GuardSearchOptions { max_targets: 12, ..guard::GuardSearchOptions::default() };
        let outcome = guard::search(&nl, &lib, &stream, &opts).expect("acyclic");
        let base = reference[0].0;
        let mut expect: Option<(usize, f64)> = None;
        for (i, r) in reference.iter().enumerate() {
            if r.2 && r.1 < base && expect.is_none_or(|(_, g)| r.1 < g) {
                expect = Some((i, r.1));
            }
        }
        match (expect, &outcome.best) {
            (None, None) => {}
            (Some((i, g)), Some((c, got))) => {
                assert_eq!(c.target, candidates[i].target, "{name}: search picked another target");
                assert_eq!(got.to_bits(), g.to_bits(), "{name}: best energy diverged");
            }
            (e, b) => panic!("{name}: search best {b:?} but reference scores say {e:?}"),
        }
        assert_eq!(outcome.base_energy_fj.to_bits(), base.to_bits());
    });
}

/// The rewrite loop maintains its recording and attribution
/// incrementally across accepted mutations; both caches must end
/// bit-identical to a from-scratch record / attribution of the final
/// netlist (and the baseline to one of the original).
#[test]
fn rewrite_incremental_caches_match_from_scratch_records() {
    Check::new("rewrite_caches_match_from_scratch").cases(12).run(|rng| {
        let lib = Library::default();
        let (name, nl) = combinational(rng);
        let cycles = rng.gen_range(48usize..192);
        let stream: Vec<Vec<bool>> =
            streams::random(rng.next_u64(), nl.input_count()).take(cycles).collect();
        let out = rewrite::rewrite_gates(&nl, &lib, &stream, &rewrite::RewriteOptions::default())
            .expect("combinational");
        let base = IncrementalSim::record(&nl, &stream).expect("combinational");
        assert_eq!(
            out.baseline_uw.to_bits(),
            base.activity().power(&nl, &lib).total_power_uw().to_bits(),
            "{name}: baseline diverged"
        );
        let fresh = IncrementalSim::record(&out.netlist, &stream).expect("combinational");
        let act = fresh.activity();
        assert_eq!(
            out.optimized_uw.to_bits(),
            act.power(&out.netlist, &lib).total_power_uw().to_bits(),
            "{name}: optimized power diverged from a from-scratch record"
        );
        assert_eq!(
            out.attribution,
            attribute(&out.netlist, &lib, &act),
            "{name}: delta-maintained attribution diverged"
        );
    });
}

/// Path balancing scores the baseline and its one candidate with the
/// packed `timed_activity`; the outcome's power and glitch numbers must
/// match the scalar event-driven simulator run from scratch on each —
/// including on the sequential ingested example.
#[test]
fn balance_outcome_matches_from_scratch_timed_record() {
    Check::new("balance_matches_from_scratch").cases(8).run(|rng| {
        let lib = Library::default();
        let (name, nl) = match rng.gen_range(0u32..3) {
            0 => (
                "skewed_parity",
                balance::skewed_parity_example(rng.gen_range(4usize..8), rng.gen_range(2usize..6)),
            ),
            1 => ("gray_counter_v", parse_verilog(GRAY_COUNTER_V).expect("shipped example")),
            _ => combinational(rng),
        };
        let cycles = rng.gen_range(48usize..160);
        let stream: Vec<Vec<bool>> =
            streams::random(rng.next_u64(), nl.input_count()).take(cycles).collect();
        let out = balance::balance_paths(&nl, &lib, &stream, &balance::BalanceOptions::default())
            .expect("acyclic");
        let base = timed_activity(&nl, &lib, &stream, McKernel::Scalar).expect("acyclic");
        assert_eq!(
            out.baseline_uw.to_bits(),
            base.power(&nl, &lib).total_power_uw().to_bits(),
            "{name}: baseline diverged"
        );
        let act = timed_activity(&out.netlist, &lib, &stream, McKernel::Scalar).expect("acyclic");
        assert_eq!(
            out.balanced_uw.to_bits(),
            act.power(&out.netlist, &lib).total_power_uw().to_bits(),
            "{name}: balanced power diverged from a from-scratch record"
        );
        assert_eq!(
            out.glitch_fraction_after.to_bits(),
            act.glitch_fraction().expect("nonempty stream").to_bits(),
            "{name}: glitch fraction diverged"
        );
    });
}
