//! The packed finalizes against the per-lane records.
//!
//! `take_lane_powers` turns the count planes straight into per-lane power
//! and derives the `sim_packed.toggles` and
//! `sim_ev_packed.{transitions,glitches}` counters from plane popcounts,
//! `take_activity` sums each node's planes by popcount into one
//! lane-collapsed record, and `take_lane_activities` returns per-lane
//! records and sums them. After identical steps, each lane's power must
//! equal `PowerModel::total_power_uw` of its record to the bit, the
//! collapsed record must equal the merged per-lane records, and all three
//! must add the same counter amounts, including runs long enough to spill
//! the count planes. One test in its own binary, so no other test moves
//! the global counters in between.

use hlpower_netlist::{
    gen, Activity, Library, Netlist, PowerModel, TimedActivity, WideSim, WideTimedSim, Word, W256,
};
use hlpower_obs::metrics as obs;
use hlpower_rng::Rng;

/// A glitchy `bits`-bit multiplier with one product bit latched.
fn circuit(bits: usize) -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", bits);
    let b = nl.input_bus("b", bits);
    let p = gen::array_multiplier(&mut nl, &a, &b);
    let q = nl.dff(p[bits - 1], false);
    nl.output_bus("p", &p);
    nl.set_output("q", q);
    nl
}

/// `cycles` input words, random except for input 0, which toggles every
/// cycle (so a long run overflows its count planes); lanes past `live`
/// stop after half the run.
fn stimulus<W: Word>(nl: &Netlist, cycles: usize, live: usize) -> Vec<(Vec<W>, W)> {
    let mut rng = Rng::seed_from_u64(11);
    (0..cycles)
        .map(|c| {
            let words = (0..nl.input_count())
                .map(|i| {
                    let mut w = W::splat(c % 2 == 1);
                    if i > 0 {
                        w.chunks_mut().iter_mut().for_each(|chunk| *chunk = rng.next_u64());
                    }
                    w
                })
                .collect();
            let mask = if c < cycles / 2 { W::splat(true) } else { W::low_mask(live) };
            (words, mask)
        })
        .collect()
}

fn zero_delay<W: Word>(nl: &Netlist, model: &PowerModel, cycles: usize) {
    let mut sim = WideSim::<W>::new(nl).unwrap();
    for (words, mask) in stimulus::<W>(nl, cycles, W::LANES / 3) {
        sim.step_masked(&words, mask).unwrap();
    }
    let mut twin = sim.clone();
    let mut collapsed = sim.clone();
    let before = obs::SIM64_TOGGLES.get();
    let powers = sim.take_lane_powers(model);
    let fused = obs::SIM64_TOGGLES.get() - before;
    let before = obs::SIM64_TOGGLES.get();
    let lanes = twin.take_lane_activities();
    let records = obs::SIM64_TOGGLES.get() - before;
    for (l, (lane, &(power, cycles))) in lanes.iter().zip(&powers).enumerate() {
        let want = (model.total_power_uw(lane).to_bits(), lane.cycles);
        assert_eq!((power.to_bits(), cycles), want, "lane {l}");
    }
    let summed: u64 = lanes.iter().flat_map(|a| &a.toggles).sum();
    assert!(summed > 0);
    assert_eq!((fused, records), (summed, summed), "{} lanes, {cycles} cycles", W::LANES);
    let before = obs::SIM64_TOGGLES.get();
    let collapsed = collapsed.take_activity();
    let added = obs::SIM64_TOGGLES.get() - before;
    let mut merged = Activity::zero(nl);
    for lane in &lanes {
        merged.merge(lane).unwrap();
    }
    assert_eq!(collapsed, merged, "{} lanes, {cycles} cycles", W::LANES);
    assert_eq!(added, summed, "{} lanes, {cycles} cycles", W::LANES);
}

fn timed<W: Word>(nl: &Netlist, lib: &Library, model: &PowerModel, cycles: usize) {
    let mut sim = WideTimedSim::<W>::new(nl, lib).unwrap();
    for (words, mask) in stimulus::<W>(nl, cycles, W::LANES / 3) {
        sim.step_masked(&words, mask).unwrap();
    }
    let mut twin = sim.clone();
    let mut collapsed = sim.clone();
    let counters = || (obs::SIM_EVP_TRANSITIONS.get(), obs::SIM_EVP_GLITCHES.get());
    let delta = |(t0, g0): (u64, u64), (t1, g1): (u64, u64)| (t1 - t0, g1 - g0);
    let before = counters();
    let powers = sim.take_lane_powers(model);
    let fused = delta(before, counters());
    let before = counters();
    let lanes = twin.take_lane_activities();
    let records = delta(before, counters());
    let (mut transitions, mut glitches) = (0u64, 0u64);
    for (l, (lane, &(power, cycles))) in lanes.iter().zip(&powers).enumerate() {
        let want = (model.total_power_uw(&lane.activity).to_bits(), lane.activity.cycles);
        assert_eq!((power.to_bits(), cycles), want, "lane {l}");
        for (&t, &f) in lane.activity.toggles.iter().zip(&lane.functional) {
            assert!(f <= t, "a settled change without a transition");
            transitions += t;
            glitches += t - f;
        }
    }
    assert!(glitches > 0, "the multiplier should glitch");
    let want = (transitions, glitches);
    assert_eq!((fused, records), (want, want), "{} lanes, {cycles} cycles", W::LANES);
    let before = counters();
    let collapsed = collapsed.take_activity();
    let added = delta(before, counters());
    let mut merged = TimedActivity::zero(nl);
    for lane in &lanes {
        merged.merge(lane).unwrap();
    }
    assert_eq!(collapsed, merged, "{} lanes, {cycles} cycles", W::LANES);
    assert_eq!(added, want, "{} lanes, {cycles} cycles", W::LANES);
}

#[test]
fn fused_finalize_matches_the_lane_records() {
    let lib = Library::default();
    let nl = circuit(4);
    let model = PowerModel::new(&nl, &lib);
    zero_delay::<u64>(&nl, &model, 50);
    zero_delay::<W256>(&nl, &model, 50);
    timed::<u64>(&nl, &lib, &model, 50);
    timed::<W256>(&nl, &lib, &model, 50);
    // Past 65,535 counted steps the zero-delay planes flush mid-run and
    // the timed planes spill, so the finalize adds the spilled totals.
    let small = circuit(2);
    let model = PowerModel::new(&small, &lib);
    zero_delay::<u64>(&small, &model, 70_000);
    timed::<u64>(&small, &lib, &model, 70_000);
}
