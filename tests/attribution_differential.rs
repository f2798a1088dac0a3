//! Cross-level differential tests for the power-attribution profiler:
//! on every circuit generator, the per-node attribution must reconcile
//! with the aggregate [`PowerReport`] under both Monte-Carlo kernels'
//! simulators (scalar [`ZeroDelaySim`] and packed [`WideSim`]), the two
//! kernels must attribute *identical* energy node-for-node (their
//! activities are bit-identical by the sim64 differential contract),
//! and the rollups must partition the totals exactly.

use hlpower::netlist::{
    attribute, gen, streams, Activity, AttributionReport, Library, McKernel, Netlist, WideSim,
    Word, ZeroDelaySim, W256, W512,
};
use hlpower_rng::Rng;

const CYCLES: usize = 96;
const SEED: u64 = 0x5EED;

/// The same six generators the golden-snapshot suite covers.
fn generators() -> Vec<(&'static str, Netlist)> {
    gen::benchmark_suite()
}

/// The lane-collapsed activity of one packed run over `W::LANES`
/// split-seed streams. Lanes beyond the scalar reference's 64 reuse the
/// same split indices modulo 64, so every width sees the same *multiset*
/// of streams scaled by `W::LANES / 64` and per-node toggle totals stay
/// comparable after normalization — here we only need the 64-lane-width
/// case to match the scalar reference exactly, so wider runs use 64
/// distinct streams each repeated `W::LANES / 64` times and divide.
fn packed_activity<W: Word>(nl: &Netlist, repeat: bool) -> Activity {
    let w = nl.input_count();
    let root = Rng::seed_from_u64(SEED);
    let mut sim = WideSim::<W>::new(nl).expect("acyclic");
    let mut lanes: Vec<_> = (0..W::LANES)
        .map(|l| {
            let split = if repeat { (l % u64::LANES) as u64 } else { l as u64 };
            streams::random_rng(root.split(split), w)
        })
        .collect();
    let mut words = vec![W::zero(); w];
    for _ in 0..CYCLES {
        words.iter_mut().for_each(|word| *word = W::zero());
        for (l, lane) in lanes.iter_mut().enumerate() {
            let v = lane.next().expect("infinite stream");
            for (word, &bit) in words.iter_mut().zip(&v) {
                word.set_lane(l, bit);
            }
        }
        sim.step(&words).expect("width");
    }
    sim.take_activity()
}

/// The activity a kernel's simulator produces for 64 split-seed streams
/// of `CYCLES` vectors each: 64 merged scalar runs for
/// [`McKernel::Scalar`], one lane-collapsed packed run for the packed
/// kernels. The 256/512-lane kernels drive the same 64 streams repeated
/// across their extra lanes (4x/8x every toggle count), then divide the
/// totals back down — exact, since every toggle count is an integer
/// multiple of the repetition factor.
fn kernel_activity(nl: &Netlist, kernel: McKernel) -> Activity {
    let w = nl.input_count();
    let root = Rng::seed_from_u64(SEED);
    let rescale = |mut act: Activity, factor: u64| {
        for t in &mut act.toggles {
            assert_eq!(*t % factor, 0, "repeated lanes must toggle identically");
            *t /= factor;
        }
        act.cycles /= factor;
        act
    };
    match kernel {
        McKernel::Scalar => {
            let mut total = Activity::zero(nl);
            for l in 0..u64::LANES {
                let mut sim = ZeroDelaySim::new(nl).expect("acyclic");
                for v in streams::random_rng(root.split(l as u64), w).take(CYCLES) {
                    sim.step(&v).expect("width");
                }
                total.merge(&sim.take_activity()).expect("same netlist");
            }
            total
        }
        McKernel::Packed64 => packed_activity::<u64>(nl, false),
        McKernel::Packed256 => rescale(packed_activity::<W256>(nl, true), 4),
        McKernel::Packed512 => rescale(packed_activity::<W512>(nl, true), 8),
        McKernel::Auto => kernel_activity(nl, McKernel::Packed64),
    }
}

fn attribute_under(nl: &Netlist, kernel: McKernel) -> AttributionReport {
    let lib = Library::default();
    let act = kernel_activity(nl, kernel);
    let report = attribute(nl, &lib, &act);
    report
        .reconcile(&act.power(nl, &lib))
        .unwrap_or_else(|e| panic!("{kernel:?} attribution does not reconcile: {e}"));
    report
}

/// Every kernel's attribution reconciles with its power report and is
/// identical to the others' — every node label, toggle count, and
/// energy, at every packed width.
#[test]
fn attribution_is_kernel_independent_on_every_generator() {
    for (name, nl) in generators() {
        let scalar = attribute_under(&nl, McKernel::Scalar);
        for kernel in [McKernel::Packed64, McKernel::Packed256, McKernel::Packed512] {
            let packed = attribute_under(&nl, kernel);
            assert_eq!(
                scalar, packed,
                "{name}: scalar and {kernel:?} kernels attributed different energy"
            );
        }
        assert!(!scalar.nodes.is_empty(), "{name}: nothing toggled");
    }
}

/// The rollups partition the totals: per-node energies (plus the clock
/// term) and per-group energies each sum to `total_energy_fj`, per-bus
/// rollups never exceed it, and the hotspot list is sorted.
#[test]
fn rollups_partition_the_totals_on_every_generator() {
    let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
    for (name, nl) in generators() {
        let r = attribute_under(&nl, McKernel::Packed64);
        let node_sum: f64 = r.nodes.iter().map(|n| n.energy_fj).sum();
        assert!(
            rel(node_sum + r.clock_energy_fj, r.total_energy_fj) < 1e-9,
            "{name}: node energies + clock do not sum to the total"
        );
        assert!(
            rel(r.group_energy_sum_fj(), r.total_energy_fj) < 1e-9,
            "{name}: group rollup does not sum to the total"
        );
        let bus_sum: f64 = r.by_bus.values().map(|b| b.energy_fj).sum();
        assert!(
            bus_sum <= r.total_energy_fj * (1.0 + 1e-9),
            "{name}: bus rollup exceeds the total"
        );
        let group_nodes: usize = r.by_group.values().map(|g| g.nodes).sum();
        // The clock pseudo-entry contributes no node of its own.
        assert_eq!(group_nodes, r.nodes.len(), "{name}: group node counts do not partition");
        for pair in r.nodes.windows(2) {
            assert!(pair[0].energy_fj >= pair[1].energy_fj, "{name}: hotspots not sorted");
        }
    }
}

/// Attribution is insensitive to *how* the same activity was accumulated:
/// merging the 64 per-lane activities of one packed run attributes
/// identically to the lane-collapsed activity of the same run.
#[test]
fn lane_merge_order_does_not_change_attribution() {
    let lib = Library::default();
    for (name, nl) in generators() {
        let w = nl.input_count();
        let root = Rng::seed_from_u64(SEED);
        let mut sim = WideSim::<u64>::new(&nl).expect("acyclic");
        let mut lanes: Vec<_> =
            (0..u64::LANES).map(|l| streams::random_rng(root.split(l as u64), w)).collect();
        let mut words = vec![0u64; w];
        for _ in 0..CYCLES {
            words.iter_mut().for_each(|word| *word = 0);
            for (l, lane) in lanes.iter_mut().enumerate() {
                let v = lane.next().expect("infinite stream");
                for (word, bit) in words.iter_mut().zip(&v) {
                    *word |= u64::from(*bit) << l;
                }
            }
            sim.step(&words).expect("width");
        }
        let mut merged = Activity::zero(&nl);
        for lane_act in sim.take_lane_activities() {
            merged.merge(&lane_act).expect("same netlist");
        }
        let collapsed = kernel_activity(&nl, McKernel::Packed64);
        assert_eq!(merged, collapsed, "{name}: lane merge changed the activity");
        assert_eq!(
            attribute(&nl, &lib, &merged),
            attribute(&nl, &lib, &collapsed),
            "{name}: lane merge changed the attribution"
        );
    }
}
