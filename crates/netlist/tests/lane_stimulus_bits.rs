//! The packed kernels' lane-parallel stimulus path against the per-vector
//! path, to the bit.
//!
//! `streams::random_rng` returns `RandomVectors`, which the packed kernels
//! recognise and draw a whole word of at once. Any adaptor over it hides
//! the type; `.fuse()` changes nothing else, so the same vectors go
//! through the per-vector path. Every sample must agree on `f64::to_bits`
//! and cycle count, at 64, 256 and 512 lanes, in zero-delay and glitch
//! mode, for full words, ragged words, and lanes with mixed seeds and
//! uneven budgets.

use hlpower_netlist::{
    gen, simulate_lanes, streams, LaneRequest, Library, McKernel, Netlist, NetlistError, PowerModel,
};
use hlpower_rng::Rng;

type Samples = Result<Vec<Option<(u64, u64)>>, NetlistError>;

fn multiplier() -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", 4);
    let b = nl.input_bus("b", 4);
    let p = gen::array_multiplier(&mut nl, &a, &b);
    nl.output_bus("p", &p);
    nl
}

/// Sequential: the FIR's delay line is a chain of flip-flops.
fn fir() -> Netlist {
    let mut nl = Netlist::new();
    let x = nl.input_bus("x", 4);
    let y = gen::fir_filter(&mut nl, &x, &[3, 5, 3], true);
    nl.output_bus("y", &y);
    nl
}

/// One word of `lanes` through `simulate_lanes` with `stream_fn`, as
/// `(power bits, cycles)` per lane.
fn run<F, I>(
    nl: &Netlist,
    glitch: bool,
    kernel: McKernel,
    stream_fn: &F,
    lanes: &[LaneRequest],
) -> Samples
where
    F: Fn(Rng) -> I,
    I: IntoIterator<Item = Vec<bool>>,
    I::IntoIter: 'static,
{
    let lib = Library::default();
    let model = PowerModel::new(nl, &lib);
    let lib = glitch.then_some(&lib);
    let samples = simulate_lanes(nl, lib, &model, None, kernel, stream_fn, lanes)?;
    Ok(samples.into_iter().map(|s| s.map(|(p, c)| (p.to_bits(), c))).collect())
}

/// The lane sets every width is checked on.
fn lane_sets(width: usize) -> Vec<(&'static str, Vec<LaneRequest>)> {
    let full = (0..width as u64).map(|batch| LaneRequest { seed: 7, batch, cycles: 12 }).collect();
    let ragged =
        (0..(width - 37) as u64).map(|batch| LaneRequest { seed: 8, batch, cycles: 9 }).collect();
    let budgets = [0, 1, 13, 2, 0, 7, 1, 20];
    let seeds = [1, 99, 12_345];
    let mixed = (0..width - 5)
        .map(|l| LaneRequest {
            seed: seeds[l % seeds.len()],
            batch: (l * 3) as u64,
            cycles: budgets[l % budgets.len()],
        })
        .collect();
    let idle = vec![LaneRequest { seed: 3, batch: 0, cycles: 0 }; 3];
    vec![("full", full), ("ragged", ragged), ("mixed", mixed), ("idle", idle)]
}

#[test]
fn lane_parallel_stimulus_matches_per_vector_stimulus() {
    for (name, nl) in [("multiplier", multiplier()), ("fir", fir())] {
        let w = nl.input_count();
        let fast = |rng: Rng| streams::random_rng(rng, w);
        let slow = |rng: Rng| streams::random_rng(rng, w).fuse();
        for (kernel, width) in
            [(McKernel::Packed64, 64), (McKernel::Packed256, 256), (McKernel::Packed512, 512)]
        {
            for glitch in [false, true] {
                for (set, lanes) in lane_sets(width) {
                    let got = run(&nl, glitch, kernel, &fast, &lanes).expect("width matches");
                    let want = run(&nl, glitch, kernel, &slow, &lanes).expect("width matches");
                    assert_eq!(got, want, "{name} {kernel:?} glitch={glitch} {set}");
                    // The first step only initializes, so it is not counted.
                    for (s, r) in got.iter().zip(&lanes) {
                        let counted = r.cycles.checked_sub(1).map(|c| c as u64);
                        assert_eq!(s.map(|(_, c)| c), counted, "{name} {kernel:?} {set}");
                    }
                }
            }
        }
    }
}

#[test]
fn fast_path_agrees_with_the_scalar_kernel() {
    let nl = multiplier();
    let w = nl.input_count();
    let fast = |rng: Rng| streams::random_rng(rng, w);
    let lanes = &lane_sets(64)[2].1;
    for glitch in [false, true] {
        assert_eq!(
            run(&nl, glitch, McKernel::Packed64, &fast, lanes).unwrap(),
            run(&nl, glitch, McKernel::Scalar, &fast, lanes).unwrap(),
            "glitch={glitch}"
        );
    }
}

#[test]
fn wrong_width_gives_the_same_error_on_both_paths() {
    let nl = multiplier();
    let w = nl.input_count();
    // Every lane too wide.
    let fast = |rng: Rng| streams::random_rng(rng, w + 1);
    let slow = |rng: Rng| streams::random_rng(rng, w + 1).fuse();
    // Widths that vary by lane: the first lane with a nonzero budget and
    // a wrong width decides the error.
    let mixed_width = |rng: Rng| {
        let narrow = rng.clone().next_u64().is_multiple_of(3);
        streams::random_rng(rng, if narrow { w - 1 } else { w })
    };
    let mixed_slow = |rng: Rng| mixed_width(rng).fuse();
    for (kernel, width) in
        [(McKernel::Packed64, 64), (McKernel::Packed256, 256), (McKernel::Packed512, 512)]
    {
        for glitch in [false, true] {
            for (set, lanes) in lane_sets(width) {
                let got = run(&nl, glitch, kernel, &fast, &lanes);
                assert_eq!(got, run(&nl, glitch, kernel, &slow, &lanes), "{kernel:?} {set}");
                if set != "idle" {
                    let want = NetlistError::InputWidthMismatch { got: w + 1, expected: w };
                    assert_eq!(got, Err(want), "{kernel:?} {set}");
                }
                let got = run(&nl, glitch, kernel, &mixed_width, &lanes);
                assert_eq!(got, run(&nl, glitch, kernel, &mixed_slow, &lanes), "{kernel:?} {set}");
            }
        }
    }
}
