//! Slot-packed zero-delay words against the scalar kernel, to the bit.
//!
//! A zero-delay word of `W` lanes settles `S` of its cycles side by side
//! on wider words: `S` is 8 for a 64-lane word of at least 8 cycles (on
//! 512 lanes), 4 for one of 4 to 7 cycles, 2 for a 256-lane word, and 1
//! (stepped a cycle at a time) for a 512-lane word or a 64-lane word of
//! fewer than 4 cycles. Every lane's sample must agree with the scalar
//! kernel's on `f64::to_bits` and cycle count, for multi-tenant words with
//! ragged budgets whose longest is not a multiple of `S`, on a
//! combinational netlist, a delay line (flip-flops fed by sources) and a
//! registered accumulator (flip-flops fed through gates, with feedback),
//! on the lane-parallel stimulus and on streams that end early.

use hlpower_netlist::{
    gen, simulate_lanes, streams, LaneRequest, Library, McKernel, Netlist, PowerModel,
};
use hlpower_rng::Rng;

fn multiplier() -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", 4);
    let b = nl.input_bus("b", 4);
    let p = gen::array_multiplier(&mut nl, &a, &b);
    nl.output_bus("p", &p);
    nl
}

/// A delay line: the FIR's flip-flops read sources only.
fn fir() -> Netlist {
    let mut nl = Netlist::new();
    let x = nl.input_bus("x", 4);
    let y = gen::fir_filter(&mut nl, &x, &[3, 5, 3], true);
    nl.output_bus("y", &y);
    nl
}

/// A 5-bit accumulator `q <- q + a`, so each flip-flop's D input is an
/// adder output that reads the flip-flops back.
fn accumulator() -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", 5);
    let q: Vec<_> = (0..5).map(|i| nl.dff_placeholder(i % 2 == 1)).collect();
    let c0 = nl.constant(false);
    let sum = gen::ripple_adder(&mut nl, &q, &a, c0);
    for (&qi, &si) in q.iter().zip(&sum) {
        nl.connect_dff_d(qi, si);
    }
    nl.output_bus("q", &q);
    nl
}

/// `width - trim` lanes of mixed seeds and batches whose budgets cycle
/// through `budgets`.
fn tenants(width: usize, trim: usize, budgets: &[usize]) -> Vec<LaneRequest> {
    let seeds = [5, 0x1997, 42];
    (0..width - trim)
        .map(|l| LaneRequest {
            seed: seeds[l % seeds.len()],
            batch: (l * 7 + 1) as u64,
            cycles: budgets[l % budgets.len()],
        })
        .collect()
}

/// The words each kernel width is checked on, named by their slot count.
fn words(width: usize) -> Vec<(String, Vec<LaneRequest>)> {
    let mut out = vec![
        ("long".to_string(), tenants(width, 0, &[61, 0, 1, 17, 9, 60, 2, 33])),
        ("ragged".to_string(), tenants(width, 19, &[13, 5, 1, 12, 0, 8])),
        ("few".to_string(), tenants(width, width - 3, &[11, 23, 7])),
    ];
    if width == 64 {
        // Four slots (at most 7 cycles) and one (at most 3).
        out.push(("four slots".to_string(), tenants(width, 1, &[7, 3, 0, 5, 6])));
        out.push(("one slot".to_string(), tenants(width, 0, &[3, 1, 2, 0])));
    }
    out
}

/// One word through `simulate_lanes`, as `(power bits, cycles)` per lane.
fn run<F, I>(nl: &Netlist, kernel: McKernel, stream_fn: &F, lanes: &[LaneRequest]) -> Vec<u128>
where
    F: Fn(Rng) -> I,
    I: IntoIterator<Item = Vec<bool>>,
    I::IntoIter: 'static,
{
    let model = PowerModel::new(nl, &Library::default());
    let samples = simulate_lanes(nl, None, &model, None, kernel, stream_fn, lanes).unwrap();
    let bits = |s: Option<(f64, u64)>| {
        s.map_or(u128::MAX, |(p, c)| u128::from(p.to_bits()) << 64 | u128::from(c))
    };
    samples.into_iter().map(bits).collect()
}

#[test]
fn slot_packed_words_match_the_scalar_kernel() {
    for (name, nl) in [("multiplier", multiplier()), ("fir", fir()), ("accumulator", accumulator())]
    {
        let w = nl.input_count();
        let random = |rng: Rng| streams::random_rng(rng, w);
        // Per-lane stream lengths drawn from the lane's own stream, so some
        // lanes stop before their budget and some are empty.
        let ending = |mut rng: Rng| {
            let len = (rng.next_u64() % 40) as usize;
            streams::random_rng(rng, w).take(len).collect::<Vec<_>>()
        };
        for (kernel, width) in
            [(McKernel::Packed64, 64), (McKernel::Packed256, 256), (McKernel::Packed512, 512)]
        {
            for (word, lanes) in words(width) {
                let at = format!("{name} {kernel:?} {word}");
                let scalar = run(&nl, McKernel::Scalar, &random, &lanes);
                assert_eq!(run(&nl, kernel, &random, &lanes), scalar, "{at}");
                let scalar = run(&nl, McKernel::Scalar, &ending, &lanes);
                assert_eq!(run(&nl, kernel, &ending, &lanes), scalar, "{at}, ending streams");
                assert!(scalar.iter().any(|&s| s != u128::MAX), "{at}: some lane counts");
            }
        }
    }
}

#[test]
fn a_lane_counts_the_same_alone_and_among_tenants() {
    let nl = accumulator();
    let w = nl.input_count();
    let random = |rng: Rng| streams::random_rng(rng, w);
    let lanes = tenants(64, 0, &[61, 0, 1, 17, 9, 60, 2, 33]);
    let packed = run(&nl, McKernel::Packed64, &random, &lanes);
    for (l, lane) in lanes.iter().enumerate().step_by(7) {
        let alone = run(&nl, McKernel::Packed64, &random, std::slice::from_ref(lane));
        assert_eq!(alone[0], packed[l], "lane {l} ({lane:?})");
    }
}
