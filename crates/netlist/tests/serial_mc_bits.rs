//! Bit-level pins for the serial [`monte_carlo_power`]: one case per way
//! its stopping rule can end a run (confidence target met, batch budget
//! spent, stream ended mid-batch, zero budget), on a combinational and on
//! a registered circuit. The registered case carries flip-flop state
//! across batch boundaries, so any change to how batches share the one
//! simulator moves its bits.

use hlpower_netlist::{
    gen, monte_carlo_power, streams, Library, MonteCarloOptions, Netlist, NetlistError,
};

fn adder(bits: usize, registered: bool) -> Netlist {
    let mut nl = Netlist::new();
    let mut a = nl.input_bus("a", bits);
    let mut b = nl.input_bus("b", bits);
    if registered {
        a = nl.dff_bus(&a);
        b = nl.dff_bus(&b);
    }
    let c0 = nl.constant(false);
    let s = gen::ripple_adder(&mut nl, &a, &b, c0);
    let s = if registered { nl.dff_bus(&s) } else { s };
    nl.output_bus("s", &s);
    nl
}

/// `(power_uw bits, half_width_uw bits, batches, cycles)` of one run over
/// the first `vectors` vectors of seed `seed`'s random stream.
fn run(
    nl: &Netlist,
    seed: u64,
    vectors: usize,
    opts: MonteCarloOptions,
) -> Result<(u64, u64, usize, u64), NetlistError> {
    let stream = streams::random(seed, nl.input_count()).take(vectors);
    let r = monte_carlo_power(nl, &Library::default(), stream, &opts)?;
    Ok((r.power_uw.to_bits(), r.half_width_uw.to_bits(), r.batches, r.cycles))
}

fn opts(batch_cycles: usize, max_batches: usize, target_relative_error: f64) -> MonteCarloOptions {
    MonteCarloOptions { batch_cycles, max_batches, target_relative_error, z: 1.96 }
}

#[test]
fn early_stop_is_pinned_to_the_bit() {
    let got = run(&adder(8, false), 7, usize::MAX, opts(100, 500, 0.05)).unwrap();
    assert_eq!(got, (4637414423660081845, 4607287288566949156, 5, 499));
}

#[test]
fn budget_exhaustion_is_pinned_to_the_bit() {
    let got = run(&adder(8, false), 11, usize::MAX, opts(40, 9, 0.0)).unwrap();
    assert_eq!(got, (4637380776299009791, 4610971261020446304, 9, 359));
}

#[test]
fn registered_state_carries_across_batches_to_the_bit() {
    let got = run(&adder(6, true), 3, usize::MAX, opts(25, 12, 0.0)).unwrap();
    assert_eq!(got, (4639509999200696022, 4611865990760874390, 12, 299));
}

#[test]
fn stream_ending_mid_batch_is_pinned_to_the_bit() {
    // 3.5 batches of vectors under a 50-batch budget: the half batch is
    // the last sample, and the run ends on the stream, not the budget.
    let got = run(&adder(8, true), 5, 350, opts(100, 50, 0.0)).unwrap();
    assert_eq!(got, (4641182409734958560, 4616795630909114278, 4, 349));
}

#[test]
fn zero_budget_and_empty_stream_are_empty_stream_errors() {
    let nl = adder(4, false);
    assert!(matches!(run(&nl, 1, usize::MAX, opts(10, 0, 0.05)), Err(NetlistError::EmptyStream)));
    assert!(matches!(run(&nl, 1, 0, opts(10, 5, 0.05)), Err(NetlistError::EmptyStream)));
}
