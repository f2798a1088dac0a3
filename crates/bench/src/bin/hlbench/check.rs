//! Correctness: in-process references under the server's bit-identity
//! contract, and the bit-for-bit comparison every response goes through.

use std::collections::{HashMap, HashSet};

use hlpower::netlist::{
    monte_carlo_glitch_power_seeded_threads_kernel, monte_carlo_power_seeded_threads_kernel,
    streams, Library, McKernel, MonteCarloOptions, MonteCarloResult, Netlist, TimedKernel,
};
use hlpower_obs::json;
use hlpower_rng::par;

use crate::workload::{Circuit, Spec};

/// The three fields a response must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Estimate {
    pub power_bits: u64,
    pub batches: usize,
    pub cycles: u64,
}

impl From<&MonteCarloResult> for Estimate {
    fn from(r: &MonteCarloResult) -> Self {
        Estimate { power_bits: r.power_uw.to_bits(), batches: r.batches, cycles: r.cycles }
    }
}

/// Reads the estimate out of a `POST /estimate` response body.
pub fn parse_estimate(body: &str) -> Result<Estimate, String> {
    let v = json::parse(body).map_err(|e| format!("unparseable response: {e}"))?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("response has no `{k}`"));
    Ok(Estimate {
        power_bits: field("power_uw")?.as_f64().ok_or("`power_uw` is not a number")?.to_bits(),
        batches: field("batches")?.as_u64().ok_or("`batches` is not a count")? as usize,
        cycles: field("cycles")?.as_u64().ok_or("`cycles` is not a count")?,
    })
}

/// Compares an estimate with its reference, bit for bit.
pub fn check(got: &Estimate, want: &Estimate) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let show = |e: &Estimate| {
        let power = f64::from_bits(e.power_bits);
        format!("{power} (bits {:#x}), {} batches, {} cycles", e.power_bits, e.batches, e.cycles)
    };
    Err(format!("power {}; reference {}", show(got), show(want)))
}

/// The Monte-Carlo options a request asks the server for.
pub fn options(spec: &Spec) -> MonteCarloOptions {
    MonteCarloOptions {
        batch_cycles: spec.batch_cycles,
        max_batches: spec.max_batches,
        target_relative_error: if spec.fixed_work { 0.0 } else { 0.01 },
        z: 1.96,
    }
}

/// The offline estimate the server must reproduce: the seeded engine on
/// the server's stimulus (`streams::random_rng`) and default library.
/// `packed64` selects the 64-lane kernels instead of `Auto`.
pub fn offline_estimate(
    nl: &Netlist,
    seed: u64,
    opts: &MonteCarloOptions,
    glitch: bool,
    threads: usize,
    packed64: bool,
) -> MonteCarloResult {
    let lib = Library::default();
    let w = nl.input_count();
    let stream = |rng| streams::random_rng(rng, w);
    let result = if glitch {
        let kernel = if packed64 { TimedKernel::Packed64 } else { TimedKernel::Auto };
        monte_carlo_glitch_power_seeded_threads_kernel(
            nl, &lib, stream, seed, opts, threads, kernel,
        )
    } else {
        let kernel = if packed64 { McKernel::Packed64 } else { McKernel::Auto };
        monte_carlo_power_seeded_threads_kernel(nl, &lib, stream, seed, opts, threads, kernel)
    };
    result.expect("benchmark circuits are acyclic and streams unbounded")
}

/// Reference key: the width does not change results, so it is not part
/// of it.
pub type RefKey = (usize, u64, usize, usize, bool, bool);

pub fn ref_key(circuit: usize, spec: &Spec) -> RefKey {
    (circuit, spec.seed, spec.batch_cycles, spec.max_batches, spec.glitch, spec.fixed_work)
}

/// One reference per distinct key, computed on two threads.
pub fn references(
    circuits: &[Circuit],
    wanted: impl IntoIterator<Item = (usize, Spec)>,
) -> HashMap<RefKey, Estimate> {
    let mut seen = HashSet::new();
    let keys: Vec<(RefKey, Spec)> = wanted
        .into_iter()
        .filter(|(c, spec)| seen.insert(ref_key(*c, spec)))
        .map(|(c, spec)| (ref_key(c, &spec), spec))
        .collect();
    let results = par::map_with_threads(2, &keys, |_, (key, spec)| {
        let nl = &circuits[key.0].netlist;
        Estimate::from(&offline_estimate(nl, spec.seed, &options(spec), spec.glitch, 1, false))
    });
    keys.into_iter().map(|(k, _)| k).zip(results).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_one_ulp_difference_in_power_is_flagged() {
        let want = Estimate { power_bits: 123.456f64.to_bits(), batches: 60, cycles: 3599 };
        let body = format!("{{\"power_uw\": {:?}, \"batches\": 60, \"cycles\": 3599}}", 123.456f64);
        let got = parse_estimate(&body).unwrap();
        assert_eq!(check(&got, &want), Ok(()));
        let next = f64::from_bits(123.456f64.to_bits() + 1);
        let body = format!("{{\"power_uw\": {next:?}, \"batches\": 60, \"cycles\": 3599}}");
        let got = parse_estimate(&body).unwrap();
        assert!(check(&got, &want).is_err(), "one ulp must not pass");
    }
}
