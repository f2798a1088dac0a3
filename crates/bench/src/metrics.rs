//! The `repro --metrics` smoke run: exercises every instrumented
//! subsystem, snapshots the metric registry, and checks that no required
//! counter stayed at zero.
//!
//! This exists so CI can verify the observability layer end-to-end: the
//! smoke run drives the zero-delay simulator, the event-driven simulator,
//! the BDD manager (including a sifting pass), the Monte-Carlo engine,
//! the scoped worker pool, the macro-model fit/predict/co-simulation
//! path, and an in-process estimation server (blocking, streamed,
//! cache-hit, error, and keep-alive requests); the resulting snapshot is
//! printed as a human-readable summary and archived as bench-style JSON
//! under `results/metrics.json`.
//!
//! Coverage is **derived from the registry itself**: every `Count`,
//! `Nanos`, and `Hist` entry of [`Snapshot::sections`] must be nonzero
//! after the smoke run unless it is explicitly allowlisted in
//! [`ALLOWED_ZERO`] — so adding a new instrumented counter automatically
//! extends the gate, and forgetting to exercise it fails CI instead of
//! silently shipping dead instrumentation.

use std::io::Write;
use std::net::TcpStream;

use hlpower::bdd::build_output_bdds;
use hlpower::estimate::sampling::{cosimulate, CosimStrategy};
use hlpower::estimate::{MacroModelKind, ModuleHarness, TrainedMacroModel};
use hlpower::netlist::{
    gen, monte_carlo_power_seeded_threads_kernel, streams, timed_activity, EventDrivenSim, Library,
    McKernel, MonteCarloOptions, Netlist, ZeroDelaySim,
};
use hlpower::optimize::rewrite::{demorgan_example, rewrite_gates, RewriteOptions};
use hlpower_obs::json;
use hlpower_obs::metrics;
use hlpower_obs::report::{Snapshot, Value};
use hlpower_serve::{client, Server, ServerConfig};

/// Registry entries that may legitimately read zero after a healthy smoke
/// run, as `(section, name)` pairs — all timing-dependent or
/// failure-path counters:
///
/// * `monte_carlo.discarded_batches` — only moves when the stop rule
///   truncates a speculative wave, which depends on scheduling.
/// * `pool.idle_ns` — zero when workers finish in lockstep.
/// * `serve.cache_evictions` — the smoke never overflows the kernel cache.
/// * `trace.*` — drop counters; zero is the *healthy* reading.
pub const ALLOWED_ZERO: &[(&str, &str)] = &[
    ("monte_carlo", "discarded_batches"),
    ("pool", "idle_ns"),
    ("serve", "cache_evictions"),
    ("trace", "dropped"),
    ("trace", "ring_dropped"),
    ("trace", "sink_dropped"),
];

fn adder(bits: usize) -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", bits);
    let b = nl.input_bus("b", bits);
    let c0 = nl.constant(false);
    let s = gen::ripple_adder(&mut nl, &a, &b, c0);
    nl.output_bus("s", &s);
    nl
}

fn estimate_body(src: &str, stream: bool) -> String {
    json!({
        "netlist": src,
        "seed": 7,
        "stream": stream,
        "options": {
            "batch_cycles": 15,
            "max_batches": 100,
            "target_relative_error": 0.0,
            "z": 1.96,
        },
    })
    .compact()
}

/// Drives the estimation server end to end: blocking and streamed
/// estimates, a cache hit, a malformed request, and a keep-alive
/// connection serving two requests — every `serve`/`serve_stage` counter
/// moves.
fn smoke_server() {
    let config = ServerConfig { access_log: None, slow_ms: None, ..ServerConfig::default() };
    let server = Server::start(config).expect("start estimation server");
    let addr = server.addr().to_string();
    let verilog = include_str!("../../../examples/gray_counter4.v");

    let first = client::request(&addr, "POST", "/estimate", Some(&estimate_body(verilog, false)))
        .expect("blocking estimate");
    assert_eq!(first.status, 200, "{}", first.body);
    // Same netlist again: must hit the kernel cache.
    let second = client::request(&addr, "POST", "/estimate", Some(&estimate_body(verilog, false)))
        .expect("cache-hit estimate");
    assert_eq!(second.status, 200, "{}", second.body);
    // Streamed: 100 batches at 64 lanes/round means several rounds, so
    // interim updates flow.
    let streamed = client::request(&addr, "POST", "/estimate", Some(&estimate_body(verilog, true)))
        .expect("streamed estimate");
    assert_eq!(streamed.status, 200, "{}", streamed.body);
    // Malformed JSON: a structured 400, driving `serve.requests_err`.
    let bad = client::request(&addr, "POST", "/estimate", Some("{\"netlist\": "))
        .expect("malformed estimate");
    assert_eq!(bad.status, 400, "{}", bad.body);
    // Two requests over one keep-alive connection, driving
    // `serve.connections_reused`.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone socket"));
    for _ in 0..2 {
        stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: smoke\r\n\r\n").expect("write");
        stream.flush().expect("flush");
        let resp = client::read_response(&mut reader).expect("keep-alive response");
        assert_eq!(resp.status, 200);
    }
    drop(stream);
    server.stop();
}

/// Exercises every instrumented subsystem once and returns the resulting
/// metric snapshot.
///
/// The run is small (a few hundred cycles on 8-bit adders, one BDD sift
/// on a 6-variable function, a handful of server requests on an
/// ephemeral port) — enough to make every non-allowlisted counter move
/// without noticeably extending CI.
pub fn run_smoke() -> Snapshot {
    let lib = Library::default();

    // Zero-delay simulator.
    let nl = adder(8);
    let mut zd = ZeroDelaySim::new(&nl).expect("acyclic adder");
    zd.run(streams::random(11, nl.input_count()).take(300)).expect("width matches");

    // Event-driven simulator (captures glitches on the carry chain).
    let mut ev = EventDrivenSim::new(&nl, &lib).expect("acyclic adder");
    ev.run(streams::random(13, nl.input_count()).take(200)).expect("width matches");

    // Packed timed kernel (the 64-lane levelized glitch simulator).
    let stream: Vec<Vec<bool>> = streams::random(19, nl.input_count()).take(150).collect();
    timed_activity(&nl, &lib, &stream, McKernel::Packed64).expect("width matches");

    // BDD manager + sifting on the interleaved-AND function, whose size is
    // order-sensitive (so the sift actually moves variables).
    let mut bnl = Netlist::new();
    let xs: Vec<_> = (0..6).map(|i| bnl.input(format!("x{i}"))).collect();
    let t1 = bnl.and([xs[0], xs[3]]);
    let t2 = bnl.and([xs[1], xs[4]]);
    let t3 = bnl.and([xs[2], xs[5]]);
    let y = bnl.or([t1, t2, t3]);
    bnl.set_output("y", y);
    let (m, roots) = build_output_bdds(&bnl).expect("acyclic function");
    m.sift(&roots);

    // Monte-Carlo engine on two workers (drives the pool's parallel path
    // and, through the default kernel, the lane-parallel packed simulator).
    let w = nl.input_count();
    monte_carlo_power_seeded_threads_kernel(
        &nl,
        &lib,
        |rng| streams::random_rng(rng, w),
        42,
        &MonteCarloOptions { batch_cycles: 100, max_batches: 192, ..Default::default() },
        2,
        McKernel::Auto,
    )
    .expect("smoke Monte-Carlo run");

    // Macro-model characterization trace (drives the time-packed
    // combinational kernel: `sim_packed.blocks`), then the regression
    // fit, census prediction, and sampler co-simulation (the `estimate`
    // section: fits, predictions, cosim runs, sampler groups).
    let harness = ModuleHarness::adder(8, Library::default());
    let records = harness.trace(streams::random(17, 16).take(130)).expect("smoke trace");
    let model = TrainedMacroModel::fit_sweep(&[MacroModelKind::Bitwise], &records)
        .pop()
        .expect("one fit")
        .expect("bitwise fit");
    cosimulate(&model, &records, CosimStrategy::Census, 5).expect("census cosim");
    cosimulate(&model, &records, CosimStrategy::Sampler { groups: 4, group_size: 30 }, 5)
        .expect("sampler cosim");

    // Dirty-cone incremental re-simulation, via the rewrite pass that is
    // its canonical consumer (records once, then resims and commits or
    // rolls back edit sessions, so all four `sim_incremental` counters
    // move).
    let rnl = demorgan_example(4);
    let rstream: Vec<Vec<bool>> = streams::random(23, rnl.input_count()).take(128).collect();
    let rewritten = rewrite_gates(&rnl, &lib, &rstream, &RewriteOptions::default())
        .expect("smoke rewrite pass");
    assert!(rewritten.optimized_uw <= rewritten.baseline_uw);

    // The estimation server (the `serve` and `serve_stage` sections).
    smoke_server();

    metrics::snapshot()
}

/// Returns the `section.name` paths of registry entries that are zero
/// (counters/nanos at 0, histograms with no samples) in `snap` and not
/// excused by [`ALLOWED_ZERO`]. Gauges and series are skipped — gauges
/// legitimately return to zero at quiesce, and series are baselines, not
/// activity. Empty means the smoke check passed.
pub fn zero_counters(snap: &Snapshot) -> Vec<String> {
    let mut zeros = Vec::new();
    for section in &snap.sections {
        for (name, value) in &section.entries {
            if ALLOWED_ZERO.contains(&(section.name, name)) {
                continue;
            }
            let stuck = match value {
                Value::Count(n) | Value::Nanos(n) => *n == 0,
                Value::Hist(h) => h.count == 0,
                Value::Float(_) | Value::Gauge(_) | Value::Series(_) => false,
            };
            if stuck {
                zeros.push(format!("{}.{}", section.name, name));
            }
        }
    }
    zeros
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_moves_every_registry_counter() {
        let snap = run_smoke();
        let zeros = zero_counters(&snap);
        assert!(zeros.is_empty(), "counters stuck at zero: {zeros:?}");
    }

    #[test]
    fn allowlist_only_names_real_registry_entries() {
        // A typo'd or stale allowlist entry would silently widen the
        // gate; pin every pair to an existing (section, name).
        let snap = metrics::snapshot();
        for (section, name) in ALLOWED_ZERO {
            let found = snap
                .sections
                .iter()
                .find(|s| s.name == *section)
                .is_some_and(|s| s.entries.iter().any(|(n, _)| n == name));
            assert!(found, "ALLOWED_ZERO names unknown entry {section}.{name}");
        }
    }

    #[test]
    fn smoke_snapshot_serializes() {
        let snap = run_smoke();
        let json = snap.to_json_pretty();
        assert!(json.contains("\"monte_carlo\""));
        assert!(json.contains("\"pool\""));
        assert!(json.contains("\"serve_stage\""));
        assert!(!snap.render_text().is_empty());
    }
}
