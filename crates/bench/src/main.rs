//! `repro` — regenerates every table, figure, and quantitative claim of
//! the survey (see DESIGN.md's experiment index).
//!
//! ```text
//! repro --all            # run everything (in parallel across the pool)
//! repro --table1 --fig2  # run selected experiments
//! repro --list           # list experiment ids
//! repro --metrics        # instrumentation smoke + results/metrics.json
//! repro --profile        # power-attribution profiler -> results/profile/
//! repro --ingest f.v ... # ingest external netlists -> results/ingest/
//! repro --serve          # estimation server (HLPOWER_SERVE_ADDR)
//! ```
//!
//! Each experiment prints a human-readable block and writes
//! `results/<id>.json` for EXPERIMENTS.md regeneration. Unknown flags are
//! an error: the flag list is printed and the exit status is non-zero.
//!
//! Setting `HLPOWER_TRACE=<path>` enables span tracing for the whole run
//! and writes a Chrome trace-event JSON (Perfetto-loadable) to `<path>`
//! on exit; the export is validated with the in-tree parser and any
//! ring-buffer drop makes the run fail.
//!
//! Experiments are independent, so selected runners are fanned out across
//! the scoped worker pool (`HLPOWER_THREADS` overrides the width); output
//! blocks are printed in registry order once all runners finish, so the
//! rendered report is byte-identical at any thread count.

use hlpower::obs::trace;
use hlpower_bench::report::ExperimentResult;
use hlpower_bench::{experiments, ingest, metrics, profile};
use hlpower_rng::par;

type Runner = fn() -> ExperimentResult;

fn registry() -> Vec<(&'static str, &'static str, Runner)> {
    use experiments::*;
    vec![
        ("--table1", "T1: Table I FIR capacitance breakdown", hls::table1 as Runner),
        ("--fig4", "F4F5: polynomial restructuring (also --fig5)", hls::figs_4_5),
        ("--pm-sched", "S3D: Monteiro power-management scheduling", hls::pm_scheduling),
        ("--allocate", "S3E: activity-aware allocation", hls::allocation),
        ("--multivolt", "S3F: multiple supply-voltage scheduling", hls::multivoltage),
        ("--tiwari", "S2A-1: Tiwari instruction-level model", software::tiwari),
        (
            "--profile-synthesis",
            "S2A-2: profile-driven program synthesis",
            software::profile_synthesis,
        ),
        ("--coldsched", "S3A: cold scheduling", software::cold_scheduling),
        ("--fig2", "F2: memory-access optimization", software::fig2_memopt),
        (
            "--memory",
            "S2C-M: Liu-Svensson memory model + hierarchy exploration",
            software::memory_exploration,
        ),
        ("--entropy", "S2B-1: information-theoretic estimation", estimation::entropy_models),
        ("--tyagi", "S2B-1T: Tyagi FSM bound", estimation::tyagi),
        ("--complexity", "S2B-2: area-complexity regression", estimation::complexity),
        ("--macromodel", "S2C-1: macro-model accuracy ladder", estimation::macromodel_ladder),
        ("--sampling", "S2C-2: census/sampler/adaptive co-simulation", estimation::sampling_cosim),
        ("--precomp", "F6: precomputation", logic::precomputation),
        ("--clockgate", "F7: gated clocks", logic::gated_clocks),
        ("--guard", "F8: guarded evaluation", logic::guarded_evaluation),
        ("--retime", "F9: low-power retiming", logic::retiming),
        ("--balance", "F9-B: glitch minimization by path balancing", logic::path_balancing),
        ("--fsm-encode", "S3H: FSM state encoding", logic::fsm_encoding),
        (
            "--fsm-decompose",
            "S3H-D: FSM decomposition / selective clocking",
            logic::fsm_decomposition,
        ),
        ("--shutdown", "F3: predictive shutdown policies", system::shutdown_policies),
        ("--buscode", "S3G: bus encoding", system::bus_encoding),
    ]
}

fn print_flag_list(registry: &[(&str, &str, Runner)]) {
    for (flag, desc, _) in registry {
        println!("{flag:<22} {desc}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = registry();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("repro — regenerate the survey's tables and figures\n");
        println!(
            "usage: repro [--all] [--list] [--metrics] [--profile] [--ingest files...] [flags...]\n"
        );
        println!("--metrics runs an instrumentation smoke pass and dumps the");
        println!("accumulated counters to results/metrics.json.");
        println!("--profile runs the power-attribution profiler over the generator");
        println!("suite and writes hotspot reports under results/profile/.");
        println!("--ingest parses external netlists (.nl, structural Verilog, or");
        println!("EDIF 2.0.0; see docs/FORMATS.md), runs the differential battery");
        println!("on each, and writes reports under results/ingest/.");
        println!("--serve runs the estimation server (docs/SERVER.md) until a");
        println!("POST /shutdown arrives; HLPOWER_SERVE_ADDR sets the bind address");
        println!("(default 127.0.0.1:0) and HLPOWER_SERVE_ADDR_FILE, if set,");
        println!("receives the bound address for ephemeral-port discovery.");
        println!("HLPOWER_TRACE=<path> records spans and writes a Chrome trace.\n");
        print_flag_list(&registry);
        return;
    }
    if args.iter().any(|a| a == "--list") {
        print_flag_list(&registry);
        return;
    }
    // Opt into span tracing before any work runs so generator builds,
    // kernel compiles, and pool jobs are all captured.
    let trace_path = trace::env_path();
    if trace_path.is_some() {
        trace::set_enabled(true);
    }
    // Reject unknown flags loudly instead of silently ignoring them: a
    // typo like `--tabel1` must not report "experiments complete".
    // Bare (non-`--`) arguments are netlist files, valid only with
    // --ingest.
    let want_ingest = args.iter().any(|a| a == "--ingest");
    let known = |a: &str| {
        a == "--all"
            || a == "--fig5"
            || a == "--metrics"
            || a == "--profile"
            || a == "--ingest"
            || a == "--serve"
            || (want_ingest && !a.starts_with("--"))
            || registry.iter().any(|(flag, _, _)| a == *flag)
    };
    let unknown: Vec<&String> = args.iter().filter(|a| !known(a)).collect();
    if !unknown.is_empty() {
        for a in &unknown {
            eprintln!("error: unknown flag `{a}`");
        }
        eprintln!("\navailable experiments:");
        print_flag_list(&registry);
        std::process::exit(2);
    }
    let run_all = args.iter().any(|a| a == "--all");
    let want_metrics = args.iter().any(|a| a == "--metrics");
    let want_profile = args.iter().any(|a| a == "--profile");
    let want_serve = args.iter().any(|a| a == "--serve");
    let ingest_files: Vec<String> = args.iter().filter(|a| !a.starts_with("--")).cloned().collect();
    if want_ingest && ingest_files.is_empty() {
        eprintln!("error: --ingest needs at least one netlist file");
        std::process::exit(2);
    }
    let selected: Vec<&(&str, &str, Runner)> = registry
        .iter()
        .filter(|(flag, _, _)| {
            let aliased = *flag == "--fig4" && args.iter().any(|a| a == "--fig5");
            run_all || args.iter().any(|a| a == *flag) || aliased
        })
        .collect();
    if selected.is_empty() && !want_metrics && !want_profile && !want_ingest && !want_serve {
        eprintln!("no experiment matched; try --list");
        std::process::exit(2);
    }
    // Fan the independent experiments out across the pool; print and dump
    // in registry order afterwards so the report is deterministic.
    let results = par::map(&selected, |_, (_, _, runner)| runner());
    let mut failures = 0;
    for result in &results {
        result.print();
        if let Err(e) = result.write_json() {
            eprintln!("warning: could not write results/{}.json: {e}", result.id);
            failures += 1;
        }
    }
    if !results.is_empty() {
        println!("\n{} experiment(s) complete; JSON dumps under results/", results.len());
    }
    if want_metrics {
        // Make sure every instrumented subsystem has moved (experiments
        // alone may not touch all of them), then dump the accumulated
        // metrics — experiment work and smoke work combined.
        metrics::run_smoke();
        let snap = hlpower::obs::metrics::snapshot();
        println!("\n== metrics ({}) ==", snap.schema);
        print!("{}", snap.render_text());
        if let Err(e) = std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write("results/metrics.json", snap.to_json_pretty()))
        {
            eprintln!("warning: could not write results/metrics.json: {e}");
            failures += 1;
        } else {
            println!("\nmetrics dump written to results/metrics.json");
        }
        let zeros = metrics::zero_counters(&snap);
        if !zeros.is_empty() {
            for z in &zeros {
                eprintln!("error: instrumented counter `{z}` is zero after the smoke run");
            }
            failures += 1;
        }
    }
    if want_profile {
        let outcomes = profile::run_profile();
        for o in &outcomes {
            o.print();
            if let Err(e) = &o.reconcile {
                eprintln!("error: {}: attribution does not reconcile: {e}", o.name);
                failures += 1;
            }
            if let Err(e) = o.write_files() {
                eprintln!("warning: could not write results/profile/{}.*: {e}", o.name);
                failures += 1;
            }
        }
        println!(
            "\n{} circuit(s) profiled; hotspot reports under results/profile/",
            outcomes.len()
        );
    }
    if want_ingest {
        let outcomes = ingest::run_ingest(&ingest_files);
        for o in &outcomes {
            o.print();
            if !o.ok() {
                eprintln!("error: {}: ingestion checks failed", o.path);
                failures += 1;
            }
            if o.netlist.is_ok() {
                if let Err(e) = o.write_files() {
                    eprintln!("warning: could not write results/ingest/{}.json: {e}", o.stem);
                    failures += 1;
                }
            }
        }
        println!("\n{} netlist(s) ingested; reports under results/ingest/", outcomes.len());
    }
    // The estimation server runs last (it blocks until POST /shutdown),
    // so `repro --metrics --serve` surfaces the smoke counters live.
    if want_serve {
        let addr =
            std::env::var("HLPOWER_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:0".to_string());
        let config = hlpower_serve::ServerConfig { addr, ..Default::default() };
        match hlpower_serve::Server::start(config) {
            Ok(server) => {
                let bound = server.addr();
                println!("repro: serving estimates on {bound} (POST /shutdown to stop)");
                if let Ok(path) = std::env::var("HLPOWER_SERVE_ADDR_FILE") {
                    if let Err(e) = std::fs::write(&path, bound.to_string()) {
                        eprintln!("warning: could not write {path}: {e}");
                        failures += 1;
                    }
                }
                server.join();
                println!("repro: estimation server stopped");
            }
            Err(e) => {
                eprintln!("error: could not start estimation server: {e}");
                failures += 1;
            }
        }
    }
    // Export the span trace last so every subsystem's spans are in it.
    // A failed export, an invalid trace, any ring-buffer drop, or an
    // event neither exported nor counted dropped fails the run: a
    // silently truncated trace would masquerade as a quiet one.
    if let Some(path) = trace_path {
        match trace::write_chrome_json(&path) {
            Ok(n) => {
                if let Err(e) = trace::check_accounting(n) {
                    eprintln!("error: {e}");
                    failures += 1;
                }
                let text = std::fs::read_to_string(&path).unwrap_or_default();
                match trace::parse_chrome_trace(&text) {
                    Ok(parsed) if parsed.len() == n => {
                        println!("trace: {n} span(s) written to {}", path);
                    }
                    Ok(parsed) => {
                        eprintln!(
                            "error: trace round-trip mismatch: wrote {n}, parsed {}",
                            parsed.len()
                        );
                        failures += 1;
                    }
                    Err(e) => {
                        eprintln!("error: exported trace is not valid Chrome JSON: {e}");
                        failures += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("error: could not write trace to {}: {e}", path);
                failures += 1;
            }
        }
        let dropped = trace::dropped();
        if dropped > 0 {
            eprintln!("error: {dropped} trace event(s) dropped (ring/sink overflow)");
            failures += 1;
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
