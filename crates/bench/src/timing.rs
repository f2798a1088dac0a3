//! A minimal wall-clock timing harness for the `benches/` targets (the
//! in-tree replacement for the external `criterion` dependency).
//!
//! Usage mirrors the criterion subset the benches used:
//!
//! ```no_run
//! let mut g = hlpower_bench::timing::group("table1");
//! g.bench_function("estimate", || 2 + 2);
//! g.finish();
//! ```
//!
//! Each benchmark is calibrated so one measurement lasts a target wall
//! time, then several samples are taken and the median per-iteration time
//! reported. Two effort levels:
//!
//! * default — quick mode: short calibration, few samples; suitable as a
//!   CI smoke test.
//! * `HLPOWER_BENCH_FULL=1` — full mode: longer measurements, more
//!   samples, tighter medians.
//!
//! Setting `HLPOWER_BENCH_METRICS=1` additionally prints, after each
//! benchmark, the per-iteration deltas of every instrumented counter the
//! measured closure moved (see `hlpower-obs`) — e.g. ITE calls per
//! iteration for the BDD benches.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hlpower_obs::metrics;
use hlpower_obs::report::Value;

/// Whether benches run their full measurement (`HLPOWER_BENCH_FULL` set)
/// rather than the quick smoke workload.
pub fn full_mode() -> bool {
    std::env::var_os("HLPOWER_BENCH_FULL").is_some()
}

fn metrics_mode() -> bool {
    std::env::var_os("HLPOWER_BENCH_METRICS").is_some()
}

/// A named group of related benchmarks (prints a header, aligns rows).
pub struct Group {
    name: String,
    rows: usize,
}

/// Starts a benchmark group named `name`.
pub fn group(name: &str) -> Group {
    Group { name: name.to_string(), rows: 0 }
}

impl Group {
    /// Measures `f`, reporting the median per-iteration time.
    ///
    /// The closure's return value is passed through
    /// [`std::hint::black_box`] so the computation cannot be optimized
    /// away.
    pub fn bench_function<R, F: FnMut() -> R>(&mut self, name: &str, mut f: F) {
        if self.rows == 0 {
            println!("group {}", self.name);
        }
        self.rows += 1;
        let (sample_time, samples) = if full_mode() {
            (Duration::from_millis(300), 20)
        } else {
            (Duration::from_millis(30), 5)
        };
        // Calibrate: how many iterations fit in one sample window?
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (sample_time.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let baseline = metrics_mode().then(metrics::snapshot);
        let mut total_iters = 0u64;
        let mut per_iter_ns: Vec<f64> = (0..samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                total_iters += iters;
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        if let Some(baseline) = baseline {
            print_counter_deltas(&metrics::snapshot().delta(&baseline), total_iters);
        }
        per_iter_ns.sort_by(f64::total_cmp);
        let median = per_iter_ns[per_iter_ns.len() / 2];
        let (lo, hi) = (per_iter_ns[0], per_iter_ns[per_iter_ns.len() - 1]);
        println!(
            "  {name:<28} {:>12}/iter  (range {} .. {}, {iters} iters x {samples} samples)",
            fmt_ns(median),
            fmt_ns(lo),
            fmt_ns(hi)
        );
    }

    /// Ends the group (prints a trailing blank line for readability).
    pub fn finish(self) {
        println!();
    }
}

/// Prints the nonzero integer counter deltas of a measured closure,
/// normalized per iteration (`HLPOWER_BENCH_METRICS=1` mode).
fn print_counter_deltas(delta: &hlpower_obs::report::Snapshot, iters: u64) {
    let iters = iters.max(1);
    for section in &delta.sections {
        for (name, value) in &section.entries {
            if let Value::Count(n) = value {
                if *n > 0 {
                    println!(
                        "      {:<32} {:>14.1}/iter",
                        format!("{}.{name}", section.name),
                        *n as f64 / iters as f64
                    );
                }
            }
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}
