//! `hlbench` — the end-to-end benchmark of the estimation server and the
//! offline library, with a per-layer breakdown.
//!
//! ```text
//! hlbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! hlbench compare --parent A.json ... --child B.json ... [--bench BENCHMARK.json]
//! hlbench spread [--bench BENCHMARK.json] --pass RUN.json ... [--pass RUN.json ...]
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics with tracing
//! off; `--trace 1` measures the per-layer metrics and writes a Chrome
//! trace of the benchmark's own spans. Every run checks every
//! result bit for bit, writes `<out>/<workload>-<seed>[.layers].json`
//! (schema `hlbench/1`) and prints, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exit status: 0
//! when every result was correct, 1 on a wrong result, 2 when the run
//! could not be made. See README.md beside this file.

mod check;
mod compare;
mod host;
mod layers;
mod loadgen;
mod offline;
mod stats;
mod workload;
mod yardstick;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use hlpower_obs::json::Value;
use hlpower_obs::report::Snapshot;

use crate::check::{check, ref_key, references, Estimate};
use crate::host::Placement;
use crate::layers::ReplayInput;
use crate::loadgen::{closed_loop, warm_up, Sample, ServerProc, CONNECTIONS, SERVER_THREADS};
use crate::stats::{geomean, median, per_class, percentile, quantile, FAST, TAIL};
use crate::workload::{repo_root, serve_plan, Request, Workload};

/// Output schema tag.
pub const SCHEMA: &str = "hlbench/1";
/// Points of a run where set-ups are made: its start, middle and end, so
/// that a few seconds in which other guests of the host slow everything
/// down reach one of them at most. `setup_s` is the median of all the
/// set-ups, [`Workload::setups_per_point`] at each point.
const SETUP_POINTS: usize = 3;
/// Share of `--seconds` the timed loop runs for; set-ups take the rest.
const LOOP_SHARE: f64 = 0.8;
/// Share of `--seconds` a traced run's loop runs for; the replay and the
/// kernel timings take the rest.
const TRACE_LOOP_SHARE: f64 = 0.3;
/// Rounds of a serve run's loop, with the set-ups between them. Each
/// round sends its own share of the request list.
const ROUNDS: usize = 4;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// What one run produced.
#[derive(Debug, Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    /// Wrong results (any makes the run incorrect).
    wrong: Vec<String>,
    /// Extra fields of the output file: offered load, sample counts,
    /// the `layers` object.
    doc: Vec<(String, Value)>,
    /// The traced run's spans.
    spans: Option<layers::Spans>,
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let name = flag(args, "--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (one of {})", all.join(", "))
    })?;
    let seed = flag(args, "--seed").unwrap_or("1").parse().map_err(|_| "--seed must be a u64")?;
    let seconds: f64 = flag(args, "--seconds")
        .unwrap_or("24")
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let out = PathBuf::from(flag(args, "--out").unwrap_or("results/hlbench/runs"));
    Ok(Options { workload, seed, seconds, trace, out })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..]),
        Some("spread") => return compare::spread_main(&args[1..]),
        _ => {}
    }
    let result = parse_options(&args).and_then(|opts| bench(&opts));
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hlbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload, writes its file, prints the summary line; returns
/// whether every result was correct.
fn bench(opts: &Options) -> Result<bool, String> {
    let root = repo_root()?;
    let w = opts.workload;
    let what = if opts.trace { "traced: per-layer metrics" } else { "end-to-end metrics" };
    eprintln!("hlbench: {} seed {} for {} s ({what})", w.name(), opts.seed, opts.seconds);
    // Built before pinning, so that the build may use every CPU.
    let server = match w {
        Workload::OfflineRepro => None,
        _ => Some(loadgen::build_server(&root)?),
    };
    let facts = host::facts();
    let mut placement = Placement::fastest();
    let steal_before = host::steal_s(None);
    let report = match &server {
        None => offline_run(opts, &mut placement)?,
        Some(bin) => serve_run(opts, bin, &mut placement)?,
    };
    let steal = host::steal_s(None) - steal_before;
    for m in &report.metrics {
        eprintln!("  {:<56} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in report.wrong.iter().take(5) {
        eprintln!("  WRONG: {e}");
    }
    let correct = report.wrong.is_empty();
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            let v = vec![
                ("value".into(), Value::Num(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ];
            (m.name.clone(), Value::Obj(v))
        })
        .collect();
    let summary = vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Int(report.attempted as i128)),
        ("failed".to_string(), Value::Int(report.failed as i128)),
        ("metrics".to_string(), Value::Obj(metrics)),
    ];
    let mut file = vec![
        ("schema".to_string(), Value::Str(SCHEMA.into())),
        ("workload".to_string(), Value::Str(w.name().into())),
        ("seed".to_string(), Value::Int(i128::from(opts.seed))),
        ("mode".to_string(), Value::Str(if opts.trace { "trace" } else { "run" }.into())),
        ("seconds".to_string(), Value::Num(opts.seconds)),
        ("git_rev".to_string(), Value::Str(host::git_rev(&root))),
        ("host".to_string(), facts),
        ("placement".to_string(), placement.to_json()),
        ("host_steal_s".to_string(), Value::Num(steal)),
        ("threads".to_string(), Value::Int(CONNECTIONS as i128)),
    ];
    file.extend(summary.iter().cloned());
    file.extend(report.doc);
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    if let Some(spans) = &report.spans {
        let name = format!("{}-{}.trace.json", w.name(), opts.seed);
        layers::write_trace(&opts.out.join(&name), spans)?;
        file.push(("trace_file".into(), Value::Str(name)));
    }
    let suffix = if opts.trace { ".layers.json" } else { ".json" };
    let path = opts.out.join(format!("{}-{}{suffix}", w.name(), opts.seed));
    std::fs::write(&path, Value::Obj(file).pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("  written to {}", path.display());
    println!("{}", Value::Obj(summary).compact());
    Ok(correct)
}

/// A latency statistic, which too many failures leave undefined.
fn defined(latency: f64, what: &str) -> Result<f64, String> {
    if latency.is_finite() {
        Ok(latency)
    } else {
        Err(format!("{what} is undefined: too many failed requests"))
    }
}

/// A snapshot of the in-process metrics registry as JSON, in the shape
/// `GET /metrics` serves it.
fn snapshot_json(s: &Snapshot) -> Value {
    hlpower_obs::json::parse(&s.to_json_pretty()).expect("the registry renders valid JSON")
}

/// The in-process metrics registry now, as JSON.
pub fn obs_snapshot() -> Value {
    snapshot_json(&hlpower_obs::metrics::snapshot())
}

/// A metrics snapshot without its series (per-run trajectories that
/// grow with every estimate), for embedding in a run file.
fn counters(snapshot: Value) -> Value {
    match snapshot {
        Value::Obj(pairs) => Value::Obj(
            pairs
                .into_iter()
                .filter(|(_, v)| !matches!(v, Value::Arr(_)))
                .map(|(k, v)| (k, counters(v)))
                .collect(),
        ),
        other => other,
    }
}

fn nums(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|&v| Value::Num(v)).collect())
}

fn count(n: usize) -> Value {
    Value::Int(n as i128)
}

/// Whether set-ups are made after `round` of `rounds` (0 is the run's
/// start): at [`SETUP_POINTS`] evenly spaced points.
fn sets_up_after(round: usize, rounds: usize) -> bool {
    (round * (SETUP_POINTS - 1)).is_multiple_of(rounds)
}

/// What the timed requests or calls add up to: the two time metrics and,
/// for the run file, each class's count, fast decile, median and tail,
/// the pooled percentiles and the plain closed-loop rate.
struct Summary {
    /// `latency_p10_ms`: the geometric mean of the classes' [`FAST`]
    /// quantiles.
    latency_ms: f64,
    /// `throughput_rps`: the requests over the sum of their classes' fast
    /// quantiles, in seconds.
    rate: f64,
    doc: Value,
}

/// Summarises each timed unit's `(class, seconds)`.
fn summary(classes: &[String], latencies: &[(usize, f64)]) -> Result<Summary, String> {
    let ms: Vec<(usize, f64)> = latencies.iter().map(|&(c, s)| (c, s * 1e3)).collect();
    let per = per_class(classes, ms.iter().copied())?;
    let fast: Vec<f64> = per.iter().map(|v| quantile(v, FAST)).collect();
    let latency_ms = defined(geomean(&fast), "a class's fast-decile latency")?;
    let fast_total_ms: f64 = per.iter().zip(&fast).map(|(v, p10)| v.len() as f64 * p10).sum();
    let rate = defined(ms.len() as f64 / fast_total_ms * 1e3, "the fast-decile rate")?;
    let per_class = classes
        .iter()
        .zip(&per)
        .zip(&fast)
        .map(|((name, mine), &p10)| {
            let mut stats = vec![
                ("count".to_string(), count(mine.len())),
                ("p10_ms".to_string(), Value::Num(p10)),
                ("p50_ms".to_string(), Value::Num(median(mine))),
            ];
            if let Ok(tail) = percentile(mine, TAIL) {
                stats.push(("p90_ms".into(), Value::Num(tail)));
            }
            (name.clone(), Value::Obj(stats))
        })
        .collect();
    let all: Vec<f64> = ms.iter().map(|p| p.1).collect();
    let pooled = [0.5, TAIL, 0.99]
        .into_iter()
        .filter_map(|q| Some((format!("p{}", (q * 100.0).round()), percentile(&all, q).ok()?)))
        .map(|(k, v)| (k, Value::Num(v)))
        .collect();
    let answered: Vec<f64> = all.iter().copied().filter(|l| l.is_finite()).collect();
    let doc = Value::Obj(vec![
        ("classes".into(), Value::Obj(per_class)),
        ("pooled_ms".into(), Value::Obj(pooled)),
        (
            "rate_per_s".into(),
            Value::Num(answered.len() as f64 / answered.iter().sum::<f64>() * 1e3),
        ),
    ]);
    Ok(Summary { latency_ms, rate, doc })
}

fn serve_run(opts: &Options, bin: &Path, placement: &mut Placement) -> Result<Report, String> {
    let w = opts.workload;
    let rounds = if opts.trace { 1 } else { ROUNDS };
    let share = if opts.trace { TRACE_LOOP_SHARE } else { LOOP_SHARE };
    let round_secs = opts.seconds * share / rounds as f64;
    let blocks = (w.max_rate() * round_secs / w.block_len() as f64).ceil() as usize;
    let plan = serve_plan(w, opts.seed, blocks * rounds)?;
    let per_round = blocks * plan.block;

    // Spawn to the end of warm-up; every warm-up answer is checked below.
    // The last set-up at the start serves the timed rounds.
    let (mut setup, mut setup_rss, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    let mut set_up = |placement: &mut Placement| -> Result<ServerProc, String> {
        placement.check();
        let t = Instant::now();
        let s = ServerProc::spawn(bin, w.cache_mb())?;
        warm.extend(warm_up(&s.addr, &plan.warmup)?);
        setup.push(t.elapsed().as_secs_f64());
        setup_rss.push(s.peak_rss_mb()?);
        Ok(s)
    };
    let reps = if opts.trace { 1 } else { w.setups_per_point() };
    for _ in 1..reps {
        set_up(placement)?.stop()?;
    }
    let server = set_up(placement)?;
    placement.follow(Some(server.pid()));
    let before = server.metrics()?;
    let mut samples: Vec<Sample> = Vec::new();
    let mut ran_out = false;
    for round in 0..rounds {
        let (from, to) = (round * per_round, (round + 1) * per_round);
        let mut tick = || placement.tick();
        let sent = closed_loop(&server.addr, &plan.requests, from, to, round_secs, &mut tick);
        ran_out |= sent.len() == per_round;
        samples.extend(sent);
        if !opts.trace && sets_up_after(round + 1, rounds) {
            for _ in 0..reps {
                set_up(placement)?.stop()?;
            }
        }
    }
    let after = server.metrics()?;
    // Recorded, not a metric: under load the peak follows which of the
    // allocator's per-thread arenas the server's threads happen to use.
    let rss_loaded = server.peak_rss_mb()?;
    server.stop()?;
    placement.release();

    // Every response, bit for bit, against one in-process reference per
    // distinct (circuit, seed, options, mode).
    let answered: Vec<(&Request, &Result<Estimate, String>)> =
        samples.iter().map(|s| (&plan.requests[s.index], &s.outcome)).collect();
    let ok_warm: Vec<Result<Estimate, String>> = warm.into_iter().map(Ok).collect();
    let all = || answered.iter().copied().chain(plan.warmup.iter().cycle().zip(&ok_warm));
    let refs = references(&plan.circuits, all().map(|(r, _)| (r.circuit, r.spec)));
    let mut report = Report { attempted: answered.len(), ..Report::default() };
    let mut errors = Vec::new();
    for (k, (r, outcome)) in all().enumerate() {
        match outcome {
            Err(e) => errors.push(e),
            Ok(got) => {
                if let Err(e) = check(got, &refs[&ref_key(r.circuit, &r.spec)]) {
                    report.wrong.push(format!("response {k}: {e}"));
                }
            }
        }
    }
    report.failed = errors.len();
    if let Some(e) = errors.first() {
        eprintln!("  {} failed request(s), first: {e}", errors.len());
    }

    let lateness: Vec<f64> = samples.iter().map(|s| (s.sent - s.ready) * 1e3).collect();
    if opts.trace {
        placement.pin_again();
        let requests = answered.iter().map(|(r, _)| (*r, refs[&ref_key(r.circuit, &r.spec)]));
        let input = ReplayInput {
            warmup: &plan.warmup,
            requests: requests.collect(),
            cache_mb: w.cache_mb().unwrap_or(64),
        };
        let batches =
            samples.iter().filter_map(|s| s.outcome.as_ref().ok()).map(|e| e.batches as f64).sum();
        let e2e: Vec<f64> = samples.iter().map(|s| s.latency() * 1e3).collect();
        let (metrics, spans) =
            layers::serve_layers(&input, &before, &after, batches, &e2e, &lateness)?;
        report.metrics = metrics;
        report.spans = Some(spans);
    } else {
        // A failed request counts as infinitely slow.
        let latencies: Vec<(usize, f64)> = samples
            .iter()
            .map(|s| {
                let l = if s.outcome.is_ok() { s.latency() } else { f64::INFINITY };
                (plan.requests[s.index].class, l)
            })
            .collect();
        let sum = summary(&plan.classes, &latencies)?;
        report.metrics = vec![
            metric("latency_p10_ms", sum.latency_ms, "ms"),
            metric("throughput_rps", sum.rate, "req/s"),
            metric("setup_s", median(&setup), "s"),
            metric("peak_rss_mb", median(&setup_rss), "MB"),
        ];
        report.doc.push(("latency".into(), sum.doc));
    }
    let repeats = samples.iter().filter(|s| plan.requests[s.index].repeat).count();
    report.doc.extend([
        (
            "offered".into(),
            Value::Obj(vec![
                ("loop".into(), Value::Str("closed".into())),
                ("connections".into(), count(CONNECTIONS)),
                ("server_threads".into(), count(SERVER_THREADS)),
                ("rounds".into(), count(rounds)),
                ("round_seconds".into(), Value::Num(round_secs)),
                ("block".into(), count(plan.block)),
                ("classes".into(), count(plan.classes.len())),
                ("cache_mb".into(), count(w.cache_mb().unwrap_or(64))),
                (
                    "structural_repeat_share".into(),
                    Value::Num(repeats as f64 / samples.len().max(1) as f64),
                ),
            ]),
        ),
        (
            "samples".into(),
            Value::Obj(vec![
                ("warmup".into(), count(plan.warmup.len())),
                ("timed".into(), count(samples.len())),
                ("ran_out_of_requests".into(), Value::Bool(ran_out)),
                ("checked_bit_for_bit".into(), count(all().filter(|(_, o)| o.is_ok()).count())),
                ("references".into(), count(refs.len())),
                ("setup_reps".into(), count(setup.len())),
            ]),
        ),
        ("setup_s_each".into(), nums(&setup)),
        ("peak_rss_mb_each".into(), nums(&setup_rss)),
        ("peak_rss_mb_under_load".into(), Value::Num(rss_loaded)),
        (
            "generator".into(),
            Value::Obj(vec![
                ("turnaround_p50_ms".into(), Value::Num(percentile(&lateness, 0.5)?)),
                ("turnaround_p90_ms".into(), Value::Num(percentile(&lateness, TAIL)?)),
            ]),
        ),
        // The server's `GET /metrics` before and after the timed rounds.
        (
            "layers".into(),
            Value::Obj(vec![(
                "rounds".into(),
                Value::Obj(vec![
                    ("before".into(), counters(before)),
                    ("after".into(), counters(after)),
                ]),
            )]),
        ),
    ]);
    Ok(report)
}

fn offline_run(opts: &Options, placement: &mut Placement) -> Result<Report, String> {
    let mut setup = Vec::new();
    let mut set_up = |placement: &mut Placement| {
        placement.check();
        let t = Instant::now();
        let built = offline::Inputs::build(opts.seed);
        // Warm each shape once (allocator, code paths), like the serve
        // workloads' warm-up request per circuit.
        for shape in 0..built.shapes.len() {
            built.run(offline::Call::Zd { shape, seed: 0 });
        }
        setup.push(t.elapsed().as_secs_f64());
        built
    };
    // The last set-up at the start builds the inputs the calls use.
    let reps = if opts.trace { 1 } else { opts.workload.setups_per_point() };
    for _ in 1..reps {
        set_up(placement);
    }
    let inputs = set_up(placement);
    let setup_rss = loadgen::vm_hwm_mb("/proc/self/status")?;
    let share = if opts.trace { TRACE_LOOP_SHARE } else { LOOP_SHARE };
    // Whole cycles, in two halves with set-ups after each (whose inputs
    // go unused): each half starts cycles until its share of the loop's
    // time has passed. Each half's metrics delta leaves the set-ups out.
    let halves = if opts.trace { 1 } else { SETUP_POINTS - 1 };
    let half_secs = opts.seconds * share / halves as f64;
    let (mut samples, mut deltas, mut window) = (Vec::new(), Vec::new(), None);
    let (epoch, mut cycle) = (Instant::now(), 0);
    for _ in 0..halves {
        let before = hlpower_obs::metrics::snapshot();
        let t = Instant::now();
        let first = cycle;
        while cycle - first < 2 || t.elapsed().as_secs_f64() < half_secs {
            let calls = cycle * offline::CYCLE..(cycle + 1) * offline::CYCLE;
            let mut tick = || placement.tick();
            samples.extend(offline::call_loop(&inputs, opts.seed, calls, epoch, &mut tick));
            cycle += 1;
        }
        let after = hlpower_obs::metrics::snapshot();
        deltas.push(counters(snapshot_json(&after.delta(&before))));
        window = Some((before, after));
        if !opts.trace {
            for _ in 0..reps {
                set_up(placement);
            }
        }
    }
    let rss_loaded = loadgen::vm_hwm_mb("/proc/self/status")?;
    placement.release();
    let mut report = Report { attempted: samples.len(), ..Report::default() };
    report.wrong = offline::verify(&inputs, &samples);
    placement.pin_again();

    let classes: Vec<String> = {
        let mut names: Vec<String> = samples.iter().map(|s| s.call.class(&inputs)).collect();
        names.sort();
        names.dedup();
        names
    };
    if opts.trace {
        let (before, after) = window.expect("the call loop has a half");
        let (before, after) = (snapshot_json(&before), snapshot_json(&after));
        let (warmup, zd) = offline::as_requests(&inputs, &samples);
        let requests = zd.iter().map(|(r, e)| (r, *e)).collect();
        let input = ReplayInput { warmup: &warmup, requests, cache_mb: 64 };
        let (metrics, spans) = layers::offline_layers(&inputs, &samples, &input, &before, &after)?;
        report.metrics = metrics;
        report.spans = Some(spans);
    } else {
        let latencies: Vec<(usize, f64)> = samples
            .iter()
            .map(|s| {
                let name = s.call.class(&inputs);
                (classes.iter().position(|c| *c == name).expect("listed"), s.done - s.start)
            })
            .collect();
        let sum = summary(&classes, &latencies)?;
        report.metrics = vec![
            metric("latency_p10_ms", sum.latency_ms, "ms"),
            metric("throughput_rps", sum.rate, "req/s"),
            metric("setup_s", median(&setup), "s"),
            metric("peak_rss_mb", setup_rss, "MB"),
        ];
        report.doc.push(("latency".into(), sum.doc));
    }
    // Each kind of call on its own: count, share of the loop's busy time,
    // median latency and its rate of work per second of its own calls.
    let all_busy: f64 = samples.iter().map(|s| s.done - s.start).sum();
    let by_kind = ["zd", "glitch", "guard", "rewrite"]
        .into_iter()
        .map(|kind| {
            let mine: Vec<&offline::CallSample> =
                samples.iter().filter(|s| s.call.kind() == kind).collect();
            let busy: f64 = mine.iter().map(|s| s.done - s.start).sum();
            let lat: Vec<f64> = mine.iter().map(|s| (s.done - s.start) * 1e3).collect();
            let lane_cycles: f64 = mine.iter().map(|s| s.output.lane_cycles() as f64).sum();
            let candidates: f64 = mine.iter().map(|s| s.output.candidates() as f64).sum();
            let stats = vec![
                ("calls".to_string(), count(mine.len())),
                ("busy_share".to_string(), Value::Num(busy / all_busy)),
                ("p50_ms".to_string(), Value::Num(median(&lat))),
                ("lane_cycles_per_s".to_string(), Value::Num(lane_cycles / busy)),
                ("candidates_per_s".to_string(), Value::Num(candidates / busy)),
            ];
            (kind.to_string(), Value::Obj(stats))
        })
        .collect();
    report.doc.extend([
        (
            "offered".into(),
            Value::Obj(vec![
                ("callers".into(), Value::Int(1)),
                ("threads_per_estimate".into(), count(offline::CALL_THREADS)),
                ("cycles".into(), count(cycle)),
                ("calls_per_cycle".into(), count(offline::CYCLE)),
                ("classes".into(), count(classes.len())),
            ]),
        ),
        ("by_kind".into(), Value::Obj(by_kind)),
        ("setup_s_each".into(), nums(&setup)),
        ("peak_rss_mb_under_load".into(), Value::Num(rss_loaded)),
        ("layers".into(), Value::Obj(vec![("metrics_delta".into(), Value::Arr(deltas))])),
    ]);
    Ok(report)
}
