//! Per-layer metrics, measured from outside the program.
//!
//! A traced run combines three sources, and every metric has a value on
//! every workload:
//! - counts: the server's `GET /metrics` growth over the timed round (serve
//!   workloads), or the in-process registry's growth over the call loop
//!   and over the request replay (`offline_repro`);
//! - times: a single-threaded, in-process replay of the workload's first
//!   requests through each layer's public functions, in the server's
//!   order, each call inside a span this module records. `offline_repro`
//!   replays its zero-delay estimate calls as requests, and its calls
//!   themselves;
//! - kernel and optimizer timings on fixed inputs, the same on every
//!   workload.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hlpower::netlist::{
    ingest_auto, simulate_packed_glitch_lanes, simulate_packed_lanes, streams, CompiledKernel,
    LaneRequest, Library, MonteCarloResult, Netlist, PowerModel, StoppingReplay, WideSim,
    WideTimedSim, Word, W256, W512,
};
use hlpower::optimize::{guard, rewrite};
use hlpower_obs::ctx::{RequestCtx, Stage};
use hlpower_obs::json::{self, Value};
use hlpower_obs::metrics as obs;
use hlpower_obs::trace::parse_chrome_trace;
use hlpower_rng::{par, Rng};
use hlpower_serve::http::{self, Limits};
use hlpower_serve::{
    hash_source, CachedCircuit, Engine, JobSpec, JobUpdate, KernelCache, Mode, PackWidth,
    ServerConfig,
};

use crate::check::{check, options, Estimate};
use crate::offline::{CallSample, Inputs, PROFILE_CYCLES};
use crate::stats::{median, percentile, TAIL};
use crate::workload::{offline_shapes, Request, Spec};
use crate::{metric, obs_snapshot, Metric};

/// Most requests the traced replay runs.
const REPLAY: usize = 500;
/// Seconds the traced replay may take past its warm-up; it stops early
/// when they run out.
const REPLAY_SECONDS: f64 = 3.0;
/// Requests (or calls) replayed once more untraced and once more traced,
/// for the tracing overhead.
const OVERHEAD_REPLAY: usize = 30;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// Spans kept in memory until the run ends. With `enabled` off, `time`
/// only runs its closure.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    pub events: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans { epoch: Instant::now(), enabled, events: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        request: Option<u64>,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.events.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let parent = self.open.last().copied();
        self.events.push(Span { name: name.into(), start_ns, end_ns: start_ns, parent, request });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.events[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    fn dur_ns(&self, i: usize) -> u64 {
        self.events[i].end_ns - self.events[i].start_ns
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = (0..self.events.len()).map(|i| self.dur_ns(i)).collect();
        for (i, s) in self.events.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(self.dur_ns(i));
            }
        }
        own
    }

    /// Self times, in ns, of the spans named `name` that belong to a
    /// timed request, keyed by request.
    fn self_times(&self, name: &str) -> Vec<(u64, f64)> {
        let own = self.self_ns();
        self.events
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((s.request?, own[i] as f64)).filter(|_| s.name == name))
            .collect()
    }

    /// Durations, in ns, of all spans named `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        (0..self.events.len())
            .filter(|&i| self.events[i].name == name)
            .map(|i| self.dur_ns(i) as f64)
            .collect()
    }

    /// Chrome trace-event JSON (complete `X` events; `args` carry the
    /// request index, span index and parent span index).
    pub fn chrome_json(&self) -> String {
        let events = self
            .events
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![("span".to_string(), Value::Int(i as i128))];
                if let Some(r) = s.request {
                    args.push(("request_id".into(), Value::Int(i128::from(r))));
                }
                if let Some(p) = s.parent {
                    args.push(("parent".into(), Value::Int(p as i128)));
                }
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.clone())),
                    ("cat".into(), Value::Str("hlbench".into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("pid".into(), Value::Int(1)),
                    ("tid".into(), Value::Int(1)),
                    ("ts".into(), Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("args".into(), Value::Obj(args)),
                ])
            })
            .collect();
        let trace = vec![
            ("displayTimeUnit".into(), Value::Str("ns".into())),
            ("traceEvents".into(), Value::Arr(events)),
        ];
        Value::Obj(trace).compact()
    }
}

/// Writes the spans as a Chrome trace and checks that the file parses
/// back, event for event, with the workspace's own trace reader.
pub fn write_trace(path: &Path, spans: &Spans) -> Result<(), String> {
    let text = spans.chrome_json();
    std::fs::write(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    let parsed = parse_chrome_trace(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let same = parsed.len() == spans.events.len()
        && parsed
            .iter()
            .zip(&spans.events)
            .all(|(p, s)| p.name == s.name && p.request_id == s.request);
    if same {
        Ok(())
    } else {
        Err(format!("{}: the trace does not round-trip", path.display()))
    }
}

/// How much the counter at `path` grew between two metrics snapshots (0
/// when it is absent).
fn grew(before: &Value, after: &Value, path: &[&str]) -> f64 {
    let at = |v| path.iter().try_fold(v, |v: &Value, k| v.get(k)).and_then(Value::as_f64);
    at(after).unwrap_or(0.0) - at(before).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn p50(values: impl IntoIterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.into_iter().collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

/// The serving counters between two metrics snapshots (the server's
/// `GET /metrics`, or the in-process registry around a replay): cache
/// hits and evictions, the mean of each `serve_stage` histogram, and how
/// full the packed words were.
fn serving_counts(before: &Value, after: &Value) -> Vec<Metric> {
    let d = |path: &[&str]| grew(before, after, path);
    let jobs = d(&["serve", "jobs"]);
    let (hits, misses) = (d(&["serve", "cache_hits"]), d(&["serve", "cache_misses"]));
    let mut m = vec![
        metric("serve.cache.hit_ratio", ratio(hits, hits + misses), "ratio"),
        metric(
            "serve.cache.evictions_per_req",
            ratio(d(&["serve", "cache_evictions"]), jobs),
            "count",
        ),
    ];
    for stage in Stage::ALL {
        let hist = format!("{}_ns", stage.name());
        let mean_ns = ratio(d(&["serve_stage", &hist, "sum"]), d(&["serve_stage", &hist, "count"]));
        m.push(metric(format!("serve.stage.{}_mean_ms", stage.name()), mean_ns / 1e6, "ms"));
    }
    let occupancy =
        ratio(d(&["serve", "lane_occupancy", "sum"]), d(&["serve", "lane_occupancy", "count"]));
    m.push(metric("serve.engine.tenants_per_word", occupancy, "count"));
    let lanes = ratio(d(&["serve", "packed_lanes"]), d(&["serve", "packed_words"]));
    m.push(metric("serve.engine.lanes_per_word", lanes, "count"));
    m
}

/// The serving pipeline, in process: the same public functions the
/// server calls, in the server's order, with the server's per-stage
/// accounting.
struct Replay {
    cache: KernelCache,
    engine: Engine,
    lib: Library,
    ingested_gates: f64,
}

impl Replay {
    fn new(cache_mb: usize) -> Replay {
        Replay {
            cache: KernelCache::new(cache_mb * 1024 * 1024),
            engine: Engine::start(2, ServerConfig::default().gather),
            lib: Library::default(),
            ingested_gates: 0.0,
        }
    }

    /// One request through read → parse → hash → cache (→ build, insert)
    /// → engine → write; then, on a miss, the build's three steps again
    /// one by one ([`Replay::decompose`]), and the same lanes simulated
    /// directly. Returns the engine's and the direct result.
    fn request(
        &mut self,
        r: &Request,
        id: Option<u64>,
        spans: &mut Spans,
    ) -> Result<(Estimate, Estimate), String> {
        let ctx = Arc::new(RequestCtx::new(None));
        let mut missed = None;
        let (circuit, result) = spans.time("request", id, |sp| {
            let req = sp
                .time("serve.http.read", id, |_| {
                    http::read_request(&mut BufReader::new(&r.bytes[..]), &Limits::default())
                })
                .map_err(|e| format!("http: {e}"))?;
            let parse = ctx.time_stage(Stage::Parse);
            let body = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8")?;
            let parsed = sp
                .time("obs.json.parse", id, |_| json::parse(body))
                .map_err(|e| format!("json: {e}"))?;
            let source = parsed.get("netlist").and_then(Value::as_str).ok_or("no netlist")?;
            drop(parse);
            let hash = sp.time("serve.cache.hash", id, |_| hash_source(source));
            let cached = {
                let _t = ctx.time_stage(Stage::Cache);
                sp.time("serve.cache.get", id, |_| self.cache.get(hash))
            };
            let circuit = match cached {
                Some(c) => c,
                None => {
                    let built = {
                        let _t = ctx.time_stage(Stage::Parse);
                        sp.time("serve.cache.build", id, |_| CachedCircuit::build(source))
                    };
                    let c = Arc::new(built.map_err(|e| e.to_string())?);
                    missed = Some(source.to_string());
                    let _t = ctx.time_stage(Stage::Cache);
                    sp.time("serve.cache.insert", id, |_| self.cache.insert(hash, Arc::clone(&c)));
                    c
                }
            };
            let spec = JobSpec {
                seed: r.spec.seed,
                opts: options(&r.spec),
                mode: if r.spec.glitch { Mode::Glitch } else { Mode::ZeroDelay },
                width: match r.spec.width {
                    256 => PackWidth::W256,
                    512 => PackWidth::W512,
                    _ => PackWidth::W64,
                },
                stream: false,
            };
            let result = sp.time("serve.engine.solo", id, |_| {
                let rx = self.engine.submit_ctx(Arc::clone(&circuit), spec, Some(Arc::clone(&ctx)));
                loop {
                    match rx.recv() {
                        Ok(JobUpdate::Interim { .. }) => continue,
                        Ok(JobUpdate::Done(done)) => return done.map_err(|e| e.to_string()),
                        Err(_) => return Err("the engine dropped the job".to_string()),
                    }
                }
            })?;
            let _t = ctx.time_stage(Stage::Finalize);
            sp.time("serve.http.write", id, |_| {
                let body = Value::Obj(vec![
                    ("ok".into(), Value::Bool(true)),
                    ("power_uw".into(), Value::Num(result.power_uw)),
                    ("half_width_uw".into(), Value::Num(result.half_width_uw)),
                    ("batches".into(), Value::Int(result.batches as i128)),
                    ("cycles".into(), Value::Int(i128::from(result.cycles))),
                ])
                .pretty();
                let mut out = Vec::new();
                http::write_response(&mut out, 200, "application/json", body.as_bytes(), true, &[])
                    .map_err(|e| e.to_string())
            })?;
            Ok::<_, String>((circuit, result))
        })?;
        for stage in Stage::ALL {
            obs::stage_hist(stage).record(ctx.stage_ns(stage));
        }
        if let Some(source) = missed {
            self.decompose(&source, id, spans)?;
        }
        let direct =
            spans.time("netlist.simulate_packed_lanes", id, |_| direct_lanes(&circuit, &r.spec))?;
        Ok(((&result).into(), (&direct).into()))
    }

    /// Ingest, power model and kernel compile of a source the cache
    /// missed, each in its own span, outside the request's: the steps
    /// `CachedCircuit::build` takes in one call.
    fn decompose(
        &mut self,
        source: &str,
        id: Option<u64>,
        spans: &mut Spans,
    ) -> Result<(), String> {
        let (_, netlist) = spans
            .time("netlist.ingest", id, |_| ingest_auto(None, source))
            .map_err(|e| e.to_string())?;
        self.ingested_gates += netlist.gate_count() as f64;
        black_box(spans.time("netlist.power.model", id, |_| PowerModel::new(&netlist, &self.lib)));
        let kernel = spans.time("netlist.sim64.compile", id, |_| CompiledKernel::compile(&netlist));
        black_box(kernel.map_err(|e| e.to_string())?);
        Ok(())
    }

    /// Replays timed request `i` of `input` and checks both results.
    fn checked(&mut self, input: &ReplayInput, i: usize, spans: &mut Spans) -> Result<(), String> {
        let (r, want) = &input.requests[i];
        let (engine, direct) = self.request(r, Some(i as u64), spans)?;
        check(&engine, want).map_err(|e| format!("replayed request {i} (engine): {e}"))?;
        check(&direct, want).map_err(|e| format!("replayed request {i} (direct lanes): {e}"))
    }
}

/// The lanes a solo job occupies, simulated directly word by word and
/// replayed through the engine's stopping rule: a word per round, at most
/// the width's lanes each, until the job is done.
fn direct_lanes(c: &CachedCircuit, spec: &Spec) -> Result<MonteCarloResult, String> {
    let opts = options(spec);
    let w = c.netlist.input_count();
    let stream_fn = |rng: Rng| streams::random_rng(rng, w);
    let mut replay = StoppingReplay::new(&opts);
    let (mut next, mut exhausted) = (0u64, false);
    while !replay.is_done() && !exhausted && next < opts.max_batches as u64 {
        let quota = (opts.max_batches as u64 - next).min(spec.width as u64);
        let lanes: Vec<LaneRequest> = (0..quota)
            .map(|k| LaneRequest { seed: spec.seed, batch: next + k, cycles: opts.batch_cycles })
            .collect();
        next += quota;
        let (nl, model, kernel) = (&c.netlist, &c.model, Some(&c.kernel));
        let samples = match (spec.glitch, spec.width) {
            (false, 256) => {
                simulate_packed_lanes::<W256, _, _>(nl, model, kernel, &stream_fn, &lanes)
            }
            (false, 512) => {
                simulate_packed_lanes::<W512, _, _>(nl, model, kernel, &stream_fn, &lanes)
            }
            (false, _) => simulate_packed_lanes::<u64, _, _>(nl, model, kernel, &stream_fn, &lanes),
            (true, 256) => simulate_packed_glitch_lanes::<W256, _, _>(
                nl, &c.lib, model, kernel, &stream_fn, &lanes,
            ),
            (true, 512) => simulate_packed_glitch_lanes::<W512, _, _>(
                nl, &c.lib, model, kernel, &stream_fn, &lanes,
            ),
            (true, _) => simulate_packed_glitch_lanes::<u64, _, _>(
                nl, &c.lib, model, kernel, &stream_fn, &lanes,
            ),
        }
        .map_err(|e| e.to_string())?;
        for s in samples {
            match s {
                _ if replay.is_done() => break,
                Some((power, cycles)) => {
                    replay.push(power, cycles);
                }
                None => {
                    exhausted = true;
                    break;
                }
            }
        }
    }
    replay.finish().map_err(|e| e.to_string())
}

/// What a workload's requests are, for the replay.
pub struct ReplayInput<'a> {
    /// Sent first, untimed, to fill the cache as the warm-up did.
    pub warmup: &'a [Request],
    /// Timed requests in order, each with the result it must reproduce.
    pub requests: Vec<(&'a Request, Estimate)>,
    pub cache_mb: usize,
}

/// The traced replay's per-layer times and the serving counters around
/// it: warm-up, then requests until [`REPLAY`] are done or
/// [`REPLAY_SECONDS`] have passed, every result checked. With
/// `overhead`, also the tracing overhead in percent: the last requests
/// again, on warm caches, untraced then traced.
fn replay_layers(
    input: &ReplayInput,
    spans: &mut Spans,
    overhead: bool,
) -> Result<(Vec<Metric>, Vec<Metric>, f64), String> {
    let mut replay = Replay::new(input.cache_mb);
    for r in input.warmup {
        replay.request(r, None, spans)?;
    }
    let before = obs_snapshot();
    let t = Instant::now();
    let mut done = 0;
    while done < input.requests.len().min(REPLAY) && t.elapsed().as_secs_f64() < REPLAY_SECONDS {
        replay.checked(input, done, spans)?;
        done += 1;
    }
    let after = obs_snapshot();
    let overhead = if overhead {
        let last = done.saturating_sub(OVERHEAD_REPLAY)..done;
        overhead_pct(last, &mut Spans::new(true), |i, sp| replay.checked(input, i, sp))?
    } else {
        f64::NAN
    };
    let ingested_gates = replay.ingested_gates;
    let us = |name: &str| p50(spans.self_times(name).into_iter().map(|(_, ns)| ns / 1e3));
    let mut m = vec![
        metric("serve.http.read_us", us("serve.http.read"), "us"),
        metric("serve.http.write_us", us("serve.http.write"), "us"),
        metric("obs.json.parse_us", us("obs.json.parse"), "us"),
        metric("serve.cache.hash_us", us("serve.cache.hash"), "us"),
    ];
    // Per request: its cache get, plus its insert on a miss.
    let mut lookups: HashMap<u64, f64> = HashMap::new();
    for name in ["serve.cache.get", "serve.cache.insert"] {
        for (r, ns) in spans.self_times(name) {
            *lookups.entry(r).or_default() += ns;
        }
    }
    m.push(metric("serve.cache.lookup_us", p50(lookups.into_values().map(|ns| ns / 1e3)), "us"));
    let ingest = spans.durations("netlist.ingest");
    m.push(metric("netlist.ingest.ms_p50", p50(ingest.iter().map(|ns| ns / 1e6)), "ms"));
    m.push(metric(
        "netlist.ingest.us_per_gate",
        ratio(ingest.iter().sum::<f64>() / 1e3, ingested_gates),
        "us",
    ));
    m.push(metric(
        "netlist.sim64.compile_ms",
        p50(spans.durations("netlist.sim64.compile").into_iter().map(|ns| ns / 1e6)),
        "ms",
    ));
    m.push(metric(
        "netlist.power.model_ms",
        p50(spans.durations("netlist.power.model").into_iter().map(|ns| ns / 1e6)),
        "ms",
    ));
    let direct: HashMap<u64, f64> =
        spans.self_times("netlist.simulate_packed_lanes").into_iter().collect();
    let solo_overhead =
        spans.self_times("serve.engine.solo").into_iter().map(|(r, ns)| (ns - direct[&r]) / 1e6);
    m.push(metric("serve.engine.solo_overhead_ms", p50(solo_overhead), "ms"));
    Ok((m, serving_counts(&before, &after), overhead))
}

/// Tracing overhead in percent: each item run untraced and then traced
/// into `spans`, back to back, so both runs see the same state of the
/// host.
fn overhead_pct<T: Copy>(
    items: impl IntoIterator<Item = T>,
    spans: &mut Spans,
    mut run: impl FnMut(T, &mut Spans) -> Result<(), String>,
) -> Result<f64, String> {
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    for item in items {
        let t = Instant::now();
        run(item, &mut Spans::new(false))?;
        untraced += t.elapsed();
        let t = Instant::now();
        run(item, spans)?;
        traced += t.elapsed();
    }
    Ok((traced.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0)
}

/// Median, over the replayed requests (spans named by `is_request`), of
/// the end-to-end latency minus the in-process time of the same request:
/// what the measured layers leave out.
fn residual(spans: &Spans, is_request: impl Fn(&str) -> bool, e2e_ms: &[f64]) -> Metric {
    let rest = spans
        .events
        .iter()
        .filter_map(|s| Some((s.request?, s.end_ns - s.start_ns)).filter(|_| is_request(&s.name)))
        .map(|(r, ns)| e2e_ms[r as usize] - ns as f64 / 1e6);
    metric("hlbench.serve.residual_ms", p50(rest), "ms")
}

/// Pool workers per request and the share of simulated batches thrown
/// away, from two snapshots around `requests` requests (or calls).
fn library_counts(
    before: &Value,
    after: &Value,
    requests: f64,
    discarded: f64,
    simulated: f64,
) -> Vec<Metric> {
    let spawned = grew(before, after, &["pool", "workers_spawned"]);
    vec![
        metric("rng.par.workers_spawned_per_req", ratio(spawned, requests), "count"),
        metric("netlist.montecarlo.discarded_batch_share", ratio(discarded, simulated), "ratio"),
    ]
}

/// Per-layer metrics of a serve workload. `before` and `after` are the
/// server's `/metrics` around the timed round, whose requests used
/// `batches` lanes in all, took `e2e_ms` each and were sent `lateness_ms`
/// after the previous response by the generator.
pub fn serve_layers(
    input: &ReplayInput,
    before: &Value,
    after: &Value,
    batches: f64,
    e2e_ms: &[f64],
    lateness_ms: &[f64],
) -> Result<(Vec<Metric>, Spans), String> {
    let d = |path: &[&str]| grew(before, after, path);
    let lanes = d(&["serve", "packed_lanes"]);
    let mut m = serving_counts(before, after);
    m.extend(library_counts(before, after, d(&["serve", "jobs"]), lanes - batches, lanes));
    m.push(metric("hlbench.loadgen.lateness_p90_ms", percentile(lateness_ms, TAIL)?, "ms"));
    let mut spans = Spans::new(true);
    let (times, _, overhead) = replay_layers(input, &mut spans, true)?;
    m.extend(times);
    m.push(residual(&spans, |name| name == "request", e2e_ms));
    m.push(metric("hlbench.trace_overhead_pct", overhead, "%"));
    kernels(&mut m, &mut spans)?;
    Ok((m, spans))
}

/// Per-layer metrics of `offline_repro`. `before` and `after` are the
/// in-process registry around the call loop, `requests` its zero-delay
/// estimates as requests.
pub fn offline_layers(
    inputs: &Inputs,
    samples: &[CallSample],
    requests: &ReplayInput,
    before: &Value,
    after: &Value,
) -> Result<(Vec<Metric>, Spans), String> {
    let d = |path: &[&str]| grew(before, after, path);
    let (batches, discarded) =
        (d(&["monte_carlo", "batches"]), d(&["monte_carlo", "discarded_batches"]));
    let mut m = library_counts(before, after, samples.len() as f64, discarded, batches + discarded);
    let gaps: Vec<f64> = samples.windows(2).map(|w| (w[1].start - w[0].done) * 1e3).collect();
    m.push(metric("hlbench.loadgen.lateness_p90_ms", percentile(&gaps, TAIL)?, "ms"));

    // The first calls again, untraced and traced; results must equal the
    // timed loop's bit for bit.
    let mut spans = Spans::new(true);
    let replay_call = |s: &CallSample, sp: &mut Spans| {
        let name = format!("offline.{}", s.call.kind());
        let out = sp.time(name, Some(s.index as u64), |_| inputs.run(s.call));
        if crate::offline::same_result(&out, &s.output) {
            Ok(())
        } else {
            Err(format!("replayed call {} ({:?}) differs from the timed loop", s.index, s.call))
        }
    };
    let first = &samples[..samples.len().min(OVERHEAD_REPLAY)];
    let overhead = overhead_pct(first, &mut spans, replay_call)?;
    let e2e_ms: Vec<f64> = samples.iter().map(|s| (s.done - s.start) * 1e3).collect();
    m.push(residual(&spans, |name| name.starts_with("offline."), &e2e_ms));
    m.push(metric("hlbench.trace_overhead_pct", overhead, "%"));

    // The serving layers on this workload's circuits and estimates.
    let (times, serving, _) = replay_layers(requests, &mut spans, false)?;
    m.extend(serving);
    m.extend(times);
    kernels(&mut m, &mut spans)?;
    Ok((m, spans))
}

/// Random input words for `cycles` steps of a `W`-lane simulator.
fn input_words<W: Word>(inputs: usize, cycles: usize, rng: &mut Rng) -> Vec<Vec<W>> {
    (0..cycles)
        .map(|_| {
            (0..inputs)
                .map(|_| {
                    let mut w = W::zero();
                    w.chunks_mut().iter_mut().for_each(|c| *c = rng.next_u64());
                    w
                })
                .collect()
        })
        .collect()
}

const ZD_CYCLES: usize = 100;
const GLITCH_CYCLES: usize = 10;
const ZD_REPS: usize = 5;
const GLITCH_REPS: usize = 3;

/// The inputs of one decomposed word.
struct WordBench<'a> {
    shape: &'a str,
    nl: &'a Netlist,
    lib: &'a Library,
    kernel: &'a CompiledKernel,
    model: &'a PowerModel,
}

impl WordBench<'_> {
    /// One full word at `W` lanes, zero-delay then glitch: ns per
    /// lane-cycle of each step loop (medians over repetitions), and the
    /// µs of each zero-delay counter flush (`take_lane_powers`).
    fn run<W: Word>(
        &self,
        label: &str,
        m: &mut Vec<Metric>,
        spans: &mut Spans,
    ) -> Result<Vec<f64>, String> {
        let mut rng = Rng::seed_from_u64(0x51de_0000);
        let zd_words = input_words::<W>(self.nl.input_count(), ZD_CYCLES, &mut rng);
        let glitch_words = input_words::<W>(self.nl.input_count(), GLITCH_CYCLES, &mut rng);
        let per_lane_cycle = |ns: u128, cycles: usize| ns as f64 / (W::LANES * cycles) as f64;
        let (mut zd, mut flushes, mut glitch) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..ZD_REPS {
            spans.time(format!("netlist.simwide.zd.{}.{label}", self.shape), None, |_| {
                let mut sim =
                    WideSim::<W>::with_kernel(self.nl, self.kernel).map_err(|e| e.to_string())?;
                let t = Instant::now();
                for word in &zd_words {
                    sim.step_masked(word, W::splat(true)).map_err(|e| e.to_string())?;
                }
                zd.push(per_lane_cycle(t.elapsed().as_nanos(), ZD_CYCLES));
                let t = Instant::now();
                black_box(sim.take_lane_powers(self.model));
                flushes.push(t.elapsed().as_nanos() as f64 / 1e3);
                Ok::<_, String>(())
            })?;
        }
        for _ in 0..GLITCH_REPS {
            spans.time(format!("netlist.simwide.glitch.{}.{label}", self.shape), None, |_| {
                let mut sim = WideTimedSim::<W>::with_kernel(self.nl, self.lib, self.kernel)
                    .map_err(|e| e.to_string())?;
                let t = Instant::now();
                for word in &glitch_words {
                    sim.step_masked(word, W::splat(true)).map_err(|e| e.to_string())?;
                }
                glitch.push(per_lane_cycle(t.elapsed().as_nanos(), GLITCH_CYCLES));
                Ok::<_, String>(())
            })?;
        }
        let name =
            |kind: &str| format!("netlist.simwide.{kind}_ns_per_lane_cycle.{}.{label}", self.shape);
        m.push(metric(name("zd"), median(&zd), "ns"));
        m.push(metric(name("glitch"), median(&glitch), "ns"));
        Ok(flushes)
    }
}

/// Kernel, pool and optimizer timings on fixed inputs, identical on every
/// workload.
fn kernels(m: &mut Vec<Metric>, spans: &mut Spans) -> Result<(), String> {
    let lib = Library::default();
    let mut flushes = Vec::new();
    for (shape, nl) in offline_shapes() {
        let kernel = CompiledKernel::compile(&nl).map_err(|e| e.to_string())?;
        let model = PowerModel::new(&nl, &lib);
        let bench = WordBench { shape, nl: &nl, lib: &lib, kernel: &kernel, model: &model };
        bench.run::<u64>("w64", m, spans)?;
        bench.run::<W256>("w256", m, spans)?;
        flushes.extend(bench.run::<W512>("w512", m, spans)?);
    }
    m.push(metric("netlist.simwide.flush_us_per_word", median(&flushes), "us"));

    // Fixed cost of one pooled job: two trivial items on two workers.
    let mut jobs = Vec::new();
    spans.time("rng.par.map_with_threads", None, |_| {
        for _ in 0..200 {
            let t = Instant::now();
            black_box(par::map_with_threads(2, &[0u8, 1u8], |_, x| *x));
            jobs.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    });
    m.push(metric("rng.par.job_overhead_us", median(&jobs), "us"));

    // Guard scoring on the guarded mux, over a 4,096-cycle stream.
    let nl = guard::guarded_mux_example(16);
    let stream: Vec<Vec<bool>> =
        streams::random(2026, nl.input_count()).take(PROFILE_CYCLES).collect();
    let candidates = guard::find_candidates(&nl, &lib, 16).map_err(|e| e.to_string())?;
    let (mut record, mut score) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let mut scorer = spans
            .time("optimize.guard.record", None, |_| guard::GuardScorer::new(&nl, &lib, &stream))
            .map_err(|e| e.to_string())?;
        record.push(t.elapsed().as_secs_f64() * 1e3);
        for c in &candidates {
            let t = Instant::now();
            black_box(spans.time("optimize.guard.score", None, |_| scorer.score(c)));
            score.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    m.push(metric("optimize.guard.record_ms", median(&record), "ms"));
    m.push(metric("optimize.guard.score_us", median(&score), "us"));

    // One rewrite search on 2,000-gate random logic.
    let nl = crate::workload::random_logic(7, 32, 2000, 16);
    let stream: Vec<Vec<bool>> =
        streams::random(2027, nl.input_count()).take(PROFILE_CYCLES).collect();
    let t = Instant::now();
    let out = spans
        .time("optimize.rewrite", None, |_| {
            rewrite::rewrite_gates(&nl, &lib, &stream, &rewrite::RewriteOptions::default())
        })
        .map_err(|e| e.to_string())?;
    let tried = out.candidates_tried.max(1) as f64;
    m.push(metric("optimize.rewrite.score_us", t.elapsed().as_nanos() as f64 / 1e3 / tried, "us"));
    m.push(metric(
        "netlist.incremental.cone_nodes_per_candidate",
        out.cone_nodes_resimmed as f64 / tried,
        "count",
    ));
    Ok(())
}
