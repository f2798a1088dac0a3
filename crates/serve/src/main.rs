//! `hlpower-serve` — the estimation server daemon and its CLI client.
//!
//! ```text
//! hlpower-serve serve [--addr 127.0.0.1:0] [--addr-file PATH]
//!                     [--threads N] [--cache-mb N]
//! hlpower-serve post    ADDR FILE [--seed N] [--batch-cycles N]
//!                       [--max-batches N] [--tre X] [--z X]
//!                       [--mode zero_delay|glitch] [--width 64|256|512]
//!                       [--stream] [--request-id ID]
//! hlpower-serve metrics ADDR [--format json|prometheus]
//! hlpower-serve top     ADDR [--interval-ms N] [--iters N]
//! hlpower-serve audit   --access PATH [--trace PATH] [--prom PATH]
//!                       [--responses PATH]
//! hlpower-serve stop    ADDR
//! ```
//!
//! `serve` blocks until a `POST /shutdown` arrives (from `stop`), then
//! drains in-flight jobs and exits. `--addr-file` writes the bound
//! address (useful with an ephemeral `:0` port — the CI smoke reads it
//! back). Setting `HLPOWER_TRACE=<path>` records spans for the whole
//! server lifetime and writes (and validates) a Chrome trace on exit;
//! `HLPOWER_ACCESS_LOG=<path>` appends one JSONL line per request (see
//! `docs/OBSERVABILITY.md`).
//!
//! The client subcommands exist so the hermetic CI can drive the server
//! without any external HTTP tooling: `top` polls `/metrics` and renders
//! live per-stage rates and latencies; `audit` cross-checks the
//! telemetry artifacts a smoke run produced (access log ↔ trace ↔
//! response bodies ↔ Prometheus exposition).

use std::process::ExitCode;

use hlpower_obs::{json, json::Value};
use hlpower_obs::{report, trace};
use hlpower_serve::{client, Server, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("post") => cmd_post(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("stop") => cmd_stop(&args[1..]),
        _ => {
            eprintln!(
                "usage: hlpower-serve serve [--addr A] [--addr-file F] [--threads N] [--cache-mb N]\n\
                 \x20      hlpower-serve post ADDR FILE [--seed N] [--batch-cycles N] [--max-batches N]\n\
                 \x20                                   [--tre X] [--z X] [--mode M] [--width W] [--stream]\n\
                 \x20                                   [--request-id ID]\n\
                 \x20      hlpower-serve metrics ADDR [--format json|prometheus]\n\
                 \x20      hlpower-serve top ADDR [--interval-ms N] [--iters N]\n\
                 \x20      hlpower-serve audit --access PATH [--trace PATH] [--prom PATH] [--responses PATH]\n\
                 \x20      hlpower-serve stop ADDR"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match flag_value(args, flag) {
        None => Ok(None),
        Some(v) => v.parse::<T>().map(Some).map_err(|_| format!("bad value for {flag}: `{v}`")),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let trace_path = trace::env_path();
    if trace_path.is_some() {
        trace::set_enabled(true);
    }
    let mut config = ServerConfig::default();
    if let Some(addr) = flag_value(args, "--addr") {
        config.addr = addr.to_string();
    }
    if let Some(threads) = parse_flag::<usize>(args, "--threads")? {
        config.threads = threads;
    }
    if let Some(mb) = parse_flag::<usize>(args, "--cache-mb")? {
        config.cache_bytes = mb * 1024 * 1024;
    }
    let server = Server::start(config).map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.addr();
    println!("hlpower-serve listening on {addr}");
    if let Some(path) = flag_value(args, "--addr-file") {
        std::fs::write(path, addr.to_string())
            .map_err(|e| format!("could not write --addr-file {path}: {e}"))?;
    }
    server.join();
    println!("hlpower-serve stopped");
    // Export the span trace after the drain so every connection's and
    // worker's spans are in it; validate the round-trip and the event
    // accounting, and fail loudly on any drop — a silently truncated
    // trace would masquerade as a quiet run.
    if let Some(path) = trace_path {
        let n = trace::write_chrome_json(&path)
            .map_err(|e| format!("could not write trace to {path}: {e}"))?;
        trace::check_accounting(n)?;
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let parsed = trace::parse_chrome_trace(&text)
            .map_err(|e| format!("exported trace is not valid Chrome JSON: {e}"))?;
        if parsed.len() != n {
            return Err(format!("trace round-trip mismatch: wrote {n}, parsed {}", parsed.len()));
        }
        println!("trace: {n} span(s) written to {path}");
        let dropped = trace::dropped();
        if dropped > 0 {
            return Err(format!("{dropped} trace event(s) dropped (ring/sink overflow)"));
        }
    }
    Ok(())
}

/// Drops the `null` members that unset flags leave, so the server
/// applies its defaults for them.
fn without_nulls(v: Value) -> Value {
    match v {
        Value::Obj(pairs) => Value::Obj(
            pairs
                .into_iter()
                .filter(|(_, v)| *v != Value::Null)
                .map(|(k, v)| (k, without_nulls(v)))
                .collect(),
        ),
        v => v,
    }
}

fn cmd_post(args: &[String]) -> Result<(), String> {
    let (addr, file) = match (args.first(), args.get(1)) {
        (Some(a), Some(f)) if !a.starts_with("--") && !f.starts_with("--") => (a, f),
        _ => return Err("post needs ADDR and FILE".into()),
    };
    let source =
        std::fs::read_to_string(file).map_err(|e| format!("could not read {file}: {e}"))?;
    let body = without_nulls(json!({
        "netlist": source,
        "seed": parse_flag::<u64>(args, "--seed")?,
        "options": {
            "batch_cycles": parse_flag::<u64>(args, "--batch-cycles")?,
            "max_batches": parse_flag::<u64>(args, "--max-batches")?,
            "target_relative_error": parse_flag::<f64>(args, "--tre")?,
            "z": parse_flag::<f64>(args, "--z")?,
        },
        "mode": flag_value(args, "--mode"),
        "width": parse_flag::<u64>(args, "--width")?,
        "stream": args.iter().any(|a| a == "--stream"),
    }))
    .compact();
    let extra: Vec<(&str, &str)> = match flag_value(args, "--request-id") {
        Some(id) => vec![("X-Request-Id", id)],
        None => Vec::new(),
    };
    let resp = client::request_with(addr, "POST", "/estimate", Some(&body), &extra)
        .map_err(|e| format!("request failed: {e}"))?;
    print!("{}", resp.body);
    if !resp.body.ends_with('\n') {
        println!();
    }
    if resp.status >= 400 {
        return Err(format!("server answered {}", resp.status));
    }
    // Guard the smoke path: the response must be a parseable success
    // that echoes a request id matching the response header. Blocking
    // responses are one pretty-printed object; streamed responses are
    // compact JSON lines whose last line is the result.
    let last = resp.body.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("");
    let parsed = json::parse(&resp.body)
        .or_else(|_| json::parse(last))
        .map_err(|e| format!("unparseable response: {e}"))?;
    if parsed.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err("response did not report ok=true".into());
    }
    let body_id = parsed.get("request_id").and_then(Value::as_str);
    if body_id.is_none() {
        return Err("response carried no request_id".into());
    }
    if body_id != resp.header("x-request-id") {
        return Err(format!(
            "request id mismatch: body {:?} vs header {:?}",
            body_id,
            resp.header("x-request-id")
        ));
    }
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let addr = args.first().ok_or("metrics needs ADDR")?;
    let format = flag_value(args, "--format").unwrap_or("json");
    let accept = match format {
        "json" => "application/json",
        "prometheus" => "text/plain",
        other => return Err(format!("bad value for --format: `{other}`")),
    };
    let resp = client::request_with(addr, "GET", "/metrics", None, &[("Accept", accept)])
        .map_err(|e| format!("request failed: {e}"))?;
    print!("{}", resp.body);
    if !resp.body.ends_with('\n') {
        println!();
    }
    if resp.status >= 400 {
        return Err(format!("server answered {}", resp.status));
    }
    Ok(())
}

fn cmd_stop(args: &[String]) -> Result<(), String> {
    let addr = args.first().ok_or("stop needs ADDR")?;
    let resp = client::request(addr, "POST", "/shutdown", None)
        .map_err(|e| format!("request failed: {e}"))?;
    println!("{}", resp.body.trim_end());
    if resp.status >= 400 {
        return Err(format!("server answered {}", resp.status));
    }
    Ok(())
}

/// One `/metrics` poll, reduced to what `top` renders.
struct TopSample {
    requests: u64,
    ok: u64,
    err: u64,
    queue_depth: u64,
    in_flight: u64,
    lanes_busy: u64,
    connections: u64,
    /// Per stage: `(name, count, sum_ns, cumulative p90_ns)`.
    stages: Vec<(String, u64, u64, u64)>,
}

const TOP_STAGES: [&str; 6] = ["parse", "cache", "queue", "pack", "sim", "finalize"];

fn fetch_top_sample(addr: &str) -> Result<TopSample, String> {
    let resp = client::request(addr, "GET", "/metrics", None)
        .map_err(|e| format!("request failed: {e}"))?;
    if resp.status >= 400 {
        return Err(format!("server answered {}", resp.status));
    }
    let root = json::parse(&resp.body).map_err(|e| format!("unparseable metrics: {e}"))?;
    let count = |section: &str, name: &str| {
        root.get(section).and_then(|s| s.get(name)).and_then(Value::as_u64).unwrap_or(0)
    };
    let stages = TOP_STAGES
        .iter()
        .map(|stage| {
            let hist = root.get("serve_stage").and_then(|s| s.get(&format!("{stage}_ns")));
            let field = |f: &str| hist.and_then(|h| h.get(f)).and_then(Value::as_u64).unwrap_or(0);
            (stage.to_string(), field("count"), field("sum"), field("p90"))
        })
        .collect();
    Ok(TopSample {
        requests: count("serve", "requests"),
        ok: count("serve", "requests_ok"),
        err: count("serve", "requests_err"),
        queue_depth: count("serve_stage", "queue_depth"),
        in_flight: count("serve_stage", "in_flight"),
        lanes_busy: count("serve_stage", "lanes_busy"),
        connections: count("serve", "connections"),
        stages,
    })
}

fn cmd_top(args: &[String]) -> Result<(), String> {
    let addr = args.first().ok_or("top needs ADDR")?;
    let interval_ms = parse_flag::<u64>(args, "--interval-ms")?.unwrap_or(1000).max(10);
    let iters = parse_flag::<u64>(args, "--iters")?.unwrap_or(0);
    let secs = interval_ms as f64 / 1000.0;
    println!("hlpower-serve top — {addr} (interval {interval_ms} ms)");
    let mut prev = fetch_top_sample(addr)?;
    let mut done = 0u64;
    loop {
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        let cur = fetch_top_sample(addr)?;
        let rate = |now: u64, before: u64| now.saturating_sub(before) as f64 / secs;
        println!(
            "req {:.1}/s  ok {:.1}/s  err {:.1}/s  conns {:.1}/s | in_flight {}  queue {}  lanes_busy {}",
            rate(cur.requests, prev.requests),
            rate(cur.ok, prev.ok),
            rate(cur.err, prev.err),
            rate(cur.connections, prev.connections),
            cur.in_flight,
            cur.queue_depth,
            cur.lanes_busy,
        );
        println!("  {:<10} {:>10} {:>12} {:>12}", "stage", "req/s", "mean_ms", "p90_ms*");
        for ((name, count, sum, p90), (_, pcount, psum, _)) in
            cur.stages.iter().zip(prev.stages.iter())
        {
            let dcount = count.saturating_sub(*pcount);
            let dsum = sum.saturating_sub(*psum);
            let mean_ms = if dcount > 0 { dsum as f64 / dcount as f64 / 1e6 } else { 0.0 };
            println!(
                "  {:<10} {:>10.1} {:>12.3} {:>12.3}",
                name,
                dcount as f64 / secs,
                mean_ms,
                *p90 as f64 / 1e6,
            );
        }
        println!("  (* p90 is cumulative since server start)");
        prev = cur;
        done += 1;
        if iters > 0 && done >= iters {
            return Ok(());
        }
    }
}

/// Cross-checks the telemetry artifacts of a smoke run: the access log
/// parses and its per-stage durations fit inside each request's wall
/// time; response bodies' request ids appear in the access log; access
/// ids appear in the trace; the Prometheus exposition parses.
fn cmd_audit(args: &[String]) -> Result<(), String> {
    let access_path = flag_value(args, "--access").ok_or("audit needs --access PATH")?;
    let text = std::fs::read_to_string(access_path)
        .map_err(|e| format!("could not read {access_path}: {e}"))?;
    let mut access_echoes: Vec<String> = Vec::new();
    let mut access_ids: Vec<u64> = Vec::new();
    let mut estimates = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line)
            .map_err(|e| format!("{access_path}:{}: unparseable line: {e}", lineno + 1))?;
        if v.get("slow").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let id = v
            .get("id")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{access_path}:{}: missing id", lineno + 1))?;
        access_ids.push(id);
        access_echoes.push(match v.get("client_id").and_then(Value::as_str) {
            Some(client) => client.to_string(),
            None => id.to_string(),
        });
        let route = v.get("route").and_then(Value::as_str).unwrap_or("");
        let status = v.get("status").and_then(Value::as_u64).unwrap_or(0);
        if route == "/estimate" && status == 200 {
            estimates += 1;
            let wall_ns = v.get("wall_ns").and_then(Value::as_u64).unwrap_or(0);
            let stages = v
                .get("stages")
                .ok_or_else(|| format!("{access_path}:{}: missing stages", lineno + 1))?;
            let sum: u64 = TOP_STAGES
                .iter()
                .map(|s| stages.get(&format!("{s}_ns")).and_then(Value::as_u64).unwrap_or(0))
                .sum();
            // Stage windows are disjoint sub-intervals of the request's
            // wall time; allow 1 ms of clock noise.
            if sum > wall_ns + 1_000_000 {
                return Err(format!(
                    "{access_path}:{}: stage sum {sum} ns exceeds wall {wall_ns} ns",
                    lineno + 1
                ));
            }
        }
    }
    if estimates == 0 {
        return Err(format!("{access_path}: no successful /estimate lines to audit"));
    }
    println!(
        "audit: {} access line(s), {estimates} estimate(s), stage sums within wall",
        access_ids.len()
    );
    if let Some(responses_path) = flag_value(args, "--responses") {
        let text = std::fs::read_to_string(responses_path)
            .map_err(|e| format!("could not read {responses_path}: {e}"))?;
        let mut checked = 0usize;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let Ok(v) = json::parse(line) else { continue };
            let Some(rid) = v.get("request_id").and_then(Value::as_str) else { continue };
            if !access_echoes.iter().any(|e| e == rid) {
                return Err(format!(
                    "{responses_path}: response request_id {rid} not in access log"
                ));
            }
            checked += 1;
        }
        if checked == 0 {
            return Err(format!("{responses_path}: no response request_ids to audit"));
        }
        println!("audit: {checked} response id(s) all present in access log");
    }
    if let Some(trace_path) = flag_value(args, "--trace") {
        let text = std::fs::read_to_string(trace_path)
            .map_err(|e| format!("could not read {trace_path}: {e}"))?;
        let events = trace::parse_chrome_trace(&text)
            .map_err(|e| format!("{trace_path}: invalid Chrome trace: {e}"))?;
        let traced: std::collections::HashSet<u64> =
            events.iter().filter_map(|e| e.request_id).collect();
        for &id in &access_ids {
            if !traced.contains(&id) {
                return Err(format!("{trace_path}: access-log request {id} has no trace span"));
            }
        }
        println!(
            "audit: all {} access id(s) appear among {} traced request id(s)",
            access_ids.len(),
            traced.len()
        );
    }
    if let Some(prom_path) = flag_value(args, "--prom") {
        let text = std::fs::read_to_string(prom_path)
            .map_err(|e| format!("could not read {prom_path}: {e}"))?;
        let exposition = report::parse_prometheus(&text)
            .map_err(|e| format!("{prom_path}: invalid exposition: {e}"))?;
        let served = exposition
            .value("hlpower_serve_requests_total")
            .ok_or_else(|| format!("{prom_path}: missing hlpower_serve_requests_total"))?;
        // The exposition is a point-in-time scrape: requests after it
        // (e.g. the final /shutdown) appear in the access log but not in
        // the counter, so compare against the estimate traffic — which
        // any sane smoke finishes before scraping — not the line total.
        if (served as usize) < estimates {
            return Err(format!(
                "{prom_path}: hlpower_serve_requests_total {served} < {estimates} estimate(s)"
            ));
        }
        println!("audit: prometheus exposition parses ({} sample(s))", exposition.samples.len());
    }
    Ok(())
}
