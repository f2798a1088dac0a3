//! End-to-end server test: a daemon on an ephemeral port, concurrent
//! clients posting both example netlists (structural Verilog and EDIF),
//! and every response checked **bit-identical** to the offline engine —
//! the determinism contract of `docs/SERVER.md`.

use std::sync::Arc;

use hlpower_netlist::{
    ingest_auto, monte_carlo_power_seeded_threads_kernel, streams, Library, McKernel,
    MonteCarloOptions, MonteCarloResult, PowerModel,
};
use hlpower_obs::json::{self, Value};
use hlpower_serve::{client, Server, ServerConfig};

/// The offline `repro --ingest` reference options.
const OPTS: MonteCarloOptions =
    MonteCarloOptions { batch_cycles: 60, max_batches: 60, target_relative_error: 0.01, z: 1.96 };
const SEED: u64 = 0x1997;

fn example(name: &str) -> String {
    let path = format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn offline_reference(src: &str) -> MonteCarloResult {
    let (_, nl) = ingest_auto(None, src).expect("ingest");
    let lib = Library::default();
    let w = nl.input_count();
    monte_carlo_power_seeded_threads_kernel(
        &nl,
        &lib,
        |rng| streams::random_rng(rng, w),
        SEED,
        &OPTS,
        1,
        McKernel::Packed64,
    )
    .expect("offline run")
}

fn estimate_body(src: &str) -> String {
    format!(
        "{{\"netlist\": {}, \"seed\": {SEED}, \"options\": {{\"batch_cycles\": 60, \
         \"max_batches\": 60, \"target_relative_error\": 0.01, \"z\": 1.96}}}}",
        json::escaped(src)
    )
}

fn assert_matches_offline(body: &str, want: &MonteCarloResult, what: &str) {
    let v = json::parse(body).unwrap_or_else(|e| panic!("{what}: unparseable `{body}`: {e}"));
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{what}: {body}");
    let power = v.get("power_uw").and_then(Value::as_f64).expect("power_uw");
    let hw = v.get("half_width_uw").and_then(Value::as_f64).expect("half_width_uw");
    // Bit-identical, not approximately equal: the JSON layer emits f64s
    // via shortest-round-trip `{:?}`, so the parse gives back the bits.
    assert_eq!(power.to_bits(), want.power_uw.to_bits(), "{what}: power mismatch");
    assert_eq!(hw.to_bits(), want.half_width_uw.to_bits(), "{what}: half-width mismatch");
    assert_eq!(v.get("batches").and_then(Value::as_u64), Some(want.batches as u64), "{what}");
    assert_eq!(v.get("cycles").and_then(Value::as_u64), Some(want.cycles), "{what}");
}

#[test]
fn concurrent_clients_get_offline_identical_answers() {
    let verilog = Arc::new(example("gray_counter4.v"));
    let edif = Arc::new(example("majority.edf"));
    let want_verilog = offline_reference(&verilog);
    let want_edif = offline_reference(&edif);

    let server = Server::start(ServerConfig::default()).expect("start server");
    let addr = server.addr().to_string();

    // Several clients per netlist, all in flight at once, so the batcher
    // can pack tenants from different requests into shared words. Whether
    // it does depends on timing; the engine's
    // `packed_tenants_match_offline_results_exactly` makes sharing certain.
    let mut handles = Vec::new();
    for i in 0..6 {
        let addr = addr.clone();
        let src = if i % 2 == 0 { Arc::clone(&verilog) } else { Arc::clone(&edif) };
        handles.push(std::thread::spawn(move || {
            let resp = client::request(&addr, "POST", "/estimate", Some(&estimate_body(&src)))
                .expect("request");
            (i, resp)
        }));
    }
    for h in handles {
        let (i, resp) = h.join().expect("client thread");
        assert_eq!(resp.status, 200, "client {i}: {}", resp.body);
        let want = if i % 2 == 0 { &want_verilog } else { &want_edif };
        assert_matches_offline(&resp.body, want, &format!("client {i}"));
    }

    // /metrics: parseable hlpower-obs/2 snapshot with a live serve section.
    let metrics = client::request(&addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(metrics.status, 200);
    let snap = json::parse(&metrics.body).expect("metrics parse");
    assert_eq!(snap.get("schema").and_then(Value::as_str), Some("hlpower-obs/2"));
    let serve = snap.get("serve").expect("serve section");
    let count = |key: &str| {
        serve
            .get(key)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("serve counter {key} missing: {}", metrics.body))
    };
    assert!(count("requests") >= 7, "requests: {}", count("requests"));
    assert!(count("jobs") >= 6);
    assert!(count("packed_words") >= 1);
    assert!(count("packed_lanes") >= count("packed_words"));
    assert!(count("cache_hits") >= 1, "repeat circuits must hit the kernel cache");
    assert!(count("cache_misses") >= 2);

    // Healthz and structured 404.
    let ok = client::request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(ok.status, 200);
    let missing = client::request(&addr, "GET", "/nope", None).unwrap();
    assert_eq!(missing.status, 404);
    assert!(json::parse(&missing.body).is_ok());

    server.stop();
}

#[test]
fn streamed_responses_converge_to_the_offline_result() {
    let verilog = example("gray_counter4.v");
    let want = offline_reference(&verilog);
    let server = Server::start(ServerConfig::default()).expect("start server");
    let addr = server.addr().to_string();
    let body = format!(
        "{{\"netlist\": {}, \"seed\": {SEED}, \"stream\": true, \"options\": {{\"batch_cycles\": 60, \
         \"max_batches\": 60, \"target_relative_error\": 0.01, \"z\": 1.96}}}}",
        json::escaped(&verilog)
    );
    let resp = client::request(&addr, "POST", "/estimate", Some(&body)).expect("request");
    assert_eq!(resp.status, 200);
    let lines: Vec<&str> = resp.body.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!lines.is_empty());
    // Interim lines carry a running CI; batches must be non-decreasing.
    let mut last_batches = 0u64;
    for line in &lines[..lines.len() - 1] {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad interim `{line}`: {e}"));
        let interim = v.get("interim").expect("interim object");
        let batches = interim.get("batches").and_then(Value::as_u64).expect("batches");
        assert!(batches >= last_batches);
        last_batches = batches;
        assert!(interim.get("mean_uw").and_then(Value::as_f64).unwrap() > 0.0);
    }
    assert_matches_offline(lines[lines.len() - 1], &want, "final stream line");
    server.stop();
}

#[test]
fn parse_errors_come_back_located_and_structured() {
    let server = Server::start(ServerConfig::default()).expect("start server");
    let addr = server.addr().to_string();
    let bad_verilog =
        "module m (a, y);\n  input a;\n  output y;\n  frobnicate f (y, a);\nendmodule\n";
    let body = format!("{{\"netlist\": {}}}", json::escaped(bad_verilog));
    let resp = client::request(&addr, "POST", "/estimate", Some(&body)).expect("request");
    assert_eq!(resp.status, 400, "{}", resp.body);
    let v = json::parse(&resp.body).expect("structured error");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    let err = v.get("error").expect("error object");
    assert_eq!(err.get("kind").and_then(Value::as_str), Some("parse_unknown_cell"));
    assert_eq!(err.get("format").and_then(Value::as_str), Some("verilog"));
    assert_eq!(err.get("line").and_then(Value::as_u64), Some(4));
    assert!(err.get("snippet").and_then(Value::as_str).unwrap().contains("frobnicate"));

    // Bad JSON is located too.
    let resp = client::request(&addr, "POST", "/estimate", Some("{\"netlist\": ")).unwrap();
    assert_eq!(resp.status, 400);
    let v = json::parse(&resp.body).unwrap();
    assert_eq!(v.get("error").and_then(|e| e.get("kind")).and_then(Value::as_str), Some("json"));
    assert!(v.get("error").and_then(|e| e.get("line")).is_some());

    // Bad field values are rejected, not defaulted.
    let resp = client::request(
        &addr,
        "POST",
        "/estimate",
        Some("{\"netlist\": \"x\", \"options\": {\"max_batches\": 0}}"),
    )
    .unwrap();
    assert_eq!(resp.status, 400);

    server.stop();
}

#[test]
fn lane_packed_results_equal_unpacked_results() {
    // The same job answered solo (no co-tenants possible) and answered
    // while five other tenants are in flight, and usually share its
    // words, must be byte-identical.
    let verilog = example("gray_counter4.v");
    let solo_server = Server::start(ServerConfig::default()).expect("start server");
    let solo_addr = solo_server.addr().to_string();
    let solo = client::request(&solo_addr, "POST", "/estimate", Some(&estimate_body(&verilog)))
        .expect("solo request");
    solo_server.stop();

    let busy_server = Server::start(ServerConfig::default()).expect("start server");
    let busy_addr = busy_server.addr().to_string();
    let mut handles = Vec::new();
    for seed in [1u64, 2, 3, 4, 5] {
        let addr = busy_addr.clone();
        let src = verilog.clone();
        handles.push(std::thread::spawn(move || {
            let body = format!(
                "{{\"netlist\": {}, \"seed\": {seed}, \"options\": {{\"batch_cycles\": 15, \
                 \"max_batches\": 40, \"target_relative_error\": 0.0, \"z\": 1.96}}}}",
                json::escaped(&src)
            );
            client::request(&addr, "POST", "/estimate", Some(&body)).expect("tenant")
        }));
    }
    let packed = client::request(&busy_addr, "POST", "/estimate", Some(&estimate_body(&verilog)))
        .expect("packed request");
    for h in handles {
        assert_eq!(h.join().unwrap().status, 200);
    }
    busy_server.stop();

    assert_eq!(solo.status, 200);
    assert_eq!(packed.status, 200);
    // Everything except the per-request fields (request id, cache state)
    // must be identical — including the f64 bits, which round-trip
    // exactly through the JSON layer.
    let result_fields = |body: &str| {
        let Value::Obj(fields) = json::parse(body).expect("result object") else {
            panic!("non-object result: {body}")
        };
        fields.into_iter().filter(|(k, _)| k != "request_id" && k != "cache").collect::<Vec<_>>()
    };
    assert_eq!(
        result_fields(&solo.body),
        result_fields(&packed.body),
        "packing next to other tenants changed a response"
    );
}

/// A scratch path in the system temp dir, unique per test.
fn temp_path(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("hlpower-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path.to_str().expect("utf-8 temp path").to_string()
}

#[test]
fn access_log_lines_round_trip_with_correlated_ids_and_stage_times() {
    let verilog = example("gray_counter4.v");
    let log_path = temp_path("access.jsonl");
    let config = ServerConfig {
        access_log: Some(log_path.clone()),
        slow_ms: None,
        ..ServerConfig::default()
    };
    let server = Server::start(config).expect("start server");
    let addr = server.addr().to_string();

    let anon = client::request(&addr, "POST", "/estimate", Some(&estimate_body(&verilog)))
        .expect("anonymous estimate");
    assert_eq!(anon.status, 200);
    let named = client::request_with(
        &addr,
        "POST",
        "/estimate",
        Some(&estimate_body(&verilog)),
        &[("X-Request-Id", "smoke-42")],
    )
    .expect("named estimate");
    assert_eq!(named.status, 200);
    assert_eq!(named.header("x-request-id"), Some("smoke-42"), "client id echoed verbatim");
    let miss = client::request(&addr, "GET", "/nope", None).expect("404");
    assert_eq!(miss.status, 404);
    server.stop();

    let text = std::fs::read_to_string(&log_path).expect("read access log");
    let lines: Vec<Value> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("unparseable line `{l}`: {e}")))
        .collect();
    // One line per request: two estimates and the 404 (`Server::stop`
    // signals shutdown in-process, so no /shutdown request is served).
    assert_eq!(lines.len(), 3, "{text}");
    let estimates: Vec<&Value> = lines
        .iter()
        .filter(|v| v.get("route").and_then(Value::as_str) == Some("/estimate"))
        .collect();
    assert_eq!(estimates.len(), 2);
    for line in &estimates {
        assert_eq!(line.get("status").and_then(Value::as_u64), Some(200));
        assert!(line.get("cache").and_then(Value::as_str).is_some());
        assert!(line.get("netlist_hash").and_then(Value::as_str).is_some());
        assert_eq!(line.get("width").and_then(Value::as_u64), Some(64));
        assert!(line.get("lanes").and_then(Value::as_u64).unwrap() >= 1);
        assert!(line.get("bytes_in").and_then(Value::as_u64).unwrap() > 0);
        assert!(line.get("bytes_out").and_then(Value::as_u64).unwrap() > 0);
        // Stage windows are disjoint sub-intervals of the wall time.
        let wall = line.get("wall_ns").and_then(Value::as_u64).expect("wall_ns");
        let stages = line.get("stages").expect("stages");
        let sum: u64 = ["parse_ns", "cache_ns", "queue_ns", "pack_ns", "sim_ns", "finalize_ns"]
            .iter()
            .map(|k| stages.get(k).and_then(Value::as_u64).expect("stage field"))
            .sum();
        assert!(sum > 0, "some stage time must be recorded: {text}");
        assert!(sum <= wall + 1_000_000, "stage sum {sum} exceeds wall {wall}");
    }
    // The log's ids match what the responses reported.
    let echo_of = |line: &Value| match line.get("client_id").and_then(Value::as_str) {
        Some(c) => c.to_string(),
        None => line.get("id").and_then(Value::as_u64).expect("id").to_string(),
    };
    let logged: Vec<String> = estimates.iter().map(|l| echo_of(l)).collect();
    assert!(logged.contains(&"smoke-42".to_string()), "{logged:?}");
    let anon_id = json::parse(&anon.body)
        .unwrap()
        .get("request_id")
        .and_then(Value::as_str)
        .expect("request_id in body")
        .to_string();
    assert!(logged.contains(&anon_id), "{logged:?} missing {anon_id}");
}

#[test]
fn metrics_negotiates_prometheus_text_exposition() {
    let verilog = example("gray_counter4.v");
    let server = Server::start(ServerConfig::default()).expect("start server");
    let addr = server.addr().to_string();
    let est = client::request(&addr, "POST", "/estimate", Some(&estimate_body(&verilog)))
        .expect("estimate");
    assert_eq!(est.status, 200);

    let json_resp = client::request(&addr, "GET", "/metrics", None).expect("json metrics");
    assert_eq!(json_resp.status, 200);
    assert_eq!(json_resp.header("content-type"), Some("application/json"));
    let snap = json::parse(&json_resp.body).expect("json snapshot");

    let prom_resp =
        client::request_with(&addr, "GET", "/metrics", None, &[("Accept", "text/plain")])
            .expect("prom metrics");
    assert_eq!(prom_resp.status, 200);
    assert_eq!(prom_resp.header("content-type"), Some("text/plain; version=0.0.4"));
    let exposition =
        hlpower_obs::report::parse_prometheus(&prom_resp.body).expect("valid exposition");
    // The two scrapes bracket each other: every counter present in the
    // JSON snapshot exists in the exposition, and monotone counters can
    // only have grown between the scrapes.
    let json_requests = snap
        .get("serve")
        .and_then(|s| s.get("requests"))
        .and_then(Value::as_u64)
        .expect("serve.requests");
    let prom_requests =
        exposition.value("hlpower_serve_requests_total").expect("requests_total sample");
    assert!(prom_requests >= json_requests as f64, "{prom_requests} < {json_requests}");
    assert_eq!(exposition.type_of("hlpower_serve_requests_total"), Some("counter"));
    assert_eq!(exposition.type_of("hlpower_serve_stage_sim_ns"), Some("histogram"));
    assert!(exposition.value("hlpower_serve_stage_sim_ns_count").unwrap_or(0.0) >= 1.0);
    assert_eq!(exposition.type_of("hlpower_serve_stage_in_flight"), Some("gauge"));
    server.stop();
}

#[test]
fn concurrent_clients_get_unique_echoed_request_ids() {
    let verilog = Arc::new(example("gray_counter4.v"));
    let server = Server::start(ServerConfig::default()).expect("start server");
    let addr = server.addr().to_string();
    let mut handles = Vec::new();
    for i in 0..8 {
        let addr = addr.clone();
        let src = Arc::clone(&verilog);
        handles.push(std::thread::spawn(move || {
            let resp = client::request(&addr, "POST", "/estimate", Some(&estimate_body(&src)))
                .expect("request");
            (i, resp)
        }));
    }
    let mut seen = std::collections::HashSet::new();
    for h in handles {
        let (i, resp) = h.join().expect("client thread");
        assert_eq!(resp.status, 200, "client {i}: {}", resp.body);
        let body_id = json::parse(&resp.body)
            .unwrap()
            .get("request_id")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("client {i}: no request_id in {}", resp.body))
            .to_string();
        assert_eq!(
            Some(body_id.as_str()),
            resp.header("x-request-id"),
            "client {i}: body and header ids must agree"
        );
        assert!(seen.insert(body_id.clone()), "client {i}: duplicate request id {body_id}");
    }
    server.stop();
}

#[test]
fn bit_identity_survives_logging_and_tracing() {
    // The acceptance gate: turning on every telemetry feature at once —
    // span tracing, the access log, request contexts — must not perturb
    // a single bit of the estimate.
    let verilog = example("gray_counter4.v");
    let want = offline_reference(&verilog);
    let log_path = temp_path("bit-identity-access.jsonl");
    hlpower_obs::trace::set_enabled(true);
    let config = ServerConfig {
        access_log: Some(log_path.clone()),
        slow_ms: Some(0),
        ..ServerConfig::default()
    };
    let server = Server::start(config).expect("start server");
    let addr = server.addr().to_string();
    let resp = client::request_with(
        &addr,
        "POST",
        "/estimate",
        Some(&estimate_body(&verilog)),
        &[("X-Request-Id", "bit-identity")],
    )
    .expect("request");
    server.stop();
    hlpower_obs::trace::set_enabled(false);
    assert_eq!(resp.status, 200);
    assert_matches_offline(&resp.body, &want, "telemetry-on estimate");
    // slow_ms = 0 classifies the request as slow, so the log carries
    // both its access line and a spans line.
    let text = std::fs::read_to_string(&log_path).expect("read access log");
    assert!(text.lines().any(|l| l.contains("\"slow\": true") || l.contains("\"slow\":true")));
}

#[test]
fn offline_model_reference_agrees_with_server_pipeline() {
    // Belt and braces: the reference MonteCarloResult used above really
    // is the documented PowerModel path (guards against the offline
    // reference itself drifting).
    let (_, nl) = ingest_auto(None, &example("gray_counter4.v")).unwrap();
    let lib = Library::default();
    let model = PowerModel::new(&nl, &lib);
    let want = offline_reference(&example("gray_counter4.v"));
    assert!(want.power_uw > 0.0);
    assert!(
        model.total_power_uw(&{
            let mut sim = hlpower_netlist::ZeroDelaySim::new(&nl).unwrap();
            sim.run(streams::random(1, nl.input_count()).take(100)).unwrap()
        }) > 0.0
    );
    assert_eq!(want.batches, 60);
}
