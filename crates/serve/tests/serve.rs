//! End-to-end tests for the `gopher serve` daemon: HTTP answers must be
//! bit-identical to in-process sessions, concurrent callers asking one
//! question must share its sweep, error paths must map to the right status
//! codes, and shutdown must drain.

use gopher_json::Json;
use gopher_serve::client::{request_once, Conn};
use gopher_serve::server::default_request;
use gopher_serve::{api, build_session, ServeConfig, SessionConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn start(config: ServeConfig) -> (gopher_serve::Server, SocketAddr) {
    let server = gopher_serve::Server::start(config).expect("bind an ephemeral port");
    let addr = server.addr();
    (server, addr)
}

fn parse(body: &str) -> Json {
    gopher_json::parse(body.trim()).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"))
}

/// Response JSON minus the wall-clock fields (`query_ms` / `search_ms`),
/// which are the only legitimately nondeterministic parts.
fn stripped(body: &str) -> Json {
    let mut json = parse(body);
    if let Json::Obj(ref mut fields) = json {
        fields.remove("query_ms");
        fields.remove("search_ms");
    }
    json
}

const GERMAN_300: &str =
    r#"{"name":"german", "generator":"german", "rows":300, "seed":7, "model":"lr"}"#;

fn german_300_config() -> SessionConfig {
    SessionConfig::from_json(&parse(GERMAN_300)).expect("valid config")
}

#[test]
fn http_answers_are_bit_identical_to_in_process_sessions() {
    let (server, addr) = start(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });

    let created = request_once(addr, "POST", "/sessions", Some(GERMAN_300)).unwrap();
    assert_eq!(created.status, 201, "{}", created.body);
    let created_json = parse(&created.body);
    assert_eq!(created_json.get("rows").and_then(Json::as_f64), Some(300.0));

    // Same name again: conflict, not silent replacement.
    let dup = request_once(addr, "POST", "/sessions", Some(GERMAN_300)).unwrap();
    assert_eq!(dup.status, 409, "{}", dup.body);

    // The HTTP answer must match an in-process session built from the very
    // same config, field for field (timing excluded).
    let (reference, _rows) = build_session(&german_300_config()).unwrap();
    let mut conn = Conn::connect(addr).unwrap();
    for body in [
        r#"{"metric":"equal-opportunity"}"#,
        r#"{"metric":"statistical-parity", "k":2, "support":0.1}"#,
        r#"{"metric":"average-odds", "estimator":"first-order"}"#,
    ] {
        let over_http = conn
            .request("POST", "/sessions/german/explain", Some(body))
            .unwrap();
        assert_eq!(over_http.status, 200, "{}", over_http.body);
        let request = api::parse_explain_request(&parse(body), &default_request(), 1.0).unwrap();
        let in_process = reference.explain(&request);
        let expected = format!("{}", api::explain_response_json(&in_process));
        assert_eq!(
            stripped(&over_http.body),
            stripped(&expected),
            "HTTP and in-process answers diverged for {body}"
        );
    }

    // Live stats reflect the traffic we just sent.
    let stats = request_once(addr, "GET", "/sessions/german/stats", None).unwrap();
    assert_eq!(stats.status, 200);
    let stats_json = parse(&stats.body);
    assert!(
        stats_json
            .get("requests_served")
            .and_then(Json::as_f64)
            .unwrap()
            >= 3.0
    );
    assert_eq!(
        stats_json.get("name").and_then(Json::as_str),
        Some("german")
    );

    server.trigger_shutdown();
    server.join();
}

#[test]
fn concurrent_explains_share_one_sweep_per_question() {
    let (server, addr) = start(ServeConfig {
        workers: 6,
        ..ServeConfig::default()
    });
    let created = request_once(addr, "POST", "/sessions", Some(GERMAN_300)).unwrap();
    assert_eq!(created.status, 201, "{}", created.body);

    let bodies = [
        r#"{"metric":"statistical-parity"}"#,
        r#"{"metric":"equal-opportunity"}"#,
        r#"{"metric":"predictive-parity"}"#,
        r#"{"metric":"statistical-parity"}"#,
    ];
    let answers: Vec<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .iter()
            .enumerate()
            .map(|(i, body)| {
                scope.spawn(move || {
                    let response =
                        request_once(addr, "POST", "/sessions/german/explain", Some(body)).unwrap();
                    assert_eq!(response.status, 200, "{}", response.body);
                    (i, response.body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every concurrent answer is bit-identical to a sequential in-process
    // run of the same request.
    let (reference, _rows) = build_session(&german_300_config()).unwrap();
    for (i, body) in &answers {
        let request =
            api::parse_explain_request(&parse(bodies[*i]), &default_request(), 1.0).unwrap();
        let expected = reference.explain(&request);
        assert_eq!(
            stripped(body),
            stripped(&format!("{}", api::explain_response_json(&expected))),
            "concurrent answer {i} diverged from the sequential reference"
        );
    }

    let stats = parse(
        &request_once(addr, "GET", "/sessions/german/stats", None)
            .unwrap()
            .body,
    );
    let counter = |name: &str| stats.get(name).and_then(Json::as_f64).unwrap();
    assert_eq!(counter("requests_served"), 4.0);
    // Three distinct questions: the repeated one is answered from the
    // first's sweep, whether it arrived while that sweep ran or after.
    assert_eq!(counter("sweep_misses"), 3.0, "{stats:?}");
    assert_eq!(counter("sweep_hits"), 1.0, "{stats:?}");

    server.trigger_shutdown();
    server.join();
}

#[test]
fn csv_uploads_work_and_errors_carry_line_numbers() {
    let (server, addr) = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });

    // A valid upload: round-trip a german sample through the CSV codec.
    let data = gopher_data::generators::german(200, 11);
    let mut csv = Vec::new();
    gopher_data::csv::write_csv(&data, &mut csv).unwrap();
    let csv = String::from_utf8(csv).unwrap();
    let upload = format!(
        "{}",
        Json::obj([
            ("name", Json::str("uploaded")),
            ("csv", Json::str(&csv)),
            ("label", Json::str("good_credit")),
            ("protected", Json::str("age>=45")),
            ("seed", Json::num(11.0)),
        ])
    );
    let created = request_once(addr, "POST", "/sessions", Some(&upload)).unwrap();
    assert_eq!(created.status, 201, "{}", created.body);
    assert_eq!(
        parse(&created.body).get("rows").and_then(Json::as_f64),
        Some(200.0)
    );
    let answer = request_once(addr, "POST", "/sessions/uploaded/explain", Some("{}")).unwrap();
    assert_eq!(answer.status, 200, "{}", answer.body);

    // A malformed row: the 400 names the offending line.
    let bad_csv = "age,job,good_credit\n31,clerk,1\n44,\"unterminated,0\n";
    let upload = format!(
        "{}",
        Json::obj([
            ("name", Json::str("bad")),
            ("csv", Json::str(bad_csv)),
            ("label", Json::str("good_credit")),
            ("protected", Json::str("age>=30")),
        ])
    );
    let rejected = request_once(addr, "POST", "/sessions", Some(&upload)).unwrap();
    assert_eq!(rejected.status, 400, "{}", rejected.body);
    let message = parse(&rejected.body)
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert!(
        message.contains("line 3"),
        "error must carry the line number: {message}"
    );

    server.trigger_shutdown();
    server.join();
}

#[test]
fn protocol_errors_map_to_the_right_statuses() {
    let (server, addr) = start(ServeConfig {
        workers: 2,
        max_body_bytes: 4096,
        ..ServeConfig::default()
    });

    // Unknown session: 404.
    let missing = request_once(addr, "POST", "/sessions/nope/explain", Some("{}")).unwrap();
    assert_eq!(missing.status, 404);
    let missing_stats = request_once(addr, "GET", "/sessions/nope/stats", None).unwrap();
    assert_eq!(missing_stats.status, 404);

    // Unknown route: 404; wrong method on a known root: 405.
    assert_eq!(
        request_once(addr, "GET", "/frob", None).unwrap().status,
        404
    );
    assert_eq!(
        request_once(addr, "PATCH", "/sessions", Some("{}"))
            .unwrap()
            .status,
        405
    );

    // Malformed JSON and unknown fields: 400.
    let bad = request_once(addr, "POST", "/sessions", Some("{not json")).unwrap();
    assert_eq!(bad.status, 400);
    let unknown = request_once(
        addr,
        "POST",
        "/sessions",
        Some(r#"{"name":"x", "generator":"german", "rowz":100}"#),
    )
    .unwrap();
    assert_eq!(unknown.status, 400, "{}", unknown.body);
    assert!(parse(&unknown.body)
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("rowz"));

    // A deeply nested body is a clean 400 from the hardened parser, not a
    // stack overflow in the worker.
    let mut deep = String::new();
    for _ in 0..1000 {
        deep.push('[');
    }
    let nested = request_once(addr, "POST", "/sessions", Some(&deep)).unwrap();
    assert_eq!(nested.status, 400, "{}", nested.body);
    assert!(parse(&nested.body)
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("nesting"));

    // A body past the configured bound: 413 before the body is read.
    let huge = "x".repeat(8192);
    let too_large = request_once(addr, "POST", "/sessions", Some(&huge)).unwrap();
    assert_eq!(too_large.status, 413, "{}", too_large.body);

    server.trigger_shutdown();
    server.join();
}

/// The accept thread blocks in `accept()` instead of polling, so a fresh
/// connection reaches a worker as soon as it arrives: twenty sequential
/// one-shot requests take a few milliseconds in all, where a 10 ms poll
/// would cost most of an interval each.
#[test]
fn fresh_connections_are_accepted_without_a_poll_delay() {
    let (server, addr) = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    // Warm-up, so worker start-up is not timed.
    assert_eq!(
        request_once(addr, "GET", "/healthz", None).unwrap().status,
        200
    );
    let t0 = Instant::now();
    for _ in 0..20 {
        let response = request_once(addr, "GET", "/healthz", None).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(100),
        "20 fresh-connection requests took {elapsed:?}"
    );
    server.trigger_shutdown();
    server.join();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let (server, addr) = start(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    let created = request_once(
        addr,
        "POST",
        "/sessions",
        Some(r#"{"name":"german", "generator":"german", "rows":3000, "seed":7}"#),
    )
    .unwrap();
    assert_eq!(created.status, 201, "{}", created.body);

    // Launch a slow request — a low-support sweep plus a ground-truth
    // retrain per answer — and land the shutdown once the session has
    // started answering it; it must be answered, not dropped.
    let in_flight = std::thread::spawn(move || {
        request_once(
            addr,
            "POST",
            "/sessions/german/explain",
            Some(r#"{"metric":"equal-opportunity", "support":0.01, "k":5, "ground_truth":true}"#),
        )
        .unwrap()
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = parse(
            &request_once(addr, "GET", "/sessions/german/stats", None)
                .unwrap()
                .body,
        );
        if stats.get("requests_served").and_then(Json::as_f64) == Some(1.0) {
            break;
        }
        assert!(Instant::now() < deadline, "the explain never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    let ack = request_once(addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(ack.status, 200);

    let response = in_flight.join().unwrap();
    assert_eq!(
        response.status, 200,
        "in-flight request must drain through shutdown: {}",
        response.body
    );
    // Join must return promptly now that the drain is complete.
    server.join();
}

#[test]
fn update_endpoint_patches_the_session_and_matches_an_in_process_delta() {
    let (server, addr) = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let created = request_once(addr, "POST", "/sessions", Some(GERMAN_300)).unwrap();
    assert_eq!(created.status, 201, "{}", created.body);

    // Warm the coverage cache so the update has merged coverages to discard.
    let warm = request_once(
        addr,
        "POST",
        "/sessions/german/explain",
        Some(r#"{"metric":"statistical-parity"}"#),
    )
    .unwrap();
    assert_eq!(warm.status, 200, "{}", warm.body);

    let delta = r#"{"remove":[5], "add_rows":1, "seed":13}"#;
    let updated = request_once(addr, "POST", "/sessions/german/update", Some(delta)).unwrap();
    assert_eq!(updated.status, 200, "{}", updated.body);
    let updated_json = parse(&updated.body);
    assert_eq!(
        updated_json.get("rows_removed").and_then(Json::as_f64),
        Some(1.0)
    );
    assert_eq!(
        updated_json.get("rows_added").and_then(Json::as_f64),
        Some(1.0)
    );
    assert_eq!(
        updated_json.get("updates_applied").and_then(Json::as_f64),
        Some(1.0)
    );
    let invalidated = updated_json
        .get("artifacts_invalidated")
        .and_then(Json::as_f64)
        .unwrap();
    assert!(
        invalidated >= 1.0,
        "the warmed explain's merged coverages must be discarded: {}",
        updated.body
    );

    // The post-update HTTP answer must be bit-identical to an in-process
    // session that applied the very same delta through the same spec.
    let config = german_300_config();
    let (mut reference, _rows) = build_session(&config).unwrap();
    let spec = gopher_serve::UpdateSpec::from_json(&parse(delta)).unwrap();
    let removed = spec.resolve_removals(reference.train_rows()).unwrap();
    let added = spec.build_added(&config).unwrap();
    reference.update(&removed, added.as_ref());

    let body = r#"{"metric":"equal-opportunity"}"#;
    let over_http = request_once(addr, "POST", "/sessions/german/explain", Some(body)).unwrap();
    assert_eq!(over_http.status, 200, "{}", over_http.body);
    let request = api::parse_explain_request(&parse(body), &default_request(), 1.0).unwrap();
    let in_process = reference.explain(&request);
    assert_eq!(
        stripped(&over_http.body),
        stripped(&format!("{}", api::explain_response_json(&in_process))),
        "post-update HTTP answer diverged from the in-process delta"
    );

    // Live stats reflect the applied update.
    let stats = parse(
        &request_once(addr, "GET", "/sessions/german/stats", None)
            .unwrap()
            .body,
    );
    assert_eq!(
        stats.get("updates_applied").and_then(Json::as_f64),
        Some(1.0)
    );

    server.trigger_shutdown();
    server.join();
}

#[test]
fn update_endpoint_rejects_bad_deltas_with_400s() {
    let (server, addr) = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let created = request_once(addr, "POST", "/sessions", Some(GERMAN_300)).unwrap();
    assert_eq!(created.status, 201, "{}", created.body);

    let reject = |body: &str, needle: &str| {
        let response = request_once(addr, "POST", "/sessions/german/update", Some(body)).unwrap();
        assert_eq!(response.status, 400, "{body} -> {}", response.body);
        let message = parse(&response.body)
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert!(
            message.contains(needle),
            "error for {body} must mention {needle:?}: {message}"
        );
    };

    // Unknown session is a 404, not a 400.
    let missing = request_once(addr, "POST", "/sessions/nope/update", Some("{}")).unwrap();
    assert_eq!(missing.status, 404);

    reject("{}", "empty");
    reject(r#"{"remove":[1], "frobnicate":2}"#, "frobnicate");
    // German has 300 rows -> 210 train rows; index 5000 is out of range.
    reject(r#"{"remove":[5000]}"#, "out of range");
    reject(r#"{"remove":[3, 3]}"#, "twice");
    // This session was built from a generator, so CSV deltas don't apply.
    reject(r#"{"add_csv":"a,b\n1,2\n"}"#, "CSV");
    // add_rows and add_csv are mutually exclusive delta sources.
    reject(r#"{"add_rows":2, "add_csv":"a,b\n1,2\n"}"#, "add_csv");

    // Nothing above may have mutated the session.
    let stats = parse(
        &request_once(addr, "GET", "/sessions/german/stats", None)
            .unwrap()
            .body,
    );
    assert_eq!(
        stats.get("updates_applied").and_then(Json::as_f64),
        Some(0.0)
    );

    server.trigger_shutdown();
    server.join();
}

#[test]
fn registry_eviction_under_live_traffic_never_panics() {
    let (server, addr) = start(ServeConfig {
        workers: 6,
        session_cap: 2,
        ..ServeConfig::default()
    });
    let created = request_once(addr, "POST", "/sessions", Some(GERMAN_300)).unwrap();
    assert_eq!(created.status, 201, "{}", created.body);

    std::thread::scope(|scope| {
        // Hammer the first session while two more sessions roll it out of
        // the LRU registry. Every answer must be a clean 200 (the Arc keeps
        // an evicted session alive) or 404 (looked up after eviction).
        let hammer: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(move || {
                    for _ in 0..6 {
                        let response = request_once(
                            addr,
                            "POST",
                            "/sessions/german/explain",
                            Some(r#"{"metric":"statistical-parity"}"#),
                        )
                        .unwrap();
                        assert!(
                            response.status == 200 || response.status == 404,
                            "got {}: {}",
                            response.status,
                            response.body
                        );
                    }
                })
            })
            .collect();
        for (i, name) in ["second", "third"].iter().enumerate() {
            let body = format!(
                r#"{{"name":"{name}", "generator":"german", "rows":200, "seed":{}}}"#,
                10 + i
            );
            let created = request_once(addr, "POST", "/sessions", Some(&body)).unwrap();
            assert_eq!(created.status, 201, "{}", created.body);
        }
        for h in hammer {
            h.join().unwrap();
        }
    });

    // Cap 2 with 3 sessions created: german was the LRU casualty... unless
    // the hammer re-bumped it; either way the registry holds exactly 2 and
    // recorded the eviction.
    let listing = parse(&request_once(addr, "GET", "/sessions", None).unwrap().body);
    assert_eq!(
        listing
            .get("sessions")
            .and_then(Json::as_arr)
            .unwrap()
            .len(),
        2
    );
    assert!(listing.get("evictions").and_then(Json::as_f64).unwrap() >= 1.0);

    server.trigger_shutdown();
    server.join();
}
