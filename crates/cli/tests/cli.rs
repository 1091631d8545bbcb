//! End-to-end tests for the `gopher` binary: spawn the real executable and
//! validate its JSON output with the crate's own strict parser.

use gopher_cli::json::{self, Json};
use std::process::Command;

fn gopher(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_gopher"))
        .args(args)
        .output()
        .expect("failed to spawn gopher binary")
}

fn run_json(args: &[&str]) -> Json {
    let out = gopher(args);
    assert!(
        out.status.success(),
        "gopher {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout must be UTF-8");
    json::parse(stdout.trim()).unwrap_or_else(|e| panic!("invalid JSON ({e}): {stdout}"))
}

#[test]
fn explain_german_emits_parseable_report_with_positive_support() {
    // Small row count keeps the lattice search fast; the german generator's
    // planted bias is strong enough to surface patterns even at this size.
    let report = run_json(&[
        "explain", "--data", "german", "--k", "3", "--rows", "400", "--json",
    ]);

    assert_eq!(
        report.get("command").and_then(Json::as_str),
        Some("explain")
    );
    assert_eq!(report.get("dataset").and_then(Json::as_str), Some("german"));
    let base_bias = report.get("base_bias").and_then(Json::as_f64).unwrap();
    assert!(base_bias > 0.0, "german generator must plant positive bias");

    let explanations = report
        .get("explanations")
        .and_then(Json::as_arr)
        .expect("report must carry an explanations array");
    assert!(
        !explanations.is_empty(),
        "expected at least one explanation"
    );
    assert!(explanations.len() <= 3, "--k 3 must cap the list");
    for e in explanations {
        let support = e.get("support").and_then(Json::as_f64).unwrap();
        assert!(
            support > 0.0,
            "every explanation must have positive support"
        );
        assert!(support <= 1.0);
        let pattern = e.get("pattern").and_then(Json::as_str).unwrap();
        assert!(!pattern.is_empty());
    }
}

#[test]
fn audit_reports_all_four_metrics() {
    let report = run_json(&["audit", "--data", "german", "--rows", "300", "--json"]);
    let metrics = report.get("metrics").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = metrics
        .iter()
        .map(|m| m.get("metric").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(
        names,
        [
            "statistical parity",
            "equal opportunity",
            "predictive parity",
            "average odds"
        ]
    );
    let accuracy = report.get("accuracy").and_then(Json::as_f64).unwrap();
    assert!((0.0..=1.0).contains(&accuracy));
    for group in ["privileged", "protected"] {
        let c = report.get(group).expect("confusion counts per group");
        let total: f64 = ["tp", "fp", "tn", "fn"]
            .iter()
            .map(|k| c.get(k).and_then(Json::as_f64).unwrap())
            .sum();
        assert!(total > 0.0, "{group} group must be non-empty");
    }
}

#[test]
fn report_combines_audit_and_explain() {
    let report = run_json(&["report", "--data", "german", "--rows", "300", "--k", "2"]);
    assert!(report.get("audit").is_some());
    let explain = report.get("explain").expect("report must embed explain");
    assert_eq!(explain.get("k").and_then(Json::as_f64), Some(2.0));
}

#[test]
fn explain_is_deterministic_for_a_fixed_seed() {
    let args = [
        "explain", "--data", "german", "--rows", "300", "--seed", "7", "--json",
    ];
    let a = gopher(&args);
    let b = gopher(&args);
    // search_ms / query_ms are wall-clock and vary; compare everything else.
    let strip = |bytes: &[u8]| {
        let mut v = json::parse(String::from_utf8_lossy(bytes).trim()).unwrap();
        if let Json::Obj(m) = &mut v {
            m.remove("search_ms");
            m.remove("query_ms");
        }
        v
    };
    assert_eq!(strip(&a.stdout), strip(&b.stdout));
}

/// A batch of query requests against one session must answer every request
/// with the flags as fallbacks, and the shared-metric requests must agree
/// with a standalone `explain` run on everything but timing.
#[test]
fn query_answers_batched_requests_from_one_session() {
    let dir = std::env::temp_dir().join(format!("gopher-query-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let requests = dir.join("requests.json");
    std::fs::write(
        &requests,
        r#"[
            {"metric": "statistical-parity", "k": 3},
            {"metric": "equal-opportunity", "k": 2},
            {"metric": "statistical-parity", "k": 1, "estimator": "first-order"}
        ]"#,
    )
    .unwrap();
    let out = run_json(&[
        "query",
        "--requests",
        requests.to_str().unwrap(),
        "--data",
        "german",
        "--rows",
        "400",
        "--seed",
        "7",
    ]);
    let responses = out.as_arr().expect("query emits a JSON array");
    assert_eq!(responses.len(), 3);
    let metric = |r: &Json| r.get("metric").and_then(Json::as_str).unwrap().to_string();
    assert_eq!(metric(&responses[0]), "statistical parity");
    assert_eq!(metric(&responses[1]), "equal opportunity");
    assert_eq!(
        responses[2].get("estimator").and_then(Json::as_str),
        Some("first-order")
    );
    assert!(
        responses[2]
            .get("explanations")
            .and_then(Json::as_arr)
            .unwrap()
            .len()
            <= 1
    );
    // Batched request #1 must match a cold standalone explain exactly
    // (modulo wall-clock fields).
    let solo = run_json(&[
        "explain", "--data", "german", "--rows", "400", "--seed", "7", "--k", "3", "--json",
    ]);
    let strip = |v: &Json| {
        let mut v = v.clone();
        if let Json::Obj(m) = &mut v {
            m.remove("search_ms");
            m.remove("query_ms");
        }
        v
    };
    assert_eq!(strip(&responses[0]), strip(&solo));
    std::fs::remove_dir_all(&dir).ok();
}

/// `query --stats` wraps the responses with the session's cache counters.
/// A batch mixing four metrics over one structural configuration must show
/// four scored-sweep misses but no coverage-cache hit — the whole batch
/// shares one multi-scorer sweep, so each merged coverage was intersected
/// once for all four metrics (four separate sweeps would re-read them).
#[test]
fn query_stats_block_shows_cross_metric_structure_reuse() {
    let dir = std::env::temp_dir().join(format!("gopher-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let requests = dir.join("requests.json");
    std::fs::write(
        &requests,
        r#"[
            {"metric": "statistical-parity", "k": 2},
            {"metric": "equal-opportunity", "k": 2},
            {"metric": "predictive-parity", "k": 2},
            {"metric": "average-odds", "k": 2}
        ]"#,
    )
    .unwrap();
    let out = run_json(&[
        "query",
        "--requests",
        requests.to_str().unwrap(),
        "--data",
        "german",
        "--rows",
        "400",
        "--threads",
        "4",
        "--stats",
    ]);
    let responses = out
        .get("responses")
        .and_then(Json::as_arr)
        .expect("--stats wraps the response array");
    assert_eq!(responses.len(), 4);
    let stats = out.get("session_stats").expect("--stats adds the block");
    let counter = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap();
    assert_eq!(counter("threads"), 4.0);
    assert_eq!(counter("sweep_misses"), 4.0, "four distinct scoring keys");
    assert_eq!(
        counter("coverage_hits"),
        0.0,
        "one structural key: the batch resolves each merge once"
    );
    assert!(counter("cached_coverages") > 0.0);
    assert_eq!(counter("coverage_inserts_refused"), 0.0);
    // Ground truth is off, so the ground-truth memo is never consulted.
    for memo in ["truth_memo_hits", "truth_memo_misses"] {
        assert_eq!(counter(memo), 0.0, "{memo}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A two-τ batch end to end (the CI smoke step's offline twin): two
/// structural keys, so two scored sweeps, which run one after the other
/// over one coverage cache. The `--stats` block is the same at 1 and 4
/// threads, but for the thread count and the latency quantiles.
#[test]
fn query_stats_block_shows_tau_range_serving() {
    let dir = std::env::temp_dir().join(format!("gopher-taus-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let requests = dir.join("taus.json");
    std::fs::write(&requests, r#"[{"support": 0.02}, {"support": 0.05}]"#).unwrap();
    let stats_at = |threads: &str| {
        let out = run_json(&[
            "query",
            "--requests",
            requests.to_str().unwrap(),
            "--data",
            "german",
            "--rows",
            "300",
            "--threads",
            threads,
            "--stats",
        ]);
        let responses = out.get("responses").and_then(Json::as_arr).unwrap();
        assert_eq!(responses.len(), 2);
        let Some(Json::Obj(mut stats)) = out.get("session_stats").cloned() else {
            panic!("--stats adds the block");
        };
        for key in ["threads", "explain_p50_us", "explain_p99_us"] {
            assert!(stats.remove(key).is_some(), "{key}");
        }
        stats
    };
    let stats = stats_at("4");
    let counter = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap();
    assert_eq!(counter("sweep_misses"), 2.0, "distinct structural keys");
    assert_eq!(counter("sweep_hits"), 0.0);
    assert!(counter("cached_coverages") > 0.0);
    assert_eq!(
        stats,
        stats_at("1"),
        "the counters repeat at any thread count"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_rejects_malformed_requests() {
    let out = gopher(&["query", "--data", "german", "--rows", "300"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--requests"));
}

/// End-to-end CSV import: export a german sample, re-import it through the
/// schema-inferring `--csv` path, and explain it.
#[test]
fn explain_reads_csv_datasets() {
    let dir = std::env::temp_dir().join(format!("gopher-csv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv_path = dir.join("german.csv");
    let data = gopher_data::generators::german(400, 11);
    let mut buf = Vec::new();
    gopher_data::csv::write_csv(&data, &mut buf).unwrap();
    std::fs::write(&csv_path, &buf).unwrap();

    let report = run_json(&[
        "explain",
        "--csv",
        csv_path.to_str().unwrap(),
        "--label",
        "good_credit",
        "--protected",
        "age>=45",
        "--seed",
        "11",
        "--json",
    ]);
    assert_eq!(
        report.get("rows").and_then(Json::as_f64),
        Some(400.0),
        "--rows must reflect the CSV, not the flag default"
    );
    let dataset = report.get("dataset").and_then(Json::as_str).unwrap();
    assert!(dataset.ends_with("german.csv"), "{dataset}");
    let base_bias = report.get("base_bias").and_then(Json::as_f64).unwrap();
    assert!(
        base_bias > 0.0,
        "planted age bias must survive the round trip"
    );
    assert!(!report
        .get("explanations")
        .and_then(Json::as_arr)
        .unwrap()
        .is_empty());

    // Missing --label / --protected are usage errors.
    let out = gopher(&["explain", "--csv", csv_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--label"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_with_code_2() {
    let out = gopher(&["explain", "--data", "nonexistent"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset"));

    let out = gopher(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));

    // A split that would leave zero test rows must refuse to audit rather
    // than report all-zero metrics as a clean bill of health.
    let out = gopher(&["audit", "--rows", "25", "--test-fraction", "0.03"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("empty split"));

    // Seeds above 2^53 would be recorded lossily in the JSON report.
    let out = gopher(&["explain", "--seed", "18446744073709551615"]);
    assert_eq!(out.status.code(), Some(2));

    // An out-of-range support threshold is a usage error, not a panic in
    // the lattice (the artifact builder asserts the same bound internally).
    let out = gopher(&["explain", "--support", "1.5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--support"));
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = gopher(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["explain", "audit", "report", "--json", "--support"] {
        assert!(text.contains(needle), "help must mention {needle}");
    }
}

#[test]
fn threads_flag_does_not_change_results() {
    // The parallel query engine must be invisible in the output: the same
    // query at --threads 1 and --threads 4 answers with identical
    // explanations (only the timing fields may differ).
    let args = |threads: &'static str| {
        vec![
            "query",
            "--requests",
            "-",
            "--data",
            "german",
            "--rows",
            "400",
            "--threads",
            threads,
        ]
    };
    let requests = r#"[{"metric":"statistical-parity","k":3},
        {"metric":"equal-opportunity","k":3},
        {"metric":"predictive-parity","estimator":"first-order","k":2}]"#;
    let run = |threads: &'static str| {
        let out = Command::new(env!("CARGO_BIN_EXE_gopher"))
            .args(args(threads))
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .and_then(|mut child| {
                use std::io::Write as _;
                child
                    .stdin
                    .take()
                    .expect("stdin piped")
                    .write_all(requests.as_bytes())?;
                child.wait_with_output()
            })
            .expect("failed to run gopher query");
        assert!(
            out.status.success(),
            "gopher query --threads {threads} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("stdout must be UTF-8");
        json::parse(stdout.trim()).unwrap_or_else(|e| panic!("invalid JSON ({e}): {stdout}"))
    };
    let single = run("1");
    let multi = run("4");
    let single_arr = single.as_arr().expect("array of responses");
    let multi_arr = multi.as_arr().expect("array of responses");
    assert_eq!(single_arr.len(), 3);
    assert_eq!(single_arr.len(), multi_arr.len());
    for (s, m) in single_arr.iter().zip(multi_arr) {
        assert_eq!(
            s.get("base_bias").and_then(Json::as_f64),
            m.get("base_bias").and_then(Json::as_f64)
        );
        assert_eq!(
            s.get("candidates_scored").and_then(Json::as_f64),
            m.get("candidates_scored").and_then(Json::as_f64)
        );
        let se = s.get("explanations").and_then(Json::as_arr).unwrap();
        let me = m.get("explanations").and_then(Json::as_arr).unwrap();
        assert!(!se.is_empty(), "every metric should surface a pattern here");
        assert_eq!(se.len(), me.len());
        for (a, b) in se.iter().zip(me) {
            assert_eq!(
                a.get("pattern").and_then(Json::as_str),
                b.get("pattern").and_then(Json::as_str)
            );
            assert_eq!(
                a.get("est_responsibility").and_then(Json::as_f64),
                b.get("est_responsibility").and_then(Json::as_f64)
            );
            assert_eq!(
                a.get("support").and_then(Json::as_f64),
                b.get("support").and_then(Json::as_f64)
            );
        }
    }
}

/// End-to-end smoke of the `serve` subcommand: boot the real binary on an
/// ephemeral port, create a session, answer three concurrent identical
/// explains from one sweep, check the stats surface, and shut down
/// gracefully over HTTP.
#[test]
fn serve_boots_answers_and_drains() {
    use gopher_serve::client::request_once;
    use std::io::BufRead;

    /// Kills the server if the test panics partway — an orphaned daemon
    /// would otherwise outlive the test run holding inherited pipes open.
    struct KillOnDrop(std::process::Child);
    impl Drop for KillOnDrop {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    /// Response body minus the per-request timing fields, which legitimately
    /// differ between callers sharing one sweep.
    fn stripped(body: &str) -> Json {
        let mut json = json::parse(body.trim()).expect("explain body must be JSON");
        if let Json::Obj(ref mut fields) = json {
            fields.remove("query_ms");
            fields.remove("search_ms");
        }
        json
    }

    let mut child = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_gopher"))
            .args(["serve", "--port", "0", "--workers", "4"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("failed to spawn gopher serve"),
    );
    let stdout = child.0.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines.next().expect("server must print a banner").unwrap();
    let addr = banner
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    let created = request_once(
        addr.as_str(),
        "POST",
        "/sessions",
        Some(r#"{"name":"smoke", "generator":"german", "rows":300, "seed":7}"#),
    )
    .unwrap();
    assert_eq!(created.status, 201, "{}", created.body);

    let answers: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let addr = addr.as_str();
                scope.spawn(move || {
                    request_once(
                        addr,
                        "POST",
                        "/sessions/smoke/explain",
                        Some(r#"{"metric":"statistical-parity"}"#),
                    )
                    .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for answer in &answers {
        assert_eq!(answer.status, 200, "{}", answer.body);
    }
    // Identical concurrent requests: every client must read the same answer
    // (timing fields aside — those are per-request even on a shared sweep).
    assert!(answers
        .windows(2)
        .all(|w| stripped(&w[0].body) == stripped(&w[1].body)));

    let stats = request_once(addr.as_str(), "GET", "/sessions/smoke/stats", None).unwrap();
    assert_eq!(stats.status, 200);
    let stats_json = json::parse(stats.body.trim()).unwrap();
    let counter = |name: &str| stats_json.get(name).and_then(Json::as_f64).unwrap();
    assert_eq!(counter("requests_served"), 3.0);
    assert_eq!(
        counter("sweep_misses"),
        1.0,
        "3 identical explains must share one sweep: {}",
        stats.body
    );

    let ack = request_once(addr.as_str(), "POST", "/shutdown", None).unwrap();
    assert_eq!(ack.status, 200);
    let status = child.0.wait().expect("server must exit after /shutdown");
    assert!(status.success(), "serve must exit cleanly, got {status:?}");
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    assert!(
        rest.iter().any(|l| l.contains("drained")),
        "drain banner missing from {rest:?}"
    );
}

/// A session created over HTTP answers `/explain` exactly like `gopher
/// query` on the same knobs, for every model family: the server builds its
/// sessions the way the CLI does. The request spells out its knobs because
/// the two defaults differ (the CLI's `--max-predicates` is 3, the server's
/// default request searches 4 deep).
#[test]
fn served_sessions_answer_like_gopher_query() {
    use gopher_serve::client::request_once;
    use gopher_serve::{ServeConfig, Server};

    let request = r#"{"metric": "statistical-parity", "k": 3, "support": 0.06,
        "max_predicates": 3, "ground_truth": true}"#;
    let dir = std::env::temp_dir().join(format!("gopher-served-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let requests = dir.join("requests.json");
    std::fs::write(&requests, format!("[{request}]")).unwrap();
    // Timing, and the invocation context only the CLI reports.
    let strip = |mut answer: Json| {
        if let Json::Obj(fields) = &mut answer {
            for key in [
                "query_ms",
                "search_ms",
                "command",
                "dataset",
                "rows",
                "model",
                "seed",
            ] {
                fields.remove(key);
            }
        }
        answer
    };

    let server = Server::start(ServeConfig::default()).expect("bind an ephemeral port");
    for model in ["lr", "svm", "mlp", "forest"] {
        let session = format!(
            r#"{{"name":"{model}", "generator":"german", "rows":600, "seed":7,
                "model":"{model}", "threads":1}}"#
        );
        let created = request_once(server.addr(), "POST", "/sessions", Some(&session)).unwrap();
        assert_eq!(created.status, 201, "{}", created.body);
        let path = format!("/sessions/{model}/explain");
        let served = request_once(server.addr(), "POST", &path, Some(request)).unwrap();
        assert_eq!(served.status, 200, "{}", served.body);
        let served = json::parse(served.body.trim()).expect("explain body must be JSON");

        let queried = run_json(&[
            "query",
            "--requests",
            requests.to_str().unwrap(),
            "--data",
            "german",
            "--rows",
            "600",
            "--seed",
            "7",
            "--model",
            model,
            "--threads",
            "1",
        ]);
        let queried = queried.as_arr().expect("query emits a JSON array")[0].clone();
        assert_eq!(strip(served), strip(queried), "{model}");
    }
    server.trigger_shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}
