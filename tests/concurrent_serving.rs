//! Concurrent serving invariants, at the layer below HTTP.
//!
//! The daemon's whole design rests on two properties of the in-process
//! pieces: an [`ExplainSession`] answers concurrent `&self` callers
//! bit-identically to a sequential run, and the session registry's LRU
//! eviction can rip a session out from under live traffic without breaking
//! anyone (the `Arc` keeps evicted sessions alive for whoever already holds
//! them). These tests pin both without any sockets in the way.

use gopher_core::{ExplainRequest, ExplainSession, SessionBuilder};
use gopher_data::generators::german;
use gopher_fairness::FairnessMetric;
use gopher_influence::Estimator;
use gopher_json::Json;
use gopher_models::LogisticRegression;
use gopher_prng::Rng;
use gopher_serve::api;
use gopher_serve::registry::{build_session, SessionConfig, SessionEntry, SessionRegistry};
use std::sync::Arc;

const DATA_SEED: u64 = 2207;

fn session(rows: usize) -> ExplainSession<LogisticRegression> {
    let mut rng = Rng::new(DATA_SEED);
    let (train, test) = german(rows, DATA_SEED).train_test_split(0.3, &mut rng);
    SessionBuilder::new().fit(|cols| LogisticRegression::new(cols, 1e-3), &train, &test)
}

/// A mixed workload: four metrics, two support thresholds, two estimators.
fn workload() -> Vec<ExplainRequest> {
    let metrics = [
        FairnessMetric::StatisticalParity,
        FairnessMetric::EqualOpportunity,
        FairnessMetric::PredictiveParity,
        FairnessMetric::AverageOdds,
    ];
    let mut requests = Vec::new();
    for (i, &metric) in metrics.iter().enumerate() {
        for &tau in &[0.05, 0.12] {
            let mut request = ExplainRequest::default()
                .with_metric(metric)
                .with_ground_truth(false)
                .with_support_threshold(tau);
            if i % 2 == 0 {
                request = request.with_estimator(Estimator::FirstOrder);
            }
            requests.push(request);
        }
    }
    requests
}

/// Timing-free canonical form of a response, via the shared wire codec.
fn canonical(response: &gopher_core::ExplainResponse) -> Json {
    let mut json = api::explain_response_json(response);
    if let Json::Obj(ref mut fields) = json {
        fields.remove("query_ms");
        fields.remove("search_ms");
    }
    json
}

/// N threads hammering one session — every thread its own request mix —
/// must produce exactly the answers a sequential pass over a fresh session
/// produces, request for request.
#[test]
fn hammered_session_matches_sequential_bit_for_bit() {
    let requests = workload();
    let sequential_session = session(320);
    let sequential: Vec<Json> = requests
        .iter()
        .map(|r| canonical(&sequential_session.explain(r)))
        .collect();

    let shared = session(320);
    let answers: Vec<Vec<(usize, Json)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let shared = &shared;
                let requests = &requests;
                scope.spawn(move || {
                    // Each thread walks the workload from a different start,
                    // so cache states collide in every order.
                    (0..requests.len())
                        .map(|i| {
                            let idx = (i + t * 3) % requests.len();
                            (idx, canonical(&shared.explain(&requests[idx])))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for per_thread in answers {
        for (idx, answer) in per_thread {
            assert_eq!(
                answer, sequential[idx],
                "concurrent answer for request {idx} diverged from sequential"
            );
        }
    }
}

/// Single-flight is transparent: two concurrent callers per question, all
/// at once against one session, get exactly the solo answers, and each
/// distinct question is swept once — a caller that finds its question in
/// flight waits for that sweep instead of running its own.
#[test]
fn concurrent_callers_match_solo_answers() {
    let requests = workload();
    let reference = session(320);
    let expected: Vec<Json> = requests
        .iter()
        .map(|r| canonical(&reference.explain(r)))
        .collect();

    let shared = session(320);
    std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .enumerate()
            .flat_map(|pair| [pair, pair])
            .map(|(i, request)| {
                let shared = &shared;
                let expected = &expected;
                scope.spawn(move || {
                    let response = shared.explain(request);
                    assert_eq!(
                        canonical(&response),
                        expected[i],
                        "concurrent answer {i} diverged"
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    let stats = shared.stats();
    assert_eq!(stats.requests_served, 2 * requests.len() as u64);
    assert_eq!(
        stats.sweep_misses,
        requests.len() as u64,
        "one sweep per distinct question: {stats:?}"
    );
    assert_eq!(stats.sweep_hits, requests.len() as u64);
}

/// LRU eviction racing live lookups and inserts: nothing panics, lookups
/// either hit (and keep the session alive through their `Arc`) or miss
/// cleanly, and the cap holds afterwards.
#[test]
fn registry_eviction_mid_traffic_is_panic_free() {
    let registry = Arc::new(SessionRegistry::new(2));
    let entry = |name: &str| {
        let config = SessionConfig::from_json(
            &gopher_json::parse(&format!(
                r#"{{"name":"{name}", "generator":"german", "rows":120, "seed":5}}"#
            ))
            .unwrap(),
        )
        .unwrap();
        let (session, rows) = build_session(&config).unwrap();
        Arc::new(SessionEntry {
            name: name.to_string(),
            model: "lr".into(),
            source: config.source_text(),
            rows,
            config: config.clone(),
            session: std::sync::RwLock::new(session),
        })
    };
    registry.insert(entry("keep")).unwrap();

    // The churn starts once the first lookup has landed, so traffic is live
    // when eviction begins however the threads are scheduled.
    let (first_lookup, traffic_live) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        let lookups = {
            let registry = registry.clone();
            scope.spawn(move || {
                let request = ExplainRequest::default().with_ground_truth(false).with_k(1);
                let mut served = 0u32;
                for _ in 0..40 {
                    if let Some(entry) = registry.get("keep") {
                        // Hold the Arc across real work: eviction during
                        // this call must not be able to hurt us.
                        let _ = gopher_par::read_recover(&entry.session).explain(&request);
                        served += 1;
                        if served == 1 {
                            first_lookup.send(()).unwrap();
                        }
                    }
                }
                served
            })
        };
        let churn = {
            let registry = registry.clone();
            scope.spawn(move || {
                traffic_live.recv().unwrap();
                for i in 0..6 {
                    registry.insert(entry(&format!("churn-{i}"))).unwrap();
                }
            })
        };
        let served = lookups.join().unwrap();
        churn.join().unwrap();
        assert!(served > 0, "some lookups must land before eviction");
    });

    assert_eq!(registry.len(), 2, "the cap must hold after the churn");
    assert!(registry.evictions() >= 5);
}
