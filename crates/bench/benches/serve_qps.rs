//! Serving-throughput benchmark: the `gopher serve` daemon under concurrent
//! HTTP load.
//!
//! One daemon answers a mixed workload: four persistent keep-alive clients
//! spraying mixed-metric explains across two tenant sessions. Each round
//! asks a support threshold no earlier round asked, so every round sweeps:
//! the first request of each (tenant, metric) question in a round runs its
//! lattice sweep, and the rest of the round's askers either wait for that
//! sweep (single-flight) or read it from the session's sweep cache.
//!
//! After the load the bench prints the tenants' sweep counters:
//! `sweep_misses` counts the sweeps actually run, `sweep_hits` the requests
//! answered from another client's sweep. Round times are the record for
//! `BENCH_baseline.json`; on shared or small containers they are
//! noise-dominated, so they inform rather than gate.

use criterion::{criterion_group, criterion_main, Criterion};
use gopher_json::Json;
use gopher_serve::client::{request_once, Conn};
use gopher_serve::{ServeConfig, Server};
use std::net::SocketAddr;

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 8;
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
const METRICS: [&str; 4] = [
    "statistical-parity",
    "equal-opportunity",
    "predictive-parity",
    "average-odds",
];

/// Boots the daemon and registers both tenants (German generator).
fn boot() -> Server {
    let server = Server::start(ServeConfig {
        workers: CLIENTS,
        ..Default::default()
    })
    .expect("bind an ephemeral port");
    for (tenant, seed) in TENANTS.iter().zip([7u64, 11]) {
        let body =
            format!(r#"{{"name":"{tenant}", "generator":"german", "rows":300, "seed":{seed}}}"#);
        let created = request_once(server.addr(), "POST", "/sessions", Some(&body))
            .expect("create tenant session");
        assert_eq!(created.status, 201, "{}", created.body);
    }
    server
}

/// Load round `r`: every client keeps one connection alive and walks the
/// tenant × metric grid from its own offset, so concurrent requests mix
/// shapes the way real multi-analyst traffic does. Round `r` asks support
/// τ = 0.05 + 0.005·r, which on a tenant's 210 training rows is a support
/// count no other round asks, so none of its questions is cached yet.
fn round(addr: SocketAddr, r: u64) {
    let support = 0.05 + 0.005 * r as f64;
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            scope.spawn(move || {
                let mut conn = Conn::connect(addr).expect("connect");
                for i in 0..REQUESTS_PER_CLIENT {
                    let tenant = TENANTS[(t + i) % TENANTS.len()];
                    let metric = METRICS[(t + i) % METRICS.len()];
                    let body = format!(r#"{{"metric":"{metric}", "support":{support}}}"#);
                    let answer = conn
                        .request("POST", &format!("/sessions/{tenant}/explain"), Some(&body))
                        .expect("explain");
                    assert_eq!(answer.status, 200, "{}", answer.body);
                }
            });
        }
    });
}

/// Cumulative (requests_served, sweep_misses, sweep_hits) over both tenants.
fn sweep_counters(addr: SocketAddr) -> (u64, u64, u64) {
    let mut totals = (0, 0, 0);
    for tenant in TENANTS {
        let stats =
            request_once(addr, "GET", &format!("/sessions/{tenant}/stats"), None).expect("stats");
        assert_eq!(stats.status, 200, "{}", stats.body);
        let json = gopher_json::parse(stats.body.trim()).expect("stats JSON");
        let field = |name: &str| {
            json.get(name)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("stats missing {name}: {}", stats.body))
                as u64
        };
        totals.0 += field("requests_served");
        totals.1 += field("sweep_misses");
        totals.2 += field("sweep_hits");
    }
    totals
}

fn bench_serve_qps(c: &mut Criterion) {
    let server = boot();
    let mut group = c.benchmark_group("serve_qps_german_300");
    group.sample_size(10);
    let mut rounds = 0u64;
    group.bench_function("round_32req_4clients", |b| {
        b.iter(|| {
            round(server.addr(), rounds);
            rounds += 1;
        });
    });
    group.finish();

    // Every request counts exactly one sweep lookup: a miss when it ran the
    // sweep, a hit when it shared another client's.
    let (requests, misses, hits) = sweep_counters(server.addr());
    assert_eq!(misses + hits, requests, "one lookup per request");
    assert!(misses >= rounds, "every round must sweep");
    println!(
        "serve_qps counters: {requests} requests, {misses} sweeps run, \
         {hits} answered from another client's sweep"
    );
}

criterion_group!(benches, bench_serve_qps);
criterion_main!(benches);
