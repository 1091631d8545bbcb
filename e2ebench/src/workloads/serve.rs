//! `serve-dashboard`: the daemon under dashboard traffic. An in-process
//! `Server` with `ServeConfig::default()` holds two LR tenants created over
//! HTTP (German-2k and Adult-4k). Phase one is an open loop: seeded Poisson
//! operations, about 80 % refreshes (one tenant's four metric questions at
//! server defaults, one after another on one keep-alive connection) and
//! 20 % one-row updates. Phase two is a closed loop that keeps both
//! connections busy with the same mix to measure capacity.

use crate::http::Conn;
use crate::probes::{self, counter, CacheCounts, SweepLayers};
use crate::stats::{median, percentile};
use crate::streams::{arrivals, closed_loop_ops, Arrival, OpKind, METRICS};
use crate::trace::{Tracer, NO_SPAN};
use crate::{ms, ms_since, split, Ctx, THREADS};
use gopher_repro::gopher_json::{self, Json};
use gopher_repro::gopher_serve::{ServeConfig, Server};
use gopher_repro::prelude::*;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Tenants: name, generator, rows.
const TENANTS: [(&str, &str, usize); 2] = [("german", "german", 2000), ("adult", "adult", 4000)];
/// Generator and split seed of both tenants.
const TENANT_SEED: u64 = 42;
/// Open-loop arrival rate, operations per second: about 10 HTTP requests
/// per second, under a third of the closed loop's capacity. A faster rate
/// reuses each connection sooner, so more refreshes pay a fourth stall and
/// the median starts to flip between the three- and four-stall modes.
const RATE: f64 = 3.0;
/// One operation in this many is a one-row update (20 %).
const UPDATE_EVERY: usize = 5;
/// Share of `--seconds` spent in the open loop; the rest is the closed loop.
const OPEN_SHARE: f64 = 0.8;
/// The closed loop's capacity counts only while its refresh p90 meets this.
const LATENCY_LIMIT_MS: f64 = 1000.0;
/// A request whose round trip exceeds its in-session time by more than
/// this counts as stalled.
const STALL_MS: f64 = 20.0;
/// Tenant-pair creations timed for `setup_s` (the last pair is kept).
const SETUP_ROUNDS: usize = 3;
/// Load threads, one keep-alive connection each.
const LOAD_THREADS: usize = 2;

/// One HTTP exchange as the load generator saw it.
#[derive(Debug, Clone)]
struct Exchange {
    ok: bool,
    round_trip_ms: f64,
    /// `query_ms` (explain) or `update_ms` (update) from the response.
    inside_ms: f64,
}

/// One dashboard operation's outcome.
#[derive(Debug, Clone)]
struct Outcome {
    tenant: usize,
    refresh: bool,
    /// From the scheduled time (open loop) or the send (closed loop).
    latency_ms: f64,
    /// Time the generator sent later than scheduled while idle.
    lag_ms: Option<f64>,
    exchanges: Vec<Exchange>,
}

impl Outcome {
    fn ok(&self) -> bool {
        self.exchanges.iter().all(|e| e.ok)
    }
}

fn create_body(name: &str, generator: &str, rows: usize) -> String {
    format!(
        "{{\"name\":\"{name}\",\"generator\":\"{generator}\",\"rows\":{rows},\"seed\":{TENANT_SEED},\"model\":\"lr\",\"threads\":{THREADS}}}"
    )
}

fn explain_body(metric: usize) -> String {
    format!("{{\"metric\":\"{}\"}}", METRICS[metric].1)
}

fn parse(body: &str) -> Json {
    gopher_json::parse(body.trim()).unwrap_or(Json::Null)
}

/// Sends one request, recording it as a `serve.*` span with the server's
/// reported in-session time as a synthesized child span.
fn exchange(
    conn: &mut Conn,
    tracer: &mut Tracer,
    op: (u64, usize),
    path: &str,
    body: &str,
    update: bool,
) -> Exchange {
    let (name, inner, field) = if update {
        ("serve.update", "core.update", "update_ms")
    } else {
        ("serve.request", "core.query", "query_ms")
    };
    let span = tracer.open(name, op.0, op.1);
    let start = Instant::now();
    let result = conn.request("POST", path, body);
    let end = Instant::now();
    tracer.close(span);
    match result {
        Ok((200, text)) => {
            let inside_ms = counter(&parse(&text), field);
            let inside = Duration::from_secs_f64(inside_ms.max(0.0) / 1e3);
            tracer.record(
                inner,
                op.0,
                span,
                end.checked_sub(inside).unwrap_or(start),
                end,
            );
            Exchange {
                ok: true,
                round_trip_ms: ms(end - start),
                inside_ms,
            }
        }
        _ => Exchange {
            ok: false,
            round_trip_ms: ms(end - start),
            inside_ms: 0.0,
        },
    }
}

/// Runs one dashboard operation on `conn`; `started` is when it counts
/// from (its scheduled time in the open loop).
fn perform(
    conn: &mut Conn,
    tracer: &mut Tracer,
    id: u64,
    a: &Arrival,
    started: Instant,
    names: &[String],
) -> Outcome {
    let tenant = &names[a.tenant];
    let mut exchanges = Vec::new();
    let refresh = a.kind == OpKind::Refresh;
    let root = tracer.open_at(
        if refresh { "gen.refresh" } else { "gen.update" },
        id,
        NO_SPAN,
        started,
    );
    match a.kind {
        OpKind::Refresh => {
            let path = format!("/sessions/{tenant}/explain");
            for metric in 0..METRICS.len() {
                let e = exchange(
                    conn,
                    tracer,
                    (id, root),
                    &path,
                    &explain_body(metric),
                    false,
                );
                let failed = !e.ok;
                exchanges.push(e);
                if failed {
                    break;
                }
            }
        }
        OpKind::Update { seed } => {
            let path = format!("/sessions/{tenant}/update");
            let body = format!("{{\"remove\":1,\"add_rows\":1,\"seed\":{seed}}}");
            exchanges.push(exchange(conn, tracer, (id, root), &path, &body, true));
        }
    }
    tracer.close(root);
    Outcome {
        tenant: a.tenant,
        refresh,
        latency_ms: ms_since(started),
        lag_ms: None,
        exchanges,
    }
}

/// The open loop on one load thread: take the next scheduled operation,
/// wait for its time, run it.
fn open_loop_thread(
    addr: SocketAddr,
    schedule: &[Arrival],
    next: &AtomicUsize,
    phase_start: Instant,
    names: &[String],
    tracer: &mut Tracer,
) -> Result<Vec<Outcome>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(a) = schedule.get(i) else {
            return Ok(out);
        };
        let due = phase_start + Duration::from_secs_f64(a.at_s);
        let idle = Instant::now() < due;
        if idle {
            std::thread::sleep(due - Instant::now());
        }
        let lag = ms_since(due);
        let mut outcome = perform(&mut conn, tracer, i as u64, a, due, names);
        outcome.lag_ms = idle.then_some(lag);
        out.push(outcome);
    }
}

/// The closed loop on one load thread: operations back to back until
/// `deadline`.
fn closed_loop_thread(
    addr: SocketAddr,
    ops: &[Arrival],
    deadline: Instant,
    names: &[String],
    thread: usize,
) -> Result<Vec<Outcome>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    let mut untraced = Tracer::new(false, Instant::now());
    let mut out = Vec::new();
    for (i, a) in ops.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let id = (thread * ops.len() + i) as u64;
        out.push(perform(
            &mut conn,
            &mut untraced,
            id,
            a,
            Instant::now(),
            names,
        ));
    }
    Ok(out)
}

/// Control-connection helper: a request expecting `want`.
fn call(ctl: &mut Conn, method: &str, path: &str, body: &str, want: u16) -> Result<String, String> {
    match ctl.request(method, path, body) {
        Ok((status, text)) if status == want => Ok(text),
        Ok((status, text)) => Err(format!("{method} {path}: {status} {}", text.trim())),
        Err(e) => Err(format!("{method} {path}: {e}")),
    }
}

/// Sweep and structure counters summed over the tenants' `/stats`.
fn tenant_counters(ctl: &mut Conn, names: &[String]) -> Result<(CacheCounts, Vec<Json>), String> {
    let mut sum = CacheCounts::default();
    let mut all = Vec::new();
    for name in names {
        let stats = parse(&call(
            ctl,
            "GET",
            &format!("/sessions/{name}/stats"),
            "",
            200,
        )?);
        sum = sum.plus(&CacheCounts::read(&stats));
        all.push(stats);
    }
    Ok((sum, all))
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let server = Server::start(ServeConfig::default()).map_err(|e| e.to_string())?;
    let addr = server.addr();
    let result = drive(ctx, addr);
    server.trigger_shutdown();
    server.join();
    result
}

fn drive(ctx: &mut Ctx, addr: SocketAddr) -> Result<(), String> {
    let mut ctl = Conn::connect(addr).map_err(|e| e.to_string())?;
    let names: Vec<String> = TENANTS.iter().map(|t| t.0.to_string()).collect();

    let mut setups = Vec::new();
    for round in 0..SETUP_ROUNDS {
        let last = round + 1 == SETUP_ROUNDS;
        let round_names: Vec<String> = names
            .iter()
            .map(|n| {
                if last {
                    n.clone()
                } else {
                    format!("{n}-setup{round}")
                }
            })
            .collect();
        let t = Instant::now();
        for ((_, generator, rows), name) in TENANTS.iter().zip(&round_names) {
            call(
                &mut ctl,
                "POST",
                "/sessions",
                &create_body(name, generator, *rows),
                201,
            )?;
        }
        setups.push(t.elapsed().as_secs_f64());
        if !last {
            for name in &round_names {
                call(&mut ctl, "DELETE", &format!("/sessions/{name}"), "", 200)?;
            }
        }
    }
    ctx.report
        .set("setup_s", "s", median(&setups), setups.len());
    ctx.report.check(
        "tenant creation answers 201",
        true,
        format!("({} creations)", setups.len() * TENANTS.len()),
    );

    // Warm every question the dashboard asks.
    let mut explains_sent = vec![0u64; names.len()];
    let mut updates_sent = vec![0u64; names.len()];
    for (t, name) in names.iter().enumerate() {
        for metric in 0..METRICS.len() {
            call(
                &mut ctl,
                "POST",
                &format!("/sessions/{name}/explain"),
                &explain_body(metric),
                200,
            )?;
            explains_sent[t] += 1;
        }
    }
    let (before, stats_before) = tenant_counters(&mut ctl, &names)?;
    ctx.setup_done();

    let budget = ctx.opts.seconds;
    let open_s = budget * OPEN_SHARE;
    let schedule = arrivals(ctx.opts.seed, RATE, open_s, names.len(), UPDATE_EVERY);
    let next = AtomicUsize::new(0);
    let thread_tracers: Vec<Tracer> = (0..LOAD_THREADS).map(|_| ctx.tracer.fork()).collect();
    let phase_start = Instant::now();
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = thread_tracers
            .into_iter()
            .map(|mut tracer| {
                let (schedule, next, names) = (&schedule, &next, &names);
                scope.spawn(move || {
                    let out =
                        open_loop_thread(addr, schedule, next, phase_start, names, &mut tracer);
                    out.map(|out| (out, tracer))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let open_elapsed = phase_start.elapsed();
    let mut open = Vec::new();
    for result in joined {
        let (out, tracer) = result.map_err(|_| "an open-loop thread panicked")??;
        open.extend(out);
        ctx.tracer.absorb(tracer);
    }

    let closed_start = Instant::now();
    let deadline = closed_start + Duration::from_secs_f64(budget - open_s);
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LOAD_THREADS)
            .map(|thread| {
                let names = &names;
                let ops = closed_loop_ops(ctx.opts.seed, thread, 10_000, names.len(), UPDATE_EVERY);
                scope.spawn(move || closed_loop_thread(addr, &ops, deadline, names, thread))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let closed_elapsed = closed_start.elapsed();
    ctx.measured = open_elapsed + closed_elapsed;
    let mut closed = Vec::new();
    for result in joined {
        closed.extend(result.map_err(|_| "a closed-loop thread panicked")??);
    }

    let all: Vec<&Outcome> = open.iter().chain(&closed).collect();
    let attempted = all.len() as u64;
    let failed = all.iter().filter(|o| !o.ok()).count() as u64;
    ctx.report.attempted += attempted;
    ctx.report.failed += failed;

    report_open_loop(ctx, &open, open_elapsed);
    report_closed_loop(ctx, &closed, closed_elapsed);

    let (after, stats_after) = tenant_counters(&mut ctl, &names)?;
    let cache = after.since(&before);
    cache.report(&mut ctx.report);
    let served: f64 = stats_after
        .iter()
        .map(|s| counter(s, "requests_served"))
        .sum::<f64>()
        - stats_before
            .iter()
            .map(|s| counter(s, "requests_served"))
            .sum::<f64>();
    let batches: f64 = stats_after
        .iter()
        .map(|s| counter(s, "batches_formed"))
        .sum::<f64>()
        - stats_before
            .iter()
            .map(|s| counter(s, "batches_formed"))
            .sum::<f64>();
    ctx.report.set(
        "serve.batch_ratio",
        "ratio",
        served / batches.max(1.0),
        served as usize,
    );

    for o in open.iter().chain(&closed) {
        let sent = o.exchanges.len() as u64;
        if o.refresh {
            explains_sent[o.tenant] += sent;
        } else {
            updates_sent[o.tenant] += sent;
        }
    }
    check(
        ctx,
        &mut ctl,
        &names,
        failed,
        &mut explains_sent,
        &updates_sent,
    )?;

    if ctx.traced() {
        layer_probes(ctx);
    }
    Ok(())
}

fn report_open_loop(ctx: &mut Ctx, open: &[Outcome], elapsed: Duration) {
    let good: Vec<&Outcome> = open.iter().filter(|o| o.ok()).collect();
    let refresh: Vec<f64> = good
        .iter()
        .filter(|o| o.refresh)
        .map(|o| o.latency_ms)
        .collect();
    let requests: Vec<&Exchange> = good
        .iter()
        .filter(|o| o.refresh)
        .flat_map(|o| &o.exchanges)
        .collect();
    let round_trips: Vec<f64> = requests.iter().map(|e| e.round_trip_ms).collect();
    let inside: Vec<f64> = requests.iter().map(|e| e.inside_ms).collect();
    let overhead: Vec<f64> = requests
        .iter()
        .map(|e| e.round_trip_ms - e.inside_ms)
        .collect();
    let updates: Vec<f64> = good
        .iter()
        .filter(|o| !o.refresh)
        .flat_map(|o| &o.exchanges)
        .map(|e| e.round_trip_ms)
        .collect();
    let cold = good
        .iter()
        .filter(|o| o.refresh && o.exchanges.iter().any(|e| e.inside_ms > 1.0))
        .count();
    let stalled = overhead.iter().filter(|&&x| x > STALL_MS).count();
    let lags: Vec<f64> = open.iter().filter_map(|o| o.lag_ms).collect();
    let r = &mut ctx.report;
    let n = refresh.len();
    r.latency("refresh", &refresh, 90);
    r.set("op_p50_ms", "ms", median(&refresh), n);
    r.set(
        "explain_p50_ms",
        "ms",
        median(&round_trips),
        round_trips.len(),
    );
    r.set(
        "serve.request_ms",
        "ms",
        median(&round_trips),
        round_trips.len(),
    );
    r.set("serve.query_ms", "ms", median(&inside), inside.len());
    r.set("core.explain_ms", "ms", median(&inside), inside.len());
    r.set("serve.overhead_ms", "ms", median(&overhead), overhead.len());
    r.set(
        "serve.stalled_share",
        "ratio",
        stalled as f64 / overhead.len().max(1) as f64,
        overhead.len(),
    );
    r.set(
        "serve.cold_share",
        "ratio",
        cold as f64 / n.max(1) as f64,
        n,
    );
    r.set("serve.update_ms", "ms", median(&updates), updates.len());
    r.set("gen.lag_ms", "ms", percentile(&lags, 0.99), lags.len());
    r.line(format!(
        "open loop: {} operations over {:.2} s ({n} refreshes, {} updates), {:.0}% of refreshes cold, {:.0}% of requests stalled, {} operations waited for a connection",
        open.len(),
        elapsed.as_secs_f64(),
        updates.len(),
        100.0 * cold as f64 / n.max(1) as f64,
        100.0 * stalled as f64 / overhead.len().max(1) as f64,
        open.len() - lags.len()
    ));
}

fn report_closed_loop(ctx: &mut Ctx, closed: &[Outcome], elapsed: Duration) {
    let requests: usize = closed
        .iter()
        .filter(|o| o.ok())
        .map(|o| o.exchanges.len())
        .sum();
    // A failed refresh misses every latency limit.
    let refresh: Vec<f64> = closed
        .iter()
        .filter(|o| o.refresh)
        .map(|o| if o.ok() { o.latency_ms } else { f64::INFINITY })
        .collect();
    let p90 = percentile(&refresh, 0.9);
    let rps = requests as f64 / elapsed.as_secs_f64();
    let valid = p90 <= LATENCY_LIMIT_MS;
    ctx.report.set("capacity_rps", "req/s", rps, requests);
    ctx.report.set("throughput_per_s", "1/s", rps, requests);
    ctx.report.line(format!(
        "closed loop: {requests} requests in {:.2} s, {} refreshes, refresh p90 {p90:.1} ms against the {LATENCY_LIMIT_MS} ms limit: capacity {}",
        elapsed.as_secs_f64(),
        refresh.len(),
        if valid { "valid" } else { "INVALID" }
    ));
    if !valid {
        ctx.report.failed += 1;
    }
}

/// Timing-free form of an explain response body.
fn canonical(body: &str) -> Json {
    let mut json = parse(body);
    if let Json::Obj(fields) = &mut json {
        fields.remove("query_ms");
        fields.remove("search_ms");
    }
    json
}

/// The workload's output checks, after the load phases.
fn check(
    ctx: &mut Ctx,
    ctl: &mut Conn,
    names: &[String],
    failed: u64,
    explains_sent: &mut [u64],
    updates_sent: &[u64],
) -> Result<(), String> {
    ctx.report.check(
        "every explain and update answers 200",
        failed == 0,
        format!("({failed} operations failed)"),
    );
    let mut repeats = Vec::new();
    for (t, name) in names.iter().enumerate() {
        let path = format!("/sessions/{name}/explain");
        let first = call(ctl, "POST", &path, &explain_body(0), 200)?;
        let second = call(ctl, "POST", &path, &explain_body(0), 200)?;
        explains_sent[t] += 2;
        if canonical(&first) != canonical(&second) || canonical(&first) == Json::Null {
            repeats.push(name.as_str());
        }
    }
    ctx.report.check(
        "a question asked twice with no update between returns identical bodies",
        repeats.is_empty(),
        repeats.join(", "),
    );
    let mut mismatched = Vec::new();
    for (t, name) in names.iter().enumerate() {
        let stats = parse(&call(
            ctl,
            "GET",
            &format!("/sessions/{name}/stats"),
            "",
            200,
        )?);
        let served = counter(&stats, "requests_served");
        let applied = counter(&stats, "updates_applied");
        if served != explains_sent[t] as f64 || applied != updates_sent[t] as f64 {
            mismatched.push(format!(
                "{name}: served {served} of {} sent, applied {applied} of {} sent",
                explains_sent[t], updates_sent[t]
            ));
        }
    }
    ctx.report.check(
        "each tenant's /stats counts exactly the requests and updates sent",
        mismatched.is_empty(),
        mismatched.join("; "),
    );
    Ok(())
}

/// In-process probes on the tenants' data: build layers, the four
/// server-default questions asked cold for the scoring numbers, and
/// single-row updates on the German tenant's data; then the forest and MLP
/// probe.
fn layer_probes(ctx: &mut Ctx) {
    let mut sweeps = SweepLayers::default();
    for (group, (_, generator, rows)) in TENANTS.iter().enumerate() {
        let data = match *generator {
            "german" => german(*rows, TENANT_SEED),
            _ => adult(*rows, TENANT_SEED),
        };
        let (train, test) = split(&data, TENANT_SEED);
        let lr = |cols| LogisticRegression::new(cols, 1e-3);
        probes::build_layers(ctx, group as u64, lr, &train, &test);
        let mut session = SessionBuilder::new()
            .threads(THREADS)
            .fit(lr, &train, &test);
        for (metric, _) in METRICS {
            let answer = session.explain(
                &ExplainRequest::default()
                    .with_metric(metric)
                    .with_ground_truth(false),
            );
            sweeps.add(&answer.report.stats);
            if let Some(top) = answer.report.explanations.first() {
                let rows: Vec<u32> = top.candidate.coverage.iter().collect();
                probes::retrain(ctx, &session, metric, &rows, group as u64);
            }
        }
        if group == 0 {
            probes::update_probe(ctx, &mut session, |i| german(1, TENANT_SEED + 1 + i));
        }
    }
    sweeps.report(&mut ctx.report);
    probes::report_build_layers(ctx);
    probes::report_retrain(ctx);
    super::families::probe(ctx);
}
