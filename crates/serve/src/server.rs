//! The daemon: accept loop, worker pool, routing, graceful drain.
//!
//! ```text
//! POST   /sessions                 create a session (CSV upload or generator)
//! GET    /sessions                 list registered sessions
//! GET    /sessions/{name}/stats    cache + traffic counters for one session
//! POST   /sessions/{name}/explain  answer one explain request
//! POST   /sessions/{name}/update   apply a training-data delta in place
//! DELETE /sessions/{name}          drop a session
//! GET    /healthz                  liveness + registry occupancy
//! POST   /shutdown                 begin graceful shutdown
//! ```
//!
//! Concurrency model: one non-blocking accept thread hands connections to a
//! fixed worker pool over a channel; each worker owns its connection for the
//! keep-alive duration, polling the shutdown flag on a 500 ms read timeout.
//! Shutdown ([`Server::trigger_shutdown`], `POST /shutdown`, or a signal
//! wired by the CLI) stops the accept loop, lets every in-flight request
//! complete and flush, then parks the workers; [`Server::join`] returns
//! once the last one is done.

use crate::api;
use crate::http::{self, HttpConn, HttpError, Request};
use crate::registry::{build_session, SessionConfig, SessionEntry, SessionRegistry, UpdateSpec};
use gopher_core::ExplainRequest;
use gopher_json::{Json, ParseLimits, DEFAULT_MAX_DEPTH};
use gopher_par::{lock_recover, read_recover, write_recover};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything `gopher serve` lets you tune.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind.
    pub addr: String,
    /// Port to bind (`0` = let the OS pick; read it back from
    /// [`Server::addr`]).
    pub port: u16,
    /// Registry retention bound: past this many sessions the least recently
    /// used one is evicted.
    pub session_cap: usize,
    /// Connection-handling worker threads (`0` = auto).
    pub workers: usize,
    /// Largest accepted request body; bigger uploads get `413` before the
    /// body is read, and the JSON parser's own size limit is pinned to the
    /// same bound.
    pub max_body_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1".into(),
            port: 0,
            session_cap: 8,
            workers: 0,
            max_body_bytes: gopher_json::DEFAULT_MAX_BYTES,
        }
    }
}

/// How long an idle keep-alive read waits before re-checking the shutdown
/// flag. Bounds the shutdown latency contributed by parked connections.
const POLL_TIMEOUT: Duration = Duration::from_millis(500);

/// Shared server state: the registry plus the shutdown flag every loop
/// polls.
pub struct ServerState {
    /// The named-session registry.
    pub registry: SessionRegistry,
    config: ServeConfig,
    shutdown: AtomicBool,
    started: Instant,
}

impl ServerState {
    /// Whether graceful shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }
}

/// A running `gopher serve` daemon. Dropping it shuts it down and joins its
/// threads.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop and worker pool, and returns
    /// immediately; the daemon serves until [`Self::trigger_shutdown`] (or
    /// `POST /shutdown`, or a CLI-wired signal).
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind((config.addr.as_str(), config.port))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let worker_count = if config.workers > 0 {
            config.workers
        } else {
            gopher_par::available_parallelism().max(4)
        };
        let state = Arc::new(ServerState {
            registry: SessionRegistry::new(config.session_cap),
            config,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        });

        let (tx, rx) = channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let rx = rx.clone();
            let state = state.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("gopher-serve-worker-{i}"))
                    .spawn(move || worker_loop(&state, &rx))?,
            );
        }

        let accept_state = state.clone();
        let accept = std::thread::Builder::new()
            .name("gopher-serve-accept".into())
            .spawn(move || {
                while !accept_state.shutdown_requested() {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            // Workers poll the shutdown flag on this timeout.
                            let _ = stream.set_read_timeout(Some(POLL_TIMEOUT));
                            if tx.send(stream).is_err() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
                // Dropping the sender releases every worker parked in recv.
            })?;

        Ok(Server {
            addr,
            state,
            accept: Some(accept),
            workers,
        })
    }

    /// The address actually bound (resolves `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (registry access for in-process callers).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Requests graceful shutdown: stop accepting, drain in-flight work.
    pub fn trigger_shutdown(&self) {
        self.state.shutdown.store(true, Ordering::Relaxed);
    }

    /// Whether shutdown has been requested (by any path).
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown_requested()
    }

    /// Blocks until the accept loop and every worker have drained and
    /// exited. Call after [`Self::trigger_shutdown`] (or after a client
    /// posted `/shutdown`).
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.trigger_shutdown();
        self.join_threads();
    }
}

fn worker_loop(state: &ServerState, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        // Holding the lock while parked in recv is fine: the instant a
        // stream arrives the holder dequeues and releases; peers queue on
        // the mutex, not on the channel.
        let stream = {
            let guard = lock_recover(rx);
            guard.recv()
        };
        match stream {
            Ok(stream) => handle_connection(state, stream),
            Err(_) => break, // accept loop is gone and the queue is dry
        }
    }
}

fn handle_connection(state: &ServerState, stream: TcpStream) {
    let mut conn = HttpConn::new(stream);
    loop {
        match conn.read_request(state.config.max_body_bytes) {
            Ok(Some(request)) => {
                // A panic inside a handler (a bug, not a protocol error)
                // must cost this request a 500, not the worker thread.
                let (status, body) = catch_unwind(AssertUnwindSafe(|| route(state, &request)))
                    .unwrap_or_else(|_| (500, error_json("internal error answering this request")));
                // Drain politely once shutdown begins: answer, then close.
                let close = request.close || state.shutdown_requested();
                let payload = format!("{body}\n");
                if http::write_response(
                    conn.stream(),
                    status,
                    "application/json",
                    payload.as_bytes(),
                    close,
                )
                .is_err()
                    || close
                {
                    return;
                }
            }
            Ok(None) => return,
            Err(HttpError::Timeout) => {
                if state.shutdown_requested() {
                    return;
                }
            }
            Err(HttpError::Io(_)) => return,
            Err(e) => {
                let (status, message) = match e {
                    HttpError::Malformed(m) => (400, m),
                    HttpError::HeadTooLarge => (
                        431,
                        format!("request head exceeds {} bytes", http::MAX_HEAD_BYTES),
                    ),
                    HttpError::BodyTooLarge { limit } => {
                        (413, format!("request body exceeds the {limit}-byte limit"))
                    }
                    HttpError::NotImplemented(m) => (501, m),
                    HttpError::Timeout | HttpError::Io(_) => unreachable!("handled above"),
                };
                let payload = format!("{}\n", error_json(&message));
                let _ = http::write_response(
                    conn.stream(),
                    status,
                    "application/json",
                    payload.as_bytes(),
                    true,
                );
                return;
            }
        }
    }
}

fn error_json(message: &str) -> Json {
    Json::obj([("error", Json::str(message))])
}

/// Dispatches one request to its handler. Returns `(status, body)`.
fn route(state: &ServerState, request: &Request) -> (u16, Json) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => (200, health(state)),
        ("GET", ["sessions"]) => (200, list_sessions(state)),
        ("POST", ["sessions"]) => create_session(state, request),
        ("GET", ["sessions", name, "stats"]) => session_stats(state, name),
        ("POST", ["sessions", name, "explain"]) => explain(state, name, request),
        ("POST", ["sessions", name, "update"]) => update_session(state, name, request),
        ("DELETE", ["sessions", name]) => {
            if state.registry.remove(name) {
                (200, Json::obj([("deleted", Json::str(*name))]))
            } else {
                (404, error_json(&format!("no session named {name:?}")))
            }
        }
        ("POST", ["shutdown"]) => {
            state.shutdown.store(true, Ordering::Relaxed);
            (200, Json::obj([("status", Json::str("shutting down"))]))
        }
        (_, ["healthz" | "sessions" | "shutdown", ..]) => (
            405,
            error_json(&format!("method {} not allowed here", request.method)),
        ),
        _ => (404, error_json(&format!("no route for {}", request.path))),
    }
}

fn health(state: &ServerState) -> Json {
    Json::obj([
        ("status", Json::str("ok")),
        ("sessions", Json::num(state.registry.len() as f64)),
        ("session_cap", Json::num(state.registry.cap() as f64)),
        (
            "uptime_ms",
            Json::num(state.started.elapsed().as_secs_f64() * 1e3),
        ),
        ("shutting_down", Json::Bool(state.shutdown_requested())),
    ])
}

fn list_sessions(state: &ServerState) -> Json {
    let sessions: Vec<Json> = state
        .registry
        .entries()
        .iter()
        .map(|e| {
            Json::obj([
                ("name", Json::str(&e.name)),
                ("model", Json::str(&e.model)),
                ("source", Json::str(&e.source)),
                ("rows", Json::num(e.rows as f64)),
                (
                    "requests_served",
                    Json::num(read_recover(&e.session).stats().requests_served as f64),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("sessions", Json::Arr(sessions)),
        ("cap", Json::num(state.registry.cap() as f64)),
        ("evictions", Json::num(state.registry.evictions() as f64)),
    ])
}

/// Parses a request body as JSON under the server's size bound and the
/// codec's nesting bound; a pathological body is a `400`, never a stack
/// overflow.
fn parse_body(state: &ServerState, body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    gopher_json::parse_with_limits(
        text.trim(),
        ParseLimits {
            max_bytes: state.config.max_body_bytes,
            max_depth: DEFAULT_MAX_DEPTH,
        },
    )
}

fn create_session(state: &ServerState, request: &Request) -> (u16, Json) {
    let parsed = match parse_body(state, &request.body) {
        Ok(json) => json,
        Err(e) => return (400, error_json(&e)),
    };
    let config = match SessionConfig::from_json(&parsed) {
        Ok(config) => config,
        Err(e) => return (400, error_json(&e)),
    };
    let (session, rows) = match build_session(&config) {
        Ok(built) => built,
        Err(e) => return (400, error_json(&e)),
    };
    let accuracy = session.accuracy();
    let entry = Arc::new(SessionEntry {
        name: config.name.clone(),
        model: config.model.clone(),
        source: config.source_text(),
        rows,
        config: config.clone(),
        session: std::sync::RwLock::new(session),
    });
    if let Err(e) = state.registry.insert(entry) {
        return (409, error_json(&e));
    }
    (
        201,
        Json::obj([
            ("name", Json::str(&config.name)),
            ("model", Json::str(&config.model)),
            ("rows", Json::num(rows as f64)),
            ("accuracy", Json::num(accuracy)),
        ]),
    )
}

fn session_stats(state: &ServerState, name: &str) -> (u16, Json) {
    let Some(entry) = state.registry.get(name) else {
        return (404, error_json(&format!("no session named {name:?}")));
    };
    let session = read_recover(&entry.session);
    let Json::Obj(mut fields) = api::session_stats_json(&session.stats()) else {
        unreachable!("session_stats_json returns an object");
    };
    fields.insert("name".into(), Json::str(&entry.name));
    fields.insert("model".into(), Json::str(&entry.model));
    fields.insert("source".into(), Json::str(&entry.source));
    fields.insert("rows".into(), Json::num(entry.rows as f64));
    fields.insert("train_rows".into(), Json::num(session.train_rows() as f64));
    fields.insert("accuracy".into(), Json::num(session.accuracy()));
    (200, Json::Obj(fields))
}

/// `POST /sessions/{name}/update`: apply a training-data delta in place.
///
/// The body names rows to remove (explicit indices or a seeded-random
/// count) and rows to append (generated for generator-backed sessions,
/// inline CSV for CSV-backed ones). Everything is validated *before* the
/// write lock is taken — bad indices, schema mismatches, and empty deltas
/// are `400`s and never touch the session. The update itself runs under the
/// session's write lock: in-flight explains finish first, the next query
/// answers over the new data.
fn update_session(state: &ServerState, name: &str, request: &Request) -> (u16, Json) {
    let Some(entry) = state.registry.get(name) else {
        return (404, error_json(&format!("no session named {name:?}")));
    };
    let parsed = match parse_body(state, &request.body) {
        Ok(json) => json,
        Err(e) => return (400, error_json(&e)),
    };
    let spec = match UpdateSpec::from_json(&parsed) {
        Ok(spec) => spec,
        Err(e) => return (400, error_json(&e)),
    };
    let added = match spec.build_added(&entry.config) {
        Ok(added) => added,
        Err(e) => return (400, error_json(&e)),
    };
    let mut session = write_recover(&entry.session);
    let n_rows = session.train_rows();
    let removed = match spec.resolve_removals(n_rows) {
        Ok(removed) => removed,
        Err(e) => return (400, error_json(&e)),
    };
    if removed.len() >= n_rows + added.as_ref().map_or(0, |d| d.n_rows()) {
        return (400, error_json("delta would leave the training set empty"));
    }
    if let Some(added) = &added {
        if !session.accepts(added) {
            return (
                400,
                error_json("added rows do not match the session's schema"),
            );
        }
    }
    let report = session.update(&removed, added.as_ref());
    let stats = session.stats();
    drop(session);
    (
        200,
        api::update_report_json(&report, stats.updates_applied, name),
    )
}

/// The server-side default request: like [`ExplainRequest::default`] but
/// with ground truth **off** — a serving endpoint must not pay k model
/// retrainings unless the caller asked for them.
pub fn default_request() -> ExplainRequest {
    ExplainRequest::default().with_ground_truth(false)
}

fn explain(state: &ServerState, name: &str, request: &Request) -> (u16, Json) {
    let Some(entry) = state.registry.get(name) else {
        return (404, error_json(&format!("no session named {name:?}")));
    };
    // An empty body means "the server defaults", same as `{}`.
    let parsed = if request.body.iter().all(u8::is_ascii_whitespace) {
        Json::obj([])
    } else {
        match parse_body(state, &request.body) {
            Ok(json) => json,
            Err(e) => return (400, error_json(&e)),
        }
    };
    let explain_request = match api::parse_explain_request(&parsed, &default_request(), 1.0) {
        Ok(r) => r,
        Err(e) => return (400, error_json(&e)),
    };
    let response = read_recover(&entry.session).explain(&explain_request);
    (200, api::explain_response_json(&response))
}
