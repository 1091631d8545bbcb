//! `gopher` — fairness debugging from the shell.
//!
//! Wraps the workspace's explanation pipeline in four subcommands:
//!
//! * `gopher explain` — train a model on a synthetic dataset (or a CSV via
//!   `--csv`), then run the paper's top-k pattern search and print (or emit
//!   as JSON) the explanations;
//! * `gopher audit` — train a model and print every fairness metric plus
//!   per-group confusion counts;
//! * `gopher report` — `audit` + `explain` combined into one JSON document
//!   (implies `--json`);
//! * `gopher query` — build one explain session and answer a JSON array of
//!   explanation requests against it (implies `--json`): the serving-style
//!   entry point, where model training and influence precomputation are paid
//!   once for the whole batch;
//! * `gopher serve` — the same serving surface over HTTP: a multi-session
//!   daemon with an LRU session registry (see `gopher_serve`).
//!
//! Run `gopher --help` for the full flag reference.

#![forbid(unsafe_code)]

use gopher_cli::json::{self, Json};
use gopher_core::{ExplainRequest, ExplainResponse, ExplainSession, SessionBuilder, UpdateReport};
use gopher_data::csv::{parse_protected_spec, read_csv_infer};
use gopher_data::generators::{self, DELTA_SEED_XOR};
use gopher_data::{Dataset, Encoder};
use gopher_fairness::{
    bias, disparate_impact_ratio, equalized_odds_gap, group_confusion, smooth_bias,
    ConfusionCounts, FairnessMetric,
};
use gopher_influence::ModelFamily;
use gopher_influence::{BiasEval, Estimator};
use gopher_models::train::accuracy;
use gopher_models::{Forest, ForestConfig, LinearSvm, LogisticRegression, Mlp, Model};
use gopher_prng::Rng;
use gopher_serve::api;
use gopher_serve::{ServeConfig, Server};
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::process::ExitCode;

const HELP: &str = "\
gopher — interpretable data-based explanations for fairness debugging

USAGE:
    gopher <explain|audit|report|query|serve> [OPTIONS]

SUBCOMMANDS:
    explain    top-k training-data patterns responsible for model bias
    audit      fairness metrics and per-group confusion for a trained model
    report     audit + explain as one JSON document (implies --json)
    query      answer a JSON array of explain requests against one shared
               session (implies --json); see --requests
    serve      HTTP daemon: named sessions from CSV uploads or generators,
               LRU registry; see SERVE OPTIONS
    update     apply a training-data delta to a live session and compare the
               incremental path against a cold rebuild; see UPDATE OPTIONS

COMMON OPTIONS:
    --data <NAME>           dataset generator: german | adult | sqf [german]
    --csv <PATH>            explain a CSV file instead of a generator;
                            requires --label and --protected, schema inferred
                            (numeric column iff every field parses as a number)
    --label <COLUMN>        CSV column holding the 0/1 favorable-outcome label
    --protected <SPEC>      privileged-group rule for the CSV: `col=level`
                            (categorical) or `col>=cutoff` (numeric),
                            e.g. gender=F or age>=45
    --rows <N>              rows to generate [1000] (ignored with --csv)
    --model <NAME>          model family: lr | svm | mlp | forest [lr]
    --metric <NAME>         statistical-parity | equal-opportunity |
                            predictive-parity | average-odds [statistical-parity]
    --seed <N>              RNG seed for generation, split and training [42]
    --test-fraction <F>     held-out fraction for the audit set [0.3]
    --l2 <LAMBDA>           L2 regularization strength [1e-3]
    --threads <N>           worker threads for explain/report/query (each
                            lattice level's merge resolution and score
                            pass, sweep groups, ground-truth retrains);
                            0 = auto: $GOPHER_THREADS if set, else
                            all available cores [0]. Results are identical
                            at every thread count.
    --json                  emit a JSON report on stdout instead of text

EXPLAIN/QUERY OPTIONS:
    --k <N>                 number of explanations [3]
    --support <TAU>         minimum pattern support threshold [0.05]
    --max-predicates <D>    maximum predicates per pattern [3]
    --estimator <NAME>      first-order | second-order | newton |
                            one-step-gd [second-order]
    --learning-rate <ETA>   step size for one-step-gd [1.0]
    --ground-truth          retrain without each top pattern to verify it
    --requests <PATH>       (query) JSON array of request objects; `-` reads
                            stdin. Each object may set: metric, k, estimator,
                            learning_rate, support, max_predicates,
                            ground_truth, bias_eval (chain-rule |
                            re-eval-smooth | re-eval-hard), containment.
                            Omitted fields fall back to the flags above.
    --stats                 (query) wrap the output as {\"responses\": [...],
                            \"session_stats\": {...}} with the session's cache
                            counters: scored-sweep and coverage
                            hit/miss/eviction rates, ground-truth-memo
                            hits and misses

UPDATE OPTIONS:
    --delta-remove <N>      training rows to remove (seeded random sample of
                            distinct indices) [1]
    --delta-add <N>         rows to add: fresh generator rows (seed-offset
                            stream) for generator data, duplicated training
                            rows for --csv data [1]

SERVE OPTIONS:
    --addr <HOST>           address to bind [127.0.0.1]
    --port <N>              port to bind; 0 = OS-assigned, printed on the
                            `listening on http://...` line [7979]
    --session-cap <N>       sessions retained before LRU eviction [8]
    --workers <N>           connection-handling threads; 0 = auto [0]
    --max-body-bytes <N>    largest accepted request body (413 past it)
                            [16777216]

EXAMPLES:
    gopher explain --data german --k 3 --json
    gopher explain --csv loans.csv --label approved --protected gender=F
    gopher audit --data adult --model mlp --metric equal-opportunity
    gopher report --data sqf --k 5 --support 0.1
    echo '[{\"metric\":\"statistical-parity\"},{\"metric\":\"equal-opportunity\"}]' \\
        | gopher query --requests - --data german
    gopher serve --port 7979
    gopher update --data german --rows 10000 --delta-remove 1 --delta-add 1
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(UsageError::Help) => {
            print!("{HELP}");
            ExitCode::SUCCESS
        }
        Err(UsageError::Bad(msg)) => {
            eprintln!("gopher: {msg}");
            eprintln!("Run `gopher --help` for usage.");
            ExitCode::from(2)
        }
    }
}

enum UsageError {
    Help,
    Bad(String),
}

fn bad(msg: impl Into<String>) -> UsageError {
    UsageError::Bad(msg.into())
}

/// Everything the subcommands share, parsed from the flag list.
struct Opts {
    data: String,
    csv: Option<String>,
    label: Option<String>,
    protected: Option<String>,
    requests: Option<String>,
    rows: usize,
    model: String,
    metric: FairnessMetric,
    seed: u64,
    test_fraction: f64,
    l2: f64,
    threads: usize,
    json: bool,
    stats: bool,
    k: usize,
    support: f64,
    max_predicates: usize,
    estimator: Estimator,
    learning_rate: f64,
    ground_truth: bool,
    delta_remove: usize,
    delta_add: usize,
    addr: String,
    port: u16,
    session_cap: usize,
    workers: usize,
    max_body_bytes: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            data: "german".into(),
            csv: None,
            label: None,
            protected: None,
            requests: None,
            rows: 1000,
            model: "lr".into(),
            metric: FairnessMetric::StatisticalParity,
            seed: 42,
            test_fraction: 0.3,
            l2: 1e-3,
            threads: 0,
            json: false,
            stats: false,
            k: 3,
            support: 0.05,
            max_predicates: 3,
            estimator: Estimator::SecondOrder,
            learning_rate: 1.0,
            ground_truth: false,
            delta_remove: 1,
            delta_add: 1,
            addr: "127.0.0.1".into(),
            port: 7979,
            session_cap: 8,
            workers: 0,
            max_body_bytes: json::DEFAULT_MAX_BYTES,
        }
    }
}

/// The metric/estimator vocabularies live in `gopher_serve::api` (shared
/// with the HTTP surface); these shims only adapt the error type.
fn parse_metric(name: &str) -> Result<FairnessMetric, UsageError> {
    api::parse_metric(name).map_err(bad)
}

fn parse_estimator(name: &str, learning_rate: f64) -> Result<Estimator, UsageError> {
    api::parse_estimator(name, learning_rate).map_err(bad)
}

fn parse_opts(args: &[String]) -> Result<Opts, UsageError> {
    let mut opts = Opts::default();
    let mut estimator_name = String::from("second-order");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, UsageError> {
            it.next()
                .ok_or_else(|| bad(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--help" | "-h" => return Err(UsageError::Help),
            "--json" => opts.json = true,
            "--stats" => opts.stats = true,
            "--ground-truth" => opts.ground_truth = true,
            "--data" => opts.data = value("--data")?.clone(),
            "--csv" => opts.csv = Some(value("--csv")?.clone()),
            "--label" => opts.label = Some(value("--label")?.clone()),
            "--protected" => opts.protected = Some(value("--protected")?.clone()),
            "--requests" => opts.requests = Some(value("--requests")?.clone()),
            "--model" => opts.model = value("--model")?.clone(),
            "--rows" => opts.rows = parse_num(value("--rows")?, "--rows")?,
            "--seed" => opts.seed = parse_num(value("--seed")?, "--seed")?,
            "--k" => opts.k = parse_num(value("--k")?, "--k")?,
            "--max-predicates" => {
                opts.max_predicates = parse_num(value("--max-predicates")?, "--max-predicates")?
            }
            "--support" => opts.support = parse_num(value("--support")?, "--support")?,
            "--test-fraction" => {
                opts.test_fraction = parse_num(value("--test-fraction")?, "--test-fraction")?
            }
            "--l2" => opts.l2 = parse_num(value("--l2")?, "--l2")?,
            "--threads" => opts.threads = parse_num(value("--threads")?, "--threads")?,
            "--delta-remove" => {
                opts.delta_remove = parse_num(value("--delta-remove")?, "--delta-remove")?
            }
            "--delta-add" => opts.delta_add = parse_num(value("--delta-add")?, "--delta-add")?,
            "--learning-rate" => {
                opts.learning_rate = parse_num(value("--learning-rate")?, "--learning-rate")?
            }
            "--metric" => opts.metric = parse_metric(value("--metric")?)?,
            "--estimator" => estimator_name = value("--estimator")?.clone(),
            "--addr" => opts.addr = value("--addr")?.clone(),
            "--port" => opts.port = parse_num(value("--port")?, "--port")?,
            "--session-cap" => {
                opts.session_cap = parse_num(value("--session-cap")?, "--session-cap")?
            }
            "--workers" => opts.workers = parse_num(value("--workers")?, "--workers")?,
            "--max-body-bytes" => {
                opts.max_body_bytes = parse_num(value("--max-body-bytes")?, "--max-body-bytes")?
            }
            other => return Err(bad(format!("unknown flag `{other}`"))),
        }
    }
    opts.estimator = parse_estimator(&estimator_name, opts.learning_rate)?;
    if !(0.0..1.0).contains(&opts.test_fraction) || opts.test_fraction == 0.0 {
        return Err(bad("--test-fraction must be in (0, 1)"));
    }
    if opts.csv.is_none() && opts.rows < 20 {
        return Err(bad("--rows must be at least 20"));
    }
    if !(0.0..1.0).contains(&opts.support) {
        return Err(bad("--support must be in [0, 1)"));
    }
    if opts.max_predicates == 0 {
        return Err(bad("--max-predicates must be positive"));
    }
    // Reports record the seed as a JSON number; above 2^53 that round-trips
    // through f64 lossily and the printed seed would not reproduce the run.
    if opts.seed > (1 << 53) {
        return Err(bad("--seed must be at most 2^53 (9007199254740992)"));
    }
    if opts.k == 0 {
        return Err(bad("--k must be positive"));
    }
    Ok(opts)
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, UsageError> {
    text.parse()
        .map_err(|_| bad(format!("invalid value `{text}` for {flag}")))
}

fn run(args: &[String]) -> Result<(), UsageError> {
    let Some(command) = args.first() else {
        return Err(UsageError::Help);
    };
    let mut opts = parse_opts(&args[1..])?;
    match command.as_str() {
        "--help" | "-h" | "help" => Err(UsageError::Help),
        "explain" => dispatch(&mut opts, Action::Explain),
        "audit" => dispatch(&mut opts, Action::Audit),
        "report" => dispatch(&mut opts, Action::Report),
        "query" => dispatch(&mut opts, Action::Query),
        "update" => dispatch(&mut opts, Action::Update),
        "serve" => serve(&opts),
        other => Err(bad(format!("unknown subcommand `{other}`"))),
    }
}

enum Action {
    Explain,
    Audit,
    Report,
    Query,
    Update,
}

/// Loads the dataset: a synthetic generator, or a schema-inferred CSV when
/// `--csv` is set.
fn load_data(opts: &mut Opts) -> Result<Dataset, UsageError> {
    let Some(path) = opts.csv.clone() else {
        return Ok(generator(opts)?(opts.rows, opts.seed));
    };
    let label = opts
        .label
        .as_deref()
        .ok_or_else(|| bad("--csv requires --label <COLUMN>"))?;
    let spec = opts
        .protected
        .as_deref()
        .ok_or_else(|| bad("--csv requires --protected <SPEC>"))?;
    let (column, rule) =
        parse_protected_spec(spec).map_err(|e| bad(format!("--protected: {e}")))?;
    let file =
        std::fs::File::open(&path).map_err(|e| bad(format!("cannot open --csv {path:?}: {e}")))?;
    let data = read_csv_infer(std::io::BufReader::new(file), label, column, &rule)
        .map_err(|e| bad(format!("--csv {path}: {e}")))?;
    // Reports carry the data source; for CSV runs that's the file path.
    opts.data = path;
    opts.rows = data.n_rows();
    Ok(data)
}

/// Monomorphizes the chosen model family into [`exec`].
fn dispatch(opts: &mut Opts, action: Action) -> Result<(), UsageError> {
    let data = load_data(opts)?;
    let mut rng = Rng::new(opts.seed);
    let (train, test) = data.train_test_split(opts.test_fraction, &mut rng);
    if test.n_rows() == 0 || train.n_rows() == 0 {
        return Err(bad(format!(
            "{} rows with --test-fraction {} leaves an empty split \
             ({} train / {} test rows); increase one of them",
            data.n_rows(),
            opts.test_fraction,
            train.n_rows(),
            test.n_rows()
        )));
    }
    let l2 = opts.l2;
    match opts.model.as_str() {
        "lr" | "logistic" => exec(opts, action, &train, &test, |n| {
            LogisticRegression::new(n, l2)
        }),
        "svm" => exec(opts, action, &train, &test, |n| LinearSvm::new(n, l2)),
        "mlp" => {
            // Cloning the forked stream per call keeps the constructor `Fn`
            // (and deterministic), so `update` can rebuild the same model.
            let model_rng = rng.fork();
            exec(opts, action, &train, &test, move |n| {
                Mlp::new(n, 10, l2, &mut model_rng.clone())
            })
        }
        "forest" => {
            let config = ForestConfig {
                seed: opts.seed,
                ..ForestConfig::default()
            };
            exec(opts, action, &train, &test, move |n| {
                Forest::new(n, config.clone())
            })
        }
        other => Err(bad(format!("unknown model `{other}`"))),
    }
}

fn exec<M: ModelFamily>(
    opts: &Opts,
    action: Action,
    train: &Dataset,
    test: &Dataset,
    make_model: impl Fn(usize) -> M,
) -> Result<(), UsageError> {
    let output = match action {
        Action::Audit => {
            let report = audit_json(opts, train, test, make_model);
            if opts.json {
                format!("{report}\n")
            } else {
                render_audit_text(&report)
            }
        }
        Action::Explain => {
            let session = fit_session(opts, train, test, make_model);
            let response = session.explain(&base_request(opts));
            let report = explain_json(opts, &response);
            if opts.json {
                format!("{report}\n")
            } else {
                render_explain_text(&report)
            }
        }
        Action::Report => {
            let session = fit_session(opts, train, test, make_model);
            let audit = audit_model(opts, session.model(), session.encoder(), test);
            let response = session.explain(&base_request(opts));
            let explain = explain_json(opts, &response);
            format!("{}\n", Json::obj([("audit", audit), ("explain", explain)]))
        }
        Action::Query => {
            let requests = read_requests(opts)?;
            let session = fit_session(opts, train, test, make_model);
            let responses = session.explain_batch(&requests);
            let array: Vec<Json> = responses.iter().map(|r| explain_json(opts, r)).collect();
            if opts.stats {
                format!(
                    "{}\n",
                    Json::obj([
                        ("responses", Json::Arr(array)),
                        ("session_stats", session_stats_json(&session.stats())),
                    ])
                )
            } else {
                format!("{}\n", Json::Arr(array))
            }
        }
        Action::Update => {
            if opts.delta_remove == 0 && opts.delta_add == 0 {
                return Err(bad("update needs --delta-remove or --delta-add above zero"));
            }
            if opts.delta_remove >= train.n_rows() {
                return Err(bad(format!(
                    "--delta-remove {} would empty the {}-row training split",
                    opts.delta_remove,
                    train.n_rows()
                )));
            }
            let mut session = fit_session(opts, train, test, &make_model);
            let request = base_request(opts);
            // Warm the session so the delta has cached work to discard.
            session.explain(&request);
            let mut removal_rng = Rng::new(opts.seed ^ 0x517c_c1b7);
            let removed = removal_rng.sample_indices(train.n_rows(), opts.delta_remove);
            let added = delta_rows(opts, train)?;
            let report = session.update(&removed, &added);
            let after = session.explain(&request);
            let rebuild_start = std::time::Instant::now();
            let cold = session.cold_rebuild(&make_model);
            let rebuild_time = rebuild_start.elapsed();
            let cold_answer = cold.explain(&request);
            let matches_cold = explanations_match(&after, &cold_answer);
            let json = update_json(opts, &report, &after, matches_cold, rebuild_time);
            if opts.json {
                format!("{json}\n")
            } else {
                render_update_text(&json)
            }
        }
    };
    emit(&output);
    Ok(())
}

// ----------------------------------------------------------------- update

/// The rows an `update` adds: a fresh seed-offset slice of the generator
/// stream, or (for CSV data) a seeded sample of duplicated training rows —
/// either way the schema matches the session's by construction.
fn delta_rows(opts: &Opts, train: &Dataset) -> Result<Dataset, UsageError> {
    if opts.delta_add == 0 {
        return Ok(train.select_rows(&[]));
    }
    if opts.csv.is_some() {
        let mut rng = Rng::new(opts.seed ^ DELTA_SEED_XOR);
        let picked = rng.sample_indices(train.n_rows(), opts.delta_add.min(train.n_rows()));
        return Ok(train.select_rows(&picked));
    }
    Ok(generator(opts)?(opts.delta_add, opts.seed ^ DELTA_SEED_XOR))
}

/// The generator `--data` names.
fn generator(opts: &Opts) -> Result<generators::Generator, UsageError> {
    generators::by_name(&opts.data).ok_or_else(|| bad(format!("unknown dataset `{}`", opts.data)))
}

/// Post-update answers must match a cold rebuild on the same data: pattern
/// text and support exactly, responsibilities within the engine's drift
/// bound, base bias to float noise.
fn explanations_match(incremental: &ExplainResponse, cold: &ExplainResponse) -> bool {
    let a = &incremental.report.explanations;
    let b = &cold.report.explanations;
    a.len() == b.len()
        && (incremental.report.base_bias - cold.report.base_bias).abs() <= 1e-6
        && a.iter().zip(b).all(|(x, y)| {
            let scale = x.est_responsibility.abs().max(y.est_responsibility.abs());
            x.pattern_text == y.pattern_text
                && x.support == y.support
                && (x.est_responsibility - y.est_responsibility).abs() <= 1e-2 * scale.max(1e-12)
        })
}

fn update_json(
    opts: &Opts,
    report: &UpdateReport,
    after: &ExplainResponse,
    matches_cold: bool,
    rebuild_time: std::time::Duration,
) -> Json {
    let update_ms = report.update_time.as_secs_f64() * 1e3;
    let rebuild_ms = rebuild_time.as_secs_f64() * 1e3;
    let Json::Obj(mut fields) = explain_json(opts, after) else {
        unreachable!("explain_json returns an object");
    };
    fields.insert("command".into(), Json::str("update"));
    fields.insert("rows_removed".into(), Json::num(report.rows_removed as f64));
    fields.insert("rows_added".into(), Json::num(report.rows_added as f64));
    fields.insert("train_rows".into(), Json::num(report.n_rows as f64));
    for (key, value) in api::rebuild_cause_json(report.engine.rebuild) {
        fields.insert(key.into(), value);
    }
    fields.insert("fell_back".into(), Json::Bool(report.engine.fell_back()));
    fields.insert(
        "artifacts_invalidated".into(),
        Json::num(report.artifacts_invalidated as f64),
    );
    fields.insert("update_ms".into(), Json::num(update_ms));
    fields.insert("rebuild_ms".into(), Json::num(rebuild_ms));
    fields.insert(
        "speedup".into(),
        Json::num(rebuild_ms / update_ms.max(1e-9)),
    );
    fields.insert("matches_cold_rebuild".into(), Json::Bool(matches_cold));
    Json::Obj(fields)
}

fn render_update_text(report: &Json) -> String {
    let get_f = |k: &str| report.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let get_b = |k: &str| matches!(report.get(k), Some(Json::Bool(true)));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "update · removed {} · added {} · {} train rows now",
        get_f("rows_removed"),
        get_f("rows_added"),
        get_f("train_rows"),
    );
    let path = match report.get("rebuild_cause").and_then(Json::as_str) {
        None => "incremental".to_string(),
        Some("drift") => format!("full rebuild (drift {:.2e})", get_f("drift")),
        Some(cause) => format!("full rebuild ({cause})"),
    };
    let _ = writeln!(
        out,
        "engine path: {path} · merged coverages discarded: {}",
        get_f("artifacts_invalidated"),
    );
    let _ = writeln!(
        out,
        "update {:.1} ms vs cold rebuild {:.1} ms ({:.1}x) · answers match: {}",
        get_f("update_ms"),
        get_f("rebuild_ms"),
        get_f("speedup"),
        if get_b("matches_cold_rebuild") {
            "yes"
        } else {
            "NO"
        },
    );
    out
}

/// Writes to stdout, swallowing `BrokenPipe` so `gopher ... | head` exits
/// cleanly instead of panicking.
fn emit(text: &str) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            panic!("failed writing to stdout: {e}");
        }
    }
}

fn fit_session<M: ModelFamily>(
    opts: &Opts,
    train: &Dataset,
    test: &Dataset,
    make_model: impl FnOnce(usize) -> M,
) -> ExplainSession<M> {
    SessionBuilder::new()
        .threads(opts.threads)
        .fit(make_model, train, test)
}

/// The request the CLI flags describe (also the fallback for every field a
/// `query` request object leaves out).
fn base_request(opts: &Opts) -> ExplainRequest {
    let mut request = ExplainRequest::default()
        .with_metric(opts.metric)
        .with_k(opts.k)
        .with_estimator(opts.estimator)
        .with_support_threshold(opts.support)
        .with_max_predicates(opts.max_predicates)
        .with_ground_truth(opts.ground_truth);
    request.bias_eval = BiasEval::ChainRule;
    request
}

/// The `--stats` block: every cache-layer and traffic counter a serving
/// deployment watches, shared with `GET /sessions/{name}/stats`.
fn session_stats_json(stats: &gopher_core::SessionStats) -> Json {
    api::session_stats_json(stats)
}

// ------------------------------------------------------------------ serve

/// Runs the HTTP daemon until a signal or `POST /shutdown` asks it to
/// drain: in-flight requests complete, then the workers park and we
/// return.
fn serve(opts: &Opts) -> Result<(), UsageError> {
    gopher_serve::signals::install();
    let config = ServeConfig {
        addr: opts.addr.clone(),
        port: opts.port,
        session_cap: opts.session_cap,
        workers: opts.workers,
        max_body_bytes: opts.max_body_bytes,
    };
    let server = Server::start(config)
        .map_err(|e| bad(format!("cannot bind {}:{}: {e}", opts.addr, opts.port)))?;
    // Scripts (and the CI smoke) scrape this exact line for the bound port.
    emit(&format!("listening on http://{}\n", server.addr()));
    while !server.shutdown_requested() && !gopher_serve::signals::signalled() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    server.trigger_shutdown();
    server.join();
    emit("gopher serve: drained and stopped\n");
    Ok(())
}

// ----------------------------------------------------------------- query

/// Reads and parses the `--requests` JSON array (`-` = stdin).
fn read_requests(opts: &Opts) -> Result<Vec<ExplainRequest>, UsageError> {
    let path = opts
        .requests
        .as_deref()
        .ok_or_else(|| bad("query requires --requests <PATH> (`-` for stdin)"))?;
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| bad(format!("cannot read requests from stdin: {e}")))?;
        buf
    } else {
        std::fs::read_to_string(path)
            .map_err(|e| bad(format!("cannot read --requests {path:?}: {e}")))?
    };
    let parsed =
        json::parse(text.trim()).map_err(|e| bad(format!("--requests is not valid JSON: {e}")))?;
    let Some(items) = parsed.as_arr() else {
        return Err(bad("--requests must be a JSON array of request objects"));
    };
    if items.is_empty() {
        return Err(bad("--requests array is empty"));
    }
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            parse_request(item, opts).map_err(|e| match e {
                UsageError::Bad(msg) => bad(format!("request #{}: {msg}", i + 1)),
                help => help,
            })
        })
        .collect()
}

/// Builds one [`ExplainRequest`] from a JSON object, falling back to the
/// CLI flags for omitted fields. The field vocabulary, validation, and
/// error wording are the shared serving codec's
/// ([`api::parse_explain_request`]) — `gopher query` and the HTTP daemon
/// accept byte-identical request objects.
fn parse_request(item: &Json, opts: &Opts) -> Result<ExplainRequest, UsageError> {
    api::parse_explain_request(item, &base_request(opts), opts.learning_rate).map_err(bad)
}

// ---------------------------------------------------------------- explain

/// The shared serving response ([`api::explain_response_json`]) plus the
/// CLI's invocation context. Field names and value formatting are identical
/// between `gopher explain --json` and `POST /sessions/{name}/explain`.
fn explain_json(opts: &Opts, response: &ExplainResponse) -> Json {
    let Json::Obj(mut fields) = api::explain_response_json(response) else {
        unreachable!("explain_response_json returns an object");
    };
    fields.insert("command".into(), Json::str("explain"));
    fields.insert("dataset".into(), Json::str(&opts.data));
    fields.insert("rows".into(), Json::num(opts.rows as f64));
    fields.insert("model".into(), Json::str(&opts.model));
    fields.insert("seed".into(), Json::num(opts.seed as f64));
    Json::Obj(fields)
}

fn render_explain_text(report: &Json) -> String {
    let mut out = String::new();
    let get_f = |k: &str| report.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let get_s = |k: &str| report.get(k).and_then(Json::as_str).unwrap_or("?");
    let _ = writeln!(
        out,
        "explain · {} ({} rows) · model {} · metric {}",
        get_s("dataset"),
        get_f("rows"),
        get_s("model"),
        get_s("metric"),
    );
    let _ = writeln!(
        out,
        "base bias {:+.4} · accuracy {:.1}% · {} candidates scored in {:.0} ms",
        get_f("base_bias"),
        100.0 * get_f("accuracy"),
        get_f("candidates_scored"),
        get_f("search_ms"),
    );
    let _ = writeln!(out);
    let empty = Vec::new();
    let explanations = report
        .get("explanations")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    if explanations.is_empty() {
        let _ = writeln!(
            out,
            "no patterns above the support threshold were responsible for the bias"
        );
        return out;
    }
    for (i, e) in explanations.iter().enumerate() {
        let pattern = e.get("pattern").and_then(Json::as_str).unwrap_or("?");
        let support = e.get("support").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let resp = e
            .get("est_responsibility")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let _ = writeln!(out, "{}. {pattern}", i + 1);
        let _ = write!(
            out,
            "   support {:.1}% · est. responsibility {:+.4}",
            100.0 * support,
            resp
        );
        if let Some(gt) = e.get("ground_truth_responsibility").and_then(Json::as_f64) {
            let _ = write!(out, " · ground-truth Δbias {:+.1}%", 100.0 * gt);
        }
        let _ = writeln!(out);
    }
    out
}

// ------------------------------------------------------------------ audit

fn audit_json<M: ModelFamily>(
    opts: &Opts,
    train: &Dataset,
    test: &Dataset,
    make_model: impl FnOnce(usize) -> M,
) -> Json {
    let encoder = Encoder::fit(train);
    let encoded_train = encoder.transform(train);
    let mut model = make_model(encoded_train.n_cols());
    ModelFamily::fit(&mut model, &encoded_train);
    audit_model(opts, &model, &encoder, test)
}

fn audit_model<M: Model>(opts: &Opts, model: &M, encoder: &Encoder, test: &Dataset) -> Json {
    let encoded_test = encoder.transform(test);
    let metrics: Vec<Json> = [
        FairnessMetric::StatisticalParity,
        FairnessMetric::EqualOpportunity,
        FairnessMetric::PredictiveParity,
        FairnessMetric::AverageOdds,
    ]
    .iter()
    .map(|&m| {
        Json::obj([
            ("metric", Json::str(m.name())),
            ("bias", Json::num(bias(m, model, &encoded_test))),
            (
                "smooth_bias",
                Json::num(smooth_bias(m, model, &encoded_test)),
            ),
        ])
    })
    .collect();
    let stats = group_confusion(model, &encoded_test);
    Json::obj([
        ("command", Json::str("audit")),
        ("dataset", Json::str(&opts.data)),
        ("rows", Json::num(opts.rows as f64)),
        ("model", Json::str(&opts.model)),
        ("seed", Json::num(opts.seed as f64)),
        ("test_rows", Json::num(encoded_test.n_rows() as f64)),
        ("accuracy", Json::num(accuracy(model, &encoded_test))),
        ("metrics", Json::Arr(metrics)),
        (
            "disparate_impact_ratio",
            Json::num(disparate_impact_ratio(model, &encoded_test)),
        ),
        (
            "equalized_odds_gap",
            Json::num(equalized_odds_gap(model, &encoded_test)),
        ),
        ("privileged", confusion_json(&stats.privileged)),
        ("protected", confusion_json(&stats.protected)),
    ])
}

fn confusion_json(c: &ConfusionCounts) -> Json {
    Json::obj([
        ("tp", Json::num(c.tp as f64)),
        ("fp", Json::num(c.fp as f64)),
        ("tn", Json::num(c.tn as f64)),
        ("fn", Json::num(c.fn_ as f64)),
        ("positive_rate", Json::num(c.positive_rate())),
        ("tpr", Json::num(c.tpr())),
        ("fpr", Json::num(c.fpr())),
    ])
}

fn render_audit_text(report: &Json) -> String {
    let mut out = String::new();
    let get_f = |k: &str| report.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let get_s = |k: &str| report.get(k).and_then(Json::as_str).unwrap_or("?");
    let _ = writeln!(
        out,
        "audit · {} ({} rows, {} held out) · model {}",
        get_s("dataset"),
        get_f("rows"),
        get_f("test_rows"),
        get_s("model"),
    );
    let _ = writeln!(out, "accuracy {:.1}%", 100.0 * get_f("accuracy"));
    let _ = writeln!(out);
    let empty = Vec::new();
    for m in report
        .get("metrics")
        .and_then(Json::as_arr)
        .unwrap_or(&empty)
    {
        let _ = writeln!(
            out,
            "{:<22} bias {:+.4}   (smooth {:+.4})",
            m.get("metric").and_then(Json::as_str).unwrap_or("?"),
            m.get("bias").and_then(Json::as_f64).unwrap_or(f64::NAN),
            m.get("smooth_bias")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
        );
    }
    let _ = writeln!(
        out,
        "{:<22} {:.4}",
        "disparate impact",
        get_f("disparate_impact_ratio")
    );
    let _ = writeln!(
        out,
        "{:<22} {:.4}",
        "equalized odds gap",
        get_f("equalized_odds_gap")
    );
    let _ = writeln!(out);
    for group in ["privileged", "protected"] {
        if let Some(c) = report.get(group) {
            let g = |k: &str| c.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            let _ = writeln!(out, "{group:<11} tp {:>4} fp {:>4} tn {:>4} fn {:>4} · P(Ŷ=1) {:.3} · TPR {:.3} · FPR {:.3}",
                g("tp"),
                g("fp"),
                g("tn"),
                g("fn"),
                g("positive_rate"),
                g("tpr"),
                g("fpr"),
            );
        }
    }
    out
}
