//! Named explain sessions and the LRU-bounded registry that owns them.
//!
//! A session upload (`POST /sessions`) describes a dataset — one of the
//! built-in generators or an inline CSV — plus the model family and the
//! session knobs. [`build_session`] turns that into an [`AnySession`]: the
//! model-family-erased wrapper the HTTP layer serves. The
//! [`SessionRegistry`] keeps at most `cap` of them, evicting the least
//! recently *used* (looked up) one; entries are `Arc`-shared, so eviction
//! only drops the registry's reference — queries already holding the
//! session finish unharmed.

use gopher_core::{
    ExplainRequest, ExplainResponse, ExplainSession, SessionBuilder, SessionStats, UpdateReport,
};
use gopher_data::csv::{parse_protected_spec, read_csv_infer};
use gopher_data::generators::{adult, german, sqf};
use gopher_data::Dataset;
use gopher_influence::ModelFamily;
use gopher_json::Json;
use gopher_models::{Forest, ForestConfig, LinearSvm, LogisticRegression, Mlp};
use gopher_par::lock_recover;
use gopher_prng::Rng;
use std::io::Cursor;
use std::sync::{Arc, Mutex, RwLock};

/// An [`ExplainSession`] with the model family erased: the registry stores
/// whatever family the upload asked for behind one type.
pub enum AnySession {
    /// Logistic-regression session (`"model": "lr"`).
    Lr(ExplainSession<LogisticRegression>),
    /// Linear-SVM session (`"model": "svm"`).
    Svm(ExplainSession<LinearSvm>),
    /// One-hidden-layer MLP session (`"model": "mlp"`).
    Mlp(ExplainSession<Mlp>),
    /// Bagged-tree forest session (`"model": "forest"`), explained through
    /// the unlearning backend instead of influence functions.
    Forest(ExplainSession<Forest>),
}

impl AnySession {
    /// Answers one request (see [`ExplainSession::explain`]). Concurrent
    /// callers asking the same question share one sweep inside the session.
    pub fn explain(&self, request: &ExplainRequest) -> ExplainResponse {
        match self {
            Self::Lr(s) => s.explain(request),
            Self::Svm(s) => s.explain(request),
            Self::Mlp(s) => s.explain(request),
            Self::Forest(s) => s.explain(request),
        }
    }

    /// Cache and traffic counters, straight from the underlying session.
    pub fn stats(&self) -> SessionStats {
        match self {
            Self::Lr(s) => s.stats(),
            Self::Svm(s) => s.stats(),
            Self::Mlp(s) => s.stats(),
            Self::Forest(s) => s.stats(),
        }
    }

    /// Held-out accuracy of the session's model.
    pub fn accuracy(&self) -> f64 {
        match self {
            Self::Lr(s) => s.accuracy(),
            Self::Svm(s) => s.accuracy(),
            Self::Mlp(s) => s.accuracy(),
            Self::Forest(s) => s.accuracy(),
        }
    }

    /// Rows in the session's current training set — the universe `update`'s
    /// removal indices address.
    pub fn train_rows(&self) -> usize {
        match self {
            Self::Lr(s) => s.train_raw().n_rows(),
            Self::Svm(s) => s.train_raw().n_rows(),
            Self::Mlp(s) => s.train_raw().n_rows(),
            Self::Forest(s) => s.train_raw().n_rows(),
        }
    }

    /// Whether `added` can be concatenated onto the session's training data
    /// (same schema). Checked before `update` so a mismatched upload is a
    /// `400`, not a panic.
    pub fn accepts(&self, added: &Dataset) -> bool {
        let schema = match self {
            Self::Lr(s) => s.train_raw().schema(),
            Self::Svm(s) => s.train_raw().schema(),
            Self::Mlp(s) => s.train_raw().schema(),
            Self::Forest(s) => s.train_raw().schema(),
        };
        schema == added.schema()
    }

    /// Applies a training-data delta to the underlying session (see
    /// [`ExplainSession::update`]): removal indices address the current
    /// training set, `added` is appended (`None` = remove-only).
    pub fn update(&mut self, removed: &[usize], added: Option<&Dataset>) -> UpdateReport {
        fn go<M: ModelFamily>(
            s: &mut ExplainSession<M>,
            removed: &[usize],
            added: Option<&Dataset>,
        ) -> UpdateReport {
            match added {
                Some(added) => s.update(removed, added),
                None => {
                    let empty = s.train_raw().select_rows(&[]);
                    s.update(removed, &empty)
                }
            }
        }
        match self {
            Self::Lr(s) => go(s, removed, added),
            Self::Svm(s) => go(s, removed, added),
            Self::Mlp(s) => go(s, removed, added),
            Self::Forest(s) => go(s, removed, added),
        }
    }
}

/// Where a session's dataset comes from.
#[derive(Debug, Clone)]
pub enum DataSource {
    /// A built-in generator (`german` / `adult` / `sqf`) at a row count.
    Generator {
        /// Generator name.
        name: String,
        /// Rows to generate.
        rows: usize,
    },
    /// An inline CSV upload, schema inferred.
    Csv {
        /// The raw CSV text.
        text: String,
        /// Header name of the 0/1 label column.
        label: String,
        /// `col=level` / `col>=cutoff` privileged-group rule.
        protected: String,
    },
}

/// Everything `POST /sessions` may specify, with the CLI's defaults.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Registry key, `[A-Za-z0-9_-]{1,64}`.
    pub name: String,
    /// Dataset source.
    pub source: DataSource,
    /// Model family: `lr` | `svm` | `mlp` | `forest`.
    pub model: String,
    /// RNG seed for generation, split, and training.
    pub seed: u64,
    /// Held-out fraction.
    pub test_fraction: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Worker threads (0 = auto).
    pub threads: usize,
    /// Scored-sweep cache cap override.
    pub sweep_cache_cap: Option<usize>,
    /// Structure cache cap override.
    pub structure_cache_cap: Option<usize>,
    /// Coverage cache cap override.
    pub coverage_cache_cap: Option<usize>,
}

/// The JSON fields `POST /sessions` understands. Unknown keys are hard
/// errors — a typo'd knob must not silently fall back to a default.
pub const SESSION_FIELDS: [&str; 14] = [
    "name",
    "generator",
    "rows",
    "csv",
    "label",
    "protected",
    "model",
    "seed",
    "test_fraction",
    "l2",
    "threads",
    "sweep_cache_cap",
    "structure_cache_cap",
    "coverage_cache_cap",
];

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

impl SessionConfig {
    /// Parses a session upload from its JSON body. Unknown fields, missing
    /// required fields, and out-of-range values are all errors (the HTTP
    /// layer turns them into `400`s).
    pub fn from_json(body: &Json) -> Result<SessionConfig, String> {
        let Json::Obj(fields) = body else {
            return Err("session config must be a JSON object".into());
        };
        for key in fields.keys() {
            if !SESSION_FIELDS.contains(&key.as_str()) {
                return Err(format!(
                    "unknown field {key:?} (expected one of: {})",
                    SESSION_FIELDS.join(", ")
                ));
            }
        }
        let get_s = |key: &str| -> Result<Option<&str>, String> {
            match body.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(Some)
                    .ok_or_else(|| format!("field {key:?} must be a string")),
            }
        };
        let get_f = |key: &str| -> Result<Option<f64>, String> {
            match body.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| format!("field {key:?} must be a number")),
            }
        };
        let get_count = |key: &str| -> Result<Option<usize>, String> {
            match get_f(key)? {
                None => Ok(None),
                Some(v) if v >= 0.0 && v.fract() == 0.0 => Ok(Some(v as usize)),
                Some(v) => Err(format!(
                    "field {key:?} must be a non-negative integer, got {v}"
                )),
            }
        };

        let name = get_s("name")?
            .ok_or_else(|| "missing required field \"name\"".to_string())?
            .to_string();
        if !valid_name(&name) {
            return Err(format!(
                "invalid session name {name:?}: use 1-64 characters from [A-Za-z0-9_-]"
            ));
        }

        let csv = get_s("csv")?.map(str::to_string);
        let source = match csv {
            Some(text) => {
                for key in ["generator", "rows"] {
                    if body.get(key).is_some() {
                        return Err(format!("field {key:?} conflicts with \"csv\""));
                    }
                }
                let label = get_s("label")?
                    .ok_or_else(|| "\"csv\" requires \"label\"".to_string())?
                    .to_string();
                let protected = get_s("protected")?
                    .ok_or_else(|| "\"csv\" requires \"protected\"".to_string())?
                    .to_string();
                DataSource::Csv {
                    text,
                    label,
                    protected,
                }
            }
            None => {
                for key in ["label", "protected"] {
                    if body.get(key).is_some() {
                        return Err(format!("field {key:?} requires \"csv\""));
                    }
                }
                let generator = get_s("generator")?.unwrap_or("german").to_string();
                if !["german", "adult", "sqf"].contains(&generator.as_str()) {
                    return Err(format!("unknown generator {generator:?}"));
                }
                let rows = get_count("rows")?.unwrap_or(1000);
                if rows < 20 {
                    return Err(format!("\"rows\" must be at least 20, got {rows}"));
                }
                DataSource::Generator {
                    name: generator,
                    rows,
                }
            }
        };

        let model = get_s("model")?.unwrap_or("lr").to_string();
        if !["lr", "logistic", "svm", "mlp", "forest"].contains(&model.as_str()) {
            return Err(format!(
                "unknown model {model:?} (expected lr | svm | mlp | forest)"
            ));
        }
        let seed = get_count("seed")?.unwrap_or(42) as u64;
        if seed > (1 << 53) {
            return Err("\"seed\" must be at most 2^53".into());
        }
        let test_fraction = get_f("test_fraction")?.unwrap_or(0.3);
        if !(test_fraction > 0.0 && test_fraction < 1.0) {
            return Err(format!(
                "\"test_fraction\" must be in (0, 1), got {test_fraction}"
            ));
        }
        let l2 = get_f("l2")?.unwrap_or(1e-3);
        if !(l2.is_finite() && l2 >= 0.0) {
            return Err(format!(
                "\"l2\" must be a finite non-negative number, got {l2}"
            ));
        }
        Ok(SessionConfig {
            name,
            source,
            model,
            seed,
            test_fraction,
            l2,
            threads: get_count("threads")?.unwrap_or(0),
            sweep_cache_cap: get_count("sweep_cache_cap")?,
            structure_cache_cap: get_count("structure_cache_cap")?,
            coverage_cache_cap: get_count("coverage_cache_cap")?,
        })
    }

    /// Human-readable description of the data source, for listings.
    pub fn source_text(&self) -> String {
        match &self.source {
            DataSource::Generator { name, rows } => format!("{name} ({rows} rows)"),
            DataSource::Csv { text, .. } => format!("csv upload ({} bytes)", text.len()),
        }
    }
}

/// The JSON fields `POST /sessions/{name}/update` understands. Unknown keys
/// are hard errors, same policy as session creation.
pub const UPDATE_FIELDS: [&str; 4] = ["remove", "add_rows", "add_csv", "seed"];

/// Which training rows a delta removes.
#[derive(Debug, Clone)]
pub enum RemoveSpec {
    /// Explicit training-row indices.
    Indices(Vec<usize>),
    /// A count of seeded-random distinct rows, picked server-side.
    Random(usize),
}

/// A parsed `POST /sessions/{name}/update` body: what to remove from and
/// append to the session's training set.
#[derive(Debug, Clone)]
pub struct UpdateSpec {
    /// Rows to remove.
    pub remove: RemoveSpec,
    /// Rows to generate and append (generator-backed sessions only).
    pub add_rows: usize,
    /// Inline CSV rows to append (CSV-backed sessions only; parsed with the
    /// session's original label/protected spec).
    pub add_csv: Option<String>,
    /// Seed for the random removal pick and the generated rows.
    pub seed: u64,
}

impl UpdateSpec {
    /// Parses an update body. The delta must do *something*: all-empty
    /// bodies are rejected rather than counted as a no-op update.
    pub fn from_json(body: &Json) -> Result<UpdateSpec, String> {
        let Json::Obj(fields) = body else {
            return Err("update body must be a JSON object".into());
        };
        for key in fields.keys() {
            if !UPDATE_FIELDS.contains(&key.as_str()) {
                return Err(format!(
                    "unknown field {key:?} (expected one of: {})",
                    UPDATE_FIELDS.join(", ")
                ));
            }
        }
        let as_count = |v: &Json, key: &str| -> Result<usize, String> {
            match v.as_f64() {
                Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as usize),
                _ => Err(format!("field {key:?} must be a non-negative integer")),
            }
        };
        let remove = match body.get("remove") {
            None => RemoveSpec::Random(0),
            Some(Json::Arr(items)) => {
                let mut indices = Vec::with_capacity(items.len());
                for item in items {
                    indices.push(as_count(item, "remove")?);
                }
                RemoveSpec::Indices(indices)
            }
            Some(other) => RemoveSpec::Random(as_count(other, "remove")?),
        };
        let add_rows = match body.get("add_rows") {
            None => 0,
            Some(v) => as_count(v, "add_rows")?,
        };
        let add_csv = match body.get("add_csv") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| "field \"add_csv\" must be a string".to_string())?
                    .to_string(),
            ),
        };
        let seed = match body.get("seed") {
            None => 1,
            Some(v) => as_count(v, "seed")? as u64,
        };
        if add_rows > 0 && add_csv.is_some() {
            return Err("\"add_rows\" conflicts with \"add_csv\"".into());
        }
        let removes_nothing = matches!(&remove, RemoveSpec::Random(0))
            || matches!(&remove, RemoveSpec::Indices(v) if v.is_empty());
        if removes_nothing && add_rows == 0 && add_csv.is_none() {
            return Err("empty delta: set \"remove\", \"add_rows\", or \"add_csv\"".into());
        }
        Ok(UpdateSpec {
            remove,
            add_rows,
            add_csv,
            seed,
        })
    }

    /// Resolves the removal spec against the current training-row count:
    /// explicit indices are bounds- and duplicate-checked, a random count is
    /// drawn (distinct, seeded) server-side. Errors are `400`s.
    pub fn resolve_removals(&self, n_rows: usize) -> Result<Vec<usize>, String> {
        match &self.remove {
            RemoveSpec::Indices(indices) => {
                let mut seen = vec![false; n_rows];
                for &idx in indices {
                    if idx >= n_rows {
                        return Err(format!(
                            "remove index {idx} out of range (training set has {n_rows} rows)"
                        ));
                    }
                    if seen[idx] {
                        return Err(format!("remove index {idx} listed twice"));
                    }
                    seen[idx] = true;
                }
                Ok(indices.clone())
            }
            RemoveSpec::Random(count) => {
                if *count >= n_rows {
                    return Err(format!("cannot remove {count} of {n_rows} training rows"));
                }
                Ok(Rng::new(self.seed).sample_indices(n_rows, *count))
            }
        }
    }

    /// Builds the rows this delta appends, according to the session's
    /// original data source: generated rows for generator sessions, parsed
    /// CSV rows (same label/protected spec) for CSV sessions. `None` for a
    /// remove-only delta.
    pub fn build_added(&self, config: &SessionConfig) -> Result<Option<Dataset>, String> {
        if let Some(text) = &self.add_csv {
            let DataSource::Csv {
                label, protected, ..
            } = &config.source
            else {
                return Err(
                    "\"add_csv\" requires a CSV-backed session (use \"add_rows\" \
                            for generator-backed sessions)"
                        .into(),
                );
            };
            let (column, rule) = parse_protected_spec(protected)?;
            let added = read_csv_infer(Cursor::new(text.as_bytes()), label, column, &rule)
                .map_err(|e| e.to_string())?;
            return Ok(Some(added));
        }
        if self.add_rows == 0 {
            return Ok(None);
        }
        let DataSource::Generator { name, .. } = &config.source else {
            return Err(
                "\"add_rows\" requires a generator-backed session (use \"add_csv\" \
                        for CSV-backed sessions)"
                    .into(),
            );
        };
        let generate = match name.as_str() {
            "german" => german,
            "adult" => adult,
            "sqf" => sqf,
            other => return Err(format!("unknown generator {other:?}")),
        };
        // A seed offset keeps the delta rows distinct from the session's
        // original draw even when the caller reuses the session seed.
        Ok(Some(generate(self.add_rows, self.seed ^ 0x9e37_79b9)))
    }
}

/// Builds the dataset a config describes. CSV errors keep their line numbers
/// (`csv parse error at line N: …`) so a bad upload turns into an actionable
/// `400`.
fn load_data(config: &SessionConfig) -> Result<Dataset, String> {
    match &config.source {
        DataSource::Generator { name, rows } => {
            let generate = match name.as_str() {
                "german" => german,
                "adult" => adult,
                "sqf" => sqf,
                other => return Err(format!("unknown generator {other:?}")),
            };
            Ok(generate(*rows, config.seed))
        }
        DataSource::Csv {
            text,
            label,
            protected,
        } => {
            let (column, rule) = parse_protected_spec(protected)?;
            read_csv_infer(Cursor::new(text.as_bytes()), label, column, &rule)
                .map_err(|e| e.to_string())
        }
    }
}

/// Trains the configured model and wraps it in an [`AnySession`]. Returns
/// the session plus the dataset's row count. Mirrors the `gopher` CLI's
/// session construction exactly (same seed discipline, same split), so a
/// served session is bit-identical to `gopher query` on the same knobs.
pub fn build_session(config: &SessionConfig) -> Result<(AnySession, usize), String> {
    let data = load_data(config)?;
    let rows = data.n_rows();
    let mut rng = Rng::new(config.seed);
    let (train, test) = data.train_test_split(config.test_fraction, &mut rng);
    if train.n_rows() == 0 || test.n_rows() == 0 {
        return Err(format!(
            "{} rows with test_fraction {} leaves an empty split ({} train / {} test)",
            rows,
            config.test_fraction,
            train.n_rows(),
            test.n_rows()
        ));
    }
    let mut builder = SessionBuilder::new().threads(config.threads);
    if let Some(cap) = config.sweep_cache_cap {
        builder = builder.sweep_cache_cap(cap);
    }
    if let Some(cap) = config.structure_cache_cap {
        builder = builder.structure_cache_cap(cap);
    }
    if let Some(cap) = config.coverage_cache_cap {
        builder = builder.coverage_cache_cap(cap);
    }
    let l2 = config.l2;
    let session = match config.model.as_str() {
        "lr" | "logistic" => {
            AnySession::Lr(builder.fit(|n| LogisticRegression::new(n, l2), &train, &test))
        }
        "svm" => AnySession::Svm(builder.fit(|n| LinearSvm::new(n, l2), &train, &test)),
        "mlp" => {
            let mut model_rng = rng.fork();
            AnySession::Mlp(builder.fit(|n| Mlp::new(n, 10, l2, &mut model_rng), &train, &test))
        }
        "forest" => {
            let forest_config = ForestConfig {
                seed: config.seed,
                ..ForestConfig::default()
            };
            AnySession::Forest(builder.fit(
                |n| Forest::new(n, forest_config.clone()),
                &train,
                &test,
            ))
        }
        other => return Err(format!("unknown model {other:?}")),
    };
    Ok((session, rows))
}

/// One registered session: the erased session and the listing metadata.
///
/// The session sits behind an `RwLock` so `POST .../update` can take `&mut`
/// while every read path (explain, stats, listings) shares read guards.
/// Queries hold the read lock only for the duration of one request; an
/// update waits for in-flight requests, applies, and the next query sees
/// the new data.
pub struct SessionEntry {
    /// Registry key.
    pub name: String,
    /// Model family (`lr` / `svm` / `mlp` / `forest`).
    pub model: String,
    /// Data-source description, e.g. `german (1000 rows)`.
    pub source: String,
    /// Dataset rows (before the train/test split).
    pub rows: usize,
    /// The upload that built this session; `POST .../update` re-reads it to
    /// generate delta rows (same generator, or the CSV's label/protected
    /// spec for `add_csv`).
    pub config: SessionConfig,
    /// The session itself (write-locked only by updates).
    pub session: RwLock<AnySession>,
}

struct Inner {
    /// Most recently used at the back.
    entries: Vec<(String, Arc<SessionEntry>)>,
    evictions: u64,
}

/// LRU-bounded map from session name to [`SessionEntry`].
pub struct SessionRegistry {
    cap: usize,
    inner: Mutex<Inner>,
}

impl SessionRegistry {
    /// A registry retaining at most `cap` sessions (`cap` is clamped to at
    /// least 1 — a registry that can hold nothing serves nothing).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                evictions: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        lock_recover(&self.inner)
    }

    /// Registers a session. `Err` on a name collision (the HTTP layer's
    /// `409`); past the cap the least recently used entry is dropped — any
    /// in-flight queries on it keep their `Arc` and finish normally.
    pub fn insert(&self, entry: Arc<SessionEntry>) -> Result<(), String> {
        let mut inner = self.lock();
        if inner.entries.iter().any(|(n, _)| *n == entry.name) {
            return Err(format!("session {:?} already exists", entry.name));
        }
        inner.entries.push((entry.name.clone(), entry));
        while inner.entries.len() > self.cap {
            inner.entries.remove(0);
            inner.evictions += 1;
        }
        Ok(())
    }

    /// Looks a session up, marking it most recently used.
    pub fn get(&self, name: &str) -> Option<Arc<SessionEntry>> {
        let mut inner = self.lock();
        let idx = inner.entries.iter().position(|(n, _)| n == name)?;
        let entry = inner.entries.remove(idx);
        let found = entry.1.clone();
        inner.entries.push(entry);
        Some(found)
    }

    /// Drops a session by name; `false` if it was not registered.
    pub fn remove(&self, name: &str) -> bool {
        let mut inner = self.lock();
        let before = inner.entries.len();
        inner.entries.retain(|(n, _)| n != name);
        inner.entries.len() < before
    }

    /// Registered session count.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries in LRU order (least recently used first).
    pub fn entries(&self) -> Vec<Arc<SessionEntry>> {
        self.lock().entries.iter().map(|(_, e)| e.clone()).collect()
    }

    /// Sessions evicted to respect the cap so far.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// The retention cap.
    pub fn cap(&self) -> usize {
        self.cap
    }
}
