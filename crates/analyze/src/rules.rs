//! The eight project-invariant rules.
//!
//! Each rule encodes a bug class this workspace has already shipped a fix
//! for (see the README's rule catalog for the history). Rules operate on
//! the token stream from [`crate::lexer`] — string literals and comments
//! can never produce findings — and report 1-based `line:col` spans.

use crate::lexer::{Comment, Lexed, Token, TokenKind};

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Id of the rule that fired (one of [`RULES`], or `bare-allow`).
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Static description of one rule, for `--list` and `--rules` validation.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The rule id used in `--rules` and `gopher-lint: allow(...)`.
    pub id: &'static str,
    /// One-line summary of the invariant.
    pub summary: &'static str,
}

/// Environment variables the workspace documents as tuning knobs; any other
/// string literal fed to `env::var` trips the `env-literal` rule. Extend
/// this list (and the README knob table) when adding a knob.
pub const KNOWN_ENV_KNOBS: &[&str] = &["GOPHER_THREADS"];

/// All deny-by-default rules, in catalog order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "raw-lock",
        summary: "`.lock().unwrap()`/`.lock().expect(..)` — use the shared `lock_recover` helper",
    },
    RuleInfo {
        id: "nan-sort",
        summary: "`sort_by`/`max_by`/`min_by` with `partial_cmp` — use `f64::total_cmp`",
    },
    RuleInfo {
        id: "float-bits-key",
        summary: "`f64::to_bits` in a key/hash position — `-0.0`/`0.0` split cache entries",
    },
    RuleInfo {
        id: "undocumented-unsafe",
        summary: "`unsafe` block/fn without a `// SAFETY:` comment",
    },
    RuleInfo {
        id: "guard-held-call",
        summary: "method call on `self` while a MutexGuard binding is live in scope",
    },
    RuleInfo {
        id: "env-literal",
        summary: "`env::var` with a string outside the documented knob list",
    },
    RuleInfo {
        id: "hashmap-ordered-output",
        summary: "HashMap/HashSet iteration flowing into ordered output without a sort",
    },
    RuleInfo {
        id: "instant-now-scored-path",
        summary: "`Instant::now()` inside a scoring fn or a cache-insert statement",
    },
];

/// True if `id` names a rule in [`RULES`].
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Runs every rule in `enabled` over one lexed file.
pub fn check_all(lexed: &Lexed, enabled: &[&str]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for &id in enabled {
        let rule_findings = match id {
            "raw-lock" => raw_lock(&lexed.tokens),
            "nan-sort" => nan_sort(&lexed.tokens),
            "float-bits-key" => float_bits_key(&lexed.tokens),
            "undocumented-unsafe" => undocumented_unsafe(&lexed.tokens, &lexed.comments),
            "guard-held-call" => guard_held_call(&lexed.tokens),
            "env-literal" => env_literal(&lexed.tokens),
            "hashmap-ordered-output" => hashmap_ordered_output(&lexed.tokens),
            "instant-now-scored-path" => instant_now_scored_path(&lexed.tokens),
            other => panic!("unknown rule id {other:?} (validate with is_known_rule)"),
        };
        findings.extend(rule_findings);
    }
    findings.sort_by_key(|f| (f.line, f.col));
    findings
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    let t = tokens.get(i)?;
    (t.kind == TokenKind::Ident).then_some(t.text.as_str())
}

fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(c))
}

/// Index of the `)` matching the `(` at `open`, if balanced.
fn matching_paren(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// **raw-lock** — `.lock().unwrap()` / `.lock().expect(..)`.
///
/// A panicking thread poisons a `std::sync::Mutex`; unwrapping the lock
/// result turns every later access into a panic, bricking a shared session
/// (the PR 3 class). All workspace caches hold values that are valid even
/// after a panic mid-insert, so the only sanctioned pattern is
/// `gopher_par::lock_recover`, which recovers the guard.
fn raw_lock(tokens: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if punct_at(tokens, i, '.')
            && ident_at(tokens, i + 1) == Some("lock")
            && punct_at(tokens, i + 2, '(')
            && punct_at(tokens, i + 3, ')')
            && punct_at(tokens, i + 4, '.')
            && matches!(ident_at(tokens, i + 5), Some("unwrap" | "expect"))
            && punct_at(tokens, i + 6, '(')
        {
            let t = &tokens[i + 1];
            out.push(Finding {
                rule: "raw-lock",
                line: t.line,
                col: t.col,
                message: format!(
                    ".lock().{}() panics forever once a holder panics (mutex poisoning); \
                     use gopher_par::lock_recover instead",
                    tokens[i + 5].text
                ),
            });
        }
    }
    out
}

/// **nan-sort** — a comparator built from `partial_cmp` inside
/// `sort_by`-family calls.
///
/// `partial_cmp` is `None` on NaN: `.unwrap()` panics on the first NaN
/// score, `.unwrap_or(Equal)` silently breaks total-order laws and makes
/// the ranking nondeterministic (the PR 2 class). `f64::total_cmp` is
/// total, identical on all finite values, and costs the same.
fn nan_sort(tokens: &[Token]) -> Vec<Finding> {
    const SORTERS: &[&str] = &[
        "sort_by",
        "sort_unstable_by",
        "max_by",
        "min_by",
        "binary_search_by",
    ];
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let Some(name) = ident_at(tokens, i) else {
            continue;
        };
        if !SORTERS.contains(&name) || !punct_at(tokens, i + 1, '(') {
            continue;
        }
        let Some(close) = matching_paren(tokens, i + 1) else {
            continue;
        };
        if tokens[i + 2..close]
            .iter()
            .any(|t| t.is_ident("partial_cmp"))
        {
            let t = &tokens[i];
            out.push(Finding {
                rule: "nan-sort",
                line: t.line,
                col: t.col,
                message: format!(
                    "{name} with partial_cmp panics or loses total order on NaN; \
                     use f64::total_cmp"
                ),
            });
        }
    }
    out
}

/// **float-bits-key** — `f64::to_bits` flowing into a key/hash position.
///
/// `-0.0 == 0.0` but their bit patterns differ, so bit-pattern keys split
/// one logical key into two cache entries (the PR 5 structural-key bug).
/// Heuristic "key position": the call happens inside a fn whose name
/// contains `key`, inside an `impl` whose header names a `*Key*` type or
/// `Hash`, or in a statement that also mentions `insert`/`entry`/
/// `contains_key`/`*hash*`.
fn float_bits_key(tokens: &[Token]) -> Vec<Finding> {
    const STMT_MARKERS: &[&str] = &["insert", "entry", "contains_key"];
    // Per-scope flags: (inside fn named *key*, inside keyish impl).
    let mut scopes: Vec<(bool, bool)> = Vec::new();
    let mut pending_fn_key = false;
    let mut pending_impl_key = false;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Ident if t.text == "fn" => {
                if let Some(name) = ident_at(tokens, i + 1) {
                    pending_fn_key = name.to_ascii_lowercase().contains("key");
                }
            }
            TokenKind::Ident if t.text == "impl" => {
                // Scan the header (up to the body `{` or a `;`).
                let mut keyish = false;
                for h in tokens.iter().skip(i + 1) {
                    if h.is_punct('{') || h.is_punct(';') {
                        break;
                    }
                    if h.kind == TokenKind::Ident && (h.text.contains("Key") || h.text == "Hash") {
                        keyish = true;
                    }
                }
                pending_impl_key = keyish;
            }
            TokenKind::Punct if t.text == "{" => {
                let inherited = scopes.last().copied().unwrap_or((false, false));
                scopes.push((
                    inherited.0 || pending_fn_key,
                    inherited.1 || pending_impl_key,
                ));
                pending_fn_key = false;
                pending_impl_key = false;
            }
            TokenKind::Punct if t.text == "}" => {
                scopes.pop();
            }
            TokenKind::Punct if t.text == ";" => {
                // A bodiless `fn`/`impl` declaration never opened its scope.
                pending_fn_key = false;
                pending_impl_key = false;
            }
            TokenKind::Ident if t.text == "to_bits" => {
                let (in_key_fn, in_key_impl) = scopes.last().copied().unwrap_or((false, false));
                let in_key_stmt = statement_window(tokens, i).any(|w| {
                    w.kind == TokenKind::Ident
                        && (STMT_MARKERS.contains(&w.text.as_str())
                            || w.text.to_ascii_lowercase().contains("hash"))
                });
                if in_key_fn || in_key_impl || in_key_stmt {
                    out.push(Finding {
                        rule: "float-bits-key",
                        line: t.line,
                        col: t.col,
                        message: "f64::to_bits in a key/hash position: -0.0 and 0.0 are equal \
                                  floats with distinct bit patterns, so they split one logical \
                                  key into two entries; canonicalize the zero sign (or key on \
                                  an integer) first"
                            .to_string(),
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Tokens of the statement containing index `i`: between the nearest
/// `;`/`{`/`}` on each side, exclusive.
fn statement_window(tokens: &[Token], i: usize) -> impl Iterator<Item = &Token> {
    let boundary = |t: &Token| t.is_punct(';') || t.is_punct('{') || t.is_punct('}');
    let start = (0..i)
        .rev()
        .find(|&j| boundary(&tokens[j]))
        .map_or(0, |j| j + 1);
    let end = (i..tokens.len())
        .find(|&j| boundary(&tokens[j]))
        .unwrap_or(tokens.len());
    tokens[start..end].iter()
}

/// **undocumented-unsafe** — every `unsafe` block or item needs a nearby
/// `SAFETY` comment (`// SAFETY: …` above a block, `/// # Safety` on an
/// `unsafe fn`'s docs).
///
/// `unsafe` in *type* position (`let f: unsafe extern "C" fn(i32)`) is not
/// an obligation and is skipped.
fn undocumented_unsafe(tokens: &[Token], comments: &[Comment]) -> Vec<Finding> {
    let documented = |line: u32| {
        comments.iter().any(|c| {
            c.end_line <= line
                && c.end_line + 6 >= line
                && c.text.to_ascii_lowercase().contains("safety")
        })
    };
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if !t.is_ident("unsafe") {
            continue;
        }
        let obligation = if punct_at(tokens, i + 1, '{') {
            true // unsafe block
        } else if matches!(
            ident_at(tokens, i + 1),
            Some("fn" | "extern" | "impl" | "trait")
        ) {
            // Item definition unless the keyword sits in type position.
            !tokens.get(i.wrapping_sub(1)).is_some_and(|p| {
                p.kind == TokenKind::Punct
                    && matches!(p.text.as_str(), ":" | "=" | "," | "<" | "(" | "&" | ">")
            }) || i == 0
        } else {
            false
        };
        if obligation && !documented(t.line) {
            out.push(Finding {
                rule: "undocumented-unsafe",
                line: t.line,
                col: t.col,
                message: "unsafe without a SAFETY comment: state the invariant the caller or \
                          block relies on (within the 6 lines above, e.g. `// SAFETY: ...`)"
                    .to_string(),
            });
        }
    }
    out
}

/// **guard-held-call** — a method call on `self` while a `MutexGuard`
/// binding is live in scope.
///
/// The PR 3 deadlock: a sweep-cache recompute path re-entered
/// `run_sweeps` — which takes the same lock — while the `match` scrutinee
/// still held the guard. Intra-function heuristic: a `let` whose
/// initializer calls `lock_recover(..)`, `.lock()`, or a local `lock(..)`
/// helper starts a live guard; the guard dies at the end of its block or
/// at `drop(binding)`; in between, any `self.method(..)` call is flagged.
/// Over-approximate by design — a call that provably takes no lock can
/// carry an inline allow with its reason.
fn guard_held_call(tokens: &[Token]) -> Vec<Finding> {
    struct Guard {
        name: String,
        depth: usize,
        line: u32,
    }
    let mut out = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    // The binding currently being built: Some((name, let-depth, saw lockish
    // call)) between `let` and its terminating `;`.
    let mut pending: Option<(String, usize, bool)> = None;
    for i in 0..tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct if t.text == "{" => depth += 1,
            TokenKind::Punct if t.text == "}" => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            TokenKind::Punct if t.text == ";" => {
                if let Some((name, let_depth, lockish)) = pending.take() {
                    if depth == let_depth && lockish {
                        guards.push(Guard {
                            name,
                            depth,
                            line: t.line,
                        });
                    } else if depth != let_depth {
                        // `;` inside a nested block of the initializer —
                        // the binding is still forming.
                        pending = Some((name, let_depth, lockish));
                    }
                }
            }
            TokenKind::Ident if t.text == "let" => {
                let mut j = i + 1;
                if ident_at(tokens, j) == Some("mut") {
                    j += 1;
                }
                if let Some(name) = ident_at(tokens, j) {
                    pending = Some((name.to_string(), depth, false));
                }
            }
            TokenKind::Ident
                if (t.text == "lock_recover" || t.text == "lock")
                    && punct_at(tokens, i + 1, '(') =>
            {
                // A lock call whose result is immediately method-chained
                // (`lock_recover(&m).get(k)`) is a temporary consumed within
                // this statement, not a live binding.
                let chained = matching_paren(tokens, i + 1)
                    .is_some_and(|close| punct_at(tokens, close + 1, '.'));
                if !chained {
                    if let Some(p) = pending.as_mut() {
                        p.2 = true;
                    }
                }
            }
            TokenKind::Ident if t.text == "drop" && punct_at(tokens, i + 1, '(') => {
                if let Some(name) = ident_at(tokens, i + 2) {
                    if punct_at(tokens, i + 3, ')') {
                        guards.retain(|g| g.name != name);
                    }
                }
            }
            TokenKind::Ident
                if t.text == "self"
                    && punct_at(tokens, i + 1, '.')
                    && ident_at(tokens, i + 2).is_some()
                    && punct_at(tokens, i + 3, '(') =>
            {
                if let Some(g) = guards.last() {
                    let method = &tokens[i + 2].text;
                    out.push(Finding {
                        rule: "guard-held-call",
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "self.{method}(..) called while MutexGuard `{}` (bound near line \
                             {}) is live — if the callee takes the same lock this deadlocks \
                             (the PR 3 class); drop the guard first",
                            g.name, g.line
                        ),
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// **env-literal** — `env::var("…")` with a literal outside
/// [`KNOWN_ENV_KNOBS`].
///
/// Every environment knob must be documented (README + the knob list here);
/// ad-hoc `env::var` literals become load-bearing configuration nobody can
/// discover. Non-literal arguments (named constants) are exempt — the
/// constant's definition site carries the documentation.
fn env_literal(tokens: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if ident_at(tokens, i) == Some("env")
            && punct_at(tokens, i + 1, ':')
            && punct_at(tokens, i + 2, ':')
            && ident_at(tokens, i + 3) == Some("var")
            && punct_at(tokens, i + 4, '(')
        {
            let Some(arg) = tokens.get(i + 5) else {
                continue;
            };
            if arg.kind == TokenKind::Str && !KNOWN_ENV_KNOBS.contains(&arg.text.as_str()) {
                out.push(Finding {
                    rule: "env-literal",
                    line: arg.line,
                    col: arg.col,
                    message: format!(
                        "env::var({:?}) is not a documented knob (known: {}); add it to \
                         KNOWN_ENV_KNOBS and the README knob table, or read it through a \
                         documented const",
                        arg.text,
                        KNOWN_ENV_KNOBS.join(", ")
                    ),
                });
            }
        }
    }
    out
}

/// **hashmap-ordered-output** — a statement that iterates a `HashMap` /
/// `HashSet` straight into order-sensitive output.
///
/// Hash iteration order is arbitrary and changes across runs (the seed is
/// randomized per process), so a `map.keys().collect::<Vec<_>>()` that
/// reaches a report, a JSON array, or printed lines makes the output
/// nondeterministic — the bug class the incremental-update work had to dodge
/// when patching cached artifacts. The rule tracks bindings declared as
/// `HashMap`/`HashSet` in the file, then flags statements where such a
/// binding is iterated (`keys`/`values`/`iter`/`into_iter`/`drain`) *and*
/// the same statement funnels the order into a sink (`collect`, `push`,
/// `extend`, `join`, `format!`/`write!`-family, `Json`). Statements that
/// sort in place, mention a `BTree` container, or are immediately followed
/// by a sorting statement (the collect-then-sort idiom) are exempt; plain
/// `for` loops are out of scope because order-independent accumulation over
/// a map is the workspace's bread and butter.
fn hashmap_ordered_output(tokens: &[Token]) -> Vec<Finding> {
    const ITERS: &[&str] = &["keys", "values", "iter", "into_iter", "drain"];
    const SINKS: &[&str] = &[
        "collect", "push", "extend", "join", "format", "write", "writeln", "print", "println",
        "Json",
    ];
    const SORTS: &[&str] = &[
        "sort",
        "sort_by",
        "sort_by_key",
        "sort_unstable",
        "sort_unstable_by",
        "sort_unstable_by_key",
    ];
    // Pass 1: names declared as hash containers anywhere in the file —
    // `let [mut] name = ... HashMap ...`, or a `name: HashMap<..>` field /
    // parameter declaration.
    let mut names: Vec<String> = Vec::new();
    for i in 0..tokens.len() {
        if !matches!(ident_at(tokens, i), Some("HashMap" | "HashSet")) {
            continue;
        }
        let boundary = |t: &Token| t.is_punct(';') || t.is_punct('{') || t.is_punct('}');
        let start = (0..i)
            .rev()
            .find(|&j| boundary(&tokens[j]))
            .map_or(0, |j| j + 1);
        let mut named = None;
        // A `let` in the statement wins; otherwise the nearest `name :`
        // (single colon — `::` path segments don't count) before the type.
        for j in start..i {
            if ident_at(tokens, j) == Some("let") {
                let mut k = j + 1;
                if ident_at(tokens, k) == Some("mut") {
                    k += 1;
                }
                named = ident_at(tokens, k).map(str::to_string);
                break;
            }
        }
        if named.is_none() {
            for j in (start..i).rev() {
                if punct_at(tokens, j, ':')
                    && !punct_at(tokens, j + 1, ':')
                    && (j == 0 || !punct_at(tokens, j - 1, ':'))
                {
                    if let Some(name) = (j > 0).then(|| ident_at(tokens, j - 1)).flatten() {
                        named = Some(name.to_string());
                        break;
                    }
                }
            }
        }
        if let Some(name) = named {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    // Pass 2: iteration of a known container whose statement also sinks the
    // order somewhere ordered, with no sort in this or the next statement.
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !(punct_at(tokens, i, '.')
            && matches!(ident_at(tokens, i + 1), Some(m) if ITERS.contains(&m))
            && punct_at(tokens, i + 2, '('))
        {
            continue;
        }
        let Some(receiver) = (i > 0).then(|| ident_at(tokens, i - 1)).flatten() else {
            continue;
        };
        if !names.iter().any(|n| n == receiver) {
            continue;
        }
        let window: Vec<&Token> = statement_window(tokens, i).collect();
        let has = |set: &[&str]| {
            window
                .iter()
                .any(|t| t.kind == TokenKind::Ident && set.contains(&t.text.as_str()))
        };
        if !has(SINKS) || has(SORTS) || window.iter().any(|t| t.text.contains("BTree")) {
            continue;
        }
        // Collect-then-sort: a sorting call in the immediately following
        // statement sanctions the collected order.
        let boundary = |t: &Token| t.is_punct(';') || t.is_punct('{') || t.is_punct('}');
        let end = (i..tokens.len())
            .find(|&j| boundary(&tokens[j]))
            .unwrap_or(tokens.len());
        let next_end = (end + 1..tokens.len())
            .find(|&j| boundary(&tokens[j]))
            .unwrap_or(tokens.len());
        let next_sorts = tokens[(end + 1).min(tokens.len())..next_end]
            .iter()
            .any(|t| t.kind == TokenKind::Ident && SORTS.contains(&t.text.as_str()));
        if next_sorts {
            continue;
        }
        let t = &tokens[i + 1];
        out.push(Finding {
            rule: "hashmap-ordered-output",
            line: t.line,
            col: t.col,
            message: format!(
                "`{receiver}.{}()` iterates a hash container into ordered output — hash \
                 iteration order is nondeterministic across runs; sort the collected items \
                 or use a BTreeMap/BTreeSet",
                t.text
            ),
        });
    }
    out
}

/// **instant-now-scored-path** — `Instant::now()` inside a scored or cached
/// computation path.
///
/// Responsibility scores and cached artifacts must be pure functions of the
/// data and the knobs: a wall-clock read inside the computation makes the
/// value (or the cached record it lands in) differ run to run — the
/// timing-nondeterminism cousin of `hashmap-ordered-output`. Two "scored
/// path" signals, both token-local like the other rules:
///
/// * the call sits inside a fn whose name mentions scoring
///   (`score`/`responsibility`/`rank`), where the clock can leak into the
///   returned value;
/// * the call's own statement also writes a cache
///   (`insert`/`entry`/`get_or_insert*`/`or_insert*`), i.e. a timestamp is
///   being recorded into a keyed artifact at insert time.
///
/// Timing *around* a pass — `let t0 = Instant::now();` in a build or query
/// fn, with `t0.elapsed()` stored as diagnostic metadata — stays legal:
/// those statements neither live in a scoring fn nor touch a cache.
fn instant_now_scored_path(tokens: &[Token]) -> Vec<Finding> {
    const SCORED_NAMES: &[&str] = &["score", "responsibility", "rank"];
    const CACHE_MARKERS: &[&str] = &[
        "insert",
        "entry",
        "get_or_insert",
        "get_or_insert_with",
        "or_insert",
        "or_insert_with",
    ];
    // Scope stack: true while inside a fn whose name looks like scoring.
    let mut scopes: Vec<bool> = Vec::new();
    let mut pending_scored_fn = false;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Ident if t.text == "fn" => {
                if let Some(name) = ident_at(tokens, i + 1) {
                    let lower = name.to_ascii_lowercase();
                    pending_scored_fn = SCORED_NAMES.iter().any(|m| lower.contains(m));
                }
            }
            TokenKind::Punct if t.text == "{" => {
                let inherited = scopes.last().copied().unwrap_or(false);
                scopes.push(inherited || pending_scored_fn);
                pending_scored_fn = false;
            }
            TokenKind::Punct if t.text == "}" => {
                scopes.pop();
            }
            TokenKind::Punct if t.text == ";" => {
                // A bodiless declaration never opened its scope.
                pending_scored_fn = false;
            }
            TokenKind::Ident
                if t.text == "Instant"
                    && punct_at(tokens, i + 1, ':')
                    && punct_at(tokens, i + 2, ':')
                    && ident_at(tokens, i + 3) == Some("now")
                    && punct_at(tokens, i + 4, '(') =>
            {
                let in_scored_fn = scopes.last().copied().unwrap_or(false);
                let in_cache_stmt = statement_window(tokens, i).any(|w| {
                    w.kind == TokenKind::Ident && CACHE_MARKERS.contains(&w.text.as_str())
                });
                if in_scored_fn || in_cache_stmt {
                    out.push(Finding {
                        rule: "instant-now-scored-path",
                        line: t.line,
                        col: t.col,
                        message: if in_cache_stmt {
                            "Instant::now() recorded into a cache entry: the stored artifact \
                             differs run to run; keep timestamps out of keyed records (store \
                             them beside the cache, or drop them)"
                                .to_string()
                        } else {
                            "Instant::now() inside a scoring path: responsibility values must \
                             be pure functions of data and knobs, never of wall-clock; hoist \
                             the timing to the caller"
                                .to_string()
                        },
                    });
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rule: &'static str, src: &str) -> Vec<Finding> {
        check_all(&lex(src), &[rule])
    }

    #[test]
    fn raw_lock_flags_unwrap_and_expect_but_not_recover() {
        let bad = "let g = self.cache.lock().unwrap();\nlet h = m.lock().expect(\"poisoned\");";
        let found = run("raw-lock", bad);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].line, 1);
        assert_eq!(found[1].line, 2);
        let good = "let g = lock_recover(&self.cache);\nlet h = m.lock().unwrap_or_else(|e| e.into_inner());";
        assert!(run("raw-lock", good).is_empty());
        // Decoy inside a string literal.
        assert!(run("raw-lock", r#"let s = ".lock().unwrap()";"#).is_empty());
    }

    #[test]
    fn nan_sort_flags_partial_cmp_comparators_only() {
        let bad = "v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));";
        assert_eq!(run("nan-sort", bad).len(), 1);
        let bad2 = "let m = xs.iter().max_by(|a, b| a.partial_cmp(b).unwrap());";
        assert_eq!(run("nan-sort", bad2).len(), 1);
        let good = "v.sort_by(f64::total_cmp);\nv.sort_by(|a, b| a.0.cmp(&b.0));";
        assert!(run("nan-sort", good).is_empty());
        // partial_cmp outside a sort call is not this rule's business.
        let unrelated = "let o = a.partial_cmp(&b);";
        assert!(run("nan-sort", unrelated).is_empty());
        // Decoy in a comment.
        assert!(run(
            "nan-sort",
            "// v.sort_by(partial_cmp)\nv.sort_by(f64::total_cmp);"
        )
        .is_empty());
    }

    #[test]
    fn float_bits_key_needs_a_key_context() {
        let in_key_fn = "fn estimator_key(x: f64) -> u64 { x.to_bits() }";
        assert_eq!(run("float-bits-key", in_key_fn).len(), 1);
        let in_key_impl = "impl StructuralKey { fn of(t: f64) -> u64 { t.to_bits() } }";
        assert_eq!(run("float-bits-key", in_key_impl).len(), 1);
        let in_hash_impl =
            "impl Hash for P { fn hash<H>(&self, h: &mut H) { self.x.to_bits().hash(h); } }";
        assert!(!run("float-bits-key", in_hash_impl).is_empty());
        let in_insert_stmt = "fn f(m: &mut M, x: f64) { m.insert(x.to_bits(), 1); }";
        assert_eq!(run("float-bits-key", in_insert_stmt).len(), 1);
        // A sort comparator tie-breaking on bits is deterministic ordering,
        // not keying — must not fire.
        let comparator =
            "fn order(v: &mut Vec<C>) { v.sort_by(|a, b| a.s.to_bits().cmp(&b.s.to_bits())); }";
        assert!(run("float-bits-key", comparator).is_empty());
        // Bit-identity assertions in tests are not keys either.
        let assertion = "fn check(a: f64, b: f64) { assert_eq!(a.to_bits(), b.to_bits()); }";
        assert!(run("float-bits-key", assertion).is_empty());
    }

    #[test]
    fn undocumented_unsafe_wants_a_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        assert_eq!(run("undocumented-unsafe", bad).len(), 1);
        let good = "fn f(p: *const u8) -> u8 {\n    // SAFETY: p is valid for reads, checked by the caller.\n    unsafe { *p }\n}";
        assert!(run("undocumented-unsafe", good).is_empty());
        let doc_fn = "/// # Safety\n/// Caller must ensure AVX2.\npub unsafe fn kernel() {}";
        assert!(run("undocumented-unsafe", doc_fn).is_empty());
        let bad_fn = "pub unsafe fn kernel() {}";
        assert_eq!(run("undocumented-unsafe", bad_fn).len(), 1);
        // Type position is not an obligation.
        let type_pos = "let f: unsafe extern \"C\" fn(i32) = handler;";
        assert!(run("undocumented-unsafe", type_pos).is_empty());
        // The comment must be close (within 6 lines).
        let far = "// SAFETY: stale note\n\n\n\n\n\n\n\nfn f(p: *const u8) -> u8 { unsafe { *p } }";
        assert_eq!(run("undocumented-unsafe", far).len(), 1);
    }

    #[test]
    fn guard_held_call_tracks_scope_and_drop() {
        let bad = "fn f(&self) {\n    let mut cache = lock_recover(&self.cache);\n    self.run_sweeps(&cache);\n}";
        let found = run("guard-held-call", bad);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 3);
        // Guard dropped before the call: fine.
        let dropped = "fn f(&self) {\n    let g = lock_recover(&self.cache);\n    drop(g);\n    self.run_sweeps();\n}";
        assert!(run("guard-held-call", dropped).is_empty());
        // Guard confined to an inner block: fine.
        let scoped = "fn f(&self) {\n    {\n        let g = self.inner.lock();\n        g.insert(1);\n    }\n    self.recompute();\n}";
        assert!(run("guard-held-call", scoped).is_empty());
        // Field access and chained field paths are not method calls.
        let fields = "fn f(&self) {\n    let g = lock_recover(&self.cache);\n    let n = self.threads;\n    let p = self.prefilter.as_ref();\n}";
        assert!(run("guard-held-call", fields).is_empty());
        // A temporary (no binding) holds no guard past its statement.
        let temporary =
            "fn f(&self) {\n    lock_recover(&self.cache).insert(1);\n    self.recompute();\n}";
        assert!(run("guard-held-call", temporary).is_empty());
        // A binding that *consumes* the guard inline (method-chained lock
        // call) holds no guard either — the session's eviction-fallback
        // `let cached = … lock_recover(&cache).get_quiet(key) …` idiom.
        let consumed = "fn f(&self) {\n    let cached = lock_recover(&self.cache).get_quiet(key);\n    self.recompute(cached);\n}";
        assert!(run("guard-held-call", consumed).is_empty());
    }

    #[test]
    fn guard_held_call_survives_blocky_initializers() {
        // An initializer containing a block (`match`/`if`) must not lose
        // the binding at the inner `;`.
        let bad = "fn f(&self) {\n    let g = match self.kind {\n        K::A => lock_recover(&self.a),\n        K::B => lock_recover(&self.b),\n    };\n    self.recompute();\n}";
        assert_eq!(run("guard-held-call", bad).len(), 1);
    }

    #[test]
    fn env_literal_enforces_the_knob_list() {
        assert!(run("env-literal", "let v = std::env::var(\"GOPHER_THREADS\");").is_empty());
        // A retired knob is no longer on the list.
        assert_eq!(
            run("env-literal", "let v = std::env::var(\"GOPHER_SIMD\");").len(),
            1
        );
        let bad = "let v = std::env::var(\"GOPHER_SECRET_MODE\");";
        let found = run("env-literal", bad);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("GOPHER_SECRET_MODE"));
        // Named constants are exempt: the const site documents the knob.
        assert!(run("env-literal", "let v = std::env::var(THREADS_ENV);").is_empty());
        // Other env:: functions are fine.
        assert!(run("env-literal", "let d = std::env::temp_dir();").is_empty());
    }

    #[test]
    fn hashmap_ordered_output_flags_unsorted_sinks_only() {
        // A map iterated into a collected Vec that reaches output: flagged.
        let bad = "fn f() {\n    let m: HashMap<String, u64> = HashMap::new();\n    let keys: Vec<&String> = m.keys().collect();\n    emit(&keys);\n}";
        let found = run("hashmap-ordered-output", bad);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
        assert!(found[0].message.contains("m.keys()"));

        // Collect-then-sort is the sanctioned idiom: not flagged.
        let sorted = "fn f() {\n    let m: HashMap<String, u64> = HashMap::new();\n    let mut keys: Vec<&String> = m.keys().collect();\n    keys.sort();\n}";
        assert!(run("hashmap-ordered-output", sorted).is_empty());

        // A sort inside the same statement chain also sanctions it.
        let inline = "fn f(m: &HashMap<u64, u64>) {\n    let mut v: Vec<u64> = m.values().copied().collect(); v.sort_unstable();\n}";
        assert!(run("hashmap-ordered-output", inline).is_empty());

        // Iterating into a counter (no ordered sink): order-independent, fine.
        let counter = "fn f(m: &HashMap<u64, u64>) {\n    let mut n = 0;\n    for k in m.keys() { n += 1; }\n}";
        assert!(run("hashmap-ordered-output", counter).is_empty());

        // BTreeMap iteration is ordered by definition: fine.
        let btree = "fn f(m: &BTreeMap<u64, u64>) {\n    let v: Vec<&u64> = m.keys().collect();\n    emit(&v);\n}";
        assert!(run("hashmap-ordered-output", btree).is_empty());

        // A Vec binding iterated into output is not this rule's business.
        let vec_ok = "fn f() {\n    let v: Vec<u64> = Vec::new();\n    let out: Vec<&u64> = v.iter().collect();\n    emit(&out);\n}";
        assert!(run("hashmap-ordered-output", vec_ok).is_empty());

        // Struct fields declared as HashMap are tracked too.
        let field = "struct S { entries: HashMap<u64, u64> }\nimpl S {\n    fn dump(&self) -> String {\n        let parts: Vec<String> = entries.values().map(|v| v.to_string()).collect();\n        parts.join(\",\")\n    }\n}";
        assert_eq!(run("hashmap-ordered-output", field).len(), 1);
    }

    #[test]
    fn instant_now_scored_path_needs_a_scored_or_cached_context() {
        // Inside a fn whose name says "score": flagged.
        let in_scorer = "fn score_subset(&self, rows: &[u32]) -> f64 {\n    let t0 = Instant::now();\n    self.eval(rows)\n}";
        let found = run("instant-now-scored-path", in_scorer);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 2);
        // "responsibility" and "rank" count as scoring vocabulary too.
        let in_resp = "fn responsibility(&self) -> f64 { let t = Instant::now(); 0.0 }";
        assert_eq!(run("instant-now-scored-path", in_resp).len(), 1);
        // A timestamp written into a cache entry: flagged regardless of fn name.
        let in_insert = "fn record(&self) { self.cache.insert(key, Instant::now()); }";
        assert_eq!(run("instant-now-scored-path", in_insert).len(), 1);
        let in_or_insert = "fn record(&self) { map.entry(key).or_insert_with(|| Instant::now()); }";
        assert_eq!(run("instant-now-scored-path", in_or_insert).len(), 1);
        // Timing *around* a build pass, stored as diagnostic metadata: legal.
        let around = "fn build(&self) -> Artifact {\n    let t0 = Instant::now();\n    let a = self.sweep();\n    Artifact { build_time: t0.elapsed(), a }\n}";
        assert!(run("instant-now-scored-path", around).is_empty());
        // A query fn timing its own phases: legal.
        let query = "fn answer(&self, req: &Req) -> Resp {\n    let t_query = Instant::now();\n    self.run(req)\n}";
        assert!(run("instant-now-scored-path", query).is_empty());
        // Decoy in a comment.
        assert!(run(
            "instant-now-scored-path",
            "// fn score() { Instant::now() }\nfn build() { let t = Instant::now(); }"
        )
        .is_empty());
    }

    #[test]
    fn findings_come_back_in_source_order() {
        let src = "let b = m.lock().unwrap();\nv.sort_by(|a, c| a.partial_cmp(c).unwrap());";
        let all: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        let found = check_all(&lex(src), &all);
        assert_eq!(found.len(), 2);
        assert!(found[0].line <= found[1].line);
        assert_eq!(found[0].rule, "raw-lock");
        assert_eq!(found[1].rule, "nan-sort");
    }
}
