//! The rule engine: scopes (test code, sanctioned paths), per-file
//! identifier typing, the five determinism rules, and suppression
//! handling.
//!
//! Everything here is a *token-pattern* analysis — deliberately
//! heuristic, tuned to over-approximate (a false positive costs one
//! written justification; a false negative costs a nondeterminism
//! incident). The two historical incidents this pass exists to prevent
//! (`crates/lint/fixtures/` resurrects both) were each a single
//! hash-order iteration that survived review and two release cycles.

use crate::tokenizer::{lex, Lexed, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Rule identifiers. `SuppressionHygiene` is the engine's own meta-rule
/// (malformed/reason-less/unused `dlint::allow`); the other five are
/// the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    UnorderedIter,
    WallClock,
    AmbientEnv,
    RngHygiene,
    FloatEq,
    SuppressionHygiene,
}

impl RuleId {
    pub const ALL: [RuleId; 6] = [
        RuleId::UnorderedIter,
        RuleId::WallClock,
        RuleId::AmbientEnv,
        RuleId::RngHygiene,
        RuleId::FloatEq,
        RuleId::SuppressionHygiene,
    ];

    /// The name used in reports and in `dlint::allow(<name>, "…")`.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::UnorderedIter => "unordered-iter",
            RuleId::WallClock => "wall-clock",
            RuleId::AmbientEnv => "ambient-env",
            RuleId::RngHygiene => "rng-hygiene",
            RuleId::FloatEq => "float-eq",
            RuleId::SuppressionHygiene => "suppression-hygiene",
        }
    }

    pub fn from_name(s: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.name() == s)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub rule: RuleId,
    pub message: String,
}

/// Paths (workspace-relative prefixes) where a rule does not apply.
/// These are the *sanctioned* sites of the determinism contract — see
/// DETERMINISM.md for the rationale behind each entry.
struct Scope {
    /// Prefixes where the rule is off.
    allow_prefixes: &'static [&'static str],
    /// If non-empty, the rule applies *only* under these prefixes.
    restrict_prefixes: &'static [&'static str],
}

fn scope_of(rule: RuleId) -> Scope {
    match rule {
        // Hash containers may be *built* anywhere; iterating one is an
        // ordering decision and must happen through an ordered
        // structure everywhere outside test code.
        RuleId::UnorderedIter => Scope {
            allow_prefixes: &[],
            restrict_prefixes: &[],
        },
        // The dobs clock is the one sanctioned time source; the bench
        // crate measures wall time by design (its outputs are gated by
        // host-fingerprint-aware benchdiff, never by bit-identity).
        RuleId::WallClock => Scope {
            allow_prefixes: &["crates/obs/src/plane.rs", "crates/bench/"],
            restrict_prefixes: &[],
        },
        // Experiment knobs (E17_N, CHURN_FAMILY, …) are read in the
        // bench crate only; everything else must take configuration as
        // explicit arguments.
        RuleId::AmbientEnv => Scope {
            allow_prefixes: &["crates/bench/"],
            restrict_prefixes: &[],
        },
        // The two RNG registry modules own raw construction: simnet's
        // SplitMix64 itself and the graph generators' scrambled
        // wrapper. Everyone else derives streams via
        // `SplitMix64::for_node(seed, streams::…)`.
        RuleId::RngHygiene => Scope {
            allow_prefixes: &["crates/simnet/src/rng.rs", "crates/graph/src/rng.rs"],
            restrict_prefixes: &[],
        },
        // Exact float comparison is flagged in the determinism-gated
        // crates (where a `==` on an accumulated weight is usually a
        // latent tolerance bug). The fixtures dir opts in so the corpus
        // can exercise the rule.
        RuleId::FloatEq => Scope {
            allow_prefixes: &[],
            restrict_prefixes: &[
                "crates/core/",
                "crates/simnet/",
                "crates/dynamic/",
                "crates/graph/",
                "crates/switch/",
                "src/",
                "examples/",
                "crates/lint/fixtures/",
            ],
        },
        RuleId::SuppressionHygiene => Scope {
            allow_prefixes: &[],
            restrict_prefixes: &[],
        },
    }
}

/// True when `rule` applies to the file at workspace-relative `path`.
fn rule_applies(rule: RuleId, path: &str) -> bool {
    let s = scope_of(rule);
    if s.allow_prefixes.iter().any(|p| path.starts_with(p)) {
        return false;
    }
    if !s.restrict_prefixes.is_empty() && !s.restrict_prefixes.iter().any(|p| path.starts_with(p)) {
        return false;
    }
    true
}

/// True when the whole file is test/bench code by location: anything
/// under a `tests/` or `benches/` directory.
fn path_is_test_code(path: &str) -> bool {
    path.split('/')
        .any(|seg| seg == "tests" || seg == "benches")
}

/// A parsed `dlint::allow(rule, "reason")` comment.
#[derive(Debug)]
struct Allow {
    rule: RuleId,
    /// Line the suppression targets (its own line if it shares it with
    /// code, otherwise the next line that has code).
    target: u32,
    /// Where the comment itself sits (for hygiene reports).
    at: u32,
    used: std::cell::Cell<bool>,
}

/// Identifier classification gathered from declarations in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IdKind {
    Hash,
    Float,
}

pub struct Analysis {
    pub findings: Vec<Finding>,
    pub suppressed: usize,
}

/// Analyze one file's source. `path` must be workspace-relative with
/// forward slashes — scoping (sanctioned paths, `tests/` detection) is
/// driven by it.
pub fn analyze_source(path: &str, src: &str) -> Analysis {
    let lx = lex(src);
    let file_is_test = path_is_test_code(path);
    let test_lines = if file_is_test {
        TestLines::All
    } else {
        TestLines::Set(cfg_test_lines(&lx))
    };

    let allows = collect_allows(&lx);
    let idents = classify_idents(&lx.toks);

    let mut raw: Vec<Finding> = Vec::new();
    for rule in [
        RuleId::UnorderedIter,
        RuleId::WallClock,
        RuleId::AmbientEnv,
        RuleId::RngHygiene,
        RuleId::FloatEq,
    ] {
        if !rule_applies(rule, path) {
            continue;
        }
        let hits = match rule {
            RuleId::UnorderedIter => check_unordered_iter(&lx.toks, &idents),
            RuleId::WallClock => check_wall_clock(&lx.toks),
            RuleId::AmbientEnv => check_ambient_env(&lx.toks),
            RuleId::RngHygiene => check_rng_hygiene(&lx.toks),
            RuleId::FloatEq => check_float_eq(&lx.toks, &idents),
            RuleId::SuppressionHygiene => unreachable!(),
        };
        for (tok_line, tok_col, msg) in hits {
            if test_lines.contains(tok_line) {
                continue;
            }
            raw.push(Finding {
                file: path.to_string(),
                line: tok_line,
                col: tok_col,
                rule,
                message: msg,
            });
        }
    }

    // Apply suppressions.
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for f in raw {
        let hit = allows
            .iter()
            .find(|a| matches!(a, Ok(a) if a.rule == f.rule && a.target == f.line));
        match hit {
            Some(Ok(a)) => {
                a.used.set(true);
                suppressed += 1;
            }
            _ => findings.push(f),
        }
    }

    // Suppression hygiene: malformed allows, and allows that suppress
    // nothing (stale after a fix — delete them so the contract stays
    // readable).
    for a in &allows {
        match a {
            Err((line, msg)) => findings.push(Finding {
                file: path.to_string(),
                line: *line,
                col: 1,
                rule: RuleId::SuppressionHygiene,
                message: msg.clone(),
            }),
            Ok(a) if !a.used.get() && !test_lines.contains(a.target) => {
                findings.push(Finding {
                    file: path.to_string(),
                    line: a.at,
                    col: 1,
                    rule: RuleId::SuppressionHygiene,
                    message: format!(
                        "unused suppression: no `{}` finding on line {} — delete the stale allow",
                        a.rule, a.target
                    ),
                });
            }
            _ => {}
        }
    }

    findings.sort();
    Analysis {
        findings,
        suppressed,
    }
}

// ---------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------

enum TestLines {
    All,
    Set(BTreeSet<u32>),
}

impl TestLines {
    fn contains(&self, line: u32) -> bool {
        match self {
            TestLines::All => true,
            TestLines::Set(s) => s.contains(&line),
        }
    }
}

/// Lines covered by `#[test]` / `#[cfg(test)]`-guarded items. The item
/// following the attribute extends to its matching close brace (or the
/// terminating `;` for brace-less items).
fn cfg_test_lines(lx: &Lexed) -> BTreeSet<u32> {
    let toks = &lx.toks;
    let mut lines = BTreeSet::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct("#") || i + 1 >= toks.len() || !toks[i + 1].is_punct("[") {
            i += 1;
            continue;
        }
        // Scan the attribute to its matching `]`.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut saw_test = false;
        let mut saw_not = false;
        while j < toks.len() && depth > 0 {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                "test" if toks[j].kind == TokKind::Ident => saw_test = true,
                "not" if toks[j].kind == TokKind::Ident => saw_not = true,
                _ => {}
            }
            j += 1;
        }
        if !saw_test || saw_not {
            i = j;
            continue;
        }
        let attr_start_line = toks[i].line;
        // Skip any further attributes on the item.
        while j + 1 < toks.len() && toks[j].is_punct("#") && toks[j + 1].is_punct("[") {
            let mut d = 1usize;
            let mut k = j + 2;
            while k < toks.len() && d > 0 {
                match toks[k].text.as_str() {
                    "[" => d += 1,
                    "]" => d -= 1,
                    _ => {}
                }
                k += 1;
            }
            j = k;
        }
        // The guarded item: up to a `;` at depth 0 or the matching `}`
        // of its first `{`.
        let mut end = j;
        let mut bdepth = 0usize;
        while end < toks.len() {
            match toks[end].text.as_str() {
                "{" => bdepth += 1,
                "}" => {
                    bdepth = bdepth.saturating_sub(1);
                    if bdepth == 0 {
                        break;
                    }
                }
                ";" if bdepth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        let end_line = toks.get(end).map_or(u32::MAX, |t| t.line);
        for l in attr_start_line..=end_line {
            lines.insert(l);
        }
        i = end + 1;
    }
    lines
}

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

/// Parse `dlint::allow(rule, "reason")` comments. `Err` carries a
/// hygiene message for malformed ones.
/// A comment is a directive only when its body *starts with*
/// `dlint::allow` and it is not a doc comment — prose that merely
/// mentions the syntax (like this sentence) is ignored.
fn allow_directive(text: &str) -> Option<&str> {
    let body = if let Some(b) = text.strip_prefix("//") {
        if b.starts_with('/') || b.starts_with('!') {
            return None;
        }
        b
    } else if let Some(b) = text.strip_prefix("/*") {
        if b.starts_with('*') || b.starts_with('!') {
            return None;
        }
        b
    } else {
        text
    };
    body.trim_start().strip_prefix("dlint::allow")
}

fn collect_allows(lx: &Lexed) -> Vec<Result<Allow, (u32, String)>> {
    let mut out = Vec::new();
    for c in &lx.comments {
        let Some(rest) = allow_directive(&c.text) else {
            continue;
        };
        let parsed = parse_allow_args(rest);
        match parsed {
            Ok((rule_name, reason)) => {
                let Some(rule) = RuleId::from_name(&rule_name) else {
                    out.push(Err((
                        c.line,
                        format!("unknown rule `{rule_name}` in dlint::allow"),
                    )));
                    continue;
                };
                if reason.trim().is_empty() {
                    out.push(Err((
                        c.line,
                        format!(
                            "dlint::allow({rule_name}) has no reason — every suppression must \
                             say *why* the site is sound"
                        ),
                    )));
                    continue;
                }
                // Target: the comment's own line if it shares it with
                // code, else the next line carrying code.
                let target = if lx.line_has_code(c.line) {
                    c.line
                } else {
                    (c.line + 1..c.line + 16)
                        .find(|&l| lx.line_has_code(l))
                        .unwrap_or(c.line + 1)
                };
                out.push(Ok(Allow {
                    rule,
                    target,
                    at: c.line,
                    used: std::cell::Cell::new(false),
                }));
            }
            Err(msg) => out.push(Err((c.line, format!("malformed dlint::allow: {msg}")))),
        }
    }
    out
}

/// Parse `(rule-name, "reason")` after the `dlint::allow` marker.
fn parse_allow_args(rest: &str) -> Result<(String, String), String> {
    let rest = rest.trim_start();
    let Some(inner) = rest.strip_prefix('(') else {
        return Err("expected `(` after dlint::allow".into());
    };
    let Some(close) = inner.rfind(')') else {
        return Err("missing closing `)`".into());
    };
    let inner = &inner[..close];
    let Some(comma) = inner.find(',') else {
        return Err("expected `dlint::allow(rule, \"reason\")`".into());
    };
    let rule = inner[..comma].trim().to_string();
    let reason_part = inner[comma + 1..].trim();
    let reason = reason_part
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| "reason must be a double-quoted string".to_string())?;
    if rule.is_empty() {
        return Err("empty rule name".into());
    }
    Ok((rule, reason.to_string()))
}

// ---------------------------------------------------------------------
// Identifier classification
// ---------------------------------------------------------------------

/// Map identifier → kind from declarations: type ascriptions
/// (`x: HashSet<…>`, fn params, struct fields) and inferred
/// constructions (`let x = HashMap::new()`).
fn classify_idents(toks: &[Tok]) -> BTreeMap<String, IdKind> {
    let mut map = BTreeMap::new();
    let hashy = |t: &Tok| t.is_ident("HashSet") || t.is_ident("HashMap");
    let floaty = |t: &Tok| t.is_ident("f32") || t.is_ident("f64");
    for i in 0..toks.len() {
        // `name : …Type…` — scan the ascription until a stop token at
        // angle-depth 0.
        if toks[i].kind == TokKind::Ident && i + 1 < toks.len() && toks[i + 1].is_punct(":") {
            let mut depth = 0i32;
            let mut j = i + 2;
            while j < toks.len() {
                let t = &toks[j];
                match t.text.as_str() {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    "(" | "[" => depth += 1,
                    ")" | "]" => {
                        depth -= 1;
                        if depth < 0 {
                            break;
                        }
                    }
                    "=" | ";" | "{" | "}" => break,
                    "," if depth <= 0 => break,
                    _ => {}
                }
                if hashy(t) {
                    map.insert(toks[i].text.clone(), IdKind::Hash);
                    break;
                }
                if floaty(t) {
                    map.insert(toks[i].text.clone(), IdKind::Float);
                    break;
                }
                j += 1;
            }
        }
        // `let [mut] name = <path>…` with HashSet/HashMap in the
        // constructor path before the first `(`.
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            if j + 1 < toks.len() && toks[j].kind == TokKind::Ident && toks[j + 1].is_punct("=") {
                let name = &toks[j].text;
                let mut k = j + 2;
                while k < toks.len() {
                    let t = &toks[k];
                    if t.is_punct("(") || t.is_punct(";") {
                        break;
                    }
                    if hashy(t) {
                        map.insert(name.clone(), IdKind::Hash);
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
    map
}

// ---------------------------------------------------------------------
// Receiver-chain resolution
// ---------------------------------------------------------------------

/// Given the index of a `.` token, walk the postfix chain backwards and
/// report whether its root (or any path segment in it) is a hash
/// container: `added.iter()`, `self.view.keys()`,
/// `HashSet::from([…]).into_iter()`.
fn chain_is_hash(toks: &[Tok], dot: usize, idents: &BTreeMap<String, IdKind>) -> bool {
    let mut j = dot as isize - 1;
    loop {
        if j < 0 {
            return false;
        }
        let t = &toks[j as usize];
        match t.kind {
            TokKind::Ident => {
                if t.is_ident("HashSet") || t.is_ident("HashMap") {
                    return true;
                }
                if idents.get(&t.text) == Some(&IdKind::Hash) {
                    return true;
                }
                // Continue leftwards only through `.`/`::` chains.
                if j >= 1 {
                    let prev = &toks[j as usize - 1];
                    if prev.is_punct(".") || prev.is_punct("::") {
                        j -= 2;
                        continue;
                    }
                }
                return false;
            }
            TokKind::Punct if t.text == ")" || t.text == "]" => {
                // Skip the bracketed group.
                let open = if t.text == ")" { "(" } else { "[" };
                let close = &t.text;
                let mut depth = 1i32;
                j -= 1;
                while j >= 0 && depth > 0 {
                    let u = &toks[j as usize];
                    if u.text == *close {
                        depth += 1;
                    } else if u.text == open {
                        depth -= 1;
                    }
                    j -= 1;
                }
            }
            TokKind::Punct if t.text == "." || t.text == "::" => j -= 1,
            _ => return false,
        }
    }
}

// ---------------------------------------------------------------------
// The rules (each returns (line, col, message))
// ---------------------------------------------------------------------

type Hit = (u32, u32, String);

const ITER_METHODS: [&str; 14] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
];

fn check_unordered_iter(toks: &[Tok], idents: &BTreeMap<String, IdKind>) -> Vec<Hit> {
    let mut hits = Vec::new();
    // Method-style iteration: `recv.iter()` etc.
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i].text.as_str())
            && i >= 1
            && toks[i - 1].is_punct(".")
            && i + 1 < toks.len()
            && toks[i + 1].is_punct("(")
            && chain_is_hash(toks, i - 1, idents)
        {
            hits.push((
                toks[i].line,
                toks[i].col,
                format!(
                    ".{}() on a HashSet/HashMap: iteration order depends on per-instance \
                     hash state, not the seed — use BTreeSet/BTreeMap, sort first, or \
                     justify why order cannot escape",
                    toks[i].text
                ),
            ));
        }
    }
    // Sink-style draining: `target.extend(<hash place>)` hands the
    // container's arbitrary order straight to an order-sensitive
    // collection (the PR 2 departure-FIFO incident was exactly this
    // shape).
    for i in 0..toks.len() {
        if toks[i].is_ident("extend")
            && i >= 1
            && toks[i - 1].is_punct(".")
            && i + 1 < toks.len()
            && toks[i + 1].is_punct("(")
        {
            // The argument list, up to the matching `)`.
            let mut depth = 1i32;
            let mut j = i + 2;
            let mut arg: Vec<usize> = Vec::new();
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    _ => {}
                }
                if depth > 0 {
                    arg.push(j);
                }
                j += 1;
            }
            // Flag only the plain-place form `extend(&set)` /
            // `extend(set)`: anything with calls inside was either
            // caught at its `.iter()` or produces its own order.
            let simple = !arg.is_empty()
                && arg.iter().all(|&k| {
                    toks[k].kind == TokKind::Ident || toks[k].is_punct("&") || toks[k].is_punct(".")
                });
            if simple
                && arg
                    .iter()
                    .any(|&k| idents.get(&toks[k].text) == Some(&IdKind::Hash))
            {
                hits.push((
                    toks[i].line,
                    toks[i].col,
                    "extend from a HashSet/HashMap into an order-sensitive collection: \
                     the receiver inherits per-instance hash order — sort first or use an \
                     ordered source"
                        .to_string(),
                ));
            }
        }
    }
    // `for pat in <expr> {` where <expr> ends in a hash-typed place.
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("for") {
            i += 1;
            continue;
        }
        // Find the `in` of this `for` (patterns cannot contain `in`).
        let Some(in_pos) = toks[i + 1..].iter().position(|t| t.is_ident("in")) else {
            break;
        };
        let in_pos = i + 1 + in_pos;
        // Expression runs to the body `{` at depth 0.
        let mut depth = 0i32;
        let mut j = in_pos + 1;
        let mut expr_end = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    expr_end = Some(j);
                    break;
                }
                "{" => depth += 1,
                "}" => depth -= 1,
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(body) = expr_end else {
            i = in_pos + 1;
            continue;
        };
        // Root of the iterated expression: its *last* token when that
        // is a plain identifier (method-call endings were caught above).
        let last = &toks[body - 1];
        if last.kind == TokKind::Ident && idents.get(&last.text) == Some(&IdKind::Hash) {
            hits.push((
                last.line,
                last.col,
                format!(
                    "`for … in {}` iterates a HashSet/HashMap: order depends on per-instance \
                     hash state, not the seed — use BTreeSet/BTreeMap, sort first, or justify \
                     why order cannot escape",
                    last.text
                ),
            ));
        }
        i = body + 1;
    }
    hits
}

fn check_wall_clock(toks: &[Tok]) -> Vec<Hit> {
    let mut hits = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("Instant")
            && i + 2 < toks.len()
            && toks[i + 1].is_punct("::")
            && toks[i + 2].is_ident("now")
        {
            hits.push((
                toks[i].line,
                toks[i].col,
                "Instant::now outside the dobs clock / bench crate: wall time must never \
                 steer a determinism-gated computation"
                    .to_string(),
            ));
        }
        if toks[i].is_ident("SystemTime") {
            hits.push((
                toks[i].line,
                toks[i].col,
                "SystemTime outside the dobs clock / bench crate: wall time must never \
                 steer a determinism-gated computation"
                    .to_string(),
            ));
        }
    }
    hits
}

fn check_ambient_env(toks: &[Tok]) -> Vec<Hit> {
    let mut hits = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("env")
            && i + 2 < toks.len()
            && toks[i + 1].is_punct("::")
            && (toks[i + 2].is_ident("var")
                || toks[i + 2].is_ident("var_os")
                || toks[i + 2].is_ident("vars"))
        {
            hits.push((
                toks[i].line,
                toks[i].col,
                "std::env read outside the sanctioned knob modules: ambient configuration \
                 makes runs irreproducible from (seed, args) alone"
                    .to_string(),
            ));
        }
        if toks[i].is_ident("available_parallelism") && toks[i].kind == TokKind::Ident {
            hits.push((
                toks[i].line,
                toks[i].col,
                "available_parallelism outside the sanctioned knob modules / fan-out cap: \
                 host shape must not steer a determinism-gated computation"
                    .to_string(),
            ));
        }
    }
    hits
}

fn check_rng_hygiene(toks: &[Tok]) -> Vec<Hit> {
    let mut hits = Vec::new();
    for i in 0..toks.len() {
        // Raw construction: SplitMix64::new(…) — all node/stream
        // derivation must go through for_node (the scrambler jump; see
        // the PR 2 stream-correlation incident in simnet::rng docs).
        if toks[i].is_ident("SplitMix64")
            && i + 2 < toks.len()
            && toks[i + 1].is_punct("::")
            && toks[i + 2].is_ident("new")
        {
            hits.push((
                toks[i].line,
                toks[i].col,
                "raw SplitMix64::new outside the RNG registry: adjacent ad-hoc seeds walk \
                 the same +γ orbit (the PR 2 stream-correlation bug) — derive streams with \
                 SplitMix64::for_node and a simnet::streams id"
                    .to_string(),
            ));
        }
        // Ad-hoc stream ids: for_node(seed, <numeric literal>) — the
        // second argument must be a named constant from the
        // simnet::streams registry so ids are provably collision-free.
        if toks[i].is_ident("for_node") && i + 1 < toks.len() && toks[i + 1].is_punct("(") {
            let mut depth = 1i32;
            let mut j = i + 2;
            let mut args: Vec<Vec<usize>> = vec![Vec::new()];
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "," if depth == 1 => {
                        args.push(Vec::new());
                        j += 1;
                        continue;
                    }
                    _ => {}
                }
                if depth > 0 {
                    args.last_mut().expect("non-empty").push(j);
                }
                j += 1;
            }
            if let Some(second) = args.get(1) {
                let has_ident = second.iter().any(|&k| toks[k].kind == TokKind::Ident);
                let has_num = second.iter().any(|&k| toks[k].kind == TokKind::Num);
                if has_num && !has_ident {
                    let k = second[0];
                    hits.push((
                        toks[k].line,
                        toks[k].col,
                        "literal stream id in SplitMix64::for_node: use a named constant \
                         from the simnet::streams registry so reserved ids stay \
                         collision-free"
                            .to_string(),
                    ));
                }
            }
        }
    }
    hits
}

fn check_float_eq(toks: &[Tok], idents: &BTreeMap<String, IdKind>) -> Vec<Hit> {
    let mut hits = Vec::new();
    let floatish = |t: &Tok| {
        t.is_float_literal()
            || (t.kind == TokKind::Ident && idents.get(&t.text) == Some(&IdKind::Float))
    };
    for i in 0..toks.len() {
        if !(toks[i].is_punct("==") || toks[i].is_punct("!=")) {
            continue;
        }
        let prev = if i >= 1 { Some(&toks[i - 1]) } else { None };
        let next = toks.get(i + 1);
        if prev.is_some_and(floatish) || next.is_some_and(floatish) {
            hits.push((
                toks[i].line,
                toks[i].col,
                format!(
                    "`{}` on f32/f64 in a determinism-gated crate: exact float comparison \
                     is either a tolerance bug or needs a written justification",
                    toks[i].text
                ),
            ));
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        analyze_source(path, src).findings
    }

    #[test]
    fn flags_hashset_iteration() {
        let src = "fn f() { let mut s: HashSet<u32> = HashSet::new(); for x in &s { use_(x); } }";
        let f = run("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::UnorderedIter);
    }

    #[test]
    fn flags_inferred_hashmap_drain() {
        let src = "fn f() { let mut m = std::collections::HashMap::new(); m.insert(1, 2); \
                   for (k, v) in m.drain() { use_(k, v); } }";
        let f = run("crates/x/src/a.rs", src);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn membership_is_clean() {
        let src = "fn f(s: &HashSet<u32>) -> bool { s.contains(&3) && s.len() > 1 }";
        assert!(run("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn btree_is_clean() {
        let src = "fn f() { let s: BTreeSet<u32> = BTreeSet::new(); for x in &s { use_(x); } }";
        assert!(run("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_mod_is_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { let s: HashSet<u32> = HashSet::new(); \
                   for x in &s { use_(x); } }\n}";
        assert!(run("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_skipped() {
        let src = "#[cfg(not(test))]\nmod real {\n fn f() { let s: HashSet<u32> = HashSet::new(); \
                   for x in s.iter() { use_(x); } }\n}";
        assert_eq!(run("crates/x/src/a.rs", src).len(), 1);
    }

    #[test]
    fn tests_dir_is_skipped() {
        let src = "fn f() { let s: HashSet<u32> = HashSet::new(); for x in &s { use_(x); } }";
        assert!(run("crates/x/tests/a.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_and_scopes() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(run("crates/core/src/a.rs", src).len(), 1);
        assert!(run("crates/bench/src/a.rs", src).is_empty());
        assert!(run("crates/obs/src/plane.rs", src).is_empty());
    }

    #[test]
    fn rng_hygiene_literal_stream_id() {
        let ok = "fn f(seed: u64) { let r = SplitMix64::for_node(seed, streams::CHURN); }";
        let bad = "fn f(seed: u64) { let r = SplitMix64::for_node(seed, 0xC4A7); }";
        let raw = "fn f(seed: u64) { let r = SplitMix64::new(seed ^ 17); }";
        assert!(run("crates/x/src/a.rs", ok).is_empty());
        assert_eq!(run("crates/x/src/a.rs", bad).len(), 1);
        assert_eq!(run("crates/x/src/a.rs", raw).len(), 1);
        // The registry itself may construct raw generators.
        assert!(run("crates/simnet/src/rng.rs", raw).is_empty());
    }

    #[test]
    fn float_eq_literal_and_typed() {
        let lit = "fn f(w: f64) -> bool { w == 1.0 }";
        let typed = "fn g(a: f64, b: u32) -> bool { a != a && b == 3 }";
        assert_eq!(run("crates/core/src/a.rs", lit).len(), 1);
        assert_eq!(run("crates/core/src/a.rs", typed).len(), 1);
        // Out of the determinism-gated scope: not flagged.
        assert!(run("crates/obs/src/a.rs", lit).is_empty());
    }

    #[test]
    fn suppression_with_reason() {
        let src =
            "fn f() {\n    // dlint::allow(wall-clock, \"probe only feeds a log line\")\n    \
                   let t = Instant::now();\n}";
        let a = analyze_source("crates/core/src/a.rs", src);
        assert!(a.findings.is_empty());
        assert_eq!(a.suppressed, 1);
    }

    #[test]
    fn suppression_same_line() {
        let src = "fn f() { let t = Instant::now(); } // dlint::allow(wall-clock, \"trace-only\")";
        assert!(run("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn reasonless_suppression_is_a_finding() {
        let src = "// dlint::allow(wall-clock, \"\")\nfn f() { let t = Instant::now(); }";
        let f = run("crates/core/src/a.rs", src);
        assert!(f.iter().any(|x| x.rule == RuleId::SuppressionHygiene));
        assert!(f.iter().any(|x| x.rule == RuleId::WallClock));
    }

    #[test]
    fn unused_suppression_is_a_finding() {
        let src = "// dlint::allow(wall-clock, \"stale\")\nfn f() { let x = 3; }";
        let f = run("crates/core/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::SuppressionHygiene);
    }

    #[test]
    fn unknown_rule_in_suppression() {
        let src = "// dlint::allow(no-such-rule, \"x\")\nfn f() {}";
        let f = run("crates/core/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::SuppressionHygiene);
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let src = r#"fn f() { let s = "Instant::now() HashSet env::var"; /* SystemTime */ }"#;
        assert!(run("crates/core/src/a.rs", src).is_empty());
    }
}
