//! Intra-workspace call/def graph and the transitive hot-path panic
//! analysis built on it.
//!
//! PR 4's `hot-path-panic` / `hot-path-index` lints are per-file: a
//! hot-path function calling into a panicking helper that lives in a
//! *non*-hot-path file slipped through. This pass closes that hole by
//! name-resolution over the item graph ([`crate::parse`]):
//!
//! 1. every workspace function gets a node; a node is a **panic
//!    source** when its body contains a panic-family token
//!    (`unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
//!    `unimplemented!`) or a panicking index expression, *and* the
//!    node's own file is outside the hot-path scope (inside it, the
//!    per-file rules already flag the site directly);
//! 2. call edges are resolved conservatively: free calls and
//!    `Type::method` calls resolve by name (qualified by impl type
//!    when one matches); `.method()` calls resolve only when exactly
//!    one workspace definition carries that name — ambiguous names
//!    need real type resolution and are skipped rather than guessed;
//! 3. "may reach a panic" propagates backwards to a fixpoint, and
//!    every call site **inside hot-path scope** whose callee may reach
//!    a panic source is reported as `hot-path-transitive`, with the
//!    offending path spelled out in the message.
//!
//! A justified exception is annotated at the *panic source* with
//! `allow(hot-path-transitive)` (the helper proves its own bounds) or
//! at the call site (the caller proves the input domain). Source-site
//! allows are **function-granular**: a node is anchored by the first
//! panic site in its body, and allowing that site vouches for the
//! whole function — the annotation must therefore argue for every
//! panic in the body, not just the line it sits on.

use crate::lexer::{panic_token, PanicToken, Tok, TokKind, KEYWORDS};
use crate::parse::ParsedFile;
use std::collections::BTreeMap;

/// One analyzed file, as the graph needs it.
pub struct GraphFile<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// Whether the file is in hot-path lint scope.
    pub hot: bool,
    /// Comment-free token stream.
    pub code: &'a [&'a Tok],
    /// Parsed items.
    pub parsed: &'a ParsedFile,
    /// Returns true when the line is test code (exempt).
    pub is_test_line: &'a dyn Fn(u32) -> bool,
    /// Lines carrying an `allow(hot-path-transitive)` suppression for
    /// a panic *source* (the call-site allows go through the normal
    /// per-file allow machinery). Each use is reported back via
    /// [`TransitiveReport::used_source_allows`].
    pub source_allow_lines: Vec<u32>,
}

// `is_test_line` is a bare `&dyn Fn`, so Debug cannot be derived.
impl std::fmt::Debug for GraphFile<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphFile")
            .field("rel", &self.rel)
            .field("hot", &self.hot)
            .field("tokens", &self.code.len())
            .field("source_allow_lines", &self.source_allow_lines)
            .finish_non_exhaustive()
    }
}

/// A `hot-path-transitive` finding plus the bookkeeping the caller
/// needs to keep the allow meta-rules honest.
#[derive(Debug)]
pub struct TransitiveReport {
    /// (file index, line, message) per finding.
    pub findings: Vec<(usize, u32, String)>,
    /// (file index, allow line) pairs whose source-site allow
    /// suppressed at least one panic source.
    pub used_source_allows: Vec<(usize, u32)>,
}

#[derive(Debug, Clone)]
struct CallSite {
    /// Callee name (final path segment).
    name: String,
    /// Qualifier (`Type` in `Type::name(…)`), when present.
    qualifier: Option<String>,
    /// True for `.name(…)` method-call syntax.
    method: bool,
    /// Source line of the call.
    line: u32,
}

struct Node {
    name: String,
    impl_type: Option<String>,
    file: usize,
    /// Line + token of the first direct panic in the body, when any.
    direct_panic: Option<(u32, String)>,
    calls: Vec<CallSite>,
}

/// Run the transitive analysis over every parsed file.
pub fn check_transitive(files: &[GraphFile<'_>]) -> TransitiveReport {
    let mut nodes: Vec<Node> = Vec::new();
    let mut used_source_allows: Vec<(usize, u32)> = Vec::new();

    for (fi, file) in files.iter().enumerate() {
        for f in &file.parsed.fns {
            if (file.is_test_line)(f.line) {
                continue;
            }
            let body = &file.code[f.body.0..f.body.1];
            let mut direct_panic = direct_panic_in(body, file.is_test_line);
            // Panic sources inside hot scope are the per-file rules'
            // job; do not double-report them through callers.
            if file.hot {
                direct_panic = None;
            } else if let Some((line, _)) = direct_panic {
                let covered = file
                    .source_allow_lines
                    .iter()
                    .find(|&&al| line == al || line == al + 1);
                if let Some(&al) = covered {
                    used_source_allows.push((fi, al));
                    direct_panic = None;
                }
            }
            nodes.push(Node {
                name: f.name.clone(),
                impl_type: f.impl_type.clone(),
                file: fi,
                direct_panic,
                calls: collect_calls(body, file.is_test_line),
            });
        }
    }

    // Name → node ids, for resolution.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_name.entry(n.name.as_str()).or_default().push(i);
    }

    let resolve = |site: &CallSite| -> Option<usize> {
        let cands = by_name.get(site.name.as_str())?;
        if let Some(q) = &site.qualifier {
            // `Type::name` — prefer the definition inside `impl Type`.
            let scoped: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| nodes[i].impl_type.as_deref() == Some(q.as_str()))
                .collect();
            if scoped.len() == 1 {
                return Some(scoped[0]);
            }
            if !scoped.is_empty() {
                return None; // same method on the same type twice: odd, skip
            }
            // Fall through: the qualifier was a module path.
        }
        // Method-call syntax can only dispatch to an impl's method, and
        // a bare `name(…)` call can only reach a free function — a
        // same-named item of the other kind (std prelude methods like
        // `.collect()` vs a free `collect` here) is never the callee.
        let shaped: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| nodes[i].impl_type.is_some() == site.method)
            .collect();
        (shaped.len() == 1).then(|| shaped[0])
    };

    // Edges + backwards fixpoint of "may reach a panic source".
    let edges: Vec<Vec<(usize, u32)>> = nodes
        .iter()
        .map(|n| {
            n.calls
                .iter()
                .filter_map(|c| resolve(c).map(|t| (t, c.line)))
                .collect()
        })
        .collect();
    // reaches[i] = Some(next hop on a path to a panic source).
    let mut reaches: Vec<Option<usize>> = nodes
        .iter()
        .map(|n| n.direct_panic.as_ref().map(|_| usize::MAX))
        .collect();
    loop {
        let mut changed = false;
        for i in 0..nodes.len() {
            if reaches[i].is_some() {
                continue;
            }
            if let Some(&(t, _)) = edges[i].iter().find(|&&(t, _)| reaches[t].is_some()) {
                reaches[i] = Some(t);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Findings: call sites in hot files whose callee may reach a panic.
    let mut findings = Vec::new();
    for n in &nodes {
        if !files[n.file].hot {
            continue;
        }
        for c in &n.calls {
            let Some(target) = resolve(c) else { continue };
            if reaches[target].is_none() {
                continue;
            }
            // Spell out one path target → … → panic site.
            let mut path = Vec::new();
            let mut cur = target;
            let site = loop {
                path.push(describe(&nodes[cur], files));
                match reaches[cur] {
                    Some(usize::MAX) | None => {
                        break nodes[cur].direct_panic.clone().unwrap_or((0, "?".into()));
                    }
                    Some(next) => cur = next,
                }
            };
            let msg = format!(
                "call into {} can panic: {} at {}:{} ({}); make the helper fallible or prove the domain",
                path.join(" -> "),
                site.1,
                files[nodes[cur].file].rel,
                site.0,
                if files[nodes[cur].file].hot {
                    "hot scope"
                } else {
                    "outside hot-path lint scope"
                }
            );
            findings.push((n.file, c.line, msg));
        }
    }
    findings.sort_by_key(|&(f, l, _)| (f, l));
    TransitiveReport {
        findings,
        used_source_allows,
    }
}

fn describe(n: &Node, files: &[GraphFile<'_>]) -> String {
    match &n.impl_type {
        Some(t) => format!("{}::{} ({})", t, n.name, files[n.file].rel),
        None => format!("{} ({})", n.name, files[n.file].rel),
    }
}

/// First direct panic-family token or panicking index in `body`,
/// skipping test lines (a fn body can embed `#[cfg(test)]` items only
/// at module level, but closures inside `#[test]` spans do occur).
fn direct_panic_in(body: &[&Tok], is_test_line: &dyn Fn(u32) -> bool) -> Option<(u32, String)> {
    for (i, t) in body.iter().enumerate() {
        if is_test_line(t.line) {
            continue;
        }
        let token = match panic_token(body, i) {
            Some(PanicToken::Method) => format!(".{}()", t.text),
            Some(PanicToken::Macro) => format!("{}!", t.text),
            Some(PanicToken::Index) => format!("{}[…]", body[i - 1].text),
            None => continue,
        };
        return Some((t.line, token));
    }
    None
}

/// Collect the call sites in a body: `name(`, `Type::name(`, `.name(`.
fn collect_calls(body: &[&Tok], is_test_line: &dyn Fn(u32) -> bool) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in 0..body.len() {
        let t = body[i];
        if t.kind != TokKind::Ident || is_test_line(t.line) || KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        if body.get(i + 1).is_none_or(|n| n.text != "(") {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| body[p]);
        // `name!(…)` macro? The `!` sits between name and `(` so this
        // shape never matches; `fn name(` is a definition, not a call.
        if prev.is_some_and(|p| p.text == "fn") {
            continue;
        }
        let method = prev.is_some_and(|p| p.text == ".");
        let qualifier = (!method)
            .then(|| {
                (i >= 2 && body[i - 1].text == "::" && body[i - 2].kind == TokKind::Ident)
                    .then(|| body[i - 2].text.clone())
            })
            .flatten();
        out.push(CallSite {
            name: t.text.clone(),
            qualifier,
            method,
            line: t.line,
        });
    }
    out
}
