//! The invariant lint rules and the framework that runs them.
//!
//! Each rule scans the comment-free token stream of one file and
//! reports findings. Rules are deliberately *lexical*: they know
//! nothing about types or name resolution, so each one is scoped to
//! the crates where its invariant is load-bearing and backed by an
//! allow-annotation escape hatch ([`crate::allow`]) for the rare
//! justified exception. Test code (files under `tests/`, `examples/`,
//! `benches/`, and `#[cfg(test)]` / `#[test]` item spans) is exempt
//! from every rule except the allow meta-rules: tests *should* panic
//! on broken invariants and compare floats exactly.
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `hot-path-panic` | core, control, soc, obs, fleet + pinned files | no `unwrap`/`expect`/`panic!`-family in the 2 s control loop |
//! | `hot-path-index` | core, control, soc, obs, fleet + pinned files | no `x[i]` indexing that can panic; use `.get()` |
//! | `nondeterminism` | all but bench/experiments/analyze and the harness boundary | no wall clocks, OS entropy, or randomized-hash collections |
//! | `float-eq` | all | no `==`/`!=` against float literals |
//! | `obs-gating` | core, control | obs emission only behind `has_obs_sink` |
//! | `error-taxonomy` | all | `SocErrorKind` / `SnapshotError` values come from their taxonomies, not ad-hoc construction |
//! | `codec-symmetry` | all | every persist writer/reader pair encodes and decodes the same wire layout ([`crate::codec`]) |
//! | `unit-mismatch` | all | no cross-unit arithmetic/comparison under the `_ms`/`_ticks`/`_j` suffix convention ([`crate::units`]) |
//! | `hot-path-transitive` | workspace runs | hot-path code must not *call into* panicking helpers anywhere in the workspace ([`crate::graph`]) |
//!
//! The first six rules are token-level and run per file through
//! [`check_file`]. The three semantic rules need the item parser; the
//! codec and units passes are still per-file, while
//! `hot-path-transitive` is inherently cross-file and only runs in
//! [`check_workspace`] — its allows are therefore only policed for
//! staleness there.

use crate::lexer::{lex, panic_token, PanicToken, Tok, TokKind};
use crate::{allow, codec, graph, parse, units};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (one of [`RULE_IDS`]).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Every rule the analyzer knows, including the allow meta-rules.
pub const RULE_IDS: [&str; 12] = [
    "hot-path-panic",
    "hot-path-index",
    "nondeterminism",
    "float-eq",
    "obs-gating",
    "error-taxonomy",
    "codec-symmetry",
    "unit-mismatch",
    "hot-path-transitive",
    "allow-missing-reason",
    "allow-unknown-rule",
    "unused-allow",
];

/// Crates whose control path runs inside the 2 s cycle and must stay
/// panic-free (see DESIGN.md §8). The fleet's shard loop runs one such
/// cycle per device-epoch, 10⁵ times per run, so it is held to the
/// same standard.
const HOT_PATH_CRATES: [&str; 5] = [
    "asgov-core",
    "asgov-control",
    "asgov-soc",
    "asgov-obs",
    "asgov-fleet",
];

/// Individual modules pinned into the hot-path scope regardless of
/// their crate: the persistent worker pool every fleet epoch runs
/// through, and the columnar savings aggregator every device-epoch
/// records into. (`agg.rs` is already covered via `asgov-obs`; the pin
/// keeps it covered even if the crate list ever changes.)
const HOT_PATH_FILES: [&str; 2] = ["crates/util/src/par.rs", "crates/obs/src/agg.rs"];

/// Crates allowed to observe wall clocks and machine parallelism: the
/// measurement harnesses themselves, plus this analyzer.
const HARNESS_CRATES: [&str; 3] = ["asgov-bench", "asgov-experiments", "asgov-analyze"];

/// Modules inside `asgov-util` that *are* the sanctioned boundary for
/// parallelism and seeding.
const HARNESS_BOUNDARY_FILES: [&str; 2] = ["crates/util/src/par.rs", "crates/util/src/rng.rs"];

/// Identifiers whose presence outside the harness boundary breaks the
/// bit-identical determinism contract.
const NONDETERMINISM_IDENTS: [&str; 7] = [
    "Instant",
    "SystemTime",
    "thread_rng",
    "available_parallelism",
    "HashMap",
    "HashSet",
    "RandomState",
];

/// Obs-emission entry points that must be gated.
const OBS_EMIT_IDENTS: [&str; 3] = ["emit_cycle", "record_cycle", "device_event"];

/// Analyze one file standalone: lex, evaluate every per-file rule,
/// apply allow annotations, and report the allow meta-findings. The
/// cross-file `hot-path-transitive` pass does not run here (it needs
/// the whole workspace — see [`check_workspace`]), so allows naming it
/// are not policed for staleness in this mode.
pub fn check_file(rel_path: &str, crate_name: &str, source: &str) -> Vec<Finding> {
    let tokens = lex(source);
    let fa = FileAnalysis::new(rel_path, crate_name, &tokens);
    let rules_run: Vec<&str> = RULE_IDS
        .iter()
        .copied()
        .filter(|r| *r != "hot-path-transitive")
        .collect();
    fa.finalize(&rules_run)
}

/// One row of the codec-pair inventory published in the report: every
/// writer/reader pair the symmetry pass found, verified or not.
#[derive(Debug, Clone)]
pub struct CodecPairReport {
    /// Workspace-relative file holding the pair.
    pub file: String,
    /// Impl type both sides belong to, when any.
    pub impl_type: Option<String>,
    /// Writer function name.
    pub writer: String,
    /// Reader function name.
    pub reader: String,
    /// Whether the pair is a `Restartable` impl (`snapshot_bytes` /
    /// `restore_bytes`).
    pub restartable: bool,
    /// Normalized top-level codec ops on the writer side.
    pub ops: usize,
    /// True when both sides proved symmetric.
    pub verified: bool,
}

/// Everything a whole-workspace analysis produced.
#[derive(Debug)]
pub struct WorkspaceAnalysis {
    /// Findings across all files, all rules (including the cross-file
    /// `hot-path-transitive` pass), post-allow.
    pub findings: Vec<Finding>,
    /// Codec-pair inventory for the report.
    pub codec_pairs: Vec<CodecPairReport>,
}

/// Analyze a whole workspace: run every per-file rule on every file,
/// then the cross-file transitive-panic pass over the shared call
/// graph, and apply each file's allow list to the union.
///
/// `files` entries are `(rel_path, crate_name, source)`.
pub fn check_workspace(files: &[(String, String, String)]) -> WorkspaceAnalysis {
    let lexed: Vec<Vec<Tok>> = files.iter().map(|(_, _, src)| lex(src)).collect();
    let mut fas: Vec<FileAnalysis> = files
        .iter()
        .zip(&lexed)
        .map(|((rel, krate, _), toks)| FileAnalysis::new(rel, krate, toks))
        .collect();

    // Cross-file pass: transitive panic reachability.
    let (tfindings, used_source_allows) = {
        let testers: Vec<Box<dyn Fn(u32) -> bool + '_>> = fas
            .iter()
            .map(|fa| {
                let tl = &fa.test_lines;
                Box::new(move |l: u32| tl.contains(l)) as Box<dyn Fn(u32) -> bool + '_>
            })
            .collect();
        let gfiles: Vec<graph::GraphFile> = fas
            .iter()
            .zip(&testers)
            .map(|(fa, tester)| graph::GraphFile {
                rel: &fa.file,
                hot: fa.hot,
                code: &fa.code,
                parsed: &fa.parsed,
                is_test_line: tester.as_ref(),
                source_allow_lines: fa
                    .allows
                    .iter()
                    .filter(|a| a.rule == "hot-path-transitive")
                    .map(|a| a.line)
                    .collect(),
            })
            .collect();
        let rep = graph::check_transitive(&gfiles);
        (rep.findings, rep.used_source_allows)
    };
    for (fi, line, message) in tfindings {
        if !fas[fi].test_lines.contains(line) {
            let file = fas[fi].file.clone();
            fas[fi].raw.push(Finding {
                rule: "hot-path-transitive",
                file,
                line,
                message,
            });
        }
    }
    for (fi, line) in used_source_allows {
        if let Some(a) = fas[fi]
            .allows
            .iter()
            .find(|a| a.line == line && a.rule == "hot-path-transitive")
        {
            a.used.set(true);
        }
    }

    let mut findings = Vec::new();
    let mut codec_pairs = Vec::new();
    for fa in fas {
        for p in &fa.pairs {
            if fa.test_lines.contains(p.line) {
                continue;
            }
            codec_pairs.push(CodecPairReport {
                file: fa.file.clone(),
                impl_type: p.impl_type.clone(),
                writer: p.writer.clone(),
                reader: p.reader.clone(),
                restartable: p.restartable,
                ops: p.ops,
                verified: p.mismatch.is_none(),
            });
        }
        findings.extend(fa.finalize(&RULE_IDS));
    }
    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    WorkspaceAnalysis {
        findings,
        codec_pairs,
    }
}

/// Per-file analysis state: raw (pre-allow) findings plus everything
/// the cross-file passes need. [`FileAnalysis::finalize`] applies the
/// allow list and the meta-rules.
struct FileAnalysis<'a> {
    file: String,
    hot: bool,
    allows: Vec<allow::Allow>,
    test_lines: TestLines,
    code: Vec<&'a Tok>,
    parsed: parse::ParsedFile,
    raw: Vec<Finding>,
    pairs: Vec<codec::CodecPair>,
}

impl<'a> FileAnalysis<'a> {
    /// Run every per-file rule (token-level and semantic).
    fn new(rel_path: &str, crate_name: &str, tokens: &'a [Tok]) -> Self {
        let allows = allow::collect(tokens);
        let test_lines = TestLines::compute(rel_path, tokens);
        let code: Vec<&Tok> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let parsed = parse::parse_items(&code);
        let hot = HOT_PATH_CRATES.contains(&crate_name) || HOT_PATH_FILES.contains(&rel_path);

        let mut raw: Vec<Finding> = Vec::new();
        let file = rel_path.to_string();
        {
            let ctx = Ctx {
                file: &file,
                crate_name,
                code: &code,
                test_lines: &test_lines,
            };

            if hot {
                rule_hot_path_panic(&ctx, &mut raw);
                rule_hot_path_index(&ctx, &mut raw);
            }
            if !HARNESS_CRATES.contains(&crate_name) && !HARNESS_BOUNDARY_FILES.contains(&rel_path)
            {
                rule_nondeterminism(&ctx, &mut raw);
            }
            rule_float_eq(&ctx, &mut raw);
            if matches!(crate_name, "asgov-core" | "asgov-control") {
                rule_obs_gating(&ctx, &mut raw);
            }
            // The kinds are declared in obs's record module and mapped
            // from errors in soc's error module.
            if !matches!(
                rel_path,
                "crates/obs/src/record.rs" | "crates/soc/src/error.rs"
            ) {
                rule_error_taxonomy(
                    &ctx,
                    &mut raw,
                    "SocErrorKind",
                    "SocErrorKind constructed ad hoc; obtain kinds via SocError::kind() so the taxonomy stays the single source of truth",
                );
            }
            if rel_path != "crates/core/src/persist.rs" {
                rule_error_taxonomy(
                    &ctx,
                    &mut raw,
                    "SnapshotError",
                    "SnapshotError constructed ad hoc; decode through SnapshotReader and map domain checks with persist::require/ensure so the taxonomy stays the single source of truth",
                );
            }
        }

        // Semantic per-file rules, off the item parser. The codec pass
        // skips persist.rs itself: that file *implements* the primitive
        // vocabulary (its `put_bytes` body legitimately differs from
        // `take_bytes`'s), and its correctness is proven by round-trip
        // tests instead.
        let pairs = if rel_path == "crates/core/src/persist.rs" {
            Vec::new()
        } else {
            codec::check_codec(&code, &parsed)
        };
        for p in &pairs {
            if let Some(m) = &p.mismatch {
                if !test_lines.contains(p.line) {
                    raw.push(Finding {
                        rule: "codec-symmetry",
                        file: file.clone(),
                        line: p.line,
                        message: m.clone(),
                    });
                }
            }
        }
        for (line, message) in units::check_units(&code, &parsed, &|l| test_lines.contains(l)) {
            if !test_lines.contains(line) {
                raw.push(Finding {
                    rule: "unit-mismatch",
                    file: file.clone(),
                    line,
                    message,
                });
            }
        }

        Self {
            file,
            hot,
            allows,
            test_lines,
            code,
            parsed,
            raw,
            pairs,
        }
    }

    /// Apply the allow list to the raw findings and run the meta-rules.
    /// `rules_run` lists the rules that actually executed this run: an
    /// allow naming a known rule that did *not* run is left alone
    /// rather than reported as unused.
    fn finalize(self, rules_run: &[&str]) -> Vec<Finding> {
        let FileAnalysis {
            file, allows, raw, ..
        } = self;
        let mut findings: Vec<Finding> = raw
            .into_iter()
            .filter(|f| {
                let covered = allows.iter().find(|a| a.covers(f.rule, f.line));
                if let Some(a) = covered {
                    a.used.set(true);
                }
                covered.is_none()
            })
            .collect();

        // Meta-rules: the allow list polices itself.
        for a in &allows {
            if !RULE_IDS.contains(&a.rule.as_str()) {
                findings.push(Finding {
                    rule: "allow-unknown-rule",
                    file: file.clone(),
                    line: a.line,
                    message: format!("allow names unknown rule {:?}", a.rule),
                });
                continue;
            }
            if a.reason.is_empty() {
                findings.push(Finding {
                    rule: "allow-missing-reason",
                    file: file.clone(),
                    line: a.line,
                    message: format!(
                        "allow({}) carries no reason; write `allow({}): <why>`",
                        a.rule, a.rule
                    ),
                });
            }
            if !a.used.get() && rules_run.contains(&a.rule.as_str()) {
                findings.push(Finding {
                    rule: "unused-allow",
                    file: file.clone(),
                    line: a.line,
                    message: format!("allow({}) suppresses nothing; delete it", a.rule),
                });
            }
        }

        findings.sort_by_key(|f| f.line);
        findings
    }
}

struct Ctx<'a> {
    file: &'a str,
    crate_name: &'a str,
    code: &'a [&'a Tok],
    test_lines: &'a TestLines,
}

impl Ctx<'_> {
    fn push(&self, out: &mut Vec<Finding>, rule: &'static str, line: u32, message: String) {
        if !self.test_lines.contains(line) {
            out.push(Finding {
                rule,
                file: self.file.to_string(),
                line,
                message,
            });
        }
    }
}

/// Line spans that count as test code.
struct TestLines {
    whole_file: bool,
    spans: Vec<(u32, u32)>,
}

impl TestLines {
    fn compute(rel_path: &str, tokens: &[Tok]) -> Self {
        let whole_file = rel_path.contains("/tests/")
            || rel_path.contains("/examples/")
            || rel_path.contains("/benches/");
        let code: Vec<&Tok> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let mut spans = Vec::new();
        let mut i = 0;
        while i + 1 < code.len() {
            if code[i].text == "#" && code[i + 1].text == "[" {
                // Collect the attribute body up to the matching `]`.
                let mut depth = 0usize;
                let mut j = i + 1;
                let mut is_test = false;
                let mut negated = false;
                while j < code.len() {
                    match code[j].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        "test" => is_test = true,
                        "not" => negated = true,
                        _ => {}
                    }
                    j += 1;
                }
                if is_test && !negated {
                    // Span of the annotated item: first `{` after the
                    // attribute through its matching `}`.
                    let mut k = j + 1;
                    while k < code.len() && code[k].text != "{" {
                        k += 1;
                    }
                    let mut brace = 0usize;
                    let start_line = code[i].line;
                    let mut end_line = start_line;
                    while k < code.len() {
                        match code[k].text.as_str() {
                            "{" => brace += 1,
                            "}" => {
                                brace -= 1;
                                if brace == 0 {
                                    end_line = code[k].line;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        end_line = code[k].line;
                        k += 1;
                    }
                    spans.push((start_line, end_line));
                    i = k;
                    continue;
                }
                i = j;
            }
            i += 1;
        }
        Self { whole_file, spans }
    }

    fn contains(&self, line: u32) -> bool {
        self.whole_file || self.spans.iter().any(|&(a, b)| line >= a && line <= b)
    }
}

fn rule_hot_path_panic(ctx: &Ctx, out: &mut Vec<Finding>) {
    for (i, t) in ctx.code.iter().enumerate() {
        let message = match panic_token(ctx.code, i) {
            Some(PanicToken::Method) => format!(
                ".{}() can panic inside the control loop of {}; propagate or default instead",
                t.text, ctx.crate_name
            ),
            Some(PanicToken::Macro) => format!(
                "{}! aborts the control loop; degrade gracefully instead",
                t.text
            ),
            Some(PanicToken::Index) | None => continue,
        };
        ctx.push(out, "hot-path-panic", t.line, message);
    }
}

fn rule_hot_path_index(ctx: &Ctx, out: &mut Vec<Finding>) {
    let code = ctx.code;
    for (i, t) in code.iter().enumerate() {
        if panic_token(code, i) == Some(PanicToken::Index) {
            ctx.push(
                out,
                "hot-path-index",
                t.line,
                format!(
                    "`{}[…]` indexing panics when out of range; use .get()/.get_mut() or prove the bound",
                    code[i - 1].text
                ),
            );
        }
    }
}

fn rule_nondeterminism(ctx: &Ctx, out: &mut Vec<Finding>) {
    for t in ctx.code {
        if t.kind == TokKind::Ident && NONDETERMINISM_IDENTS.contains(&t.text.as_str()) {
            ctx.push(
                out,
                "nondeterminism",
                t.line,
                format!(
                    "{} breaks the bit-identical determinism contract outside the harness boundary",
                    t.text
                ),
            );
        }
    }
}

/// Exact `==`/`!=` on a float. An operand next to the operator counts
/// as a float when it is a float literal, an `as f64`/`as f32` cast, or
/// a bare name bound with an explicit float type earlier in the same
/// `fn`: `let [mut] x: f64` or the parameter `[mut] x: f64`.
fn rule_float_eq(ctx: &Ctx, out: &mut Vec<Finding>) {
    let code = ctx.code;
    let text = |j: usize| code.get(j).map_or("", |t| t.text.as_str());
    let float_ty = |j: usize| matches!(text(j), "f64" | "f32");
    // Float names bound so far in the current `fn`, and the paren depth
    // of its parameter list while the scan is inside it.
    let mut floats: Vec<&str> = Vec::new();
    let (mut depth, mut fn_seen, mut params_at) = (0usize, false, None);
    for (i, t) in code.iter().enumerate() {
        let (l1, l2, r1, r2) = (i.wrapping_sub(1), i.wrapping_sub(2), i + 1, i + 2);
        match t.text.as_str() {
            "fn" => {
                floats.clear();
                fn_seen = true;
            }
            "(" => {
                depth += 1;
                if std::mem::take(&mut fn_seen) {
                    params_at = Some(depth);
                }
            }
            ")" => {
                if params_at == Some(depth) {
                    params_at = None;
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
        let is_let = text(l1) == "let" || (text(l1) == "mut" && text(l2) == "let");
        let is_param = params_at == Some(depth) && matches!(text(l1), "(" | "," | "mut");
        if text(r1) == ":" && float_ty(r2) && (is_let || is_param) {
            floats.push(t.text.as_str());
        }
        if !matches!(t.text.as_str(), "==" | "!=") || t.kind != TokKind::Punct {
            continue;
        }
        let literal = |j: usize| code.get(j).is_some_and(|o| o.kind == TokKind::Float);
        let name = |j: usize| floats.contains(&text(j));
        // A name must be bare: not a field or path segment on the left,
        // not a call, index, method receiver or cast operand on the right.
        if literal(l1)
            || literal(r1)
            || (name(l1) && !matches!(text(l2), "." | "::"))
            || (name(r1) && !matches!(text(r2), "." | "(" | "[" | "::" | "as"))
            || (text(l2) == "as" && float_ty(l1))
            || (text(r2) == "as" && float_ty(i + 3))
        {
            ctx.push(
                out,
                "float-eq",
                t.line,
                "exact float comparison; compare against a tolerance or restructure".to_string(),
            );
        }
    }
}

fn rule_obs_gating(ctx: &Ctx, out: &mut Vec<Finding>) {
    let code = ctx.code;
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokKind::Ident || !OBS_EMIT_IDENTS.contains(&t.text.as_str()) {
            continue;
        }
        let is_call =
            i > 0 && code[i - 1].text == "." && code.get(i + 1).is_some_and(|n| n.text == "(");
        if !is_call {
            continue;
        }
        // Scan back to the enclosing `fn`; the emission must follow a
        // `has_obs_sink`/`tracing` gate established earlier in it.
        let mut gated = false;
        for j in (0..i).rev() {
            match code[j].text.as_str() {
                "fn" => break,
                "has_obs_sink" | "tracing" => {
                    gated = true;
                    break;
                }
                _ => {}
            }
        }
        if !gated {
            ctx.push(
                out,
                "obs-gating",
                t.line,
                format!(
                    ".{}() must be gated behind device.has_obs_sink() so un-instrumented runs stay bit-identical",
                    t.text
                ),
            );
        }
    }
}

fn rule_error_taxonomy(ctx: &Ctx, out: &mut Vec<Finding>, type_name: &str, advice: &str) {
    let code = ctx.code;
    for i in 0..code.len() {
        if code[i].text != type_name || code[i].kind != TokKind::Ident {
            continue;
        }
        let Some(variant_at) =
            (i + 2 < code.len() && code[i + 1].text == "::" && code[i + 2].kind == TokKind::Ident)
                .then_some(i + 2)
        else {
            continue; // bare type mention (annotations, imports)
        };
        // Associated functions (`SocErrorKind::from_wire`) and consts
        // (`SocErrorKind::ALL`) are not variant fabrication; only
        // CamelCase paths name variants.
        let name = &code[variant_at].text;
        if !name.chars().next().is_some_and(char::is_uppercase)
            || !name.chars().any(char::is_lowercase)
        {
            continue;
        }
        // Comparison against a taxonomy value is fine.
        let cmp_before = i > 0 && matches!(code[i - 1].text.as_str(), "==" | "!=");
        let cmp_after = code
            .get(variant_at + 1)
            .is_some_and(|t| matches!(t.text.as_str(), "==" | "!="));
        // Pattern position: walking forward over closers lands on `=>`
        // or `|` (match arm), or the whole thing sits inside a `let`
        // destructure (`if let Err(SocErrorKind::Busy) = …`).
        let mut j = variant_at + 1;
        // Struct variants (`VersionMismatch { .. }`) carry a braced
        // field list before the arm arrow: step over it first.
        if code.get(j).is_some_and(|t| t.text == "{") {
            let mut depth = 0usize;
            while let Some(t) = code.get(j) {
                match t.text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        while code
            .get(j)
            .is_some_and(|t| matches!(t.text.as_str(), ")" | "]" | ","))
        {
            j += 1;
        }
        let in_match_arm = code
            .get(j)
            .is_some_and(|t| matches!(t.text.as_str(), "=>" | "|"));
        let in_let_pattern = (i.saturating_sub(8)..i)
            .rev()
            .take_while(|&k| code[k].text != "=" && code[k].text != ";")
            .any(|k| code[k].text == "let");
        if !(cmp_before || cmp_after || in_match_arm || in_let_pattern) {
            ctx.push(out, "error-taxonomy", code[i].line, advice.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn flags_unwrap_in_hot_path_crate_only() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let hot = check_file("crates/core/src/x.rs", "asgov-core", src);
        assert_eq!(rules_of(&hot), ["hot-path-panic"]);
        let cold = check_file("crates/cli/src/x.rs", "asgov-cli", src);
        assert!(cold.is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "\
fn ok() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let v: Vec<u8> = vec![]; v[0]; panic!(\"x\"); }
}
";
        let findings = check_file("crates/core/src/x.rs", "asgov-core", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_used() {
        let src = "\
// asgov-analyze: allow(hot-path-panic): slot is provably occupied here
fn f(x: Option<u8>) -> u8 { x.unwrap() }
";
        let findings = check_file("crates/core/src/x.rs", "asgov-core", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn allow_without_reason_is_flagged() {
        let src = "\
// asgov-analyze: allow(hot-path-panic)
fn f(x: Option<u8>) -> u8 { x.unwrap() }
";
        let findings = check_file("crates/core/src/x.rs", "asgov-core", src);
        assert_eq!(rules_of(&findings), ["allow-missing-reason"]);
    }

    #[test]
    fn unused_and_unknown_allows_are_flagged() {
        let src = "\
// asgov-analyze: allow(float-eq): nothing here compares floats
// asgov-analyze: allow(no-such-rule): whatever
fn f() {}
";
        let findings = check_file("crates/core/src/x.rs", "asgov-core", src);
        let mut rules = rules_of(&findings);
        rules.sort_unstable();
        assert_eq!(rules, ["allow-unknown-rule", "unused-allow"]);
    }

    #[test]
    fn float_eq_catches_literal_comparisons_everywhere() {
        let src = "fn f(x: f64) -> bool { x == 0.5 }\n";
        let findings = check_file("crates/cli/src/x.rs", "asgov-cli", src);
        assert_eq!(rules_of(&findings), ["float-eq"]);
        // Integer comparison is fine.
        let src = "fn f(x: u64) -> bool { x == 5 }\n";
        assert!(check_file("crates/cli/src/x.rs", "asgov-cli", src).is_empty());
    }

    #[test]
    fn float_eq_types_casts_and_names_per_fn() {
        let flagged = |src: &str| !check_file("crates/cli/src/x.rs", "asgov-cli", src).is_empty();
        // Casts to a float type on either side.
        assert!(flagged(
            "fn f(n: u64, m: u64) -> bool { n as f64 == m as f64 }\n"
        ));
        assert!(flagged("fn f(n: u64, m: u64) -> bool { m != n as f32 }\n"));
        assert!(!flagged("fn f(x: f64, m: u64) -> bool { x as u64 == m }\n"));
        // `let` bindings, `mut` parameters, and the binding's own `fn` only.
        assert!(flagged(
            "fn f(a: u64) -> bool { let mut x: f32 = 1.0; x == a }\n"
        ));
        assert!(flagged("fn f(mut a: f64, b: u64) -> bool { b != a }\n"));
        assert!(!flagged(
            "fn f(a: f64) {}\nfn g(a: u64, b: u64) -> bool { a == b }\n"
        ));
        // Fields, calls and method results are not the bound name.
        assert!(!flagged("fn f(a: f64, s: S) -> bool { s.a == s.b }\n"));
        assert!(!flagged(
            "fn f(a: f64, b: f64) -> bool { a.to_bits() == b.to_bits() }\n"
        ));
    }

    #[test]
    fn indexing_rules_skip_types_attrs_and_keywords() {
        let ok = "\
#[derive(Debug)]
struct S { buf: [u8; 4] }
fn f(v: &[u8]) -> Option<u8> { v.get(0).copied() }
fn g() { for x in [1, 2, 3] { let _ = x; } }
fn h() { let [a, _b] = [1, 2]; let _ = a; }
";
        let findings = check_file("crates/core/src/x.rs", "asgov-core", ok);
        assert!(findings.is_empty(), "{findings:?}");
        let bad = "fn f(v: &[u8]) -> u8 { v[0] }\n";
        assert_eq!(
            rules_of(&check_file("crates/core/src/x.rs", "asgov-core", bad)),
            ["hot-path-index"]
        );
    }

    #[test]
    fn nondeterminism_respects_the_harness_boundary() {
        let src = "fn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        assert_eq!(
            rules_of(&check_file("crates/soc/src/x.rs", "asgov-soc", src)),
            ["nondeterminism"]
        );
        assert!(check_file("crates/bench/src/x.rs", "asgov-bench", src).is_empty());
        assert!(check_file("crates/util/src/par.rs", "asgov-util", src).is_empty());
    }

    #[test]
    fn obs_emission_requires_the_gate() {
        let bad = "fn f(d: &mut Device, r: &CycleRecord) { d.emit_cycle(r); }\n";
        assert_eq!(
            rules_of(&check_file("crates/core/src/x.rs", "asgov-core", bad)),
            ["obs-gating"]
        );
        let good = "\
fn f(d: &mut Device, r: &CycleRecord) {
    let tracing = d.has_obs_sink();
    if tracing { d.emit_cycle(r); }
}
";
        assert!(check_file("crates/core/src/x.rs", "asgov-core", good).is_empty());
    }

    #[test]
    fn error_taxonomy_permits_patterns_and_comparisons() {
        let ok = "\
fn f(e: SocError) -> bool {
    match e.kind() {
        SocErrorKind::Busy => true,
        SocErrorKind::ReadOnly | SocErrorKind::NoSuchFile => false,
        k => k == SocErrorKind::InvalidValue,
    }
}
fn g(r: Result<(), SocErrorKind>) -> bool {
    if let Err(SocErrorKind::Busy) = r { return true; }
    false
}
";
        let findings = check_file("crates/core/src/x.rs", "asgov-core", ok);
        assert!(findings.is_empty(), "{findings:?}");
        let bad = "fn f() -> SocErrorKind { SocErrorKind::Busy }\n";
        assert_eq!(
            rules_of(&check_file("crates/cli/src/x.rs", "asgov-cli", bad)),
            ["error-taxonomy"]
        );
        // Iterating the kinds' list is not fabricating one.
        let all = "fn f() -> usize { SocErrorKind::ALL.len() }\n";
        assert!(check_file("crates/cli/src/x.rs", "asgov-cli", all).is_empty());
    }

    #[test]
    fn error_taxonomy_covers_snapshot_error_with_persist_exempt() {
        // Matching and comparing snapshot errors is fine anywhere.
        let ok = "\
fn f(e: SnapshotError) -> bool {
    match e {
        SnapshotError::Truncated => true,
        SnapshotError::Corrupt | SnapshotError::VersionMismatch { .. } => false,
    }
}
";
        let findings = check_file("crates/core/src/x.rs", "asgov-core", ok);
        assert!(findings.is_empty(), "{findings:?}");
        // Hand-constructing one outside the taxonomy's home is not.
        let bad = "fn f() -> SnapshotError { SnapshotError::Corrupt }\n";
        assert_eq!(
            rules_of(&check_file(
                "crates/core/src/controller.rs",
                "asgov-core",
                bad
            )),
            ["error-taxonomy"]
        );
        // The taxonomy's own module is where variants are born.
        assert!(check_file("crates/core/src/persist.rs", "asgov-core", bad).is_empty());
    }

    #[test]
    fn pool_and_aggregator_modules_are_pinned_hot_path() {
        // Neither file's *crate* puts it in scope by itself (par.rs
        // lives in asgov-util), yet both must be held to the hot-path
        // rules: the fleet funnels every epoch through them.
        let src = "fn f(x: Option<u8>, v: &[u8]) -> u8 { v[0] + x.unwrap() }\n";
        for (path, krate) in [
            ("crates/util/src/par.rs", "asgov-util"),
            ("crates/obs/src/agg.rs", "asgov-obs"),
        ] {
            let mut rules = rules_of(&check_file(path, krate, src));
            rules.sort_unstable();
            assert_eq!(rules, ["hot-path-index", "hot-path-panic"], "{path}");
        }
        // A sibling module in the same non-hot crate stays out of scope.
        assert!(check_file("crates/util/src/json.rs", "asgov-util", src).is_empty());
    }

    #[test]
    fn whole_test_files_are_exempt() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(check_file("crates/core/tests/chaos.rs", "asgov-core", src).is_empty());
    }
}
