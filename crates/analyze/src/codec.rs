//! Snapshot-codec symmetry: prove that every persist writer and its
//! reader agree on the wire layout.
//!
//! The crash-restart and fleet tiers (DESIGN.md §10–§12) stand on the
//! `SnapshotWriter::put_*` / `SnapshotReader::take_*` codec. A codec
//! bug — one side reordering fields, widening an integer, or skipping
//! an `Option` tag — passes every CRC check (the frame is internally
//! consistent) and silently corrupts restored state at fleet scale.
//! This pass extracts the *ordered codec-operation sequence* from both
//! sides of every writer/reader pair and proves them equal.
//!
//! **Pairing** is by name, within one file: `put_X` ↔ `take_X`,
//! `encode_X` ↔ `decode_X`, `snapshot_X` ↔ `restore_X`, and the
//! irregular `checkpoint` ↔ `restore`. A candidate only becomes a
//! codec pair when at least one side actually performs codec
//! operations — `checkpoint()`/`restore()` state-struct accessors with
//! no wire traffic are ignored.
//!
//! **Extraction** walks the function body with control flow:
//!
//! - primitive calls map to symmetric ops (`put_uvar`/`take_uvar` →
//!   `uvar`, `put_u64`/`take_u64` → `u64`, `put_f64_slice`/`take_f64_vec`
//!   → `f64_slice`, `put_opt_*`/`take_opt_*` → `opt_*`), so a varint
//!   writer against a fixed-width reader is drift like any other width
//!   change;
//! - calls to other codec-prefixed functions become `helper:<key>` ops
//!   (`put_config(…)` ↔ `take_config(…)` → `helper:config`; nested
//!   frames `snapshot_bytes` ↔ `restore_bytes` → `helper:bytes`); an
//!   `encode_`/`decode_` method call is keyed by its receiver as well
//!   (`self.scheduler.encode_state(w)` ↔ `scheduler.decode_state(r)` →
//!   `helper:scheduler.state`), so components that share one method
//!   name stay distinct;
//! - `for`/`while`/`loop` bodies become `repeat[…]` groups;
//! - `if`/`else` chains and `match` arms become branch groups, with
//!   ops in the condition/scrutinee emitted before the group.
//!
//! **Unification** normalizes both trees before comparison: common
//! prefixes and suffixes are hoisted out of branch groups, empty arms
//! and empty groups collapse, and the remaining arms compare as an
//! unordered set. That is exactly enough to unify the canonical
//! `Option` encodings — a writer `match { None => put_u8(0), Some(v)
//! => { put_u8(1); put_uvar(v) } }` against a reader `let tag =
//! take_u8()?; if tag == 1 { Some(take_uvar()?) } else { None }` — and
//! fixed-layout loops, without attempting full symbolic execution.

use crate::lexer::{Tok, TokKind};
use crate::parse::{FnItem, ParsedFile};

/// One codec operation, possibly structured.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// A primitive of the symmetric vocabulary (`u8`, `u64`, `bytes`, …).
    Prim(&'static str),
    /// A call into another codec pair, by pair key.
    Helper(String),
    /// A loop over a fixed-layout stream.
    Repeat(Vec<Op>),
    /// An `if`/`match` group; arms are normalized and order-free.
    Branch(Vec<Vec<Op>>),
}

impl Op {
    fn render(&self) -> String {
        match self {
            Op::Prim(p) => (*p).to_string(),
            Op::Helper(k) => format!("helper:{k}"),
            Op::Repeat(ops) => format!("repeat[{}]", render_seq(ops)),
            Op::Branch(arms) => {
                let rendered: Vec<String> = arms.iter().map(|a| render_seq(a)).collect();
                format!("branch{{{}}}", rendered.join(" | "))
            }
        }
    }
}

fn render_seq(ops: &[Op]) -> String {
    ops.iter().map(Op::render).collect::<Vec<_>>().join(", ")
}

/// Which side of the codec a function is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Writer,
    Reader,
}

/// The primitive vocabularies, writer spelling → symmetric op name.
const WRITER_PRIMS: [(&str, &str); 10] = [
    ("put_u8", "u8"),
    ("put_uvar", "uvar"),
    ("put_u64", "u64"),
    ("put_f64", "f64"),
    ("put_bool", "bool"),
    ("put_opt_u8", "opt_u8"),
    ("put_opt_uvar", "opt_uvar"),
    ("put_opt_bytes", "opt_bytes"),
    ("put_bytes", "bytes"),
    ("put_f64_slice", "f64_slice"),
];
const READER_PRIMS: [(&str, &str); 10] = [
    ("take_u8", "u8"),
    ("take_uvar", "uvar"),
    ("take_u64", "u64"),
    ("take_f64", "f64"),
    ("take_bool", "bool"),
    ("take_opt_u8", "opt_u8"),
    ("take_opt_uvar", "opt_uvar"),
    ("take_opt_bytes", "opt_bytes"),
    ("take_bytes", "bytes"),
    ("take_f64_vec", "f64_slice"),
];

/// Writer-side helper-name prefixes, with the reader counterpart.
const PAIR_PREFIXES: [(&str, &str); 3] = [
    ("put_", "take_"),
    ("encode_", "decode_"),
    ("snapshot_", "restore_"),
];

/// Map a function name to its codec side and pair key, if it has one.
fn codec_key(name: &str) -> Option<(Side, String)> {
    for (w, r) in PAIR_PREFIXES {
        if let Some(rest) = name.strip_prefix(w) {
            if !rest.is_empty() {
                return Some((Side::Writer, rest.to_string()));
            }
        }
        if let Some(rest) = name.strip_prefix(r) {
            if !rest.is_empty() {
                return Some((Side::Reader, rest.to_string()));
            }
        }
    }
    match name {
        "checkpoint" => Some((Side::Writer, "frame".into())),
        "restore" => Some((Side::Reader, "frame".into())),
        _ => None,
    }
}

fn prim_of(name: &str, side: Side) -> Option<&'static str> {
    let table = match side {
        Side::Writer => &WRITER_PRIMS,
        Side::Reader => &READER_PRIMS,
    };
    table.iter().find(|(n, _)| *n == name).map(|(_, op)| *op)
}

/// Extract the op tree of one side from a body token range.
fn extract(code: &[&Tok], side: Side) -> Vec<Op> {
    let mut ops = Vec::new();
    extract_block(code, 0, code.len(), side, &mut ops);
    normalize(ops)
}

/// Recursive-descent extraction over `code[start..end)`.
fn extract_block(code: &[&Tok], start: usize, end: usize, side: Side, out: &mut Vec<Op>) {
    let mut i = start;
    while i < end {
        let t = code[i];
        match t.text.as_str() {
            "for" | "while" | "loop" if t.kind == TokKind::Ident => {
                // Head expression (may itself hold ops: rare but legal),
                // then the loop block.
                let Some(open) = find_block_open(code, i + 1, end) else {
                    i += 1;
                    continue;
                };
                extract_ops_flat(code, i + 1, open, side, out);
                let Some(close) = matching_brace(code, open, end) else {
                    i = open + 1;
                    continue;
                };
                let mut body = Vec::new();
                extract_block(code, open + 1, close, side, &mut body);
                if !body.is_empty() {
                    out.push(Op::Repeat(body));
                }
                i = close + 1;
            }
            "if" if t.kind == TokKind::Ident => {
                let Some(open) = find_block_open(code, i + 1, end) else {
                    i += 1;
                    continue;
                };
                // Condition ops run before the branch.
                extract_ops_flat(code, i + 1, open, side, out);
                let Some(close) = matching_brace(code, open, end) else {
                    i = open + 1;
                    continue;
                };
                let mut arms = Vec::new();
                let mut arm = Vec::new();
                extract_block(code, open + 1, close, side, &mut arm);
                arms.push(arm);
                let mut j = close + 1;
                // `else if …` chains flatten into sibling arms; the
                // chain's conditions may hold ops too (emitted in
                // order before the group — an approximation).
                while code.get(j).filter(|t| t.text == "else").is_some() && j < end {
                    j += 1;
                    if code.get(j).is_some_and(|t| t.text == "if") {
                        j += 1;
                    }
                    let Some(open2) = find_block_open(code, j, end) else {
                        break;
                    };
                    extract_ops_flat(code, j, open2, side, out);
                    let Some(close2) = matching_brace(code, open2, end) else {
                        break;
                    };
                    let mut arm2 = Vec::new();
                    extract_block(code, open2 + 1, close2, side, &mut arm2);
                    arms.push(arm2);
                    j = close2 + 1;
                }
                if arms.len() == 1 {
                    arms.push(Vec::new()); // missing else = empty arm
                }
                if arms.iter().any(|a| !a.is_empty()) {
                    out.push(Op::Branch(arms));
                }
                i = j;
            }
            "match" if t.kind == TokKind::Ident => {
                let Some(open) = find_block_open(code, i + 1, end) else {
                    i += 1;
                    continue;
                };
                extract_ops_flat(code, i + 1, open, side, out);
                let Some(close) = matching_brace(code, open, end) else {
                    i = open + 1;
                    continue;
                };
                let arms = extract_match_arms(code, open + 1, close, side);
                if arms.iter().any(|a| !a.is_empty()) {
                    out.push(Op::Branch(arms));
                }
                i = close + 1;
            }
            _ => {
                if let Some(op) = op_at(code, i, side) {
                    out.push(op);
                }
                i += 1;
            }
        }
    }
}

/// Extract ops from a flat (non-recursed) range — used for loop heads,
/// conditions and scrutinees, where ops execute exactly once before
/// the structured group.
fn extract_ops_flat(code: &[&Tok], start: usize, end: usize, side: Side, out: &mut Vec<Op>) {
    for i in start..end {
        if let Some(op) = op_at(code, i, side) {
            out.push(op);
        }
    }
}

/// The op at token `i`, when `code[i]` is a codec call.
///
/// Call-site helper matching is narrower than pair discovery: only the
/// strongly codec-conventional `put_`/`take_`/`encode_`/`decode_`
/// prefixes plus the `Restartable` trait methods count. The
/// `snapshot_*`/`restore_*`/`checkpoint`/`restore` spellings also name
/// plain accessors (a state-struct `checkpoint()`,
/// `integrator.restore_state(…)`) that move no wire bytes — as *pair
/// definitions* the empty-ops rule filters those out, but as call-site
/// ops they would corrupt the sequence of a genuine codec around them.
fn op_at(code: &[&Tok], i: usize, side: Side) -> Option<Op> {
    let t = code[i];
    if t.kind != TokKind::Ident || code.get(i + 1).is_none_or(|n| n.text != "(") {
        return None;
    }
    // Definitions are not calls.
    if i > 0 && code[i - 1].text == "fn" {
        return None;
    }
    if let Some(p) = prim_of(&t.text, side) {
        return Some(Op::Prim(p));
    }
    let name = t.text.as_str();
    if matches!(name, "snapshot_bytes" | "restore_bytes") {
        return Some(Op::Helper("bytes".into()));
    }
    let (w, r) = match side {
        Side::Writer => ("put_", "encode_"),
        Side::Reader => ("take_", "decode_"),
    };
    if let Some(rest) = name.strip_prefix(r).filter(|rest| !rest.is_empty()) {
        // Components encode their own state under one method name, so a
        // method call is keyed by its receiver too: `self.ladder.
        // encode_state(w)` pairs with `ladder.decode_state(r)`, never
        // with the scheduler's.
        let receiver = (i >= 2 && code[i - 1].text == "." && code[i - 2].kind == TokKind::Ident)
            .then(|| code[i - 2].text.as_str());
        return Some(Op::Helper(match receiver {
            Some(recv) => format!("{recv}.{rest}"),
            None => rest.to_string(),
        }));
    }
    name.strip_prefix(w)
        .filter(|rest| !rest.is_empty())
        .map(|rest| Op::Helper(rest.to_string()))
}

/// Find the `{` opening the block after a `for`/`if`/`match` head,
/// skipping braces that belong to head-position closures or paths
/// (struct literals are not legal in head position without parens).
fn find_block_open(code: &[&Tok], start: usize, end: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in code.iter().enumerate().take(end).skip(start) {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "{" if depth == 0 => return Some(i),
            ";" if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(code: &[&Tok], open: usize, end: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in code.iter().enumerate().take(end).skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Split a match body into arms and extract each arm's ops. Arms are
/// `pattern => expr,` or `pattern => { block }`; guard expressions
/// (`if …`) belong to the pattern side of `=>`.
fn extract_match_arms(code: &[&Tok], start: usize, end: usize, side: Side) -> Vec<Vec<Op>> {
    let mut arms = Vec::new();
    let mut i = start;
    while i < end {
        // Pattern: scan to `=>` at depth 0.
        let mut depth = 0usize;
        let mut arrow = None;
        let mut j = i;
        while j < end {
            match code[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                "=>" if depth == 0 => {
                    arrow = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(arrow) = arrow else { break };
        // Body: a block, or an expression to the `,` at depth 0 (or end).
        let body_start = arrow + 1;
        let (body_end, next) = if code.get(body_start).is_some_and(|t| t.text == "{") {
            match matching_brace(code, body_start, end) {
                Some(c) => {
                    let mut n = c + 1;
                    if code.get(n).is_some_and(|t| t.text == ",") {
                        n += 1;
                    }
                    (c + 1, n)
                }
                None => (end, end),
            }
        } else {
            let mut depth = 0usize;
            let mut k = body_start;
            while k < end {
                match code[k].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth = depth.saturating_sub(1),
                    "," if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            (k, (k + 1).min(end))
        };
        let mut arm = Vec::new();
        extract_block(code, body_start, body_end, side, &mut arm);
        arms.push(arm);
        i = next;
    }
    arms
}

/// Normalize an op sequence: recursively normalize children, hoist
/// common branch prefixes/suffixes, drop empty groups, sort arms.
fn normalize(ops: Vec<Op>) -> Vec<Op> {
    let mut out = Vec::new();
    for op in ops {
        match op {
            Op::Prim(_) | Op::Helper(_) => out.push(op),
            Op::Repeat(inner) => {
                let inner = normalize(inner);
                if !inner.is_empty() {
                    out.push(Op::Repeat(inner));
                }
            }
            Op::Branch(arms) => {
                let mut arms: Vec<Vec<Op>> = arms.into_iter().map(normalize).collect();
                // Hoist the common prefix out of all arms.
                while let Some(first) = arms.first().and_then(|a| a.first()).cloned() {
                    if arms.iter().all(|a| a.first() == Some(&first)) {
                        for a in &mut arms {
                            a.remove(0);
                        }
                        out.push(first);
                    } else {
                        break;
                    }
                }
                // Hoist the common suffix; re-append after the group.
                let mut suffix = Vec::new();
                while let Some(last) = arms.first().and_then(|a| a.last()).cloned() {
                    if arms.iter().all(|a| a.last() == Some(&last)) {
                        for a in &mut arms {
                            a.pop();
                        }
                        suffix.push(last);
                    } else {
                        break;
                    }
                }
                suffix.reverse();
                if arms.iter().any(|a| !a.is_empty()) {
                    arms.sort();
                    arms.dedup();
                    out.push(Op::Branch(arms));
                }
                out.extend(suffix);
            }
        }
    }
    out
}

/// One verified (or failed) codec pair, for the report inventory.
#[derive(Debug, Clone)]
pub struct CodecPair {
    /// Writer function name.
    pub writer: String,
    /// Reader function name.
    pub reader: String,
    /// Impl type both sides belong to, when any.
    pub impl_type: Option<String>,
    /// Whether the pair implements `Restartable` (snapshot/restore).
    pub restartable: bool,
    /// Number of (normalized, top-level) codec ops on the writer side.
    pub ops: usize,
    /// `None` when symmetric; `Some(message)` describing the mismatch.
    pub mismatch: Option<String>,
    /// Line of the writer function (findings anchor here).
    pub line: u32,
}

/// Check every codec pair in one file. Returns the pair inventory;
/// mismatches double as findings (the caller turns them into
/// `codec-symmetry` findings at `pair.line`).
pub fn check_codec(code: &[&Tok], parsed: &ParsedFile) -> Vec<CodecPair> {
    let mut pairs = Vec::new();
    for f in &parsed.fns {
        let Some((Side::Writer, key)) = codec_key(&f.name) else {
            continue;
        };
        // Find the reader counterpart: same key, reader side, same
        // impl type when possible.
        let reader = best_counterpart(parsed, &key, f);
        let Some(r) = reader else { continue };
        let w_ops = extract(&code[f.body.0..f.body.1], Side::Writer);
        let r_ops = extract(&code[r.body.0..r.body.1], Side::Reader);
        if w_ops.is_empty() && r_ops.is_empty() {
            continue; // not a codec: e.g. state-struct checkpoint()/restore()
        }
        let mismatch =
            diff(&w_ops, &r_ops).map(|d| format!("{}/{} codec drift: {}", f.name, r.name, d));
        pairs.push(CodecPair {
            writer: f.name.clone(),
            reader: r.name.clone(),
            impl_type: f.impl_type.clone(),
            restartable: f.impl_trait.as_deref() == Some("Restartable"),
            ops: w_ops.len(),
            mismatch,
            line: f.line,
        });
    }
    pairs
}

fn best_counterpart<'a>(parsed: &'a ParsedFile, key: &str, writer: &FnItem) -> Option<&'a FnItem> {
    let mut fallback = None;
    for f in &parsed.fns {
        let Some((Side::Reader, k)) = codec_key(&f.name) else {
            continue;
        };
        if k != key {
            continue;
        }
        if f.impl_type == writer.impl_type {
            return Some(f);
        }
        fallback.get_or_insert(f);
    }
    fallback
}

/// First structural difference between two normalized op sequences,
/// described for humans. `None` when symmetric.
fn diff(w: &[Op], r: &[Op]) -> Option<String> {
    diff_at(w, r, "op")
}

fn diff_at(w: &[Op], r: &[Op], ctx: &str) -> Option<String> {
    for (k, (a, b)) in w.iter().zip(r.iter()).enumerate() {
        if a == b {
            continue;
        }
        // Recurse into same-shaped groups for a tighter message.
        if let (Op::Repeat(ia), Op::Repeat(ib)) = (a, b) {
            return diff_at(ia, ib, &format!("{ctx} {}.repeat", k + 1));
        }
        return Some(format!(
            "{ctx} {}: writer has {} but reader has {}",
            k + 1,
            a.render(),
            b.render()
        ));
    }
    match w.len().cmp(&r.len()) {
        std::cmp::Ordering::Equal => None,
        std::cmp::Ordering::Greater => Some(format!(
            "writer has {} trailing op(s) the reader never consumes, starting with {}",
            w.len() - r.len(),
            w[r.len()].render()
        )),
        std::cmp::Ordering::Less => Some(format!(
            "reader consumes {} op(s) the writer never produces, starting with {}",
            r.len() - w.len(),
            r[w.len()].render()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_items;

    fn pairs_of(src: &str) -> Vec<CodecPair> {
        let toks = lex(src);
        let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
        let parsed = parse_items(&code);
        check_codec(&code, &parsed)
    }

    #[test]
    fn straight_line_symmetry_verifies() {
        let src = "\
fn encode_state(w: &mut SnapshotWriter, s: &S) {
    w.put_u64(s.a);
    w.put_f64(s.b);
    w.put_bool(s.c);
}
fn decode_state(r: &mut SnapshotReader) -> Result<S, E> {
    Ok(S { a: r.take_u64()?, b: r.take_f64()?, c: r.take_bool()? })
}
";
        let pairs = pairs_of(src);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].mismatch, None, "{:?}", pairs[0].mismatch);
        assert_eq!(pairs[0].ops, 3);
    }

    #[test]
    fn reordered_fields_are_drift() {
        let src = "\
fn encode_state(w: &mut W) { w.put_u64(a); w.put_f64(b); }
fn decode_state(r: &mut R) { let b = r.take_f64(); let a = r.take_u64(); }
";
        let pairs = pairs_of(src);
        let m = pairs[0].mismatch.as_deref().expect("drift detected");
        assert!(m.contains("writer has u64 but reader has f64"), "{m}");
    }

    #[test]
    fn width_mismatch_is_drift() {
        let src = "\
fn put_count(w: &mut W) { w.put_u64(n); }
fn take_count(r: &mut R) { let n = r.take_u8(); }
";
        let pairs = pairs_of(src);
        assert!(pairs[0].mismatch.is_some());
    }

    #[test]
    fn varint_writer_against_fixed_reader_is_drift() {
        let src = "\
fn put_count(w: &mut W) { w.put_uvar(n); }
fn take_count(r: &mut R) { let n = r.take_u64(); }
";
        let pairs = pairs_of(src);
        let m = pairs[0].mismatch.as_deref().expect("drift detected");
        assert!(m.contains("writer has uvar but reader has u64"), "{m}");
    }

    #[test]
    fn option_encodings_unify_across_match_and_if() {
        let src = "\
fn put_gpu(w: &mut W, gpu: Option<u32>) {
    match gpu {
        None => w.put_u8(0),
        Some(g) => { w.put_u8(1); w.put_uvar(g); }
    }
}
fn take_gpu(r: &mut R) -> Result<Option<u32>, E> {
    let tag = r.take_u8()?;
    ensure(tag <= 1)?;
    if tag == 1 { Ok(Some(r.take_uvar()?)) } else { Ok(None) }
}
";
        let pairs = pairs_of(src);
        assert_eq!(pairs[0].mismatch, None, "{:?}", pairs[0].mismatch);
    }

    #[test]
    fn missing_option_tag_is_drift() {
        let src = "\
fn put_gpu(w: &mut W, gpu: Option<u32>) {
    match gpu {
        None => w.put_u8(0),
        Some(g) => { w.put_u8(1); w.put_uvar(g); }
    }
}
fn take_gpu(r: &mut R) -> Result<Option<u32>, E> {
    Ok(Some(r.take_uvar()?))
}
";
        let pairs = pairs_of(src);
        assert!(pairs[0].mismatch.is_some());
    }

    #[test]
    fn loops_unify_as_repeat_groups() {
        let src = "\
fn encode_all(w: &mut W, vs: &[Item]) {
    w.put_u64(vs.len() as u64);
    for v in vs {
        if let Some(b) = v { w.put_bool(true); w.put_bytes(b); } else { w.put_bool(false); }
    }
}
fn decode_all(r: &mut R) -> Result<Vec<Item>, E> {
    let n = r.take_u64()?;
    for _ in 0..n {
        if r.take_bool()? { r.take_bytes()?; } else { }
    }
    Ok(vec![])
}
";
        let pairs = pairs_of(src);
        assert_eq!(pairs[0].mismatch, None, "{:?}", pairs[0].mismatch);
    }

    #[test]
    fn loop_body_drift_is_reported_inside_the_repeat() {
        let src = "\
fn encode_all(w: &mut W, vs: &[u64]) { for v in vs { w.put_u64(*v); } }
fn decode_all(r: &mut R) { for _ in 0..n { r.take_uvar(); } }
";
        let pairs = pairs_of(src);
        let m = pairs[0].mismatch.as_deref().expect("drift");
        assert!(m.contains("repeat"), "{m}");
    }

    #[test]
    fn nested_frames_and_helpers_pair_up() {
        let src = "\
fn snapshot_bytes(&self) -> Result<Vec<u8>, E> {
    let mut w = SnapshotWriter::new();
    w.put_u64(self.x);
    put_config(&mut w, self.cfg);
    w.put_bytes(&self.inner.snapshot_bytes()?)?;
    w.finish()
}
fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), E> {
    let mut r = SnapshotReader::new(bytes)?;
    let x = r.take_u64()?;
    let cfg = take_config(&mut r)?;
    let inner = r.take_bytes()?;
    self.inner.restore_bytes(inner)?;
    r.finish()
}
";
        let pairs = pairs_of(src);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].mismatch, None, "{:?}", pairs[0].mismatch);
    }

    #[test]
    fn non_codec_checkpoint_restore_accessors_are_skipped() {
        let src = "\
fn checkpoint(&self) -> State { State { a: self.a } }
fn restore(&mut self, s: &State) { self.a = s.a; }
";
        assert!(pairs_of(src).is_empty());
    }

    #[test]
    fn component_codecs_are_keyed_by_receiver() {
        let src = "\
fn snapshot_bytes(&self) -> Result<Vec<u8>, E> {
    let mut w = SnapshotWriter::new();
    self.scheduler.encode_state(&mut w);
    self.ladder.encode_state(&mut w);
    w.finish()
}
fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), E> {
    let mut r = SnapshotReader::new(bytes)?;
    let mut scheduler = self.scheduler;
    scheduler.decode_state(&mut r)?;
    let mut ladder = self.ladder;
    ladder.decode_state(&mut r)?;
    r.finish()
}
";
        let pairs = pairs_of(src);
        assert_eq!(pairs[0].mismatch, None, "{:?}", pairs[0].mismatch);
        let swapped = src.replace(
            "self.scheduler.encode_state(&mut w);\n    self.ladder.encode_state(&mut w);",
            "self.ladder.encode_state(&mut w);\n    self.scheduler.encode_state(&mut w);",
        );
        let pairs = pairs_of(&swapped);
        let m = pairs[0].mismatch.as_deref().expect("drift");
        assert!(
            m.contains("writer has helper:ladder.state but reader has helper:scheduler.state"),
            "{m}"
        );
    }

    #[test]
    fn opt_helpers_must_match_opt_helpers() {
        let src = "\
fn put_deadline(w: &mut W, d: Option<u64>) { w.put_opt_uvar(d); }
fn take_deadline(r: &mut R) -> Result<u64, E> { r.take_uvar() }
";
        let pairs = pairs_of(src);
        let m = pairs[0].mismatch.as_deref().expect("drift");
        assert!(m.contains("opt_uvar"), "{m}");
    }
}
