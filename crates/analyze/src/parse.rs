//! Item-level parsing on top of the token stream.
//!
//! The lexer ([`crate::lexer`]) gives a flat token list; the semantic
//! analyses (units of measure, transitive panic reachability) need
//! *items*: which function a token belongs to, what the function's
//! parameters and return type look like, and which `impl` block it
//! sits in. This module recovers exactly that much
//! structure — no expressions, no types beyond their spelling — by a
//! single bracket-matching pass over the comment-free stream.
//!
//! Like the lexer, the parser is total: pathological input produces a
//! best-effort item list, never an error, because an analyzer must
//! degrade gracefully on whatever code it is pointed at. Generic
//! angle brackets are balanced by depth counting (the lexer emits `>`
//! twice for `>>`, so nested closers need no special casing here).

use crate::lexer::{Tok, TokKind};

/// One function parameter: pattern name (best effort — `_` and
/// destructuring patterns yield an empty name) and the type's token
/// spelling.
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name (`x` for `x: u64`, `self` for receivers, empty for
    /// `_`/tuple patterns).
    pub name: String,
    /// Type tokens joined with single spaces (`& mut u64`); empty for
    /// receivers without an explicit type.
    pub ty: String,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name (`snapshot_bytes`).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Self type of the enclosing `impl` block, when any (`ShardState`
    /// for `impl ShardState { … }` *and* `impl Restartable for
    /// ShardState { … }`).
    pub impl_type: Option<String>,
    /// Trait being implemented by the enclosing `impl` block, when any
    /// (`Restartable` for `impl Restartable for ShardState`).
    pub impl_trait: Option<String>,
    /// Parsed parameter list.
    pub params: Vec<Param>,
    /// Return type spelling (tokens joined with spaces), empty for `()`.
    pub ret: String,
    /// Token range of the body *contents* in the comment-free stream:
    /// `body_start` is the index just after the opening `{`,
    /// `body_end` the index of the matching `}` (exclusive range).
    /// `body_start == body_end` for bodyless items (trait methods).
    pub body: (usize, usize),
}

/// Everything the item pass recovered from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Functions in source order, including nested ones (closures are
    /// not items and are left inline in their parent's body range).
    pub fns: Vec<FnItem>,
}

impl ParsedFile {
    /// Find a function by name (first match in source order).
    pub fn fn_named(&self, name: &str) -> Option<&FnItem> {
        self.fns.iter().find(|f| f.name == name)
    }
}

/// Parse the comment-free token slice of one file into items.
pub fn parse_items(code: &[&Tok]) -> ParsedFile {
    let mut out = ParsedFile::default();
    // Stack of (brace_depth_at_entry, impl_type, impl_trait) for the
    // impl blocks currently open.
    let mut impl_stack: Vec<(usize, Option<String>, Option<String>)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                while impl_stack.last().is_some_and(|(d, _, _)| *d > depth) {
                    impl_stack.pop();
                }
            }
            "impl" if t.kind == TokKind::Ident => {
                if let Some((ty, tr, at)) = parse_impl_header(code, i) {
                    // Record the impl as entered at the depth its `{`
                    // will create; the body open brace is at `at`.
                    impl_stack.push((depth + 1, Some(ty), tr));
                    depth += 1;
                    i = at + 1;
                    continue;
                }
            }
            "fn" if t.kind == TokKind::Ident => {
                if let Some((item, next)) = parse_fn(code, i, &impl_stack) {
                    // Recurse over the body for nested `fn` items by
                    // simply continuing the scan *inside* it: the body
                    // range stays recorded on the parent.
                    out.fns.push(item);
                    i += 1;
                    let _ = next;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Parse `impl [<…>] Type { …` or `impl [<…>] Trait for Type { …`
/// starting at the `impl` keyword. Returns (self type, trait, index of
/// the opening brace).
fn parse_impl_header(code: &[&Tok], at: usize) -> Option<(String, Option<String>, usize)> {
    let mut i = at + 1;
    i = skip_generics(code, i);
    // First path (either the self type or the trait).
    let (first, mut i) = parse_path_name(code, i)?;
    i = skip_generics(code, i);
    if code.get(i).is_some_and(|t| t.text == "for") {
        let (second, mut j) = parse_path_name(code, i + 1)?;
        j = skip_generics(code, j);
        // Skip a where clause.
        while code.get(j).is_some_and(|t| t.text != "{") {
            j += 1;
        }
        code.get(j)?;
        return Some((second, Some(first), j));
    }
    while code.get(i).is_some_and(|t| t.text != "{") {
        i += 1;
    }
    code.get(i)?;
    Some((first, None, i))
}

/// Parse a (possibly `::`-qualified, possibly `&`-prefixed) path,
/// returning its final segment and the index just past it.
fn parse_path_name(code: &[&Tok], mut i: usize) -> Option<(String, usize)> {
    while code
        .get(i)
        .is_some_and(|t| matches!(t.text.as_str(), "&" | "mut" | "dyn"))
    {
        i += 1;
    }
    let mut name = None;
    while let Some(t) = code.get(i) {
        if t.kind == TokKind::Ident {
            name = Some(t.text.clone());
            i += 1;
            i = skip_generics(code, i);
            if code.get(i).is_some_and(|t| t.text == "::") {
                i += 1;
                continue;
            }
        }
        break;
    }
    name.map(|n| (n, i))
}

/// If `code[i]` opens a generic list (`<`), return the index just past
/// its matching `>`; otherwise return `i` unchanged. The lexer never
/// joins `>>`, so depth counting suffices.
fn skip_generics(code: &[&Tok], i: usize) -> usize {
    if code.get(i).is_none_or(|t| t.text != "<") {
        return i;
    }
    let mut depth = 0usize;
    let mut j = i;
    while let Some(t) = code.get(j) {
        match t.text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            // `->` inside `Fn(..) -> T` bounds; "=>"/">=" never appear
            // in type position. `<<`/`>>` are not joined by the lexer.
            ";" | "{" => return i, // bail: was a comparison, not generics
            _ => {}
        }
        j += 1;
    }
    i
}

/// Parse one `fn` item starting at the `fn` keyword. Returns the item
/// and the index just past the signature (the body is scanned but the
/// caller continues *inside* it so nested items are still found).
fn parse_fn(
    code: &[&Tok],
    at: usize,
    impl_stack: &[(usize, Option<String>, Option<String>)],
) -> Option<(FnItem, usize)> {
    let name_tok = code.get(at + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    let line = code[at].line;
    let mut i = skip_generics(code, at + 2);
    if code.get(i).is_none_or(|t| t.text != "(") {
        return None;
    }
    // Collect the parameter list up to the matching `)`.
    let mut paren = 0usize;
    let start = i;
    while let Some(t) = code.get(i) {
        match t.text.as_str() {
            "(" | "[" | "{" => paren += 1,
            ")" | "]" | "}" => {
                paren = paren.saturating_sub(1);
                if paren == 0 && t.text == ")" {
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }
    let params = parse_params(&code[start + 1..i]);
    i += 1; // past `)`

    // Return type: tokens between `->` and the body `{` / `;` / `where`.
    let mut ret = String::new();
    if code.get(i).is_some_and(|t| t.text == "->") {
        i += 1;
        let mut angle = 0usize;
        while let Some(t) = code.get(i) {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle = angle.saturating_sub(1),
                "{" | ";" if angle == 0 => break,
                "where" if angle == 0 => break,
                _ => {}
            }
            if !ret.is_empty() {
                ret.push(' ');
            }
            ret.push_str(&t.text);
            i += 1;
        }
    }
    // Skip a where clause to the body.
    while code.get(i).is_some_and(|t| t.text != "{" && t.text != ";") {
        i += 1;
    }
    let (body, sig_end) = match code.get(i).map(|t| t.text.as_str()) {
        Some("{") => {
            let open = i;
            let mut brace = 0usize;
            while let Some(t) = code.get(i) {
                match t.text.as_str() {
                    "{" => brace += 1,
                    "}" => {
                        brace -= 1;
                        if brace == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            ((open + 1, i), open + 1)
        }
        _ => ((i, i), i + 1),
    };
    let (impl_type, impl_trait) = impl_stack
        .last()
        .map_or((None, None), |(_, ty, tr)| (ty.clone(), tr.clone()));
    Some((
        FnItem {
            name,
            line,
            impl_type,
            impl_trait,
            params,
            ret,
            body,
        },
        sig_end,
    ))
}

/// Split a parameter token slice on top-level commas and extract
/// `name: Type` pairs.
fn parse_params(toks: &[&Tok]) -> Vec<Param> {
    let mut params = Vec::new();
    let mut depth = 0usize;
    let mut cur: Vec<&Tok> = Vec::new();
    for t in toks.iter().chain(std::iter::once(&&Tok {
        kind: TokKind::Punct,
        text: ",".into(),
        line: 0,
    })) {
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
            "," if depth == 0 => {
                if !cur.is_empty() {
                    params.push(param_of(&cur));
                    cur.clear();
                }
                continue;
            }
            _ => {}
        }
        cur.push(t);
    }
    params
}

fn param_of(toks: &[&Tok]) -> Param {
    // Receiver forms: `self`, `&self`, `&mut self`, `mut self`.
    if toks.iter().any(|t| t.text == "self") && !toks.iter().any(|t| t.text == ":") {
        return Param {
            name: "self".into(),
            ty: String::new(),
        };
    }
    let colon = toks.iter().position(|t| t.text == ":");
    let Some(c) = colon else {
        return Param {
            name: String::new(),
            ty: String::new(),
        };
    };
    // Name: last plain ident before the colon (skips `mut`, `ref`).
    let name = toks[..c]
        .iter()
        .rev()
        .find(|t| t.kind == TokKind::Ident && !matches!(t.text.as_str(), "mut" | "ref"))
        .map(|t| t.text.clone())
        .unwrap_or_default();
    let ty = toks[c + 1..]
        .iter()
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join(" ");
    Param { name, ty }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        let toks = lex(src);
        let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
        parse_items(&code)
    }

    #[test]
    fn finds_free_and_impl_fns_with_signatures() {
        let src = "\
fn free(a_ms: u64, b: &mut Vec<u8>) -> u64 { a_ms }
struct S;
impl S {
    pub fn method(&self, x: f64) -> Result<(), E> { Ok(()) }
}
impl Restartable for S {
    fn snapshot_bytes(&self, now_ms: u64) -> Result<Vec<u8>, SnapshotError> { vec![] }
}
";
        let p = parse(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["free", "method", "snapshot_bytes"]);
        let free = p.fn_named("free").unwrap();
        assert_eq!(free.params.len(), 2);
        assert_eq!(free.params[0].name, "a_ms");
        assert_eq!(free.params[0].ty, "u64");
        assert_eq!(free.ret, "u64");
        assert_eq!(free.impl_type, None);
        let m = p.fn_named("method").unwrap();
        assert_eq!(m.impl_type.as_deref(), Some("S"));
        assert_eq!(m.impl_trait, None);
        assert_eq!(m.params[0].name, "self");
        let s = p.fn_named("snapshot_bytes").unwrap();
        assert_eq!(s.impl_type.as_deref(), Some("S"));
        assert_eq!(s.impl_trait.as_deref(), Some("Restartable"));
    }

    #[test]
    fn nested_generic_closers_balance() {
        let src = "fn f(v: Vec<Vec<u8>>) -> Option<Box<Vec<u64>>> { None }\nfn g() {}\n";
        let p = parse(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["f", "g"]);
        assert_eq!(p.fns[0].params[0].ty, "Vec < Vec < u8 > >");
    }

    #[test]
    fn generic_impls_and_where_clauses() {
        let src = "\
impl<P: Policy> Supervisor<P> where P: Send {
    fn tick(&mut self) {}
}
";
        let p = parse(src);
        let t = p.fn_named("tick").unwrap();
        assert_eq!(t.impl_type.as_deref(), Some("Supervisor"));
    }

    #[test]
    fn qualified_trait_impls_resolve_the_self_type() {
        let src = "impl core::fmt::Display for SnapshotError { fn fmt(&self) {} }";
        let p = parse(src);
        let f = p.fn_named("fmt").unwrap();
        assert_eq!(f.impl_type.as_deref(), Some("SnapshotError"));
        assert_eq!(f.impl_trait.as_deref(), Some("Display"));
    }

    #[test]
    fn body_ranges_cover_the_braced_contents() {
        let src = "fn f() { let x = 1; { let y = 2; } }";
        let toks = lex(src);
        let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
        let p = parse_items(&code);
        let f = &p.fns[0];
        let body: Vec<&str> = code[f.body.0..f.body.1]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(body.first().copied(), Some("let"));
        assert_eq!(body.last().copied(), Some("}"));
        assert!(body.contains(&"y"));
    }

    #[test]
    fn nested_fns_are_both_found() {
        let src = "fn outer() { fn inner(q_ms: u64) -> u64 { q_ms } inner(3); }";
        let p = parse(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
    }

    #[test]
    fn trait_method_declarations_have_empty_bodies() {
        let src = "trait T { fn must(&self, x_ms: u64) -> u64; fn given(&self) {} }";
        let p = parse(src);
        let must = p.fn_named("must").unwrap();
        assert_eq!(must.body.0, must.body.1);
        assert_eq!(must.params[1].name, "x_ms");
    }
}
