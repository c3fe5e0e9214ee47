//! A small hand-rolled Rust lexer.
//!
//! Produces a flat token stream with line numbers — enough structure
//! for the invariant lints in [`crate::rules`], nothing more. The
//! tricky parts of Rust's lexical grammar that a naive regex scan gets
//! wrong are handled properly:
//!
//! - raw strings with arbitrary hash fences (`r#"…"#`, `br##"…"##`),
//! - nested block comments (`/* /* … */ */`),
//! - char literals vs. lifetimes (`'x'` vs. `'static`),
//! - raw identifiers (`r#match`),
//! - float vs. integer vs. range punctuation (`1.5`, `1..5`, `1.max(2)`).
//!
//! Comments are kept in the stream (the allow-annotation parser in
//! [`crate::allow`] reads them); rules operate on a comment-free view.

/// Classification of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`foo`, `match`, `r#match`).
    Ident,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Integer literal (`42`, `0xff_u32`).
    Int,
    /// Float literal (`1.5`, `2e9`, `1f64`).
    Float,
    /// String, raw-string, byte-string or char literal.
    Str,
    /// `// …` comment (doc comments included).
    LineComment,
    /// `/* … */` comment, nesting handled.
    BlockComment,
    /// Punctuation; multi-character operators are joined (`==`, `::`,
    /// `=>`, `->`, `..=`, …).
    Punct,
}

/// One lexed token: kind, verbatim text and 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token text, verbatim from the source.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

impl Tok {
    /// True when this token is a comment (line or block).
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

/// Rust keywords: an identifier position that can neither end an
/// expression before `[` nor name a called function.
pub(crate) const KEYWORDS: [&str; 29] = [
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "trait", "use", "while",
];

/// A token that can panic at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PanicToken {
    /// `unwrap` or `expect` in `.unwrap(` / `.expect(`.
    Method,
    /// `panic`, `unreachable`, `todo` or `unimplemented` before `!`.
    Macro,
    /// A `[` that indexes an expression: it follows a non-keyword
    /// identifier, `)` or `]`.
    Index,
}

/// Classify `code[i]` of a comment-free token stream as a panic-family
/// token, or `None`.
pub(crate) fn panic_token(code: &[&Tok], i: usize) -> Option<PanicToken> {
    let t = code.get(i)?;
    let next = code.get(i + 1).map(|t| t.text.as_str());
    let prev = i.checked_sub(1).and_then(|p| code.get(p));
    let prev_text = prev.map(|p| p.text.as_str());
    match (t.kind, t.text.as_str()) {
        (TokKind::Ident, "unwrap" | "expect") if prev_text == Some(".") && next == Some("(") => {
            Some(PanicToken::Method)
        }
        (TokKind::Ident, "panic" | "unreachable" | "todo" | "unimplemented")
            if next == Some("!") =>
        {
            Some(PanicToken::Macro)
        }
        (_, "[") => {
            let p = prev?;
            let indexes = match p.kind {
                TokKind::Ident => !KEYWORDS.contains(&p.text.as_str()),
                TokKind::Punct => matches!(p.text.as_str(), ")" | "]"),
                _ => false,
            };
            indexes.then_some(PanicToken::Index)
        }
        _ => None,
    }
}

/// Multi-character operators, longest first so maximal munch wins.
const MULTI_PUNCT: [&str; 11] = [
    "..=", "::", "==", "!=", "<=", ">=", "=>", "->", "..", "&&", "||",
];

/// Lex `source` into a token stream.
///
/// The lexer is total: any byte sequence produces *some* stream (an
/// unterminated literal swallows the rest of the file as one token)
/// rather than an error, because a linter must degrade gracefully on
/// the code it is pointed at.
pub fn lex(source: &str) -> Vec<Tok> {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Tok>,
}

impl Lexer {
    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c.is_whitespace() => self.pos += 1,
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(),
                'b' if self.peek(1) == Some('"') => {
                    self.pos += 1;
                    self.string();
                }
                'b' if self.peek(1) == Some('\'') => {
                    // Byte literal `b'x'`: one Str token, not ident + char.
                    self.pos += 1;
                    self.char_or_lifetime();
                }
                'r' | 'b' if self.raw_string_ahead() => self.raw_string(),
                'r' if self.peek(1) == Some('#') && is_ident_start(self.peek(2)) => {
                    // Raw identifier `r#match`: skip the sigil, lex the rest.
                    self.pos += 2;
                    self.ident();
                }
                '\'' => self.char_or_lifetime(),
                c if is_ident_start(Some(c)) => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                _ => self.punct(),
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, start: usize, start_line: u32) {
        let text: String = self.chars[start..self.pos].iter().collect();
        self.out.push(Tok {
            kind,
            text,
            line: start_line,
        });
    }

    /// Advance one char, tracking newlines (for multi-line tokens).
    fn bump(&mut self) {
        if self.peek(0) == Some('\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn line_comment(&mut self) {
        let (start, line) = (self.pos, self.line);
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.pos += 1;
        }
        self.push(TokKind::LineComment, start, line);
    }

    fn block_comment(&mut self) {
        let (start, line) = (self.pos, self.line);
        self.pos += 2; // consume `/*`
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (None, _) => break, // unterminated: swallow to EOF
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                _ => self.bump(),
            }
        }
        self.push(TokKind::BlockComment, start, line);
    }

    fn string(&mut self) {
        let (start, line) = (self.pos, self.line);
        self.pos += 1; // opening quote
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    self.pos += 1;
                    self.bump();
                }
                '"' => {
                    self.pos += 1;
                    break;
                }
                _ => self.bump(),
            }
        }
        self.push(TokKind::Str, start, line);
    }

    /// True when the cursor sits on `r"`, `r#`+`"`, `br"`, `br##"`, ….
    fn raw_string_ahead(&self) -> bool {
        let mut i = if self.peek(0) == Some('b') { 1 } else { 0 };
        if self.peek(i) != Some('r') {
            return false;
        }
        i += 1;
        while self.peek(i) == Some('#') {
            i += 1;
        }
        self.peek(i) == Some('"')
    }

    fn raw_string(&mut self) {
        let (start, line) = (self.pos, self.line);
        if self.peek(0) == Some('b') {
            self.pos += 1;
        }
        self.pos += 1; // `r`
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote
        loop {
            match self.peek(0) {
                None => break, // unterminated: swallow to EOF
                Some('"') => {
                    let fence_closed = (1..=hashes).all(|k| self.peek(k) == Some('#'));
                    self.pos += 1;
                    if fence_closed {
                        self.pos += hashes;
                        break;
                    }
                }
                _ => self.bump(),
            }
        }
        self.push(TokKind::Str, start, line);
    }

    fn char_or_lifetime(&mut self) {
        let (start, line) = (self.pos, self.line);
        // `'a`/`'static` (lifetime) iff an ident follows and the char
        // after that ident is not a closing quote.
        if is_ident_start(self.peek(1)) {
            let mut i = 2;
            while is_ident_continue(self.peek(i)) {
                i += 1;
            }
            if self.peek(i) != Some('\'') {
                self.pos += i;
                self.push(TokKind::Lifetime, start, line);
                return;
            }
        }
        // Char literal: `'x'`, `'\n'`, `'\u{1F600}'`.
        self.pos += 1;
        match self.peek(0) {
            Some('\\') => {
                self.pos += 1;
                if self.peek(0) == Some('u') && self.peek(1) == Some('{') {
                    while self.peek(0).is_some_and(|c| c != '}') {
                        self.pos += 1;
                    }
                }
                self.pos += 1;
            }
            Some(_) => self.bump(),
            None => {}
        }
        if self.peek(0) == Some('\'') {
            self.pos += 1;
        }
        self.push(TokKind::Str, start, line);
    }

    fn ident(&mut self) {
        let (start, line) = (self.pos, self.line);
        while is_ident_continue(self.peek(0)) {
            self.pos += 1;
        }
        self.push(TokKind::Ident, start, line);
    }

    fn number(&mut self) {
        let (start, line) = (self.pos, self.line);
        let mut float = false;
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x' | 'o' | 'b' | 'X')) {
            self.pos += 2;
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                self.pos += 1;
            }
            self.push(TokKind::Int, start, line);
            return;
        }
        while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
            self.pos += 1;
        }
        // A dot makes a float only when not `..` (range) and not a
        // method call (`1.max(2)`).
        if self.peek(0) == Some('.') && self.peek(1) != Some('.') && !is_ident_start(self.peek(1)) {
            float = true;
            self.pos += 1;
            while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                self.pos += 1;
            }
        }
        if matches!(self.peek(0), Some('e' | 'E'))
            && (self.peek(1).is_some_and(|c| c.is_ascii_digit())
                || (matches!(self.peek(1), Some('+' | '-'))
                    && self.peek(2).is_some_and(|c| c.is_ascii_digit())))
        {
            float = true;
            self.pos += 1;
            if matches!(self.peek(0), Some('+' | '-')) {
                self.pos += 1;
            }
            while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                self.pos += 1;
            }
        }
        // Type suffix (`1f64`, `2u32`) — an `f` suffix makes it a float.
        if is_ident_start(self.peek(0)) {
            if self.peek(0) == Some('f') {
                float = true;
            }
            while is_ident_continue(self.peek(0)) {
                self.pos += 1;
            }
        }
        self.push(
            if float { TokKind::Float } else { TokKind::Int },
            start,
            line,
        );
    }

    fn punct(&mut self) {
        let (start, line) = (self.pos, self.line);
        for op in MULTI_PUNCT {
            if op.chars().enumerate().all(|(i, c)| self.peek(i) == Some(c)) {
                self.pos += op.chars().count();
                self.push(TokKind::Punct, start, line);
                return;
            }
        }
        self.pos += 1;
        self.push(TokKind::Punct, start, line);
    }
}

fn is_ident_start(c: Option<char>) -> bool {
    c.is_some_and(|c| c.is_alphabetic() || c == '_')
}

fn is_ident_continue(c: Option<char>) -> bool {
    c.is_some_and(|c| c.is_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn lexes_idents_numbers_and_punct() {
        let toks = kinds("let x = a[i] + 1.5e3;");
        assert!(toks.contains(&(TokKind::Ident, "let".into())));
        assert!(toks.contains(&(TokKind::Float, "1.5e3".into())));
        assert!(toks.contains(&(TokKind::Punct, "[".into())));
    }

    #[test]
    fn range_and_method_calls_are_not_floats() {
        let toks = kinds("1..5 2.max(3) 0..=n 4.0");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Float).count(),
            1,
            "{toks:?}"
        );
        assert!(toks.contains(&(TokKind::Punct, "..=".into())));
        assert!(toks.contains(&(TokKind::Int, "2".into())));
    }

    #[test]
    fn raw_strings_with_fences_do_not_leak() {
        let toks = kinds(r####"let s = r##"inner "quote" panic!()"##; done"####);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("panic!()")));
        assert!(toks.contains(&(TokKind::Ident, "done".into())));
        // The panic! inside the raw string must NOT surface as an ident.
        assert!(!toks.contains(&(TokKind::Ident, "panic".into())));
    }

    #[test]
    fn byte_and_plain_strings_with_escapes() {
        let toks = kinds(r#"b"ab\"c" "x\\" 'q' '\n'"#);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 4);
    }

    #[test]
    fn nested_block_comments_close_properly() {
        let toks = kinds("a /* one /* two */ still */ b");
        assert!(toks.contains(&(TokKind::Ident, "a".into())));
        assert!(toks.contains(&(TokKind::Ident, "b".into())));
        assert_eq!(
            toks.iter()
                .filter(|(k, _)| *k == TokKind::BlockComment)
                .count(),
            1
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && t == "'a"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Str && t == "'x'"));
    }

    #[test]
    fn raw_idents_lex_as_idents() {
        let toks = kinds("let r#match = 1;");
        assert!(toks.contains(&(TokKind::Ident, "match".into())));
    }

    #[test]
    fn raw_ident_type_does_not_split() {
        // Regression: `r#type` must come out as one identifier, not as
        // ident `r` + punct `#` + keyword `type` — a split would let a
        // field named `r#type` derail statement scans in the rules.
        let toks = kinds("struct S { r#type: u32 } let v = s.r#type + 1;");
        assert_eq!(
            toks.iter()
                .filter(|(k, t)| *k == TokKind::Ident && t == "type")
                .count(),
            2,
            "{toks:?}"
        );
        assert!(!toks.contains(&(TokKind::Punct, "#".into())), "{toks:?}");
        assert!(!toks.contains(&(TokKind::Ident, "r".into())), "{toks:?}");
    }

    #[test]
    fn byte_char_literals_are_one_token() {
        // Regression: `b'x'` used to lex as ident `b` + char `'x'`,
        // which made `matches!(c, b' ' | b'\t')` look like identifier
        // soup to the rules.
        let toks = kinds(r"matches!(c, b' ' | b'\n' | b'\\')");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Str).count(),
            3,
            "{toks:?}"
        );
        assert!(!toks.contains(&(TokKind::Ident, "b".into())), "{toks:?}");
        // Byte strings still lex as a single Str token.
        let toks = kinds(r#"w.write(b"ASGV")"#);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("ASGV")));
    }

    #[test]
    fn nested_generic_closers_stay_single() {
        // `>>` must NOT join into a shift token: generic depth tracking
        // throughout the analyses balances `<`/`>` one at a time, so
        // `Vec<Vec<u8>>` has to close with two separate `>` puncts.
        let toks = kinds("let v: Vec<Vec<u8>> = make();");
        assert_eq!(
            toks.iter()
                .filter(|(k, t)| *k == TokKind::Punct && t == ">")
                .count(),
            2,
            "{toks:?}"
        );
        assert!(!toks.contains(&(TokKind::Punct, ">>".into())), "{toks:?}");
        // `>=` does join — `while deadline_ms >= now_ms` must not leave
        // a stray `>` that unbalances generic tracking.
        let toks = kinds("if a >= b {}");
        assert!(toks.contains(&(TokKind::Punct, ">=".into())), "{toks:?}");
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let toks = lex("a\n/* x\ny */\nb");
        let b = toks.iter().find(|t| t.text == "b").expect("b lexed");
        assert_eq!(b.line, 4);
    }

    #[test]
    fn multi_char_operators_join() {
        let toks = kinds("a == b != c => d :: e -> f");
        for op in ["==", "!=", "=>", "::", "->"] {
            assert!(toks.contains(&(TokKind::Punct, op.into())), "missing {op}");
        }
    }

    #[test]
    fn unterminated_literals_do_not_hang() {
        let toks = lex("let s = \"never closed");
        assert!(toks.iter().any(|t| t.kind == TokKind::Str));
        let toks = lex("let s = r#\"never closed");
        assert!(toks.iter().any(|t| t.kind == TokKind::Str));
    }
}
