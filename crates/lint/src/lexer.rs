//! A token-level Rust scanner — the foundation every analysis walks.
//!
//! The environment has no registry access, so `syn` is not an option; like
//! the vendored dependency stand-ins, this is a small API-subset with full
//! fidelity on the cases that matter for linting:
//!
//! * string literals with escapes, raw strings `r#"…"#` with any hash
//!   count, byte and raw-byte strings, raw identifiers `r#fn`;
//! * char literals vs lifetimes (`'a'` vs `'a`), including escaped chars
//!   (`'\''`, `'\u{1F600}'`);
//! * nested block comments, line/block *doc* comments (`///`, `//!`,
//!   `/** */`, `/*! */`) kept as distinct tokens so analyses can skip
//!   rustdoc examples while still reading `// SAFETY:` text;
//! * line numbers on every token, and a per-line code/comment map for the
//!   "adjacent comment" rules.
//!
//! Comments are *kept* in the token stream ([`Tok::LineComment`],
//! [`Tok::BlockComment`]); [`SourceFile::code`] indexes the comment-free
//! view that the parser and analyses iterate.

use std::path::PathBuf;

/// One lexed token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (keywords are not distinguished here).
    Ident(String),
    /// A lifetime or loop label, without the leading `'`.
    Lifetime(String),
    /// A char or byte-char literal (content not retained).
    CharLit,
    /// A string / byte-string literal (content not retained).
    StrLit,
    /// A raw string / raw byte-string literal (content not retained).
    RawStrLit,
    /// A numeric literal (content not retained).
    NumLit,
    /// A single punctuation character; multi-char operators such as `::`
    /// appear as consecutive tokens.
    Punct(char),
    /// A `//` comment; `doc` is true for `///` and `//!` forms.
    LineComment {
        /// Whether this is a doc comment (`///` or `//!`).
        doc: bool,
        /// Comment text including the leading slashes.
        text: String,
    },
    /// A `/* */` comment (nesting handled); `doc` is true for `/**`, `/*!`.
    BlockComment {
        /// Whether this is a doc comment (`/**` or `/*!`).
        doc: bool,
        /// Comment text including the delimiters.
        text: String,
    },
}

/// A token plus its 1-based source line (the line it *starts* on).
#[derive(Debug, Clone)]
pub struct Token {
    /// Token kind and payload.
    pub kind: Tok,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self.kind, Tok::Punct(p) if p == c)
    }
}

/// A lexed file: full token stream, the comment-free index view, and
/// per-line code/comment occupancy used by adjacency rules.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (as given to [`lex_file`]).
    pub path: PathBuf,
    /// Every token, comments included, in source order.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens.
    pub code: Vec<usize>,
    /// For each 1-based line: does any non-comment token start there?
    code_on_line: Vec<bool>,
    /// For each 1-based line: does any comment token *cover* it?
    comment_on_line: Vec<bool>,
}

impl SourceFile {
    /// The non-comment token at code index `i` (panics if out of range).
    pub fn ct(&self, i: usize) -> &Token {
        &self.tokens[self.code[i]]
    }

    /// Number of non-comment tokens.
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// True when a non-comment token starts on `line`.
    pub fn line_has_code(&self, line: u32) -> bool {
        self.code_on_line
            .get(line as usize)
            .copied()
            .unwrap_or(false)
    }

    /// True when a comment covers `line` (block comments cover every line
    /// they span).
    pub fn line_has_comment(&self, line: u32) -> bool {
        self.comment_on_line
            .get(line as usize)
            .copied()
            .unwrap_or(false)
    }

    /// All comment texts that *cover* `line` (a multi-line block comment is
    /// reported on each of its lines).
    pub fn comments_covering(&self, line: u32) -> impl Iterator<Item = &str> {
        self.tokens.iter().filter_map(move |t| match &t.kind {
            Tok::LineComment { text, .. } if t.line == line => Some(text.as_str()),
            Tok::BlockComment { text, .. } => {
                let end = t.line + text.matches('\n').count() as u32;
                (t.line <= line && line <= end).then_some(text.as_str())
            }
            _ => None,
        })
    }
}

/// Lexes `src`, attributing tokens to `path` (stored verbatim).
///
/// The scanner never fails: unterminated literals or comments simply end at
/// EOF — for linting, a best-effort stream beats a hard error.
pub fn lex_file(path: impl Into<PathBuf>, src: &str) -> SourceFile {
    let mut lx = Lexer {
        chars: src.char_indices().peekable(),
        src,
        line: 1,
        tokens: Vec::new(),
    };
    lx.run();
    let n_lines = src.lines().count() + 2;
    let mut code_on_line = vec![false; n_lines + 1];
    let mut comment_on_line = vec![false; n_lines + 1];
    let mut code = Vec::new();
    for (i, t) in lx.tokens.iter().enumerate() {
        match &t.kind {
            Tok::LineComment { .. } => {
                if let Some(slot) = comment_on_line.get_mut(t.line as usize) {
                    *slot = true;
                }
            }
            Tok::BlockComment { text, .. } => {
                let end = t.line as usize + text.matches('\n').count();
                for slot in &mut comment_on_line[t.line as usize..=end.min(n_lines)] {
                    *slot = true;
                }
            }
            _ => {
                code.push(i);
                if let Some(slot) = code_on_line.get_mut(t.line as usize) {
                    *slot = true;
                }
            }
        }
    }
    SourceFile {
        path: path.into(),
        tokens: lx.tokens,
        code,
        code_on_line,
        comment_on_line,
    }
}

struct Lexer<'s> {
    chars: std::iter::Peekable<std::str::CharIndices<'s>>,
    src: &'s str,
    line: u32,
    tokens: Vec<Token>,
}

impl<'s> Lexer<'s> {
    fn bump(&mut self) -> Option<char> {
        let (_, c) = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().map(|&(_, c)| c)
    }

    fn peek2(&mut self) -> Option<char> {
        let mut it = self.chars.clone();
        it.next();
        it.next().map(|(_, c)| c)
    }

    fn peek_at(&mut self, k: usize) -> Option<char> {
        let mut it = self.chars.clone();
        for _ in 0..k {
            it.next();
        }
        it.next().map(|(_, c)| c)
    }

    fn push(&mut self, line: u32, kind: Tok) {
        self.tokens.push(Token { kind, line });
    }

    fn run(&mut self) {
        while let Some(c) = self.peek() {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' => self.slash(line),
                '"' => {
                    self.bump();
                    self.string_body();
                    self.push(line, Tok::StrLit);
                }
                '\'' => self.quote(line),
                'r' | 'b' if self.raw_or_byte(line) => {}
                c if c.is_alphabetic() || c == '_' => self.ident(line),
                c if c.is_ascii_digit() => self.number(line),
                c => {
                    self.bump();
                    self.push(line, Tok::Punct(c));
                }
            }
        }
    }

    /// `//`-or-`/*` comment, or a plain `/` punct.
    fn slash(&mut self, line: u32) {
        match self.peek2() {
            Some('/') => {
                let start = self.offset();
                self.bump();
                self.bump();
                // `///` is doc unless `////…`; `//!` is inner doc.
                let doc = match (self.peek(), self.peek2()) {
                    (Some('/'), Some('/')) => false,
                    (Some('/'), _) | (Some('!'), _) => true,
                    _ => false,
                };
                while let Some(c) = self.peek() {
                    if c == '\n' {
                        break;
                    }
                    self.bump();
                }
                let text = self.src[start..self.offset()].to_string();
                self.push(line, Tok::LineComment { doc, text });
            }
            Some('*') => {
                let start = self.offset();
                self.bump();
                self.bump();
                // `/**` is doc unless `/**/` (empty) or `/***`; `/*!` is doc.
                let doc = match (self.peek(), self.peek2()) {
                    (Some('*'), Some('*')) | (Some('*'), Some('/')) => false,
                    (Some('*'), _) | (Some('!'), _) => true,
                    _ => false,
                };
                let mut depth = 1u32;
                while depth > 0 {
                    match (self.peek(), self.peek2()) {
                        (Some('/'), Some('*')) => {
                            self.bump();
                            self.bump();
                            depth += 1;
                        }
                        (Some('*'), Some('/')) => {
                            self.bump();
                            self.bump();
                            depth -= 1;
                        }
                        (Some(_), _) => {
                            self.bump();
                        }
                        (None, _) => break,
                    }
                }
                let text = self.src[start..self.offset()].to_string();
                self.push(line, Tok::BlockComment { doc, text });
            }
            _ => {
                self.bump();
                self.push(line, Tok::Punct('/'));
            }
        }
    }

    fn offset(&mut self) -> usize {
        self.chars.peek().map(|&(i, _)| i).unwrap_or(self.src.len())
    }

    /// Body of a `"…"` string (opening quote consumed).
    fn string_body(&mut self) {
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
    }

    /// `'` — char literal or lifetime/label.
    fn quote(&mut self, line: u32) {
        self.bump();
        match self.peek() {
            // `'\…'` is always a char literal.
            Some('\\') => {
                self.bump();
                self.bump();
                // Escapes like `\u{…}` span until the closing quote.
                while let Some(c) = self.bump() {
                    if c == '\'' {
                        break;
                    }
                }
                self.push(line, Tok::CharLit);
            }
            Some(c) if c.is_alphanumeric() || c == '_' => {
                // `'a'` → char; `'a` / `'static` / `'_` → lifetime.
                if self.peek2() == Some('\'') {
                    self.bump();
                    self.bump();
                    self.push(line, Tok::CharLit);
                } else {
                    let mut name = String::new();
                    while let Some(c) = self.peek() {
                        if c.is_alphanumeric() || c == '_' {
                            name.push(c);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(line, Tok::Lifetime(name));
                }
            }
            // `'('`-style punctuation char literal, e.g. `' '` or `'('`.
            Some(_) if self.peek2() == Some('\'') => {
                self.bump();
                self.bump();
                self.push(line, Tok::CharLit);
            }
            _ => {
                self.push(line, Tok::Punct('\''));
            }
        }
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'`, and raw
    /// identifiers `r#ident`.  Returns false when the `r`/`b` starts a
    /// plain identifier (caller lexes it).
    fn raw_or_byte(&mut self, line: u32) -> bool {
        let c0 = self.peek().unwrap_or(' ');
        // Number of prefix chars before a possible quote/hash run.
        let after: Vec<Option<char>> = (1..=3).map(|k| self.peek_at(k)).collect();
        match c0 {
            'b' => match after[0] {
                Some('\'') => {
                    self.bump();
                    self.quote(line); // byte-char literal lexes like a char
                    if let Some(Token { kind, .. }) = self.tokens.last_mut() {
                        if matches!(kind, Tok::Lifetime(_)) {
                            *kind = Tok::CharLit; // `b'x'` is never a lifetime
                        }
                    }
                    true
                }
                Some('"') => {
                    self.bump();
                    self.bump();
                    self.string_body();
                    self.push(line, Tok::StrLit);
                    true
                }
                Some('r') if matches!(after[1], Some('"') | Some('#')) => {
                    self.bump();
                    self.bump();
                    self.raw_string_body(line);
                    true
                }
                _ => false,
            },
            'r' => match after[0] {
                Some('"') => {
                    self.bump();
                    self.raw_string_body(line);
                    true
                }
                Some('#') => {
                    // `r#"…"#` raw string vs `r#ident` raw identifier.
                    let mut k = 1;
                    while self.peek_at(k) == Some('#') {
                        k += 1;
                    }
                    if self.peek_at(k) == Some('"') {
                        self.bump();
                        self.raw_string_body(line);
                    } else {
                        self.bump(); // r
                        self.bump(); // #
                        self.ident(line); // keyword-named ident like `r#fn`
                    }
                    true
                }
                _ => false,
            },
            _ => false,
        }
    }

    /// Body of a raw string starting at the hash run (or quote) — the
    /// leading `r`/`br` has been consumed.
    fn raw_string_body(&mut self, line: u32) {
        let mut hashes = 0usize;
        while self.peek() == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        'scan: while let Some(c) = self.bump() {
            if c == '"' {
                let mut it = self.chars.clone();
                for _ in 0..hashes {
                    if !matches!(it.next(), Some((_, '#'))) {
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.push(line, Tok::RawStrLit);
    }

    fn ident(&mut self, line: u32) {
        let mut name = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                name.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(line, Tok::Ident(name));
    }

    fn number(&mut self, line: u32) {
        // Digits, underscores, radix/exponent letters; a `.` continues the
        // number only when followed by a digit (so `0..n` stays a range).
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' | '_' | 'a'..='d' | 'f' | 'A'..='D' | 'F' | 'x' | 'o' | 'X' | 'O' => {
                    self.bump();
                }
                'e' | 'E' => {
                    self.bump();
                    if matches!(self.peek(), Some('+') | Some('-')) {
                        self.bump();
                    }
                }
                '.' if matches!(self.peek2(), Some(d) if d.is_ascii_digit()) => {
                    self.bump();
                }
                'i' | 'u'
                    if matches!(self.peek2(), Some('8') | Some('1') | Some('3') | Some('6'))
                        || self.peek2().is_none() =>
                {
                    // Type suffix (i8/u16/…); consume and stop.
                    while matches!(self.peek(), Some(c) if c.is_alphanumeric()) {
                        self.bump();
                    }
                    break;
                }
                _ => break,
            }
        }
        self.push(line, Tok::NumLit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex_file("t.rs", src)
            .tokens
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    fn idents(src: &str) -> Vec<String> {
        lex_file("t.rs", src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        assert_eq!(
            kinds("'a' 'a 'static '_ '\\'' '\\u{1F600}' b'x'"),
            vec![
                Tok::CharLit,
                Tok::Lifetime("a".into()),
                Tok::Lifetime("static".into()),
                Tok::Lifetime("_".into()),
                Tok::CharLit,
                Tok::CharLit,
                Tok::CharLit,
            ]
        );
    }

    #[test]
    fn strings_do_not_hide_code_and_code_in_strings_is_ignored() {
        // `.unwrap()` inside a string must not produce ident tokens.
        assert_eq!(idents(r#"let s = "x.unwrap()";"#), vec!["let", "s"]);
        // Escaped quotes don't end the string early.
        assert_eq!(idents(r#""a\"b.unwrap()\"c" y"#), vec!["y"]);
    }

    #[test]
    fn raw_strings_arbitrary_hashes() {
        assert_eq!(
            kinds(r###"r"a" r#"b"# r##"c "# still"##"###),
            vec![Tok::RawStrLit, Tok::RawStrLit, Tok::RawStrLit]
        );
        // Raw string containing an un-escaped quote and hash run shorter
        // than the delimiter.
        assert_eq!(
            idents(r###"r##"has "quote"# inside"## tail"###),
            vec!["tail"]
        );
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(
            idents("r#fn r#unsafe normal"),
            vec!["fn", "unsafe", "normal"]
        );
    }

    #[test]
    fn byte_strings() {
        assert_eq!(
            kinds(r##"b"bytes" br#"raw bytes"# x"##),
            vec![Tok::StrLit, Tok::RawStrLit, Tok::Ident("x".into())]
        );
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still outer */ code");
        assert_eq!(toks.len(), 2);
        assert!(matches!(&toks[0], Tok::BlockComment { doc: false, .. }));
        assert_eq!(toks[1], Tok::Ident("code".into()));
    }

    #[test]
    fn doc_comment_classification() {
        assert!(matches!(
            &kinds("/// doc")[0],
            Tok::LineComment { doc: true, .. }
        ));
        assert!(matches!(
            &kinds("//! doc")[0],
            Tok::LineComment { doc: true, .. }
        ));
        assert!(matches!(
            &kinds("// not")[0],
            Tok::LineComment { doc: false, .. }
        ));
        assert!(matches!(
            &kinds("//// not")[0],
            Tok::LineComment { doc: false, .. }
        ));
        assert!(matches!(
            &kinds("/** doc */")[0],
            Tok::BlockComment { doc: true, .. }
        ));
        assert!(matches!(
            &kinds("/*! doc */")[0],
            Tok::BlockComment { doc: true, .. }
        ));
        assert!(matches!(
            &kinds("/* not */")[0],
            Tok::BlockComment { doc: false, .. }
        ));
        assert!(matches!(
            &kinds("/**/")[0],
            Tok::BlockComment { doc: false, .. }
        ));
    }

    #[test]
    fn doc_comments_with_unwrap_are_comment_tokens() {
        // Rustdoc examples containing `.unwrap()` must never become code.
        let src = "/// let x = foo().unwrap();\nfn real() {}";
        let f = lex_file("t.rs", src);
        let code: Vec<_> = (0..f.code_len()).map(|i| f.ct(i).kind.clone()).collect();
        assert_eq!(
            code,
            vec![
                Tok::Ident("fn".into()),
                Tok::Ident("real".into()),
                Tok::Punct('('),
                Tok::Punct(')'),
                Tok::Punct('{'),
                Tok::Punct('}'),
            ]
        );
    }

    #[test]
    fn line_numbers_and_line_maps() {
        let src = "fn a() {}\n// note\nlet x = 1; // trailing\n/* span\nstill */ fn b() {}\n";
        let f = lex_file("t.rs", src);
        assert_eq!(f.ct(0).line, 1);
        assert!(f.line_has_code(1));
        assert!(!f.line_has_code(2) && f.line_has_comment(2));
        assert!(f.line_has_code(3) && f.line_has_comment(3));
        assert!(f.line_has_comment(4) && f.line_has_comment(5));
        assert!(f.line_has_code(5));
        let b = (0..f.code_len())
            .find(|&i| f.ct(i).ident() == Some("b"))
            .unwrap();
        assert_eq!(f.ct(b).line, 5);
    }

    #[test]
    fn numbers_do_not_swallow_ranges_or_methods() {
        assert_eq!(
            idents("for i in 0..n { t.0.push(i) }"),
            vec!["for", "i", "in", "n", "t", "push", "i"]
        );
        let toks = kinds("1.5e-3 0x1f 1_000u64");
        assert!(toks
            .iter()
            .all(|t| matches!(t, Tok::NumLit | Tok::Punct(_))));
    }
}
