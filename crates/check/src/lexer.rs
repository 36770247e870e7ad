//! A Rust token lexer, in the spirit of the MQL lexer: a hand-rolled,
//! dependency-free scanner producing a flat token stream with line
//! numbers, plus the `// check: allow(...)` annotations found in
//! comments.
//!
//! This is *not* a full Rust front-end — it tokenizes exactly as much as
//! the lints need: identifiers, literals (strings, chars, numbers, raw
//! strings), lifetimes, punctuation (with the handful of two-character
//! operators the lints look at joined), and delimiters. Anything the
//! grammar of the analyzed workspace does not use (e.g. nested generic
//! turbofish disambiguation) stays a plain punct sequence.

/// One lexed token kind.
#[derive(Clone, Debug, PartialEq)]
pub enum TokKind {
    /// An identifier or keyword; the text is carried verbatim.
    Ident(String),
    /// A string, byte-string, raw-string, char or number literal
    /// (content is irrelevant to every lint).
    Literal,
    /// A lifetime (`'a`).
    Lifetime,
    /// A single punctuation character.
    Punct(char),
    /// One of the joined two/three-character operators the lints care
    /// about: `::`, `->`, `=>`, `..`, `..=`.
    Joined(&'static str),
    /// An opening delimiter: `(`, `[` or `{`.
    Open(char),
    /// A closing delimiter: `)`, `]` or `}`.
    Close(char),
}

/// A token with its 1-based source line.
#[derive(Clone, Debug, PartialEq)]
pub struct Tok {
    /// What was lexed.
    pub kind: TokKind,
    /// 1-based line number.
    pub line: u32,
}

/// One parsed `// check: allow(kind, "reason")` annotation.
#[derive(Clone, Debug, PartialEq)]
pub struct Annotation {
    /// The lint kind being allowed (`panic` is the only known one).
    pub kind: String,
    /// The justification string (mandatory).
    pub reason: String,
    /// The source line the annotation *applies to*: the comment's own
    /// line for a trailing comment, the following line for a
    /// comment-only line.
    pub applies_to: u32,
    /// The line the comment itself sits on.
    pub at: u32,
}

/// A lexer-level problem (unterminated literal, malformed annotation,
/// unbalanced delimiter). Reported as a diagnostic by the driver.
#[derive(Clone, Debug)]
pub struct LexError {
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub detail: String,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream.
    pub toks: Vec<Tok>,
    /// Parsed `check:` annotations.
    pub annotations: Vec<Annotation>,
    /// Problems encountered (the file is still tokenized best-effort).
    pub errors: Vec<LexError>,
}

/// Tokenize Rust source.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // does the current line already carry a non-comment token?
    let mut line_has_code = false;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                line_has_code = false;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let text = &src[start..i];
                scan_annotation(text, line, line_has_code, &mut out);
                // the newline itself is handled on the next iteration
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // block comment, nesting like Rust's
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        line_has_code = false;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                if depth > 0 {
                    out.errors.push(LexError {
                        line,
                        detail: "unterminated block comment".into(),
                    });
                }
            }
            b'"' => {
                i = lex_string(b, i, &mut line, &mut out);
                push(&mut out, TokKind::Literal, line, &mut line_has_code);
            }
            b'r' | b'b' if raw_or_byte_literal_at(b, i) => {
                i = lex_raw_or_byte(b, i, &mut line, &mut out);
                push(&mut out, TokKind::Literal, line, &mut line_has_code);
            }
            b'\'' => {
                // lifetime or char literal
                if is_lifetime_at(b, i) {
                    i += 1;
                    while i < b.len() && is_ident_byte(b[i]) {
                        i += 1;
                    }
                    push(&mut out, TokKind::Lifetime, line, &mut line_has_code);
                } else {
                    i += 1;
                    // consume until the closing quote, honoring backslash
                    // escapes; a char literal never spans lines
                    let start_line = line;
                    loop {
                        if i >= b.len() || b[i] == b'\n' {
                            out.errors.push(LexError {
                                line: start_line,
                                detail: "unterminated char literal".into(),
                            });
                            break;
                        }
                        if b[i] == b'\\' {
                            i += 2;
                        } else if b[i] == b'\'' {
                            i += 1;
                            break;
                        } else {
                            i += 1;
                        }
                    }
                    push(&mut out, TokKind::Literal, line, &mut line_has_code);
                }
            }
            b'0'..=b'9' => {
                i = lex_number(b, i);
                push(&mut out, TokKind::Literal, line, &mut line_has_code);
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_byte(b[i]) {
                    i += 1;
                }
                push(
                    &mut out,
                    TokKind::Ident(src[start..i].to_owned()),
                    line,
                    &mut line_has_code,
                );
            }
            b'(' | b'[' | b'{' => {
                push(&mut out, TokKind::Open(c as char), line, &mut line_has_code);
                i += 1;
            }
            b')' | b']' | b'}' => {
                push(&mut out, TokKind::Close(c as char), line, &mut line_has_code);
                i += 1;
            }
            _ => {
                // punctuation, with the joined operators the lints use
                let joined: Option<(&'static str, usize)> = match c {
                    b':' if peek(b, i + 1) == b':' => Some(("::", 2)),
                    b'-' if peek(b, i + 1) == b'>' => Some(("->", 2)),
                    b'=' if peek(b, i + 1) == b'>' => Some(("=>", 2)),
                    b'.' if peek(b, i + 1) == b'.' && peek(b, i + 2) == b'=' => {
                        Some(("..=", 3))
                    }
                    b'.' if peek(b, i + 1) == b'.' => Some(("..", 2)),
                    _ => None,
                };
                match joined {
                    Some((op, n)) => {
                        push(&mut out, TokKind::Joined(op), line, &mut line_has_code);
                        i += n;
                    }
                    None => {
                        push(&mut out, TokKind::Punct(c as char), line, &mut line_has_code);
                        i += 1;
                    }
                }
            }
        }
    }
    out
}

fn push(out: &mut Lexed, kind: TokKind, line: u32, line_has_code: &mut bool) {
    *line_has_code = true;
    out.toks.push(Tok { kind, line });
}

fn peek(b: &[u8], i: usize) -> u8 {
    if i < b.len() {
        b[i]
    } else {
        0
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Is the `'` at `i` the start of a lifetime (rather than a char
/// literal)? A lifetime is `'ident` NOT followed by a closing `'`.
fn is_lifetime_at(b: &[u8], i: usize) -> bool {
    let mut j = i + 1;
    if j >= b.len() || !is_ident_start(b[j]) {
        return false;
    }
    while j < b.len() && is_ident_byte(b[j]) {
        j += 1;
    }
    peek(b, j) != b'\''
}

/// Does `r`/`b` at `i` start a raw/byte string or byte char (`r"`,
/// `r#"`, `b"`, `b'`, `br"`, `rb` is not Rust)?
fn raw_or_byte_literal_at(b: &[u8], i: usize) -> bool {
    match b[i] {
        b'r' => {
            let mut j = i + 1;
            while peek(b, j) == b'#' {
                j += 1;
            }
            peek(b, j) == b'"'
        }
        b'b' => matches!(peek(b, i + 1), b'"' | b'\'') || {
            peek(b, i + 1) == b'r' && {
                let mut j = i + 2;
                while peek(b, j) == b'#' {
                    j += 1;
                }
                peek(b, j) == b'"'
            }
        },
        _ => false,
    }
}

/// Lex a plain (escaped) string starting at the opening quote; returns
/// the index just past the closing quote.
fn lex_string(b: &[u8], mut i: usize, line: &mut u32, out: &mut Lexed) -> usize {
    let start_line = *line;
    i += 1;
    loop {
        if i >= b.len() {
            out.errors.push(LexError {
                line: start_line,
                detail: "unterminated string literal".into(),
            });
            return i;
        }
        match b[i] {
            b'\\' => {
                // a line-continuation escape still ends a source line
                if peek(b, i + 1) == b'\n' {
                    *line += 1;
                }
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Lex `r"…"`, `r#"…"#`, `b"…"`, `b'…'`, `br#"…"#` starting at the
/// prefix; returns the index past the literal.
fn lex_raw_or_byte(b: &[u8], mut i: usize, line: &mut u32, out: &mut Lexed) -> usize {
    // skip the r/b prefix letters
    while i < b.len() && (b[i] == b'r' || b[i] == b'b') {
        i += 1;
    }
    let mut hashes = 0usize;
    while peek(b, i) == b'#' {
        hashes += 1;
        i += 1;
    }
    if peek(b, i) == b'\'' {
        // byte char b'x'
        i += 1;
        if peek(b, i) == b'\\' {
            i += 2;
        } else {
            i += 1;
        }
        if peek(b, i) == b'\'' {
            i += 1;
        }
        return i;
    }
    let start_line = *line;
    i += 1; // opening quote
    if hashes == 0 {
        // raw string without hashes ends at the first quote (no
        // escapes); byte strings honor backslash escapes — treating
        // both like the raw form is safe for tokenization because a
        // byte string cannot contain an unescaped quote either way,
        // except via backslash, which we honor:
        loop {
            if i >= b.len() {
                out.errors.push(LexError {
                    line: start_line,
                    detail: "unterminated raw/byte string".into(),
                });
                return i;
            }
            match b[i] {
                b'\\' => {
                    if peek(b, i + 1) == b'\n' {
                        *line += 1;
                    }
                    i += 2;
                }
                b'"' => return i + 1,
                b'\n' => {
                    *line += 1;
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }
    // hashed raw string: ends at `"` followed by `hashes` hashes
    loop {
        if i >= b.len() {
            out.errors.push(LexError {
                line: start_line,
                detail: "unterminated raw string".into(),
            });
            return i;
        }
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if b[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while seen < hashes && peek(b, j) == b'#' {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
        }
        i += 1;
    }
}

/// Lex a number starting at a digit; returns the index after it.
fn lex_number(b: &[u8], i: usize) -> usize {
    let mut j = i;
    if b[j] == b'0' && matches!(peek(b, j + 1), b'x' | b'X' | b'b' | b'B' | b'o' | b'O') {
        j += 2;
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        return j;
    }
    while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
        j += 1;
    }
    // a fraction only when `.` is followed by a digit (so `0..2` and
    // `1.max(2)` stay separate tokens), or an exponent
    if peek(b, j) == b'.' && peek(b, j + 1).is_ascii_digit() {
        j += 1;
        while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
            j += 1;
        }
    }
    if matches!(peek(b, j), b'e' | b'E')
        && (peek(b, j + 1).is_ascii_digit()
            || (matches!(peek(b, j + 1), b'+' | b'-') && peek(b, j + 2).is_ascii_digit()))
    {
        j += 1;
        if matches!(peek(b, j), b'+' | b'-') {
            j += 1;
        }
        while j < b.len() && b[j].is_ascii_digit() {
            j += 1;
        }
    }
    // type suffix (u32, f64, usize, …)
    while j < b.len() && is_ident_byte(b[j]) {
        j += 1;
    }
    j
}

/// Parse a `check:` annotation out of a line comment, if present.
///
/// Grammar: `// check: allow(KIND, "REASON")` — `KIND` is an identifier,
/// `REASON` a non-empty double-quoted string. A trailing comment (code
/// earlier on the line) applies to its own line; a comment-only line
/// applies to the next line. A comment that *mentions* `check:` but does
/// not parse is reported as an error, so a typoed annotation can never
/// silently stop suppressing.
fn scan_annotation(comment: &str, line: u32, line_has_code: bool, out: &mut Lexed) {
    let body = comment.trim_start_matches('/').trim();
    let Some(rest) = body.strip_prefix("check:") else {
        return;
    };
    let rest = rest.trim();
    let parsed = (|| -> Option<(String, String)> {
        let rest = rest.strip_prefix("allow")?.trim_start();
        let rest = rest.strip_prefix('(')?;
        let (kind, rest) = rest.split_once(',')?;
        let kind = kind.trim();
        if kind.is_empty()
            || !kind.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return None;
        }
        let rest = rest.trim();
        let rest = rest.strip_prefix('"')?;
        let (reason, rest) = rest.split_once('"')?;
        if reason.trim().is_empty() || rest.trim() != ")" {
            return None;
        }
        Some((kind.to_owned(), reason.to_owned()))
    })();
    match parsed {
        Some((kind, reason)) => out.annotations.push(Annotation {
            kind,
            reason,
            applies_to: if line_has_code { line } else { line + 1 },
            at: line,
        }),
        None => out.errors.push(LexError {
            line,
            detail: format!(
                "malformed check annotation `{body}` — expected \
                 `check: allow(kind, \"reason\")` with a non-empty reason"
            ),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_numbers_puncts() {
        let k = kinds("let x = foo.bar(42);");
        assert!(k.contains(&TokKind::Ident("let".into())));
        assert!(k.contains(&TokKind::Literal));
        assert!(k.contains(&TokKind::Punct('.')));
    }

    #[test]
    fn ranges_are_not_floats() {
        assert_eq!(
            kinds("0..19"),
            vec![TokKind::Literal, TokKind::Joined(".."), TokKind::Literal]
        );
        assert_eq!(kinds("2.5e-3f64"), vec![TokKind::Literal]);
        // a method call on an integer keeps its `.`
        let k = kinds("1.max(2)");
        assert_eq!(k[1], TokKind::Punct('.'));
    }

    #[test]
    fn hex_and_underscored_ints() {
        assert_eq!(kinds("0xEDB8_8320"), vec![TokKind::Literal]);
        assert_eq!(kinds("1_000u64"), vec![TokKind::Literal]);
    }

    #[test]
    fn lifetimes_vs_chars() {
        assert_eq!(kinds("&'a str")[1], TokKind::Lifetime);
        assert_eq!(kinds("'x'")[0], TokKind::Literal);
        assert_eq!(kinds("'\\n'")[0], TokKind::Literal);
    }

    #[test]
    fn strings_raw_strings_comments() {
        assert_eq!(kinds("\"a \\\" b\""), vec![TokKind::Literal]);
        assert_eq!(kinds("r#\"raw \" inside\"#"), vec![TokKind::Literal]);
        assert_eq!(kinds("b\"MADWAL1\\n\""), vec![TokKind::Literal]);
        assert!(kinds("// just a comment\n").is_empty());
        assert!(kinds("/* block /* nested */ done */").is_empty());
    }

    #[test]
    fn joined_operators() {
        assert_eq!(
            kinds("a::b -> c => d"),
            vec![
                TokKind::Ident("a".into()),
                TokKind::Joined("::"),
                TokKind::Ident("b".into()),
                TokKind::Joined("->"),
                TokKind::Ident("c".into()),
                TokKind::Joined("=>"),
                TokKind::Ident("d".into()),
            ]
        );
    }

    #[test]
    fn string_line_continuations_count_lines() {
        // the `\` + newline escape inside a string spans two source lines
        let lexed = lex("let s = \"a \\\n b\";\nnext");
        let next = lexed
            .toks
            .iter()
            .find(|t| t.kind == TokKind::Ident("next".into()))
            .unwrap();
        assert_eq!(next.line, 3);
    }

    #[test]
    fn line_numbers() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn trailing_annotation_applies_to_its_line() {
        let lexed = lex("let x = v.unwrap(); // check: allow(panic, \"startup only\")\n");
        assert_eq!(lexed.annotations.len(), 1);
        let a = &lexed.annotations[0];
        assert_eq!(a.kind, "panic");
        assert_eq!(a.applies_to, 1);
    }

    #[test]
    fn standalone_annotation_applies_to_next_line() {
        let lexed = lex("// check: allow(panic, \"bounded above\")\nlet y = x[0];\n");
        assert_eq!(lexed.annotations[0].applies_to, 2);
    }

    #[test]
    fn malformed_annotation_is_an_error() {
        let lexed = lex("// check: allow(panic)\n");
        assert_eq!(lexed.annotations.len(), 0);
        assert_eq!(lexed.errors.len(), 1);
        // a reason-free annotation is malformed too
        let lexed = lex("// check: allow(panic, \"\")\n");
        assert_eq!(lexed.errors.len(), 1);
        // ordinary comments mentioning nothing are fine
        assert!(lex("// checkpoint the log\n").errors.is_empty());
    }
}
