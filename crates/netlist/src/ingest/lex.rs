//! Shared source-text lexing for every textual front-end.
//!
//! All three parsers — native `.nl` ([`crate::io`]), structural Verilog
//! ([`super::verilog`]), and the EDIF s-expression reader
//! ([`super::sexpr`]) — lex through the [`Cursor`] defined here and
//! resolve error positions through [`Source`], so every parse error in
//! the workspace carries the same 1-based line/column position and
//! source-line snippet (see [`SrcLoc`]). Lexed text is borrowed from the
//! source, never copied.

use std::cell::OnceCell;

use crate::error::{NetlistError, SourceFormat, SrcLoc};

/// A 1-based source position (line and character column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loc {
    /// 1-based line number.
    pub line: usize,
    /// 1-based character column.
    pub col: usize,
}

impl Loc {
    /// The position of the first character of a source file.
    pub fn start() -> Loc {
        Loc { line: 1, col: 1 }
    }
}

/// Source text plus the line-start index its error positions resolve
/// through.
///
/// Parsers carry positions as the two-word [`Loc`] and turn one into a
/// [`SrcLoc`] (which owns a copy of the source line) only when they
/// construct an error, through [`Source::locate`]. The index of line
/// starts is built on the first such call, so a parse that succeeds
/// never scans the text for line boundaries and never allocates a
/// snippet.
#[derive(Debug)]
pub struct Source<'a> {
    text: &'a str,
    /// Byte offset of the first character of each line; entry `i` is
    /// line `i + 1`.
    line_starts: OnceCell<Vec<usize>>,
}

impl<'a> Source<'a> {
    /// Wraps `text`; nothing is indexed until the first error.
    pub fn new(text: &'a str) -> Source<'a> {
        Source { text, line_starts: OnceCell::new() }
    }

    /// The full source text.
    pub fn text(&self) -> &'a str {
        self.text
    }

    /// Materializes `loc` into a [`SrcLoc`] carrying the source line it
    /// points into.
    pub fn locate(&self, loc: Loc) -> SrcLoc {
        #[cfg(test)]
        LOCATED.with(|n| n.set(n.get() + 1));
        SrcLoc { line: loc.line, col: loc.col, snippet: self.snippet(loc.line) }
    }

    /// The source line `line` (1-based), trimmed of trailing whitespace
    /// and truncated to 120 characters for error snippets; empty past
    /// the last line.
    fn snippet(&self, line: usize) -> String {
        let starts = self.line_starts.get_or_init(|| {
            std::iter::once(0)
                .chain(
                    self.text.bytes().enumerate().filter(|&(_, b)| b == b'\n').map(|(i, _)| i + 1),
                )
                .collect()
        });
        let Some(&start) = line.checked_sub(1).and_then(|i| starts.get(i)) else {
            return String::new();
        };
        let rest = &self.text[start..];
        let trimmed = rest[..rest.find('\n').unwrap_or(rest.len())].trim_end();
        if trimmed.chars().count() > 120 {
            let cut: String = trimmed.chars().take(117).collect();
            format!("{cut}...")
        } else {
            trimmed.to_string()
        }
    }
}

#[cfg(test)]
thread_local! {
    /// How many [`SrcLoc`]s [`Source::locate`] has built on this thread.
    static LOCATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many [`SrcLoc`]s this thread has materialized so far.
#[cfg(test)]
pub(crate) fn located_count() -> usize {
    LOCATED.with(std::cell::Cell::get)
}

/// A character cursor over source text that tracks 1-based line/column
/// positions. The building block all lexers in this module tree share;
/// the text it consumes comes back as slices of the source.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    rest: std::str::Chars<'a>,
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `src`.
    pub fn new(src: &'a str) -> Cursor<'a> {
        Cursor { rest: src.chars(), line: 1, col: 1 }
    }

    /// The position of the next unconsumed character.
    pub fn loc(&self) -> Loc {
        Loc { line: self.line, col: self.col }
    }

    /// The unconsumed remainder of the source.
    pub fn rest(&self) -> &'a str {
        self.rest.as_str()
    }

    /// The text consumed since the cursor's remainder was `mark` (an
    /// earlier [`Cursor::rest`]).
    pub fn since(&self, mark: &'a str) -> &'a str {
        &mark[..mark.len() - self.rest.as_str().len()]
    }

    /// The next character without consuming it.
    pub fn peek(&self) -> Option<char> {
        self.rest.clone().next()
    }

    /// The character after the next one, without consuming anything.
    pub fn peek2(&self) -> Option<char> {
        let mut it = self.rest.clone();
        it.next();
        it.next()
    }

    /// Consumes and returns the next character, updating line/column.
    pub fn bump(&mut self) -> Option<char> {
        let c = self.rest.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Consumes characters while `pred` holds, returning them.
    pub fn take_while(&mut self, mut pred: impl FnMut(char) -> bool) -> &'a str {
        let mark = self.rest();
        while let Some(c) = self.peek() {
            if !pred(c) {
                break;
            }
            self.bump();
        }
        self.since(mark)
    }
}

/// One whitespace-delimited word of a line-oriented format, with the
/// position of its first character.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Word<'a> {
    /// The word text, borrowed from the source.
    pub text: &'a str,
    /// Position of the word's first character.
    pub loc: Loc,
}

/// Splits line-oriented source (the native `.nl` format) into lines of
/// whitespace-delimited words, each word carrying its position. Blank
/// lines and lines whose first word starts with `#` are skipped.
pub fn lines_of_words(src: &str) -> Vec<(usize, Vec<Word<'_>>)> {
    let mut cur = Cursor::new(src);
    let mut out: Vec<(usize, Vec<Word>)> = Vec::new();
    let mut line: Vec<Word> = Vec::new();
    let mut lineno = 1usize;
    loop {
        match cur.peek() {
            None => {
                if !line.is_empty() {
                    out.push((lineno, line));
                }
                break;
            }
            Some('\n') => {
                cur.bump();
                if !line.is_empty() {
                    out.push((lineno, std::mem::take(&mut line)));
                }
            }
            Some(c) if c.is_whitespace() => {
                cur.bump();
            }
            Some('#') => {
                // Comment to end of line.
                cur.take_while(|c| c != '\n');
            }
            Some(_) => {
                let loc = cur.loc();
                lineno = loc.line;
                let text = cur.take_while(|c| !c.is_whitespace());
                line.push(Word { text, loc });
            }
        }
    }
    out
}

/// A lexical token of the structural-Verilog subset. Text tokens borrow
/// their text from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok<'a> {
    /// An identifier or keyword (`module`, `wire`, a net name, ...).
    Ident(&'a str),
    /// An unsigned decimal integer (`7` in `[7:0]`).
    Num(u64),
    /// A based literal such as `1'b0`, kept as written.
    Based(&'a str),
    /// A double-quoted string (used in attribute values).
    Str(&'a str),
    /// Single-character punctuation: `( ) [ ] , ; . : =`.
    Punct(char),
    /// The attribute opener `(*`.
    AttrOpen,
    /// The attribute closer `*)`.
    AttrClose,
    /// End of input.
    Eof,
}

impl Tok<'_> {
    /// A short human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Num(n) => format!("number `{n}`"),
            Tok::Based(s) => format!("literal `{s}`"),
            Tok::Str(s) => format!("string \"{s}\""),
            Tok::Punct(c) => format!("`{c}`"),
            Tok::AttrOpen => "`(*`".to_string(),
            Tok::AttrClose => "`*)`".to_string(),
            Tok::Eof => "end of input".to_string(),
        }
    }
}

/// A [`Tok`] with the position of its first character.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token.
    pub tok: Tok<'a>,
    /// Position of the token's first character.
    pub loc: Loc,
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == '\\'
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '$'
}

/// Tokenizes the structural-Verilog subset: identifiers (including
/// `\escaped ` ones), decimal and based literals, strings, punctuation,
/// and `(*`/`*)` attribute delimiters. `//` and `/* */` comments are
/// skipped. The final token is always [`Tok::Eof`].
///
/// # Errors
///
/// Returns [`NetlistError::ParseSyntax`] for unterminated strings or
/// block comments and for characters outside the subset's alphabet.
pub fn tokenize_verilog<'a>(src: &Source<'a>) -> Result<Vec<Token<'a>>, NetlistError> {
    let mut cur = Cursor::new(src.text());
    let mut out = Vec::new();
    let err = |loc: Loc, message: String| NetlistError::ParseSyntax {
        format: SourceFormat::Verilog,
        at: src.locate(loc),
        message,
    };
    while let Some(c) = cur.peek() {
        let loc = cur.loc();
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        if c == '/' && cur.peek2() == Some('/') {
            cur.take_while(|c| c != '\n');
            continue;
        }
        if c == '/' && cur.peek2() == Some('*') {
            cur.bump();
            cur.bump();
            let mut closed = false;
            while let Some(c) = cur.bump() {
                if c == '*' && cur.peek() == Some('/') {
                    cur.bump();
                    closed = true;
                    break;
                }
            }
            if !closed {
                return Err(err(loc, "unterminated block comment".to_string()));
            }
            continue;
        }
        if c == '(' && cur.peek2() == Some('*') {
            cur.bump();
            cur.bump();
            out.push(Token { tok: Tok::AttrOpen, loc });
            continue;
        }
        if c == '*' && cur.peek2() == Some(')') {
            cur.bump();
            cur.bump();
            out.push(Token { tok: Tok::AttrClose, loc });
            continue;
        }
        if c == '"' {
            cur.bump();
            let text = cur.take_while(|c| c != '"' && c != '\n');
            if cur.peek() != Some('"') {
                return Err(err(loc, "unterminated string literal".to_string()));
            }
            cur.bump();
            out.push(Token { tok: Tok::Str(text), loc });
            continue;
        }
        if c == '\\' {
            // Verilog escaped identifier: `\` up to the next whitespace.
            cur.bump();
            let text = cur.take_while(|c| !c.is_whitespace());
            if text.is_empty() {
                return Err(err(loc, "empty escaped identifier".to_string()));
            }
            out.push(Token { tok: Tok::Ident(text), loc });
            continue;
        }
        if is_ident_start(c) {
            let text = cur.take_while(is_ident_char);
            out.push(Token { tok: Tok::Ident(text), loc });
            continue;
        }
        if c.is_ascii_digit() {
            let mark = cur.rest();
            let digits = cur.take_while(|c| c.is_ascii_digit() || c == '_');
            if cur.peek() == Some('\'') {
                // Based literal: width ' base digits, e.g. 1'b0, 4'hF.
                cur.bump();
                let base = cur.take_while(|c| c.is_ascii_alphanumeric() || c == '_');
                if base.is_empty() {
                    return Err(err(loc, "based literal is missing its base".to_string()));
                }
                out.push(Token { tok: Tok::Based(cur.since(mark)), loc });
            } else {
                let parsed = if digits.contains('_') {
                    digits.chars().filter(|&c| c != '_').collect::<String>().parse()
                } else {
                    digits.parse()
                };
                let n: u64 =
                    parsed.map_err(|_| err(loc, format!("integer `{digits}` is out of range")))?;
                out.push(Token { tok: Tok::Num(n), loc });
            }
            continue;
        }
        if "()[],;.:=#".contains(c) {
            cur.bump();
            out.push(Token { tok: Tok::Punct(c), loc });
            continue;
        }
        return Err(err(loc, format!("unexpected character `{c}`")));
    }
    out.push(Token { tok: Tok::Eof, loc: cur.loc() });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_tracks_lines_and_columns() {
        let mut c = Cursor::new("ab\ncd");
        assert_eq!(c.loc(), Loc { line: 1, col: 1 });
        c.bump();
        c.bump();
        assert_eq!(c.loc(), Loc { line: 1, col: 3 });
        c.bump(); // newline
        assert_eq!(c.loc(), Loc { line: 2, col: 1 });
        c.bump();
        assert_eq!(c.loc(), Loc { line: 2, col: 2 });
    }

    #[test]
    fn words_carry_positions_and_skip_comments() {
        let lines = lines_of_words("input a\n# note\n  gate g1 and a a\n");
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].0, 1);
        assert_eq!(lines[0].1[1].text, "a");
        assert_eq!(lines[0].1[1].loc, Loc { line: 1, col: 7 });
        assert_eq!(lines[1].0, 3);
        assert_eq!(lines[1].1[0].loc, Loc { line: 3, col: 3 });
    }

    #[test]
    fn verilog_tokens_and_attributes() {
        let src = Source::new("module m; (* group = \"x\" *) and g (y, a, 1'b0); // c\n");
        let toks = tokenize_verilog(&src).expect("lexes");
        let kinds: Vec<&Tok> = toks.iter().map(|t| &t.tok).collect();
        assert!(kinds.contains(&&Tok::AttrOpen));
        assert!(kinds.contains(&&Tok::AttrClose));
        assert!(kinds.contains(&&Tok::Based("1'b0")));
        assert!(kinds.contains(&&Tok::Str("x")));
        assert_eq!(kinds.last(), Some(&&Tok::Eof));
    }

    #[test]
    fn verilog_lex_errors_carry_location() {
        let e = tokenize_verilog(&Source::new("wire w;\n\"open")).unwrap_err();
        match e {
            NetlistError::ParseSyntax { at, .. } => {
                assert_eq!(at.line, 2);
                assert_eq!(at.col, 1);
                assert_eq!(at.snippet, "\"open");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn snippets_truncate_long_lines() {
        let long = "x".repeat(200);
        let s = Source::new(&long).snippet(1);
        assert_eq!(s.chars().count(), 120);
        assert!(s.ends_with("..."));
    }

    /// The snippet rule the index replaces: a scan from the start of the
    /// text with `str::lines`.
    fn snippet_by_scan(src: &str, line: usize) -> String {
        let raw = src.lines().nth(line.saturating_sub(1)).unwrap_or("");
        let trimmed = raw.trim_end();
        if trimmed.chars().count() > 120 {
            let cut: String = trimmed.chars().take(117).collect();
            format!("{cut}...")
        } else {
            trimmed.to_string()
        }
    }

    #[test]
    fn indexed_snippets_match_a_line_scan() {
        let long_ascii = "y".repeat(150);
        let long_wide = "é→".repeat(70);
        let sources = [
            String::new(),
            "\n".to_string(),
            "\n\n\n".to_string(),
            "one line, no newline".to_string(),
            "a\nb\n".to_string(),
            "crlf\r\nline two\r\n\r\nafter a blank\r\n".to_string(),
            "lone\rcarriage\nreturn \r\nend\r".to_string(),
            "trailing spaces   \n\tindented\t\n  \nlast".to_string(),
            "ünïcödé wire ∑;\n// 日本語 comment\n  and g (y, a, b); — dash\n".to_string(),
            format!("{long_ascii}\n{long_wide}\r\nshort\n{long_wide}"),
            format!("{}\n{}", "z".repeat(120), "w".repeat(121)),
        ];
        for src in &sources {
            let source = Source::new(src);
            let n = src.lines().count();
            for line in 1..=n + 1 {
                assert_eq!(
                    source.snippet(line),
                    snippet_by_scan(src, line),
                    "line {line} of {src:?}"
                );
            }
        }
    }
}
