//! Shared source-text lexing for every textual front-end.
//!
//! All three parsers — native `.nl` ([`crate::io`]), structural Verilog
//! ([`super::verilog`]), and the EDIF s-expression reader
//! ([`super::sexpr`]) — lex through the [`Cursor`] defined here, so every
//! parse error in the workspace carries the same 1-based line/column
//! position and source-line snippet (see [`SrcLoc`]).

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

    /// Materializes this position into a [`SrcLoc`] carrying the source
    /// line it points into.
    pub fn src_loc(self, src: &str) -> SrcLoc {
        SrcLoc { line: self.line, col: self.col, snippet: snippet(src, self.line) }
    }
}

/// The source line `line` (1-based) of `src`, trimmed of trailing
/// whitespace and truncated to 120 characters for error snippets.
pub fn snippet(src: &str, line: usize) -> String {
    let raw = src.lines().nth(line.saturating_sub(1)).unwrap_or("");
    let trimmed = raw.trim_end();
    if trimmed.chars().count() > 120 {
        let cut: String = trimmed.chars().take(117).collect();
        format!("{cut}...")
    } else {
        trimmed.to_string()
    }
}

/// A character cursor over source text that tracks 1-based line/column
/// positions. The building block all lexers in this module tree share.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    src: &'a str,
    rest: std::str::Chars<'a>,
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `src`.
    pub fn new(src: &'a str) -> Cursor<'a> {
        Cursor { src, rest: src.chars(), line: 1, col: 1 }
    }

    /// The full source text this cursor walks.
    pub fn src(&self) -> &'a str {
        self.src
    }

    /// The position of the next unconsumed character.
    pub fn loc(&self) -> Loc {
        Loc { line: self.line, col: self.col }
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
    pub fn take_while(&mut self, mut pred: impl FnMut(char) -> bool) -> String {
        let mut out = String::new();
        while let Some(c) = self.peek() {
            if !pred(c) {
                break;
            }
            out.push(c);
            self.bump();
        }
        out
    }
}

/// One whitespace-delimited word of a line-oriented format, with the
/// position of its first character.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Word {
    /// The word text.
    pub text: String,
    /// Position of the word's first character.
    pub loc: Loc,
}

/// Splits line-oriented source (the native `.nl` format) into lines of
/// whitespace-delimited words, each word carrying its position. Blank
/// lines and lines whose first word starts with `#` are skipped.
pub fn lines_of_words(src: &str) -> Vec<(usize, Vec<Word>)> {
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

/// A lexical token of the structural-Verilog subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`module`, `wire`, a net name, ...).
    Ident(String),
    /// An unsigned decimal integer (`7` in `[7:0]`).
    Num(u64),
    /// A based literal such as `1'b0`, kept as written.
    Based(String),
    /// A double-quoted string (used in attribute values).
    Str(String),
    /// Single-character punctuation: `( ) [ ] , ; . : =`.
    Punct(char),
    /// The attribute opener `(*`.
    AttrOpen,
    /// The attribute closer `*)`.
    AttrClose,
    /// End of input.
    Eof,
}

impl Tok {
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
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
pub fn tokenize_verilog(src: &str) -> Result<Vec<Token>, NetlistError> {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();
    let err = |cur: &Cursor, loc: Loc, message: String| NetlistError::ParseSyntax {
        format: SourceFormat::Verilog,
        at: loc.src_loc(cur.src()),
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
                return Err(err(&cur, loc, "unterminated block comment".to_string()));
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
                return Err(err(&cur, loc, "unterminated string literal".to_string()));
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
                return Err(err(&cur, loc, "empty escaped identifier".to_string()));
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
            let digits = cur.take_while(|c| c.is_ascii_digit() || c == '_');
            if cur.peek() == Some('\'') {
                // Based literal: width ' base digits, e.g. 1'b0, 4'hF.
                cur.bump();
                let base = cur.take_while(|c| c.is_ascii_alphanumeric() || c == '_');
                if base.is_empty() {
                    return Err(err(&cur, loc, "based literal is missing its base".to_string()));
                }
                out.push(Token { tok: Tok::Based(format!("{digits}'{base}")), loc });
            } else {
                let clean: String = digits.chars().filter(|&c| c != '_').collect();
                let n: u64 = clean
                    .parse()
                    .map_err(|_| err(&cur, loc, format!("integer `{digits}` is out of range")))?;
                out.push(Token { tok: Tok::Num(n), loc });
            }
            continue;
        }
        if "()[],;.:=#".contains(c) {
            cur.bump();
            out.push(Token { tok: Tok::Punct(c), loc });
            continue;
        }
        return Err(err(&cur, loc, format!("unexpected character `{c}`")));
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
        let toks = tokenize_verilog("module m; (* group = \"x\" *) and g (y, a, 1'b0); // c\n")
            .expect("lexes");
        let kinds: Vec<&Tok> = toks.iter().map(|t| &t.tok).collect();
        assert!(kinds.contains(&&Tok::AttrOpen));
        assert!(kinds.contains(&&Tok::AttrClose));
        assert!(kinds.contains(&&Tok::Based("1'b0".to_string())));
        assert!(kinds.contains(&&Tok::Str("x".to_string())));
        assert_eq!(kinds.last(), Some(&&Tok::Eof));
    }

    #[test]
    fn verilog_lex_errors_carry_location() {
        let e = tokenize_verilog("wire w;\n\"open").unwrap_err();
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
        let s = snippet(&long, 1);
        assert_eq!(s.chars().count(), 120);
        assert!(s.ends_with("..."));
    }
}
