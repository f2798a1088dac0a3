//! A minimal s-expression reader used by the EDIF front-end.
//!
//! EDIF 2.0.0 files are Lisp-style nested lists of atoms and strings.
//! This reader produces a [`Sexpr`] tree in which every node carries the
//! 1-based [`Loc`] of its first character, so the EDIF interpreter can
//! attach precise positions to semantic errors long after lexing.

use crate::error::{NetlistError, SourceFormat};
use crate::ingest::lex::{Cursor, Loc, Source};

/// One node of an s-expression tree. Atoms and strings borrow their text
/// from the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sexpr<'a> {
    /// A bare atom: a keyword, identifier, or number, kept as written.
    Atom {
        /// The atom text, as written.
        text: &'a str,
        /// Position of the atom's first character.
        loc: Loc,
    },
    /// A double-quoted string, with the quotes removed.
    Str {
        /// The string contents.
        text: &'a str,
        /// Position of the opening quote.
        loc: Loc,
    },
    /// A parenthesized list.
    List {
        /// The list elements, in order.
        items: Vec<Sexpr<'a>>,
        /// Position of the opening parenthesis.
        loc: Loc,
    },
}

impl<'a> Sexpr<'a> {
    /// The source position of this node's first character.
    pub fn loc(&self) -> Loc {
        match self {
            Sexpr::Atom { loc, .. } | Sexpr::Str { loc, .. } | Sexpr::List { loc, .. } => *loc,
        }
    }

    /// The atom text if this node is an [`Sexpr::Atom`].
    pub fn atom(&self) -> Option<&'a str> {
        match self {
            Sexpr::Atom { text, .. } => Some(*text),
            _ => None,
        }
    }

    /// The list elements if this node is an [`Sexpr::List`].
    pub fn list(&self) -> Option<&[Sexpr<'a>]> {
        match self {
            Sexpr::List { items, .. } => Some(items),
            _ => None,
        }
    }

    /// For a list whose head is an atom (the usual EDIF `(keyword ...)`
    /// shape), the head as written and the remaining elements. EDIF
    /// keywords are case-insensitive: compare the head with
    /// `eq_ignore_ascii_case`, or use [`Sexpr::form_named`].
    pub fn form(&self) -> Option<(&'a str, &[Sexpr<'a>])> {
        let items = self.list()?;
        let head = items.first()?.atom()?;
        Some((head, &items[1..]))
    }

    /// The elements after the head of a `(keyword ...)` form whose head
    /// is `keyword` in any letter case.
    pub fn form_named(&self, keyword: &str) -> Option<&[Sexpr<'a>]> {
        self.form().filter(|(h, _)| h.eq_ignore_ascii_case(keyword)).map(|(_, rest)| rest)
    }

    /// A short human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            Sexpr::Atom { text, .. } => format!("atom `{text}`"),
            Sexpr::Str { text, .. } => format!("string \"{text}\""),
            Sexpr::List { items, .. } => match items.first().and_then(Sexpr::atom) {
                Some(head) => format!("({head} ...)"),
                None => "a list".to_string(),
            },
        }
    }
}

fn is_atom_char(c: char) -> bool {
    !c.is_whitespace() && c != '(' && c != ')' && c != '"'
}

/// Parses one toplevel s-expression (EDIF files are a single `(edif ...)`
/// form). Trailing whitespace after the form is allowed; any other
/// trailing text is an error.
///
/// # Errors
///
/// Returns [`NetlistError::ParseSyntax`] (format [`SourceFormat::Edif`])
/// for unbalanced parentheses, unterminated strings, or stray text.
pub fn parse_sexpr<'a>(src: &Source<'a>) -> Result<Sexpr<'a>, NetlistError> {
    let mut cur = Cursor::new(src.text());
    let err = |loc: Loc, message: String| NetlistError::ParseSyntax {
        format: SourceFormat::Edif,
        at: src.locate(loc),
        message,
    };

    fn skip_ws(cur: &mut Cursor) {
        while let Some(c) = cur.peek() {
            if c.is_whitespace() {
                cur.bump();
            } else {
                break;
            }
        }
    }

    fn node<'a>(cur: &mut Cursor<'a>, src: &Source<'a>) -> Result<Sexpr<'a>, NetlistError> {
        let err = |loc: Loc, message: String| NetlistError::ParseSyntax {
            format: SourceFormat::Edif,
            at: src.locate(loc),
            message,
        };
        skip_ws(cur);
        let loc = cur.loc();
        match cur.peek() {
            None => Err(err(loc, "unexpected end of input".to_string())),
            Some('(') => {
                cur.bump();
                let mut items = Vec::new();
                loop {
                    skip_ws(cur);
                    match cur.peek() {
                        None => {
                            return Err(err(
                                loc,
                                "unbalanced parentheses: this list is never closed".to_string(),
                            ))
                        }
                        Some(')') => {
                            cur.bump();
                            break;
                        }
                        Some(_) => items.push(node(cur, src)?),
                    }
                }
                Ok(Sexpr::List { items, loc })
            }
            Some(')') => Err(err(loc, "unexpected `)`".to_string())),
            Some('"') => {
                cur.bump();
                let text = cur.take_while(|c| c != '"');
                if cur.peek() != Some('"') {
                    return Err(err(loc, "unterminated string literal".to_string()));
                }
                cur.bump();
                Ok(Sexpr::Str { text, loc })
            }
            Some(_) => {
                let text = cur.take_while(is_atom_char);
                Ok(Sexpr::Atom { text, loc })
            }
        }
    }

    skip_ws(&mut cur);
    if cur.peek().is_none() {
        return Err(err(cur.loc(), "empty input: expected an (edif ...) form".to_string()));
    }
    let root = node(&mut cur, src)?;
    skip_ws(&mut cur);
    if let Some(c) = cur.peek() {
        return Err(err(cur.loc(), format!("trailing text after the toplevel form: `{c}`")));
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_lists_carry_positions() {
        let s = parse_sexpr(&Source::new("(edif top\n  (net (joined)))")).expect("parses");
        let (head, rest) = s.form().expect("form");
        assert_eq!(head, "edif");
        assert_eq!(rest[0].atom(), Some("top"));
        let net = &rest[1];
        assert_eq!(net.loc(), Loc { line: 2, col: 3 });
        let (nh, nr) = net.form().expect("form");
        assert_eq!(nh, "net");
        assert_eq!(nr[0].form().expect("form").0, "joined");
    }

    #[test]
    fn strings_and_errors() {
        let s = parse_sexpr(&Source::new("(rename n_3 \"n[3]\")")).expect("parses");
        let (_, rest) = s.form().expect("form");
        assert!(matches!(&rest[1], Sexpr::Str { text, .. } if *text == "n[3]"));

        match parse_sexpr(&Source::new("(edif (cell x)")).unwrap_err() {
            NetlistError::ParseSyntax { at, message, .. } => {
                assert_eq!((at.line, at.col), (1, 1));
                assert!(message.contains("never closed"), "{message}");
            }
            other => panic!("wrong variant: {other:?}"),
        }

        match parse_sexpr(&Source::new("(a) (b)")).unwrap_err() {
            NetlistError::ParseSyntax { at, .. } => assert_eq!((at.line, at.col), (1, 5)),
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
