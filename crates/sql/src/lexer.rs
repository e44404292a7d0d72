//! Hand-written SQL lexer.
//!
//! Keywords are recognized case-insensitively at the parser level; the lexer
//! only distinguishes token *shapes* (identifier, number, string, symbol).
//!
//! Tokens borrow the statement: a word is a slice of it, and so is a quoted
//! region unless it holds a doubled quote that has to be undone. A name
//! becomes an owned string once, in the AST node that keeps it.

use std::borrow::Cow;
use std::fmt;

#[derive(Debug, PartialEq)]
pub enum Token<'a> {
    /// Bare identifier or keyword (original spelling preserved).
    Ident(&'a str),
    /// `"quoted"` or `` `quoted` `` identifier.
    QuotedIdent(Cow<'a, str>),
    /// `'string literal'` with `''` escaping.
    StringLit(Cow<'a, str>),
    /// Integer literal.
    IntLit(i64),
    /// Floating-point literal.
    FloatLit(f64),
    // Symbols.
    Comma,
    LParen,
    RParen,
    Dot,
    Semicolon,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    /// `||` string concatenation.
    Concat,
    /// `?` positional placeholder (used in delegation-plan rendering).
    Question,
    Eof,
}

impl Token<'_> {
    /// Is this the bare word `kw`, in any case?
    pub(crate) fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::QuotedIdent(s) => write!(f, "\"{s}\""),
            Token::StringLit(s) => write!(f, "'{s}'"),
            Token::IntLit(v) => write!(f, "{v}"),
            Token::FloatLit(v) => write!(f, "{v}"),
            Token::Comma => f.write_str(","),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::Dot => f.write_str("."),
            Token::Semicolon => f.write_str(";"),
            Token::Star => f.write_str("*"),
            Token::Plus => f.write_str("+"),
            Token::Minus => f.write_str("-"),
            Token::Slash => f.write_str("/"),
            Token::Percent => f.write_str("%"),
            Token::Eq => f.write_str("="),
            Token::NotEq => f.write_str("<>"),
            Token::Lt => f.write_str("<"),
            Token::LtEq => f.write_str("<="),
            Token::Gt => f.write_str(">"),
            Token::GtEq => f.write_str(">="),
            Token::Concat => f.write_str("||"),
            Token::Question => f.write_str("?"),
            Token::Eof => f.write_str("<eof>"),
        }
    }
}

/// A token plus its byte offset in the source (for error messages).
#[derive(Debug)]
pub struct Spanned<'a> {
    pub token: Token<'a>,
    pub offset: usize,
}

/// Lexing error with byte offset into the input.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize `input` into a vector of spanned tokens terminated by `Eof`.
pub fn tokenize(input: &str) -> Result<Vec<Spanned<'_>>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::with_capacity(input.len() / 4 + 4);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let start = i;
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                // Block comment.
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                if depth > 0 {
                    return Err(LexError {
                        message: "unterminated block comment".into(),
                        offset: start,
                    });
                }
            }
            b'\'' => {
                let (s, next) = lex_quoted(input, i, b'\'')?;
                tokens.push(Spanned {
                    token: Token::StringLit(s),
                    offset: start,
                });
                i = next;
            }
            b'"' | b'`' => {
                let (s, next) = lex_quoted(input, i, c)?;
                tokens.push(Spanned {
                    token: Token::QuotedIdent(s),
                    offset: start,
                });
                i = next;
            }
            b'0'..=b'9' => {
                let (tok, next) = lex_number(input, i)?;
                tokens.push(Spanned {
                    token: tok,
                    offset: start,
                });
                i = next;
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j] == b'_' || bytes[j].is_ascii_alphanumeric()) {
                    j += 1;
                }
                tokens.push(Spanned {
                    token: Token::Ident(&input[i..j]),
                    offset: start,
                });
                i = j;
            }
            _ => {
                let (tok, adv) = lex_symbol(bytes, i).ok_or_else(|| LexError {
                    message: format!("unexpected character {:?}", c as char),
                    offset: start,
                })?;
                tokens.push(Spanned {
                    token: tok,
                    offset: start,
                });
                i += adv;
            }
        }
    }
    tokens.push(Spanned {
        token: Token::Eof,
        offset: input.len(),
    });
    Ok(tokens)
}

/// Lex a quoted region starting at `start` (which holds the quote byte).
/// Doubled quote bytes escape themselves, SQL-style; only a region that
/// holds one is copied.
fn lex_quoted(input: &str, start: usize, quote: u8) -> Result<(Cow<'_, str>, usize), LexError> {
    let bytes = input.as_bytes();
    let mut unescaped: Option<String> = None;
    // `input[from..i]` is the part of the region not yet in `unescaped`.
    // The quote is ASCII, so every index below is a character boundary.
    let mut from = start + 1;
    let mut i = from;
    while i < bytes.len() {
        if bytes[i] != quote {
            i += 1;
        } else if bytes.get(i + 1) == Some(&quote) {
            unescaped
                .get_or_insert_with(String::new)
                .push_str(&input[from..=i]);
            i += 2;
            from = i;
        } else {
            let text = match unescaped {
                Some(mut s) => {
                    s.push_str(&input[from..i]);
                    Cow::Owned(s)
                }
                None => Cow::Borrowed(&input[from..i]),
            };
            return Ok((text, i + 1));
        }
    }
    Err(LexError {
        message: format!("unterminated {}-quoted token", quote as char),
        offset: start,
    })
}

fn lex_number(input: &str, start: usize) -> Result<(Token<'static>, usize), LexError> {
    let bytes = input.as_bytes();
    let mut i = start;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    let mut is_float = false;
    if i < bytes.len() && bytes[i] == b'.' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
        is_float = true;
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            is_float = true;
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    let text = &input[start..i];
    let tok = if is_float {
        Token::FloatLit(text.parse().map_err(|_| LexError {
            message: format!("invalid float literal {text:?}"),
            offset: start,
        })?)
    } else {
        match text.parse::<i64>() {
            Ok(v) => Token::IntLit(v),
            // Overflowing integers fall back to float, like most engines.
            Err(_) => Token::FloatLit(text.parse().map_err(|_| LexError {
                message: format!("invalid numeric literal {text:?}"),
                offset: start,
            })?),
        }
    };
    Ok((tok, i))
}

fn lex_symbol(bytes: &[u8], i: usize) -> Option<(Token<'static>, usize)> {
    let two = |a: u8, b: u8| i + 1 < bytes.len() && bytes[i] == a && bytes[i + 1] == b;
    if two(b'<', b'=') {
        return Some((Token::LtEq, 2));
    }
    if two(b'>', b'=') {
        return Some((Token::GtEq, 2));
    }
    if two(b'<', b'>') {
        return Some((Token::NotEq, 2));
    }
    if two(b'!', b'=') {
        return Some((Token::NotEq, 2));
    }
    if two(b'|', b'|') {
        return Some((Token::Concat, 2));
    }
    let tok = match bytes[i] {
        b',' => Token::Comma,
        b'(' => Token::LParen,
        b')' => Token::RParen,
        b'.' => Token::Dot,
        b';' => Token::Semicolon,
        b'*' => Token::Star,
        b'+' => Token::Plus,
        b'-' => Token::Minus,
        b'/' => Token::Slash,
        b'%' => Token::Percent,
        b'=' => Token::Eq,
        b'<' => Token::Lt,
        b'>' => Token::Gt,
        b'?' => Token::Question,
        _ => return None,
    };
    Some((tok, 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token<'_>> {
        tokenize(s).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn basic_select() {
        assert_eq!(
            toks("SELECT a, b FROM t WHERE a >= 10"),
            vec![
                Token::Ident("SELECT"),
                Token::Ident("a"),
                Token::Comma,
                Token::Ident("b"),
                Token::Ident("FROM"),
                Token::Ident("t"),
                Token::Ident("WHERE"),
                Token::Ident("a"),
                Token::GtEq,
                Token::IntLit(10),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(
            toks("'it''s' \"Weird Col\" `tick`"),
            vec![
                Token::StringLit("it's".into()),
                Token::QuotedIdent("Weird Col".into()),
                Token::QuotedIdent("tick".into()),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn quoted_regions_borrow_unless_a_quote_is_doubled() {
        let sql = "'plain' 'it''s' \"a\"\"\"\"b\" `héllo`";
        let tokens = toks(sql);
        assert!(matches!(
            &tokens[0],
            Token::StringLit(Cow::Borrowed("plain"))
        ));
        assert!(matches!(&tokens[1], Token::StringLit(Cow::Owned(s)) if s == "it's"));
        assert!(matches!(&tokens[2], Token::QuotedIdent(Cow::Owned(s)) if s == "a\"\"b"));
        assert!(matches!(
            &tokens[3],
            Token::QuotedIdent(Cow::Borrowed("héllo"))
        ));
        // Display is what the error messages print.
        assert_eq!(tokens[1].to_string(), "'it's'");
        assert_eq!(tokens[3].to_string(), "\"héllo\"");
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("1 2.5 0.001 1e3 10.5e-2"),
            vec![
                Token::IntLit(1),
                Token::FloatLit(2.5),
                Token::FloatLit(0.001),
                Token::FloatLit(1000.0),
                Token::FloatLit(0.105),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn int_overflow_falls_back_to_float() {
        assert_eq!(
            toks("99999999999999999999"),
            vec![Token::FloatLit(1e20), Token::Eof]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a -- comment\n b /* block /* not nested */ c"),
            vec![
                Token::Ident("a"),
                Token::Ident("b"),
                Token::Ident("c"),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("< <= > >= <> != = ||"),
            vec![
                Token::Lt,
                Token::LtEq,
                Token::Gt,
                Token::GtEq,
                Token::NotEq,
                Token::NotEq,
                Token::Eq,
                Token::Concat,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'abc").is_err());
        assert!(tokenize("/* open").is_err());
    }

    #[test]
    fn dotted_and_star() {
        assert_eq!(
            toks("t.a t.* ?"),
            vec![
                Token::Ident("t"),
                Token::Dot,
                Token::Ident("a"),
                Token::Ident("t"),
                Token::Dot,
                Token::Star,
                Token::Question,
                Token::Eof,
            ]
        );
    }
}
