//! The reader for the workspace's hand-rolled RON-like artifact text.
//!
//! Scenario repros (`weakset-dst`) and boundary recordings
//! (`weakset-runtime`) share one dialect: identifiers, unsigned
//! integers, quoted strings, `( ) [ ] , :` and `// ...` comments. This
//! module owns its lexical rules — the tokenizer, the string escapes
//! ([`push_str_lit`] writes what [`Parser::string`] reads) and the
//! field-level parsing primitives; each artifact keeps only its own
//! grammar on top of [`Parser`].

/// One lexical token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// A bare word: a field name, a variant tag, `true`/`false`.
    Ident(String),
    /// An unsigned integer.
    Num(u64),
    /// A quoted string, escapes resolved.
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `:`
    Colon,
}

/// Appends `s` as a quoted string literal, escaping what the tokenizer
/// unescapes.
pub fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out.push('"');
}

fn tokenize(text: &str) -> Result<Vec<Tok>, String> {
    let mut out = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        let punct = match c {
            '(' => Some(Tok::LParen),
            ')' => Some(Tok::RParen),
            '[' => Some(Tok::LBracket),
            ']' => Some(Tok::RBracket),
            ',' => Some(Tok::Comma),
            ':' => Some(Tok::Colon),
            _ => None,
        };
        if let Some(tok) = punct {
            chars.next();
            out.push(tok);
            continue;
        }
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                chars.next();
            }
            '/' => {
                chars.next();
                if chars.peek() != Some(&'/') {
                    return Err("stray '/'".into());
                }
                for nc in chars.by_ref() {
                    if nc == '\n' {
                        break;
                    }
                }
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('n') => s.push('\n'),
                            Some('t') => s.push('\t'),
                            Some('r') => s.push('\r'),
                            other => return Err(format!("bad escape {other:?}")),
                        },
                        Some(other) => s.push(other),
                        None => return Err("unterminated string".into()),
                    }
                }
                out.push(Tok::Str(s));
            }
            '0'..='9' => {
                let mut n: u64 = 0;
                while let Some(v) = chars.peek().and_then(|d| d.to_digit(10)) {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(v as u64))
                        .ok_or("number overflows u64")?;
                    chars.next();
                }
                out.push(Tok::Num(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut id = String::new();
                while let Some(&a) = chars.peek() {
                    if !(a.is_ascii_alphanumeric() || a == '_') {
                        break;
                    }
                    id.push(a);
                    chars.next();
                }
                out.push(Tok::Ident(id));
            }
            other => return Err(format!("unexpected character {other:?}")),
        }
    }
    Ok(out)
}

/// A cursor over a tokenized artifact. Every method consumes what it
/// names and describes the first thing that does not fit.
pub struct Parser {
    tokens: Vec<Tok>,
    pos: usize,
}

impl Parser {
    /// Tokenizes `text`.
    ///
    /// # Errors
    ///
    /// The first lexical problem: a stray character, a bad escape, an
    /// unterminated string, a number that overflows `u64`.
    pub fn new(text: &str) -> Result<Parser, String> {
        Ok(Parser {
            tokens: tokenize(text)?,
            pos: 0,
        })
    }

    /// Consumes and returns the next token.
    #[allow(clippy::should_implement_trait)] // fallible, not an Iterator
    pub fn next(&mut self) -> Result<Tok, String> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or("unexpected end of input")?;
        self.pos += 1;
        Ok(t)
    }

    /// The next token, unconsumed.
    pub fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    /// Consumes the next token if it is `tok`.
    pub fn eat(&mut self, tok: &Tok) -> bool {
        let hit = self.peek() == Some(tok);
        self.pos += hit as usize;
        hit
    }

    /// Consumes exactly `want`.
    pub fn expect(&mut self, want: Tok) -> Result<(), String> {
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            Err(format!("expected {want:?}, got {got:?}"))
        }
    }

    /// Succeeds only when every token has been consumed.
    pub fn expect_end(&mut self) -> Result<(), String> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(format!("trailing input at token {}", self.pos))
        }
    }

    /// An identifier.
    pub fn ident(&mut self) -> Result<String, String> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(format!("expected identifier, got {other:?}")),
        }
    }

    /// A number.
    pub fn num(&mut self) -> Result<u64, String> {
        match self.next()? {
            Tok::Num(n) => Ok(n),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// A quoted string.
    pub fn string(&mut self) -> Result<String, String> {
        match self.next()? {
            Tok::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    /// `true` or `false`.
    fn bool_value(&mut self) -> Result<bool, String> {
        match self.ident()?.as_str() {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(format!("expected bool, got '{other}'")),
        }
    }

    /// The identifier `want`.
    pub fn keyword(&mut self, want: &str) -> Result<(), String> {
        let got = self.ident()?;
        if got == want {
            Ok(())
        } else {
            Err(format!("expected field '{want}', got '{got}'"))
        }
    }

    /// `name:`, leaving the cursor on the field's value.
    pub fn key(&mut self, name: &str) -> Result<(), String> {
        self.keyword(name)?;
        self.expect(Tok::Colon)
    }

    /// `name: <num>` without a trailing comma (closing-paren position).
    pub fn num_key(&mut self, name: &str) -> Result<u64, String> {
        self.key(name)?;
        self.num()
    }

    /// `name: <bool>` without a trailing comma.
    pub fn bool_key(&mut self, name: &str) -> Result<bool, String> {
        self.key(name)?;
        self.bool_value()
    }

    /// `name: "<string>"` without a trailing comma.
    pub fn str_key(&mut self, name: &str) -> Result<String, String> {
        self.key(name)?;
        self.string()
    }

    /// `name: <num>,`
    pub fn num_field(&mut self, name: &str) -> Result<u64, String> {
        let n = self.num_key(name)?;
        self.expect(Tok::Comma)?;
        Ok(n)
    }

    /// `( body )`
    pub fn parens<T>(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        self.expect(Tok::LParen)?;
        let v = body(self)?;
        self.expect(Tok::RParen)?;
        Ok(v)
    }

    /// `[item, item, ...]`, a trailing comma allowed.
    pub fn comma_sep<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(Tok::LBracket)?;
        let mut out = Vec::new();
        while self.peek() != Some(&Tok::RBracket) {
            out.push(item(self)?);
            self.eat(&Tok::Comma);
        }
        self.expect(Tok::RBracket)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_every_token_kind_and_skips_comments() {
        let p = Parser::new("// header\nAdd(at_ms: 7, tag: \"a\\\"b\\n\", xs: [1, 2])").unwrap();
        assert_eq!(
            p.tokens,
            vec![
                Tok::Ident("Add".into()),
                Tok::LParen,
                Tok::Ident("at_ms".into()),
                Tok::Colon,
                Tok::Num(7),
                Tok::Comma,
                Tok::Ident("tag".into()),
                Tok::Colon,
                Tok::Str("a\"b\n".into()),
                Tok::Comma,
                Tok::Ident("xs".into()),
                Tok::Colon,
                Tok::LBracket,
                Tok::Num(1),
                Tok::Comma,
                Tok::Num(2),
                Tok::RBracket,
                Tok::RParen,
            ]
        );
    }

    #[test]
    fn string_literals_round_trip_through_the_tokenizer() {
        let raw = "we\"ird\\name\n\t\r";
        let mut lit = String::new();
        push_str_lit(&mut lit, raw);
        assert_eq!(Parser::new(&lit).unwrap().string().unwrap(), raw);
    }

    #[test]
    fn rejects_lexical_garbage() {
        for bad in [
            "a / b",
            "\"open",
            "\"bad \\q\"",
            "99999999999999999999",
            "#",
        ] {
            assert!(Parser::new(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn field_helpers_consume_what_they_name() {
        let mut p = Parser::new("a: 1, b: 2) [3, 4,] true s: \"x\" f: false").unwrap();
        assert_eq!(p.num_field("a").unwrap(), 1);
        assert_eq!(p.num_key("b").unwrap(), 2);
        assert!(p.eat(&Tok::RParen));
        assert!(!p.eat(&Tok::RParen));
        assert!(Parser::new("(7").unwrap().parens(Parser::num).is_err());
        assert_eq!(p.comma_sep(Parser::num).unwrap(), vec![3, 4]);
        assert!(p.bool_value().unwrap());
        assert_eq!(p.str_key("s").unwrap(), "x");
        assert!(!p.bool_key("f").unwrap());
        p.expect_end().unwrap();
        assert!(p.next().is_err());
        assert!(Parser::new("x: 1").unwrap().num_field("y").is_err());
    }
}
