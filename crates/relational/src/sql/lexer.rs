//! SQL tokenizer.
//!
//! The lexer borrows from the input: identifiers and numbers are slices
//! of it, and a string literal is one too unless a `''` escape has to be
//! undone.  Keywords are a closed [`Keyword`] enum, recognized without
//! allocating.  Tokens are produced one at a time, on demand, so lexing a
//! statement allocates nothing at all in the common case.
//!
//! Case folding follows Unicode, exactly: a word is a keyword when its
//! `to_uppercase` spells one (so `ſelect` is `SELECT`), and an identifier
//! folds through `to_lowercase` (see [`fold_name`]).  ASCII words — all
//! real queries — take an allocation-free path; other words take the
//! standard library's.

use std::borrow::Cow;
use std::fmt;

use crate::error::RelationalError;
use crate::schema::fold_name;
use crate::Result;

macro_rules! keywords {
    ($($keyword:ident $spelling:literal),* $(,)?) => {
        /// A reserved word.
        #[derive(Clone, Copy, PartialEq, Eq)]
        pub(super) enum Keyword {
            $(#[doc = $spelling] $keyword),*
        }

        impl Keyword {
            /// Every keyword.
            const ALL: &'static [Keyword] = &[$(Keyword::$keyword),*];

            /// The keyword in upper case, as SQL spells it.
            const fn as_str(self) -> &'static str {
                match self {
                    $(Keyword::$keyword => $spelling),*
                }
            }
        }
    };
}

// `EXPANSION` is deliberately NOT a keyword: it only has meaning directly
// after `WITH` and the parser matches it contextually, so pre-existing
// schemas with a column or table named `expansion` keep working.  `WITH`
// itself is reserved, as in standard SQL.
keywords! {
    Select "SELECT", From "FROM", Where "WHERE", Order "ORDER", By "BY", Asc "ASC",
    Desc "DESC", Limit "LIMIT", Insert "INSERT", Into "INTO", Values "VALUES",
    Create "CREATE", Table "TABLE", Alter "ALTER", Add "ADD", Column "COLUMN", Not "NOT",
    Null "NULL", And "AND", Or "OR", True "TRUE", False "FALSE", Is "IS", Integer "INTEGER",
    Int "INT", Float "FLOAT", Real "REAL", Double "DOUBLE", Text "TEXT", Varchar "VARCHAR",
    String "STRING", Boolean "BOOLEAN", Bool "BOOL", Update "UPDATE", Set "SET",
    Delete "DELETE", With "WITH", Explain "EXPLAIN",
}

/// The longest keyword's length: longer words are never keywords.
const LONGEST_KEYWORD: usize = {
    let mut longest = 0;
    let mut i = 0;
    while i < Keyword::ALL.len() {
        let len = Keyword::ALL[i].as_str().len();
        if len > longest {
            longest = len;
        }
        i += 1;
    }
    longest
};

// A key packs every byte of a word into one `u64`.
const _: () = assert!(LONGEST_KEYWORD < 8);

/// A word of at most [`LONGEST_KEYWORD`] bytes, its ASCII letters
/// upper-cased, as one integer: words with equal keys are equal.
const fn key(word: &[u8]) -> u64 {
    let mut key = 0;
    let mut i = 0;
    while i < word.len() {
        key = key << 8 | word[i].to_ascii_uppercase() as u64;
        i += 1;
    }
    key
}

/// The key of every keyword, in [`Keyword::ALL`] order.
const KEYS: [u64; Keyword::ALL.len()] = {
    let mut keys = [0; Keyword::ALL.len()];
    let mut i = 0;
    while i < keys.len() {
        keys[i] = key(Keyword::ALL[i].as_str().as_bytes());
        i += 1;
    }
    keys
};

impl Keyword {
    /// The keyword `word` spells in any case, that is the one spelled
    /// `word.to_uppercase()`.  An ASCII word is looked up by its key,
    /// without allocating.
    fn of_word(word: &str) -> Option<Keyword> {
        let upper;
        let word = if word.is_ascii() {
            word
        } else {
            upper = word.to_uppercase();
            &upper
        };
        if word.len() > LONGEST_KEYWORD {
            return None;
        }
        let key = key(word.as_bytes());
        let at = KEYS.iter().position(|&k| k == key)?;
        Some(Keyword::ALL[at])
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A lexical token, borrowing from the SQL text.
///
/// `Debug` prints an identifier folded, as the parser reads it, so parse
/// errors quote `Identifier("name")` whatever the word's case.
#[derive(Clone, PartialEq)]
pub(super) enum Token<'a> {
    /// A keyword: `SELECT`, `FROM`, `WHERE`, …
    Keyword(Keyword),
    /// An identifier as written: a table or column name, case-insensitive
    /// (the parser folds it with [`fold_name`]).
    Identifier(&'a str),
    /// A numeric literal (integer or float).
    Number(&'a str),
    /// A single-quoted string literal (quotes stripped, `''` unescaped).
    StringLiteral(Cow<'a, str>),
    /// `,`
    Comma,
    /// `(`
    LeftParen,
    /// `)`
    RightParen,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `;`
    Semicolon,
}

impl fmt::Debug for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Token::Keyword(keyword) => return f.debug_tuple("Keyword").field(keyword).finish(),
            Token::Identifier(name) => {
                return f.debug_tuple("Identifier").field(&fold_name(name)).finish()
            }
            Token::Number(text) => return f.debug_tuple("Number").field(text).finish(),
            Token::StringLiteral(text) => {
                return f.debug_tuple("StringLiteral").field(text).finish()
            }
            Token::Comma => "Comma",
            Token::LeftParen => "LeftParen",
            Token::RightParen => "RightParen",
            Token::Star => "Star",
            Token::Eq => "Eq",
            Token::NotEq => "NotEq",
            Token::Lt => "Lt",
            Token::LtEq => "LtEq",
            Token::Gt => "Gt",
            Token::GtEq => "GtEq",
            Token::Plus => "Plus",
            Token::Minus => "Minus",
            Token::Slash => "Slash",
            Token::Semicolon => "Semicolon",
        };
        f.write_str(name)
    }
}

/// Splits SQL text into tokens, one per [`Lexer::next_token`] call.
pub(super) struct Lexer<'a> {
    input: &'a str,
    /// Byte offset of the next unread char.
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub(super) fn new(input: &'a str) -> Lexer<'a> {
        Lexer { input, pos: 0 }
    }

    /// The next token, or `None` at the end of the input.  After an error
    /// the lexer stays at the end.
    pub(super) fn next_token(&mut self) -> Result<Option<Token<'a>>> {
        let token = self.scan();
        if token.is_err() {
            self.pos = self.input.len();
        }
        token
    }

    fn scan(&mut self) -> Result<Option<Token<'a>>> {
        let bytes = self.input.as_bytes();
        // Whitespace: ASCII byte by byte, anything else char by char.
        let c = loop {
            match bytes.get(self.pos) {
                None => return Ok(None),
                Some(b' ' | b'\t'..=b'\r') => self.pos += 1,
                Some(&b) if b.is_ascii() => break char::from(b),
                Some(_) => {
                    let c = self.char_at(self.pos);
                    if !c.is_whitespace() {
                        break c;
                    }
                    self.pos += c.len_utf8();
                }
            }
        };
        let start = self.pos;
        let next = bytes.get(start + 1).copied();
        let (token, len) = match c {
            ',' => (Token::Comma, 1),
            '(' => (Token::LeftParen, 1),
            ')' => (Token::RightParen, 1),
            '*' => (Token::Star, 1),
            '=' => (Token::Eq, 1),
            ';' => (Token::Semicolon, 1),
            '+' => (Token::Plus, 1),
            '-' => (Token::Minus, 1),
            '/' => (Token::Slash, 1),
            '<' => match next {
                Some(b'=') => (Token::LtEq, 2),
                Some(b'>') => (Token::NotEq, 2),
                _ => (Token::Lt, 1),
            },
            '>' => match next {
                Some(b'=') => (Token::GtEq, 2),
                _ => (Token::Gt, 1),
            },
            '!' => match next {
                Some(b'=') => (Token::NotEq, 2),
                _ => return Err(RelationalError::Parse("unexpected character '!'".into())),
            },
            '\'' => return self.string_literal().map(Some),
            c if c.is_ascii_digit() => {
                let mut end = start + 1;
                let mut seen_dot = false;
                while let Some(&b) = bytes.get(end) {
                    if b == b'.' && !seen_dot {
                        seen_dot = true;
                    } else if !b.is_ascii_digit() {
                        break;
                    }
                    end += 1;
                }
                (Token::Number(&self.input[start..end]), end - start)
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut end = start;
                while let Some(&b) = bytes.get(end) {
                    if b.is_ascii_alphanumeric() || b == b'_' {
                        end += 1;
                    } else if b.is_ascii() {
                        break;
                    } else {
                        let c = self.char_at(end);
                        if !c.is_alphanumeric() {
                            break;
                        }
                        end += c.len_utf8();
                    }
                }
                let word = &self.input[start..end];
                let token = match Keyword::of_word(word) {
                    Some(keyword) => Token::Keyword(keyword),
                    None => Token::Identifier(word),
                };
                (token, end - start)
            }
            other => {
                return Err(RelationalError::Parse(format!(
                    "unexpected character '{other}'"
                )))
            }
        };
        self.pos += len;
        Ok(Some(token))
    }

    /// The char starting at byte `at`.
    fn char_at(&self, at: usize) -> char {
        self.input[at..]
            .chars()
            .next()
            .expect("the lexer stops only at char boundaries")
    }

    /// The string literal opening at `pos`: borrowed from the input
    /// unless it holds a `''` escape.
    fn string_literal(&mut self) -> Result<Token<'a>> {
        let body = self.pos + 1;
        let mut unescaped: Option<String> = None;
        let mut from = body;
        loop {
            let Some(quote) = self.input[from..].find('\'').map(|at| from + at) else {
                return Err(RelationalError::Parse("unterminated string literal".into()));
            };
            if self.input[quote + 1..].starts_with('\'') {
                // `''` inside a string is one quote: keep the text up to and
                // including the first.
                unescaped
                    .get_or_insert_with(String::new)
                    .push_str(&self.input[from..=quote]);
                from = quote + 2;
                continue;
            }
            self.pos = quote + 1;
            let text = match unescaped {
                None => Cow::Borrowed(&self.input[body..quote]),
                Some(mut text) => {
                    text.push_str(&self.input[from..quote]);
                    Cow::Owned(text)
                }
            };
            return Ok(Token::StringLiteral(text));
        }
    }
}

/// Splits a SQL string into tokens.
#[cfg(test)]
pub(super) fn tokenize(input: &str) -> Result<Vec<Token<'_>>> {
    let mut lexer = Lexer::new(input);
    std::iter::from_fn(|| lexer.next_token().transpose()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyword(word: &str) -> Token<'_> {
        Token::Keyword(Keyword::of_word(word).unwrap())
    }

    #[test]
    fn tokenizes_a_full_select() {
        let toks =
            tokenize("SELECT name FROM movies WHERE humor >= 8.5 AND year <> 1999;").unwrap();
        assert_eq!(toks[0], Token::Keyword(Keyword::Select));
        assert_eq!(toks[1], Token::Identifier("name"));
        assert!(toks.contains(&Token::GtEq));
        assert!(toks.contains(&Token::Number("8.5")));
        assert!(toks.contains(&Token::NotEq));
        assert_eq!(*toks.last().unwrap(), Token::Semicolon);
    }

    #[test]
    fn keywords_are_case_insensitive_identifiers_lowercased() {
        let toks = tokenize("select NaMe from Movies").unwrap();
        assert_eq!(toks[0], Token::Keyword(Keyword::Select));
        assert_eq!(toks[1], Token::Identifier("NaMe"));
        assert_eq!(fold_name("NaMe"), "name");
        assert_eq!(format!("{:?}", toks[3]), r#"Identifier("movies")"#);
        // Unicode folding: the long s upper-cases to `S`, the dotless i
        // to `I`, the `ﬂ` ligature to "FL"; `ß` upper-cases to "SS" and
        // spells no keyword.
        assert_eq!(tokenize("ſelect").unwrap(), [keyword("SELECT")]);
        assert_eq!(
            tokenize("ınt ﬂoat").unwrap(),
            [keyword("INT"), keyword("FLOAT")]
        );
        assert_eq!(tokenize("ß").unwrap(), [Token::Identifier("ß")]);
        assert_eq!(
            format!("{:?}", tokenize("\u{212A}ey").unwrap()),
            r#"[Identifier("key")]"#
        );
    }

    #[test]
    fn every_keyword_is_recognized_in_any_case() {
        for &keyword in Keyword::ALL {
            let word = keyword.as_str();
            assert_eq!(Keyword::of_word(word), Some(keyword));
            assert_eq!(Keyword::of_word(&word.to_lowercase()), Some(keyword));
            assert_eq!(
                format!("{:?}", Token::Keyword(keyword)),
                format!("Keyword({word:?})")
            );
        }
        assert_eq!(LONGEST_KEYWORD, 7);
        assert_eq!(Keyword::of_word("EXPANSION"), None);
        assert_eq!(Keyword::of_word("SELECTED"), None);
    }

    #[test]
    fn string_literals_and_escapes() {
        let toks = tokenize("'it''s good'").unwrap();
        assert_eq!(toks, vec![Token::StringLiteral("it's good".into())]);
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("'it''").is_err());
        // Only an escape costs an allocation.
        match &tokenize("'plain' '''' ''").unwrap()[..] {
            [Token::StringLiteral(Cow::Borrowed("plain")), Token::StringLiteral(Cow::Owned(quote)), Token::StringLiteral(Cow::Borrowed(""))] =>
            {
                assert_eq!(quote, "'")
            }
            other => panic!("unexpected tokens {other:?}"),
        }
    }

    #[test]
    fn operators_and_punctuation() {
        let toks = tokenize("( ) , * = < <= > >= != + - /").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::LeftParen,
                Token::RightParen,
                Token::Comma,
                Token::Star,
                Token::Eq,
                Token::Lt,
                Token::LtEq,
                Token::Gt,
                Token::GtEq,
                Token::NotEq,
                Token::Plus,
                Token::Minus,
                Token::Slash,
            ]
        );
    }

    #[test]
    fn rejects_unknown_characters() {
        assert!(tokenize("SELECT # FROM t").is_err());
        assert!(tokenize("!a").is_err());
    }

    #[test]
    fn numbers_parse_with_single_dot() {
        let toks = tokenize("3.14 42").unwrap();
        assert_eq!(toks, vec![Token::Number("3.14"), Token::Number("42")]);
    }
}
