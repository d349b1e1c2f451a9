//! The lexer checked against a reference, and the parser against itself.
//!
//! [`reference::tokenize`] is the original char-vector tokenizer, kept
//! verbatim as the specification of how SQL text becomes tokens: which
//! words are keywords (`to_uppercase` folding), how identifiers fold
//! (`to_lowercase`), how `''` escapes unescape, and which error each
//! malformed input raises.  The properties compare against it on
//! SQL-shaped inputs — statement templates with keywords in random case,
//! Unicode words (`ß`, the long s `ſ`, the Kelvin sign), `''` escapes and
//! every operator — and on token soup with no grammar at all:
//!
//! * the lexer's tokens, or its error, print exactly like the reference's;
//! * a statement depends only on its reference tokens: `parse(s)` equals
//!   `parse` of the tokens re-rendered in canonical spelling, `Ok` tree
//!   and `Err` message alike (when that spelling lexes back to the same
//!   tokens);
//! * `parse` never panics, whatever the input: remote clients send SQL.

use super::{parse, tokenize};
use crate::error::RelationalError;
use proptest::prelude::*;

mod reference {
    use crate::error::RelationalError;
    use crate::Result;

    /// A lexical token.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Token {
        Keyword(String),
        Identifier(String),
        Number(String),
        StringLiteral(String),
        Comma,
        LeftParen,
        RightParen,
        Star,
        Eq,
        NotEq,
        Lt,
        LtEq,
        Gt,
        GtEq,
        Plus,
        Minus,
        Slash,
        Semicolon,
    }

    const KEYWORDS: &[&str] = &[
        "SELECT", "FROM", "WHERE", "ORDER", "BY", "ASC", "DESC", "LIMIT", "INSERT", "INTO",
        "VALUES", "CREATE", "TABLE", "ALTER", "ADD", "COLUMN", "NOT", "NULL", "AND", "OR", "TRUE",
        "FALSE", "IS", "INTEGER", "INT", "FLOAT", "REAL", "DOUBLE", "TEXT", "VARCHAR", "STRING",
        "BOOLEAN", "BOOL", "UPDATE", "SET", "DELETE", "WITH", "EXPLAIN",
    ];

    /// Splits a SQL string into tokens.
    pub fn tokenize(input: &str) -> Result<Vec<Token>> {
        let mut tokens = Vec::new();
        let chars: Vec<char> = input.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            match c {
                c if c.is_whitespace() => i += 1,
                ',' => {
                    tokens.push(Token::Comma);
                    i += 1;
                }
                '(' => {
                    tokens.push(Token::LeftParen);
                    i += 1;
                }
                ')' => {
                    tokens.push(Token::RightParen);
                    i += 1;
                }
                '*' => {
                    tokens.push(Token::Star);
                    i += 1;
                }
                '=' => {
                    tokens.push(Token::Eq);
                    i += 1;
                }
                ';' => {
                    tokens.push(Token::Semicolon);
                    i += 1;
                }
                '+' => {
                    tokens.push(Token::Plus);
                    i += 1;
                }
                '-' => {
                    tokens.push(Token::Minus);
                    i += 1;
                }
                '/' => {
                    tokens.push(Token::Slash);
                    i += 1;
                }
                '<' => {
                    if i + 1 < chars.len() && chars[i + 1] == '=' {
                        tokens.push(Token::LtEq);
                        i += 2;
                    } else if i + 1 < chars.len() && chars[i + 1] == '>' {
                        tokens.push(Token::NotEq);
                        i += 2;
                    } else {
                        tokens.push(Token::Lt);
                        i += 1;
                    }
                }
                '>' => {
                    if i + 1 < chars.len() && chars[i + 1] == '=' {
                        tokens.push(Token::GtEq);
                        i += 2;
                    } else {
                        tokens.push(Token::Gt);
                        i += 1;
                    }
                }
                '!' => {
                    if i + 1 < chars.len() && chars[i + 1] == '=' {
                        tokens.push(Token::NotEq);
                        i += 2;
                    } else {
                        return Err(RelationalError::Parse("unexpected character '!'".into()));
                    }
                }
                '\'' => {
                    let mut s = String::new();
                    i += 1;
                    loop {
                        if i >= chars.len() {
                            return Err(RelationalError::Parse(
                                "unterminated string literal".into(),
                            ));
                        }
                        if chars[i] == '\'' {
                            // Escaped quote: '' inside a string.
                            if i + 1 < chars.len() && chars[i + 1] == '\'' {
                                s.push('\'');
                                i += 2;
                                continue;
                            }
                            i += 1;
                            break;
                        }
                        s.push(chars[i]);
                        i += 1;
                    }
                    tokens.push(Token::StringLiteral(s));
                }
                c if c.is_ascii_digit() => {
                    let mut s = String::new();
                    let mut seen_dot = false;
                    while i < chars.len()
                        && (chars[i].is_ascii_digit() || (chars[i] == '.' && !seen_dot))
                    {
                        if chars[i] == '.' {
                            seen_dot = true;
                        }
                        s.push(chars[i]);
                        i += 1;
                    }
                    tokens.push(Token::Number(s));
                }
                c if c.is_alphabetic() || c == '_' => {
                    let mut s = String::new();
                    while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        s.push(chars[i]);
                        i += 1;
                    }
                    let upper = s.to_uppercase();
                    if KEYWORDS.contains(&upper.as_str()) {
                        tokens.push(Token::Keyword(upper));
                    } else {
                        tokens.push(Token::Identifier(s.to_lowercase()));
                    }
                }
                other => {
                    return Err(RelationalError::Parse(format!(
                        "unexpected character '{other}'"
                    )));
                }
            }
        }
        Ok(tokens)
    }
}

use reference::Token;

/// The tokens in canonical spelling: upper-case keywords, folded
/// identifiers, re-escaped strings, one space between tokens.
fn render(tokens: &[Token]) -> String {
    let words: Vec<String> = tokens
        .iter()
        .map(|token| match token {
            Token::Keyword(word) | Token::Identifier(word) | Token::Number(word) => word.clone(),
            Token::StringLiteral(text) => format!("'{}'", text.replace('\'', "''")),
            Token::Comma => ",".into(),
            Token::LeftParen => "(".into(),
            Token::RightParen => ")".into(),
            Token::Star => "*".into(),
            Token::Eq => "=".into(),
            Token::NotEq => "<>".into(),
            Token::Lt => "<".into(),
            Token::LtEq => "<=".into(),
            Token::Gt => ">".into(),
            Token::GtEq => ">=".into(),
            Token::Plus => "+".into(),
            Token::Minus => "-".into(),
            Token::Slash => "/".into(),
            Token::Semicolon => ";".into(),
        })
        .collect();
    words.join(" ")
}

/// Statement shapes covering every clause; `$i`, `$n` and `$s` are
/// filled with an identifier, a number and a string literal.
const TEMPLATES: &[&str] = &[
    "SELECT $i , $i FROM $i WHERE $i = $n AND $i <> $s ORDER BY $i DESC LIMIT 3",
    "select * from $i where $i >= $n or not $i < - $n order by $i asc",
    "SELECT $i FROM $i WHERE ( $i + $n ) * $n / $i != $n ;",
    "SELECT $i FROM $i WHERE $i IS NOT NULL AND $i IS NULL OR $i = TRUE",
    "INSERT INTO $i ( $i , $i ) VALUES ( $n , $s ) , ( - $n , NULL )",
    "INSERT INTO $i ( $i , $i , $i ) VALUES ( TRUE , FALSE , $s )",
    "UPDATE $i SET $i = $i + $n , $i = $s WHERE NOT $i <= $n",
    "DELETE FROM $i WHERE $i > $n",
    "CREATE TABLE $i ( $i INTEGER NOT NULL , $i TEXT NULL , $i FLOAT , $i BOOLEAN )",
    "CREATE TABLE $i ( $i INT , $i REAL , $i DOUBLE , $i VARCHAR , $i STRING , $i BOOL )",
    "ALTER TABLE $i ADD COLUMN $i BOOLEAN",
    "EXPLAIN EXPANSION SELECT $i FROM $i WHERE $i = $n",
    "SELECT * FROM $i WITH EXPANSION ( budget = $n , mode = best_effort , quality >= 0.5 )",
    "SELECT $i FROM $i LIMIT $n WITH EXPANSION ( mode = cache_only , quality = 1 )",
];

/// Words for `$i`: plain, Unicode and contextual keywords, then words
/// that fold to keywords.
const IDENTIFIERS: &[&str] = &[
    "a",
    "item_id",
    "t",
    "_",
    "_9",
    "x1y",
    "ß",
    "straße",
    "ſ",
    "\u{212A}",
    "\u{212A}ey",
    "Größe",
    "ΟΔΟΣ",
    "İd",
    "expansion",
    "mode",
    "selected",
    "fromage",
    "ſelect",
    "ſet",
    "ınt",
    "ﬂoat",
];
const PLAIN_IDENTIFIERS: usize = 18;

/// Numbers for `$n`, then ones that fail to lex or to parse.
const NUMBERS: &[&str] = &[
    "0",
    "7",
    "42",
    "3.25",
    "1.",
    "9223372036854775807",
    "9223372036854775808",
    "1.2.3",
];
const PLAIN_NUMBERS: usize = 6;

/// Strings for `$s`, then an unterminated one.
const STRINGS: &[&str] = &[
    "'x'",
    "'it''s'",
    "''",
    "''''",
    "'ſ \u{212A} ß'",
    "'SELECT'",
    "'unterminated",
];
const PLAIN_STRINGS: usize = 6;

/// One of the first `plain` words of `pool` three times in four,
/// otherwise any word of it.
fn pick<'p>(pool: &[&'p str], plain: usize, choice: u64) -> &'p str {
    let len = if choice.is_multiple_of(4) {
        pool.len()
    } else {
        plain
    };
    pool[(choice / 4) as usize % len]
}

/// Every token kind, some malformed, for the grammar-free soup.
const FRAGMENTS: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "ORDER",
    "BY",
    "ASC",
    "DESC",
    "LIMIT",
    "INSERT",
    "INTO",
    "VALUES",
    "CREATE",
    "TABLE",
    "ALTER",
    "ADD",
    "COLUMN",
    "NOT",
    "NULL",
    "AND",
    "OR",
    "TRUE",
    "FALSE",
    "IS",
    "INTEGER",
    "INT",
    "FLOAT",
    "REAL",
    "DOUBLE",
    "TEXT",
    "VARCHAR",
    "STRING",
    "BOOLEAN",
    "BOOL",
    "UPDATE",
    "SET",
    "DELETE",
    "WITH",
    "EXPLAIN",
    "EXPANSION",
    "a",
    "ß",
    "ſ",
    "\u{212A}",
    "ΟΔΟΣ",
    "ﬂoat",
    "7",
    "3.25",
    "1.",
    "'x'",
    "'it''s'",
    "''",
    "'",
    ",",
    "(",
    ")",
    "*",
    "=",
    "<>",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    "+",
    "-",
    "/",
    ";",
    "!",
    "#",
    ".",
    "{",
    "\n",
    "\t",
];

/// `word` with each char's case flipped to upper or lower by the bits of
/// `mask`.
fn random_case(word: &str, mask: u64) -> String {
    word.chars()
        .enumerate()
        .map(|(i, c)| {
            if mask >> (i % 64) & 1 == 1 {
                c.to_uppercase().collect::<String>()
            } else {
                c.to_lowercase().collect::<String>()
            }
        })
        .collect()
}

/// A template filled and cased by `choices`, and sometimes damaged: a
/// token dropped or duplicated, or two tokens glued together.
fn templated(template: usize, choices: &[u64]) -> String {
    let mut choice = choices.iter().copied().cycle();
    let mut next = move || choice.next().unwrap_or(0);
    let mut words: Vec<String> = TEMPLATES[template]
        .split(' ')
        .map(|word| {
            let choice = next();
            match word {
                "$i" => random_case(pick(IDENTIFIERS, PLAIN_IDENTIFIERS, choice), next()),
                "$n" => pick(NUMBERS, PLAIN_NUMBERS, choice).to_string(),
                "$s" => pick(STRINGS, PLAIN_STRINGS, choice).to_string(),
                word => random_case(word, choice),
            }
        })
        .collect();
    let damage = next();
    let at = next() as usize % words.len();
    match damage % 16 {
        0 => {
            words.remove(at);
        }
        1 => words.insert(at, words[at].clone()),
        _ => {}
    }
    let mut out = String::new();
    for (i, word) in words.iter().enumerate() {
        if i > 0 && next() % 16 != 0 {
            out.push_str(if next() % 4 == 0 { "\t " } else { " " });
        }
        out.push_str(word);
    }
    out
}

/// Fragments joined with or without a space.
fn soup(parts: &[(usize, u64)]) -> String {
    let mut out = String::new();
    for &(index, mask) in parts {
        out.push_str(&random_case(FRAGMENTS[index], mask));
        if mask & (1 << 63) != 0 {
            out.push(' ');
        }
    }
    out
}

/// The lexer prints exactly like the reference, then the statement is a
/// function of the reference tokens.
fn check(sql: &str) -> std::result::Result<(), proptest::test_runner::TestCaseError> {
    let expected = reference::tokenize(sql);
    prop_assert_eq!(
        format!("{:?}", tokenize(sql)),
        format!("{expected:?}"),
        "tokens of {:?}",
        sql
    );
    let parsed = format!("{:?}", parse(sql));
    match expected {
        Ok(tokens) => {
            let canonical = render(&tokens);
            // A folded identifier need not lex back to itself: `İ` folds
            // to `i` and a combining dot, which no word may contain.
            if reference::tokenize(&canonical).ok() != Some(tokens) {
                return Ok(());
            }
            prop_assert_eq!(
                parsed,
                format!("{:?}", parse(&canonical)),
                "{:?} against its canonical form {:?}",
                sql,
                canonical
            );
        }
        Err(error) => {
            prop_assert!(
                matches!(error, RelationalError::Parse(_)),
                "reference error {error:?}"
            );
            prop_assert_eq!(parsed, format!("{:?}", Err::<(), _>(error)), "{:?}", sql);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn templated_statements_lex_and_parse_like_the_reference(
        template in 0..TEMPLATES.len(),
        choices in prop::collection::vec(any::<u64>(), 64),
    ) {
        check(&templated(template, &choices))?;
    }

    #[test]
    fn token_soup_lexes_and_parses_like_the_reference(
        parts in prop::collection::vec((0..FRAGMENTS.len(), any::<u64>()), 0..24),
    ) {
        check(&soup(&parts))?;
    }

    #[test]
    fn parse_never_panics_on_arbitrary_text(
        code_points in prop::collection::vec(any::<u32>(), 0..48),
        parts in prop::collection::vec((0..FRAGMENTS.len(), any::<u64>()), 0..12),
    ) {
        // Code points drawn mostly from ASCII, then the BMP, then anywhere.
        let noise: String = code_points
            .iter()
            .filter_map(|&bits| match bits % 4 {
                0 | 1 => char::from_u32(bits >> 2 & 0x7f),
                2 => char::from_u32(bits >> 2 & 0xffff),
                _ => char::from_u32(bits >> 2 & 0x1f_ffff),
            })
            .collect();
        let _ = parse(&noise);
        let mixed = soup(&parts) + &noise;
        let _ = parse(&mixed);
        check(&mixed)?;
    }
}

#[test]
fn the_reference_agrees_on_the_unicode_corners() {
    for sql in [
        "ſelect ſ FROM \u{212A}",
        "CREATE TABLE t (a ﬂoat, b ınt)",
        "select Größe FROM Straße WHERE ß = 'it''s'",
        "SELECT ΟΔΟΣ FROM t WHERE İd <> 1",
    ] {
        check(sql).unwrap();
    }
}
