//! Lexer for the loop-program language.

use std::fmt;

/// A lexical token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Token {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal (non-negative; unary minus is a parser concern).
    Int(i128),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `=`
    Assign,
    /// `+=` `-=` `*=` `/=` `%=` compound assignment (the operator part).
    CompoundAssign(char),
    /// `++`
    PlusPlus,
    /// `--`
    MinusMinus,
    /// `+` `-` `*` `/` `%`
    Op(char),
    /// `==` `!=` `<` `<=` `>` `>=`
    Cmp(&'static str),
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(n) => write!(f, "{n}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBrace => write!(f, "{{"),
            Token::RBrace => write!(f, "}}"),
            Token::Semi => write!(f, ";"),
            Token::Comma => write!(f, ","),
            Token::Assign => write!(f, "="),
            Token::CompoundAssign(c) => write!(f, "{c}="),
            Token::PlusPlus => write!(f, "++"),
            Token::MinusMinus => write!(f, "--"),
            Token::Op(c) => write!(f, "{c}"),
            Token::Cmp(s) => write!(f, "{s}"),
            Token::AndAnd => write!(f, "&&"),
            Token::OrOr => write!(f, "||"),
            Token::Bang => write!(f, "!"),
        }
    }
}

/// A token together with its source line (1-based), for diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// 1-based source line.
    pub line: usize,
}

/// Error produced when the input contains characters outside the language.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Offending character.
    pub ch: char,
    /// 1-based source line.
    pub line: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unexpected character {:?} on line {}", self.ch, self.line)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes source text. `//` line comments and `/* */` block comments are
/// skipped.
///
/// # Errors
///
/// Returns [`LexError`] on any character that cannot start a token.
///
/// # Examples
///
/// ```
/// use gcln_lang::lexer::{tokenize, Token};
/// let toks = tokenize("x += 2; // bump").unwrap();
/// assert_eq!(toks[0].token, Token::Ident("x".into()));
/// assert_eq!(toks[1].token, Token::CompoundAssign('+'));
/// ```
pub fn tokenize(src: &str) -> Result<Vec<Spanned>, LexError> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line = 1;
    while i < chars.len() {
        let c = chars[i];
        let peek = chars.get(i + 1).copied();
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if peek == Some('/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if peek == Some('*') => {
                i += 2;
                while i + 1 < chars.len() && !(chars[i] == '*' && chars[i + 1] == '/') {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i = (i + 2).min(chars.len());
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < chars.len() && chars[i].is_ascii_digit() {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let n: i128 = text.parse().expect("digit runs fit in i128 for benchmark inputs");
                tokens.push(Spanned { token: Token::Int(n), line });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                tokens.push(Spanned { token: Token::Ident(text), line });
            }
            '(' => {
                tokens.push(Spanned { token: Token::LParen, line });
                i += 1;
            }
            ')' => {
                tokens.push(Spanned { token: Token::RParen, line });
                i += 1;
            }
            '{' => {
                tokens.push(Spanned { token: Token::LBrace, line });
                i += 1;
            }
            '}' => {
                tokens.push(Spanned { token: Token::RBrace, line });
                i += 1;
            }
            ';' => {
                tokens.push(Spanned { token: Token::Semi, line });
                i += 1;
            }
            ',' => {
                tokens.push(Spanned { token: Token::Comma, line });
                i += 1;
            }
            '+' if peek == Some('+') => {
                tokens.push(Spanned { token: Token::PlusPlus, line });
                i += 2;
            }
            '-' if peek == Some('-') => {
                tokens.push(Spanned { token: Token::MinusMinus, line });
                i += 2;
            }
            '+' | '-' | '*' | '/' | '%' if peek == Some('=') => {
                tokens.push(Spanned { token: Token::CompoundAssign(c), line });
                i += 2;
            }
            '+' | '-' | '*' | '/' | '%' => {
                tokens.push(Spanned { token: Token::Op(c), line });
                i += 1;
            }
            '=' if peek == Some('=') => {
                tokens.push(Spanned { token: Token::Cmp("=="), line });
                i += 2;
            }
            '=' => {
                tokens.push(Spanned { token: Token::Assign, line });
                i += 1;
            }
            '!' if peek == Some('=') => {
                tokens.push(Spanned { token: Token::Cmp("!="), line });
                i += 2;
            }
            '!' => {
                tokens.push(Spanned { token: Token::Bang, line });
                i += 1;
            }
            '<' if peek == Some('=') => {
                tokens.push(Spanned { token: Token::Cmp("<="), line });
                i += 2;
            }
            '<' => {
                tokens.push(Spanned { token: Token::Cmp("<"), line });
                i += 1;
            }
            '>' if peek == Some('=') => {
                tokens.push(Spanned { token: Token::Cmp(">="), line });
                i += 2;
            }
            '>' => {
                tokens.push(Spanned { token: Token::Cmp(">"), line });
                i += 1;
            }
            '&' if peek == Some('&') => {
                tokens.push(Spanned { token: Token::AndAnd, line });
                i += 2;
            }
            '|' if peek == Some('|') => {
                tokens.push(Spanned { token: Token::OrOr, line });
                i += 2;
            }
            other => return Err(LexError { ch: other, line }),
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        tokenize(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("x = 42;"),
            vec![Token::Ident("x".into()), Token::Assign, Token::Int(42), Token::Semi]
        );
    }

    #[test]
    fn comparison_tokens() {
        assert_eq!(
            toks("a <= b == c != d >= e < f > g"),
            vec![
                Token::Ident("a".into()),
                Token::Cmp("<="),
                Token::Ident("b".into()),
                Token::Cmp("=="),
                Token::Ident("c".into()),
                Token::Cmp("!="),
                Token::Ident("d".into()),
                Token::Cmp(">="),
                Token::Ident("e".into()),
                Token::Cmp("<"),
                Token::Ident("f".into()),
                Token::Cmp(">"),
                Token::Ident("g".into()),
            ]
        );
    }

    #[test]
    fn compound_and_incdec() {
        assert_eq!(
            toks("x += 1; y++; z--;"),
            vec![
                Token::Ident("x".into()),
                Token::CompoundAssign('+'),
                Token::Int(1),
                Token::Semi,
                Token::Ident("y".into()),
                Token::PlusPlus,
                Token::Semi,
                Token::Ident("z".into()),
                Token::MinusMinus,
                Token::Semi,
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(toks("x // hi\n= /* there \n over lines */ 1"), toks("x = 1"));
    }

    #[test]
    fn line_numbers_advance() {
        let spanned = tokenize("a\nb\n\nc").unwrap();
        let lines: Vec<usize> = spanned.iter().map(|s| s.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn rejects_garbage() {
        let err = tokenize("x = $;").unwrap_err();
        assert_eq!(err.ch, '$');
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn logical_ops() {
        assert_eq!(
            toks("a && b || !c"),
            vec![
                Token::Ident("a".into()),
                Token::AndAnd,
                Token::Ident("b".into()),
                Token::OrOr,
                Token::Bang,
                Token::Ident("c".into()),
            ]
        );
    }
}
