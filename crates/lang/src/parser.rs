//! Recursive-descent parser for the loop-program language.
//!
//! Grammar sketch (see the repository README for the full syntax):
//!
//! ```text
//! program := ("program" IDENT ";")? header* stmt*
//! header  := "inputs" IDENT ("," IDENT)* ";" | "pre" bexpr ";" | "post" bexpr ";"
//! stmt    := IDENT ("=" | "+=" | "-=" | "*=" | "/=" | "%=") expr ";"
//!          | IDENT "++" ";" | IDENT "--" ";"
//!          | "if" "(" bexpr ")" block ("else" (block | if-stmt))?
//!          | "while" "(" bexpr ")" block
//!          | "assume" "(" bexpr ")" ";" | "break" ";"
//! block   := "{" stmt* "}" | stmt
//! bexpr   := band ("||" band)* ; band := batom ("&&" batom)*
//! batom   := "true" | "false" | "nondet" "(" ")" | "!" batom
//!          | "(" bexpr ")" | expr cmp expr
//! expr    := term (("+"|"-") term)* ; term := factor (("*"|"/"|"%") factor)*
//! factor  := INT | IDENT | IDENT "(" args ")" | "nondet" "(" expr "," expr ")"
//!          | "(" expr ")" | "-" factor
//! ```

use crate::ast::{BinOp, BoolExpr, CmpOp, Expr, Program, Stmt};
use crate::lexer::{tokenize, LexError, Spanned, Token};
use std::fmt;

/// Error produced when parsing fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based source line (0 when at end of input).
    pub line: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError { message: e.to_string(), line: e.line }
    }
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    loop_counter: usize,
}

type PResult<T> = Result<T, ParseError>;

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn line(&self) -> usize {
        self.tokens.get(self.pos).or_else(|| self.tokens.last()).map_or(0, |s| s.line)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        self.pos += 1;
        t
    }

    fn error<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError { message: msg.into(), line: self.line() })
    }

    fn expect(&mut self, tok: &Token) -> PResult<()> {
        match self.peek() {
            Some(t) if t == tok => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => {
                let t = t.clone();
                self.error(format!("expected `{tok}`, found `{t}`"))
            }
            None => self.error(format!("expected `{tok}`, found end of input")),
        }
    }

    fn eat_ident(&mut self) -> PResult<String> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            other => {
                let d = other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".into());
                self.error(format!("expected identifier, found `{d}`"))
            }
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    // ---- expressions ----

    fn parse_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.parse_term()?;
        while let Some(Token::Op(c @ ('+' | '-'))) = self.peek() {
            let op = if *c == '+' { BinOp::Add } else { BinOp::Sub };
            self.pos += 1;
            let rhs = self.parse_term()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_term(&mut self) -> PResult<Expr> {
        let mut lhs = self.parse_factor()?;
        while let Some(Token::Op(c @ ('*' | '/' | '%'))) = self.peek() {
            let op = match c {
                '*' => BinOp::Mul,
                '/' => BinOp::Div,
                _ => BinOp::Rem,
            };
            self.pos += 1;
            let rhs = self.parse_factor()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_factor(&mut self) -> PResult<Expr> {
        match self.peek().cloned() {
            Some(Token::Int(n)) => {
                self.pos += 1;
                Ok(Expr::Int(n))
            }
            Some(Token::Op('-')) => {
                self.pos += 1;
                Ok(Expr::Neg(Box::new(self.parse_factor()?)))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                if self.peek() == Some(&Token::LParen) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if self.peek() == Some(&Token::Comma) {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    if name == "nondet" {
                        if args.len() != 2 {
                            return self.error("nondet in expression position takes (lo, hi)");
                        }
                        let mut it = args.into_iter();
                        let lo = it.next().expect("len checked");
                        let hi = it.next().expect("len checked");
                        return Ok(Expr::NondetInt(Box::new(lo), Box::new(hi)));
                    }
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Name(name))
                }
            }
            other => {
                let d = other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".into());
                self.error(format!("expected expression, found `{d}`"))
            }
        }
    }

    // ---- boolean expressions ----

    fn parse_bexpr(&mut self) -> PResult<BoolExpr> {
        let mut lhs = self.parse_band()?;
        while self.peek() == Some(&Token::OrOr) {
            self.pos += 1;
            let rhs = self.parse_band()?;
            lhs = BoolExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_band(&mut self) -> PResult<BoolExpr> {
        let mut lhs = self.parse_batom()?;
        while self.peek() == Some(&Token::AndAnd) {
            self.pos += 1;
            let rhs = self.parse_batom()?;
            lhs = BoolExpr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_batom(&mut self) -> PResult<BoolExpr> {
        match self.peek().cloned() {
            Some(Token::Bang) => {
                self.pos += 1;
                Ok(BoolExpr::Not(Box::new(self.parse_batom()?)))
            }
            Some(Token::Ident(s)) if s == "true" => {
                self.pos += 1;
                Ok(BoolExpr::Const(true))
            }
            Some(Token::Ident(s)) if s == "false" => {
                self.pos += 1;
                Ok(BoolExpr::Const(false))
            }
            Some(Token::Ident(s)) if s == "nondet" && self.nondet_bool_ahead() => {
                self.pos += 3; // nondet ( )
                Ok(BoolExpr::Nondet)
            }
            Some(Token::LParen) => {
                // Could be a parenthesized boolean or a parenthesized
                // arithmetic expression starting a comparison; backtrack.
                let save = self.pos;
                self.pos += 1;
                if let Ok(inner) = self.parse_bexpr() {
                    if self.expect(&Token::RParen).is_ok()
                        && !matches!(self.peek(), Some(Token::Cmp(_)))
                    {
                        return Ok(inner);
                    }
                }
                self.pos = save;
                self.parse_comparison()
            }
            _ => self.parse_comparison(),
        }
    }

    fn nondet_bool_ahead(&self) -> bool {
        matches!(self.tokens.get(self.pos + 1).map(|s| &s.token), Some(Token::LParen))
            && matches!(self.tokens.get(self.pos + 2).map(|s| &s.token), Some(Token::RParen))
    }

    fn parse_comparison(&mut self) -> PResult<BoolExpr> {
        let lhs = self.parse_expr()?;
        let op = match self.peek() {
            Some(Token::Cmp(s)) => match *s {
                "==" => CmpOp::Eq,
                "!=" => CmpOp::Ne,
                "<" => CmpOp::Lt,
                "<=" => CmpOp::Le,
                ">" => CmpOp::Gt,
                ">=" => CmpOp::Ge,
                _ => unreachable!("lexer produces only the six comparison spellings"),
            },
            other => {
                let d = other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".into());
                return self.error(format!("expected comparison operator, found `{d}`"));
            }
        };
        self.pos += 1;
        let rhs = self.parse_expr()?;
        Ok(BoolExpr::Cmp(op, lhs, rhs))
    }

    // ---- statements ----

    fn parse_block(&mut self) -> PResult<Vec<Stmt>> {
        if self.peek() == Some(&Token::LBrace) {
            self.pos += 1;
            let mut stmts = Vec::new();
            while self.peek() != Some(&Token::RBrace) {
                if self.peek().is_none() {
                    return self.error("unclosed block");
                }
                stmts.push(self.parse_stmt()?);
            }
            self.pos += 1;
            Ok(stmts)
        } else {
            Ok(vec![self.parse_stmt()?])
        }
    }

    fn parse_stmt(&mut self) -> PResult<Stmt> {
        match self.peek().cloned() {
            Some(Token::Ident(kw)) if kw == "if" => {
                self.pos += 1;
                self.expect(&Token::LParen)?;
                let cond = self.parse_bexpr()?;
                self.expect(&Token::RParen)?;
                let then_body = self.parse_block()?;
                let else_body =
                    if self.eat_keyword("else") { self.parse_block()? } else { Vec::new() };
                Ok(Stmt::If { cond, then_body, else_body })
            }
            Some(Token::Ident(kw)) if kw == "while" => {
                self.pos += 1;
                let id = self.loop_counter;
                self.loop_counter += 1;
                self.expect(&Token::LParen)?;
                let cond = self.parse_bexpr()?;
                self.expect(&Token::RParen)?;
                let body = self.parse_block()?;
                Ok(Stmt::While { id, cond, body })
            }
            Some(Token::Ident(kw)) if kw == "assume" => {
                self.pos += 1;
                self.expect(&Token::LParen)?;
                let cond = self.parse_bexpr()?;
                self.expect(&Token::RParen)?;
                self.expect(&Token::Semi)?;
                Ok(Stmt::Assume(cond))
            }
            Some(Token::Ident(kw)) if kw == "break" => {
                self.pos += 1;
                self.expect(&Token::Semi)?;
                Ok(Stmt::Break)
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                match self.advance() {
                    Some(Token::Assign) => {
                        let value = self.parse_expr()?;
                        self.expect(&Token::Semi)?;
                        Ok(Stmt::Assign { name, var: None, value })
                    }
                    Some(Token::CompoundAssign(c)) => {
                        let rhs = self.parse_expr()?;
                        self.expect(&Token::Semi)?;
                        let op = match c {
                            '+' => BinOp::Add,
                            '-' => BinOp::Sub,
                            '*' => BinOp::Mul,
                            '/' => BinOp::Div,
                            _ => BinOp::Rem,
                        };
                        let value = Expr::bin(op, Expr::Name(name.clone()), rhs);
                        Ok(Stmt::Assign { name, var: None, value })
                    }
                    Some(Token::PlusPlus) => {
                        self.expect(&Token::Semi)?;
                        let value = Expr::bin(BinOp::Add, Expr::Name(name.clone()), Expr::Int(1));
                        Ok(Stmt::Assign { name, var: None, value })
                    }
                    Some(Token::MinusMinus) => {
                        self.expect(&Token::Semi)?;
                        let value = Expr::bin(BinOp::Sub, Expr::Name(name.clone()), Expr::Int(1));
                        Ok(Stmt::Assign { name, var: None, value })
                    }
                    other => {
                        let d =
                            other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".into());
                        self.error(format!("expected assignment after `{name}`, found `{d}`"))
                    }
                }
            }
            other => {
                let d = other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".into());
                self.error(format!("expected statement, found `{d}`"))
            }
        }
    }

    fn parse_program(&mut self) -> PResult<Program> {
        let mut name = Program::DEFAULT_NAME.to_string();
        let mut inputs = Vec::new();
        let mut pre = BoolExpr::Const(true);
        let mut post = BoolExpr::Const(true);
        if self.eat_keyword("program") {
            name = self.eat_ident()?;
            self.expect(&Token::Semi)?;
        }
        loop {
            if self.eat_keyword("inputs") {
                loop {
                    inputs.push(self.eat_ident()?);
                    if self.peek() == Some(&Token::Comma) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                self.expect(&Token::Semi)?;
            } else if self.eat_keyword("pre") {
                pre = self.parse_bexpr()?;
                self.expect(&Token::Semi)?;
            } else if self.eat_keyword("post") {
                post = self.parse_bexpr()?;
                self.expect(&Token::Semi)?;
            } else {
                break;
            }
        }
        let mut body = Vec::new();
        while self.peek().is_some() {
            body.push(self.parse_stmt()?);
        }
        Ok(Program {
            name,
            inputs,
            vars: Vec::new(),
            pre,
            post,
            body,
            num_loops: self.loop_counter,
        })
    }
}

/// Parses (but does not resolve) a program; see [`crate::parse_program`]
/// for the user-facing entry point that also runs name resolution.
///
/// # Errors
///
/// Returns [`ParseError`] on lexical or syntactic errors.
pub fn parse_unresolved(src: &str) -> Result<Program, ParseError> {
    let tokens = tokenize(src)?;
    let mut parser = Parser { tokens, pos: 0, loop_counter: 0 };
    parser.parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, CmpOp};

    #[test]
    fn parses_minimal_program() {
        let p = parse_unresolved("x = 1;").unwrap();
        assert_eq!(p.body.len(), 1);
        assert_eq!(p.pre, BoolExpr::Const(true));
    }

    #[test]
    fn parses_header() {
        let p = parse_unresolved("program sqrt; inputs n; pre n >= 0; post a * a <= n; a = 0;")
            .unwrap();
        assert_eq!(p.name, "sqrt");
        assert_eq!(p.inputs, vec!["n"]);
        assert!(matches!(p.pre, BoolExpr::Cmp(CmpOp::Ge, _, _)));
        assert!(matches!(p.post, BoolExpr::Cmp(CmpOp::Le, _, _)));
    }

    #[test]
    fn parses_while_and_if() {
        let p = parse_unresolved("while (x < 10) { if (x > 5) { x += 2; } else x ++; }").unwrap();
        let Stmt::While { id, cond, body } = &p.body[0] else {
            panic!("expected while");
        };
        assert_eq!(*id, 0);
        assert!(matches!(cond, BoolExpr::Cmp(CmpOp::Lt, _, _)));
        assert!(matches!(&body[0], Stmt::If { .. }));
        assert_eq!(p.num_loops, 1);
    }

    #[test]
    fn nested_loops_get_sequential_ids() {
        let p =
            parse_unresolved("while (a < 1) { while (b < 2) { b++; } a++; } while (c < 3) c++;")
                .unwrap();
        assert_eq!(p.num_loops, 3);
        assert!(p.find_loop(0).is_some());
        assert!(p.find_loop(1).is_some());
        assert!(p.find_loop(2).is_some());
        assert!(p.find_loop(3).is_none());
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse_unresolved("x = 1 + 2 * 3;").unwrap();
        let Stmt::Assign { value, .. } = &p.body[0] else { panic!() };
        let Expr::Bin(BinOp::Add, lhs, rhs) = value else {
            panic!("expected + at the top, got {value:?}");
        };
        assert_eq!(**lhs, Expr::Int(1));
        assert!(matches!(**rhs, Expr::Bin(BinOp::Mul, _, _)));
    }

    #[test]
    fn compound_assign_desugars() {
        let p = parse_unresolved("x *= y + 1;").unwrap();
        let Stmt::Assign { value, .. } = &p.body[0] else { panic!() };
        assert!(matches!(value, Expr::Bin(BinOp::Mul, _, _)));
    }

    #[test]
    fn parenthesized_bool_vs_arith() {
        // (a + b) < c — parens around arithmetic.
        let p = parse_unresolved("while ((a + b) < c) { a++; }").unwrap();
        let Stmt::While { cond, .. } = &p.body[0] else { panic!() };
        assert!(matches!(cond, BoolExpr::Cmp(CmpOp::Lt, _, _)));
        // ((a < b) && (c > d)) — nested boolean parens.
        let p2 = parse_unresolved("while (((a < b) && (c > d))) { a++; }").unwrap();
        let Stmt::While { cond, .. } = &p2.body[0] else { panic!() };
        assert!(matches!(cond, BoolExpr::And(_, _)));
    }

    #[test]
    fn nondet_forms() {
        let p = parse_unresolved("while (nondet()) { x = nondet(0, 10); }").unwrap();
        let Stmt::While { cond, body, .. } = &p.body[0] else { panic!() };
        assert_eq!(*cond, BoolExpr::Nondet);
        let Stmt::Assign { value, .. } = &body[0] else { panic!() };
        assert!(matches!(value, Expr::NondetInt(_, _)));
    }

    #[test]
    fn call_expression() {
        let p = parse_unresolved("g = gcd(x, y);").unwrap();
        let Stmt::Assign { value, .. } = &p.body[0] else { panic!() };
        let Expr::Call(name, args) = value else { panic!() };
        assert_eq!(name, "gcd");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn error_reports_line() {
        let err = parse_unresolved("x = 1;\nwhile (x <) { }").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn assume_and_break() {
        let p = parse_unresolved("assume (x > 0); while (true) { break; }").unwrap();
        assert!(matches!(p.body[0], Stmt::Assume(_)));
        let Stmt::While { body, .. } = &p.body[1] else { panic!() };
        assert_eq!(body[0], Stmt::Break);
    }

    #[test]
    fn unary_minus_and_parens() {
        let p = parse_unresolved("x = -(y + 2) * 3;").unwrap();
        let Stmt::Assign { value, .. } = &p.body[0] else { panic!() };
        assert!(matches!(value, Expr::Bin(BinOp::Mul, _, _)));
    }
}
