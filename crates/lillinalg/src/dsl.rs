//! The Matlab-like surface language (§8.3.1).
//!
//! Grammar (a small expression language over distributed matrices):
//!
//! ```text
//! program := stmt*
//! stmt    := IDENT '=' expr ';'?
//! expr    := term (('+'|'-') term)*
//! term    := postfix (('%*%' | "'*") postfix)*
//! postfix := atom ('^-1')*
//! atom    := IDENT | NUMBER '*' atom | '(' expr ')'
//! ```
//!
//! `'*` is transpose-then-multiply, `%*%` plain multiply, `^-1` inversion —
//! so the paper's least squares program runs verbatim:
//!
//! ```text
//! beta = (X '* X)^-1 %*% (X '* y)
//! ```

use crate::matrix::DistMatrix;
use pc_core::prelude::*;
use std::collections::HashMap;

/// A lilLinAlg session: named distributed matrices plus an evaluator.
pub struct LilLinAlg {
    pub client: PcClient,
    vars: HashMap<String, DistMatrix>,
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(f64),
    Assign,
    Plus,
    Minus,
    Multiply,  // %*%
    TMultiply, // '*
    Inverse,   // ^-1
    LParen,
    RParen,
    Semi,
}

fn lex(src: &str) -> PcResult<Vec<Tok>> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        match b[i] as char {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '#' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            ';' => {
                out.push(Tok::Semi);
                i += 1;
            }
            '=' => {
                out.push(Tok::Assign);
                i += 1;
            }
            '+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                out.push(Tok::Minus);
                i += 1;
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            '%' if src[i..].starts_with("%*%") => {
                out.push(Tok::Multiply);
                i += 3;
            }
            '\'' if src[i..].starts_with("'*") => {
                out.push(Tok::TMultiply);
                i += 2;
            }
            '^' if src[i..].starts_with("^-1") => {
                out.push(Tok::Inverse);
                i += 3;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Tok::Ident(src[start..i].to_string()));
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                while i < b.len() && ((b[i] as char).is_ascii_digit() || b[i] == b'.') {
                    i += 1;
                }
                let n: f64 = src[start..i]
                    .parse()
                    .map_err(|e| PcError::Catalog(format!("bad number: {e}")))?;
                out.push(Tok::Num(n));
                // Scalar multiplication: `2.0 * X` (with or without spaces).
                let mut j = i;
                while j < b.len() && (b[j] == b' ' || b[j] == b'\t') {
                    j += 1;
                }
                if j < b.len() && b[j] == b'*' {
                    i = j + 1;
                }
            }
            other => return Err(PcError::Catalog(format!("lilLinAlg: unexpected {other:?}"))),
        }
    }
    Ok(out)
}

/// Parsed expression tree.
#[derive(Debug, Clone)]
enum Expr {
    Var(String),
    Scale(f64, Box<Expr>),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    TMul(Box<Expr>, Box<Expr>),
    Inv(Box<Expr>),
}

struct Parser {
    toks: Vec<Tok>,
    i: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.i)
    }

    fn eat(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.i).cloned();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn expr(&mut self) -> PcResult<Expr> {
        let mut lhs = self.term()?;
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.eat();
                    lhs = Expr::Add(Box::new(lhs), Box::new(self.term()?));
                }
                Some(Tok::Minus) => {
                    self.eat();
                    lhs = Expr::Sub(Box::new(lhs), Box::new(self.term()?));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn term(&mut self) -> PcResult<Expr> {
        let mut lhs = self.postfix()?;
        loop {
            match self.peek() {
                Some(Tok::Multiply) => {
                    self.eat();
                    lhs = Expr::Mul(Box::new(lhs), Box::new(self.postfix()?));
                }
                Some(Tok::TMultiply) => {
                    self.eat();
                    lhs = Expr::TMul(Box::new(lhs), Box::new(self.postfix()?));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn postfix(&mut self) -> PcResult<Expr> {
        let mut e = self.atom()?;
        while self.peek() == Some(&Tok::Inverse) {
            self.eat();
            e = Expr::Inv(Box::new(e));
        }
        Ok(e)
    }

    fn atom(&mut self) -> PcResult<Expr> {
        match self.eat() {
            Some(Tok::Ident(name)) => Ok(Expr::Var(name)),
            Some(Tok::Num(n)) => Ok(Expr::Scale(n, Box::new(self.atom()?))),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                match self.eat() {
                    Some(Tok::RParen) => Ok(e),
                    other => Err(PcError::Catalog(format!("expected ')', found {other:?}"))),
                }
            }
            other => Err(PcError::Catalog(format!("unexpected token {other:?}"))),
        }
    }
}

impl LilLinAlg {
    pub fn new(client: PcClient) -> Self {
        LilLinAlg {
            client,
            vars: HashMap::new(),
        }
    }

    /// Registers a matrix under a DSL variable name (the `load(...)` step).
    pub fn load(&mut self, name: &str, m: DistMatrix) {
        self.vars.insert(name.to_string(), m);
    }

    pub fn get(&self, name: &str) -> Option<&DistMatrix> {
        self.vars.get(name)
    }

    /// Runs a program: each statement assigns an expression result to a
    /// variable. Returns the name of the last assigned variable.
    pub fn run(&mut self, program: &str) -> PcResult<String> {
        let toks = lex(program)?;
        let mut p = Parser { toks, i: 0 };
        let mut last = String::new();
        while p.peek().is_some() {
            let Some(Tok::Ident(target)) = p.eat() else {
                return Err(PcError::Catalog(
                    "statement must start with a variable".into(),
                ));
            };
            if p.eat() != Some(Tok::Assign) {
                return Err(PcError::Catalog(format!("expected '=' after {target}")));
            }
            let e = p.expr()?;
            let m = self.eval(&e)?;
            self.vars.insert(target.clone(), m);
            last = target;
            while p.peek() == Some(&Tok::Semi) {
                p.eat();
            }
        }
        Ok(last)
    }

    fn eval(&self, e: &Expr) -> PcResult<DistMatrix> {
        match e {
            Expr::Var(name) => self
                .vars
                .get(name)
                .cloned()
                .ok_or_else(|| PcError::Catalog(format!("unknown matrix {name}"))),
            Expr::Scale(a, inner) => self.eval(inner)?.scale(*a),
            Expr::Add(l, r) => self.eval(l)?.add(&self.eval(r)?),
            Expr::Sub(l, r) => self.eval(l)?.subtract(&self.eval(r)?),
            Expr::Mul(l, r) => self.eval(l)?.multiply(&self.eval(r)?),
            Expr::TMul(l, r) => self.eval(l)?.transpose_multiply(&self.eval(r)?),
            Expr::Inv(inner) => self.eval(inner)?.inverse(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::DenseMatrix;

    fn rand_dense(r: usize, c: usize, seed: u64) -> DenseMatrix {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 500.0 - 1.0
        };
        DenseMatrix {
            rows: r,
            cols: c,
            data: (0..r * c).map(|_| next()).collect(),
        }
    }

    #[test]
    fn least_squares_program_recovers_beta() {
        let client = PcClient::local_small().unwrap();
        // y = X β* exactly, so the solve must recover β*.
        let n = 60;
        let d = 5;
        let x = rand_dense(n, d, 7);
        let beta_true = DenseMatrix::from_rows((0..d).map(|i| vec![i as f64 - 2.0]).collect());
        let y = x.matmul(&beta_true);

        let mut la = LilLinAlg::new(client.clone());
        la.load(
            "X",
            DistMatrix::from_dense(&client, "la", "dslx", &x, 16, d).unwrap(),
        );
        la.load(
            "y",
            DistMatrix::from_dense(&client, "la", "dsly", &y, 16, 1).unwrap(),
        );
        let out = la.run("beta = (X '* X)^-1 %*% (X '* y)").unwrap();
        assert_eq!(out, "beta");
        let beta = la.get("beta").unwrap().to_dense().unwrap();
        assert!(
            beta.max_abs_diff(&beta_true) < 1e-6,
            "diff {}",
            beta.max_abs_diff(&beta_true)
        );
    }

    #[test]
    fn arithmetic_and_scaling_parse() {
        let client = PcClient::local_small().unwrap();
        let a = rand_dense(12, 12, 9);
        let mut la = LilLinAlg::new(client.clone());
        la.load(
            "A",
            DistMatrix::from_dense(&client, "la", "dsla", &a, 6, 6).unwrap(),
        );
        la.run("B = A + A; C = 2.0 * A; D = B - C").unwrap();
        let d = la.get("D").unwrap().to_dense().unwrap();
        assert!(d.max_abs_diff(&DenseMatrix::zeros(12, 12)) < 1e-12);
    }

    /// Unknown names, and operands whose shapes or block grids do not
    /// line up, are errors, not panics or wrong answers.
    #[test]
    fn unknown_variable_is_an_error() {
        let client = PcClient::local_small().unwrap();
        let mut la = LilLinAlg::new(client.clone());
        assert!(la.run("B = missing %*% missing").is_err());
        let load = |la: &mut LilLinAlg, name: &str, r: usize, c: usize, b: usize| {
            let m = DistMatrix::from_dense(&client, "la", name, &rand_dense(r, c, 3), b, b);
            la.load(name, m.unwrap());
        };
        load(&mut la, "X", 10, 6, 4);
        load(&mut la, "A", 12, 12, 8);
        load(&mut la, "B", 12, 12, 5);
        for bad in [
            "C = X %*% X",
            "C = X '* A",
            "C = X + A",
            "C = X - A",
            "C = A %*% B",
            "C = A '* B",
            "C = A + B",
        ] {
            assert!(la.run(bad).is_err(), "{bad}");
        }
        la.run("C = A %*% A; D = X '* X").unwrap();
    }
}
