//! A recursive-descent parser for the surface language.
//!
//! Operators use a fixed precedence table (a subset of the Haskell
//! Prelude's):
//!
//! | prec | operators | assoc |
//! |---|---|---|
//! | 9 | `.` | right |
//! | 7 | `*` `*#` `*##` `/##` `/#` | left |
//! | 6 | `+` `-` `+#` `-#` `+##` `-##` | left |
//! | 4 | `==` `/=` `<` `<=` `>` `>=` and `#`/`##` variants | left |
//! | 3 | `&&` | right |
//! | 2 | `\|\|` | right |
//! | 0 | `$` | right |

use levity_core::diag::{Diagnostic, ErrorCode, Span};
use levity_core::symbol::Symbol;

use crate::ast::{Module, SDecl, SExpr, SExprNode, SKind, SLit, SPat, SRep, SType};
use crate::lexer::{lex, Lexed, Tok};

/// Operator fixity.
fn fixity(op: Symbol) -> Option<(u8, bool)> {
    // (precedence, right-associative?)
    let name = op.as_str();
    Some(match name {
        "." => (9, true),
        "*" | "*#" | "*##" | "/##" | "/#" | "/" => (7, false),
        "+" | "-" | "+#" | "-#" | "+##" | "-##" => (6, false),
        "==" | "/=" | "<" | "<=" | ">" | ">=" | "==#" | "/=#" | "<#" | "<=#" | ">#" | ">=#"
        | "==##" | "<##" | "<=##" => (4, false),
        "&&" => (3, true),
        "||" => (2, true),
        "$" => (0, true),
        _ => return None,
    })
}

struct Parser {
    toks: Vec<Lexed>,
    pos: usize,
    brace_depth: usize,
}

type PResult<T> = Result<T, Diagnostic>;

impl Parser {
    fn new(toks: Vec<Lexed>) -> Parser {
        Parser {
            toks,
            pos: 0,
            brace_depth: 0,
        }
    }

    /// Skips TopSep tokens when inside braces (explicit blocks ignore the
    /// column-0 rule).
    fn skip_layout(&mut self) {
        while self.brace_depth > 0 && self.toks[self.pos].tok == Tok::TopSep {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> &Tok {
        self.skip_layout();
        &self.toks[self.pos].tok
    }

    fn peek2(&mut self) -> &Tok {
        self.skip_layout();
        let mut j = self.pos + 1;
        while self.brace_depth > 0 && j < self.toks.len() && self.toks[j].tok == Tok::TopSep {
            j += 1;
        }
        &self.toks[j.min(self.toks.len() - 1)].tok
    }

    fn span(&mut self) -> Span {
        self.skip_layout();
        self.toks[self.pos].span
    }

    fn next(&mut self) -> Lexed {
        self.skip_layout();
        let t = self.toks[self.pos].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        match t.tok {
            Tok::LBrace => self.brace_depth += 1,
            Tok::RBrace => self.brace_depth = self.brace_depth.saturating_sub(1),
            _ => {}
        }
        t
    }

    fn error<T>(&mut self, msg: impl Into<String>) -> PResult<T> {
        let span = self.span();
        Err(Diagnostic::error(ErrorCode::Parse, msg, span))
    }

    fn expect(&mut self, tok: Tok) -> PResult<Span> {
        if *self.peek() == tok {
            Ok(self.next().span)
        } else {
            let found = self.peek().clone();
            self.error(format!("expected `{tok}`, found `{found}`"))
        }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect_var(&mut self) -> PResult<Symbol> {
        match self.peek().clone() {
            Tok::VarId(s) => {
                self.next();
                Ok(s)
            }
            other => self.error(format!("expected a variable name, found `{other}`")),
        }
    }

    fn expect_con(&mut self) -> PResult<Symbol> {
        match self.peek().clone() {
            Tok::ConId(s) => {
                self.next();
                Ok(s)
            }
            other => self.error(format!("expected a constructor name, found `{other}`")),
        }
    }

    /// A binding name: a variable or an operator in parens, `(+)`.
    fn binder_name(&mut self) -> PResult<Symbol> {
        match self.peek().clone() {
            Tok::VarId(s) => {
                self.next();
                Ok(s)
            }
            Tok::LParen => {
                if let Tok::Op(s) = self.peek2().clone() {
                    self.next(); // (
                    self.next(); // op
                    self.expect(Tok::RParen)?;
                    Ok(s)
                } else {
                    self.error("expected a binding name")
                }
            }
            other => self.error(format!("expected a binding name, found `{other}`")),
        }
    }

    // -----------------------------------------------------------------
    // Modules and declarations
    // -----------------------------------------------------------------

    fn module(&mut self) -> PResult<Module> {
        let mut decls = Vec::new();
        loop {
            while self.toks[self.pos].tok == Tok::TopSep {
                self.pos += 1;
            }
            if *self.peek() == Tok::Eof {
                break;
            }
            decls.push(self.decl()?);
        }
        Ok(Module { decls })
    }

    fn decl(&mut self) -> PResult<SDecl> {
        let start = self.span();
        match self.peek().clone() {
            Tok::Data => self.data_decl(start),
            Tok::Class => self.class_decl(start),
            Tok::Instance => self.instance_decl(start),
            Tok::Type => self.family_decl(start),
            _ => {
                let name = self.binder_name()?;
                if self.eat(&Tok::DColon) {
                    let ty = self.ty()?;
                    let end = self.toks[self.pos.saturating_sub(1)].span;
                    Ok(SDecl::Sig {
                        name,
                        ty,
                        span: start.to(end),
                    })
                } else {
                    let mut params = Vec::new();
                    while *self.peek() != Tok::Equals {
                        params.push(self.simple_pat()?);
                    }
                    self.expect(Tok::Equals)?;
                    let body = self.expr()?;
                    let span = start.to(body.span);
                    Ok(SDecl::Bind {
                        name,
                        params,
                        body,
                        span,
                    })
                }
            }
        }
    }

    fn data_decl(&mut self, start: Span) -> PResult<SDecl> {
        self.expect(Tok::Data)?;
        let name = self.expect_con()?;
        let mut params = Vec::new();
        while *self.peek() != Tok::Equals {
            match self.peek().clone() {
                Tok::VarId(v) => {
                    self.next();
                    params.push((v, None));
                }
                Tok::LParen => {
                    self.next();
                    let v = self.expect_var()?;
                    self.expect(Tok::DColon)?;
                    let k = self.kind()?;
                    self.expect(Tok::RParen)?;
                    params.push((v, Some(k)));
                }
                other => return self.error(format!("expected a type parameter, found `{other}`")),
            }
        }
        self.expect(Tok::Equals)?;
        let mut cons = Vec::new();
        loop {
            let cname = self.expect_con()?;
            let mut fields = Vec::new();
            while self.starts_atype() {
                fields.push(self.atype()?);
            }
            cons.push((cname, fields));
            if !self.eat(&Tok::Pipe) {
                break;
            }
        }
        let end = self.toks[self.pos.saturating_sub(1)].span;
        Ok(SDecl::Data {
            name,
            params,
            cons,
            span: start.to(end),
        })
    }

    fn class_decl(&mut self, start: Span) -> PResult<SDecl> {
        self.expect(Tok::Class)?;
        let name = self.expect_con()?;
        let (var, var_kind) = match self.peek().clone() {
            Tok::VarId(v) => {
                self.next();
                (v, None)
            }
            Tok::LParen => {
                self.next();
                let v = self.expect_var()?;
                self.expect(Tok::DColon)?;
                let k = self.kind()?;
                self.expect(Tok::RParen)?;
                (v, Some(k))
            }
            other => return self.error(format!("expected the class variable, found `{other}`")),
        };
        self.expect(Tok::Where)?;
        self.expect(Tok::LBrace)?;
        let mut methods = Vec::new();
        while *self.peek() != Tok::RBrace {
            let mname = self.binder_name()?;
            self.expect(Tok::DColon)?;
            let ty = self.ty()?;
            methods.push((mname, ty));
            if !self.eat(&Tok::Semi) {
                break;
            }
        }
        let end = self.expect(Tok::RBrace)?;
        Ok(SDecl::Class {
            name,
            var,
            var_kind,
            methods,
            span: start.to(end),
        })
    }

    fn instance_decl(&mut self, start: Span) -> PResult<SDecl> {
        self.expect(Tok::Instance)?;
        let class = self.expect_con()?;
        let head = self.atype()?;
        self.expect(Tok::Where)?;
        self.expect(Tok::LBrace)?;
        let mut methods = Vec::new();
        while *self.peek() != Tok::RBrace {
            let mname = self.binder_name()?;
            let mut params = Vec::new();
            while *self.peek() != Tok::Equals {
                params.push(self.simple_pat()?);
            }
            self.expect(Tok::Equals)?;
            let body = self.expr()?;
            methods.push((mname, params, body));
            if !self.eat(&Tok::Semi) {
                break;
            }
        }
        let end = self.expect(Tok::RBrace)?;
        Ok(SDecl::Instance {
            class,
            head,
            methods,
            span: start.to(end),
        })
    }

    fn family_decl(&mut self, start: Span) -> PResult<SDecl> {
        self.expect(Tok::Type)?;
        self.expect(Tok::Family)?;
        let name = self.expect_con()?;
        let param = self.expect_var()?;
        self.expect(Tok::DColon)?;
        let result_kind = self.kind()?;
        self.expect(Tok::Where)?;
        self.expect(Tok::LBrace)?;
        let mut equations = Vec::new();
        while *self.peek() != Tok::RBrace {
            let fname = self.expect_con()?;
            if fname != name {
                return self.error(format!(
                    "type family equation for `{fname}` inside family `{name}`"
                ));
            }
            let lhs = self.atype()?;
            self.expect(Tok::Equals)?;
            let rhs = self.ty()?;
            equations.push((lhs, rhs));
            if !self.eat(&Tok::Semi) {
                break;
            }
        }
        let end = self.expect(Tok::RBrace)?;
        Ok(SDecl::TypeFamily {
            name,
            param,
            result_kind,
            equations,
            span: start.to(end),
        })
    }

    // -----------------------------------------------------------------
    // Kinds and representations
    // -----------------------------------------------------------------

    fn kind(&mut self) -> PResult<SKind> {
        let lhs = self.kind_atom()?;
        if self.eat(&Tok::Arrow) {
            let rhs = self.kind()?;
            Ok(SKind::Arrow(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn kind_atom(&mut self) -> PResult<SKind> {
        match self.peek().clone() {
            Tok::ConId(s) if s.as_str() == "Type" => {
                self.next();
                Ok(SKind::Type)
            }
            Tok::ConId(s) if s.as_str() == "Rep" => {
                self.next();
                Ok(SKind::Rep)
            }
            Tok::ConId(s) if s.as_str() == "TYPE" => {
                self.next();
                let rep = self.rep_atom()?;
                Ok(SKind::Type_(rep))
            }
            Tok::LParen => {
                self.next();
                let k = self.kind()?;
                self.expect(Tok::RParen)?;
                Ok(k)
            }
            other => self.error(format!("expected a kind, found `{other}`")),
        }
    }

    fn rep_atom(&mut self) -> PResult<SRep> {
        match self.peek().clone() {
            Tok::ConId(s) if s.as_str() == "TupleRep" => {
                self.next();
                self.expect(Tok::PromListOpen)?;
                let mut parts = Vec::new();
                if *self.peek() != Tok::RBracket {
                    loop {
                        parts.push(self.rep_atom()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(Tok::RBracket)?;
                Ok(SRep::Tuple(parts))
            }
            Tok::ConId(s) => {
                self.next();
                Ok(SRep::Con(s))
            }
            Tok::VarId(s) => {
                self.next();
                Ok(SRep::Var(s))
            }
            Tok::LParen => {
                self.next();
                let r = self.rep_atom()?;
                self.expect(Tok::RParen)?;
                Ok(r)
            }
            other => self.error(format!(
                "expected a runtime representation, found `{other}`"
            )),
        }
    }

    // -----------------------------------------------------------------
    // Types
    // -----------------------------------------------------------------

    fn ty(&mut self) -> PResult<SType> {
        if self.eat(&Tok::Forall) {
            let mut binders = Vec::new();
            loop {
                match self.peek().clone() {
                    Tok::VarId(v) => {
                        self.next();
                        binders.push((v, None));
                    }
                    Tok::LParen => {
                        self.next();
                        let v = self.expect_var()?;
                        self.expect(Tok::DColon)?;
                        let k = self.kind()?;
                        self.expect(Tok::RParen)?;
                        binders.push((v, Some(k)));
                    }
                    _ => break,
                }
            }
            // The forall dot.
            match self.peek().clone() {
                Tok::Op(s) if s.as_str() == "." => {
                    self.next();
                }
                other => return self.error(format!("expected `.` after forall, found `{other}`")),
            }
            let body = self.ty()?;
            return Ok(SType::Forall(binders, Box::new(body)));
        }
        // Try a constraint context: `C a => τ` or `(C a, D b) => τ`.
        let save = self.pos;
        if let Ok(ctx) = self.try_context() {
            if self.eat(&Tok::FatArrow) {
                let body = self.ty()?;
                return Ok(SType::Qual(ctx, Box::new(body)));
            }
            self.pos = save;
        } else {
            self.pos = save;
        }
        let lhs = self.btype()?;
        if self.eat(&Tok::Arrow) {
            let rhs = self.ty()?;
            Ok(SType::fun(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn try_context(&mut self) -> PResult<Vec<(Symbol, SType)>> {
        if self.eat(&Tok::LParen) {
            let mut out = Vec::new();
            loop {
                let c = self.expect_con()?;
                let t = self.atype()?;
                out.push((c, t));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
            Ok(out)
        } else {
            let c = self.expect_con()?;
            let t = self.atype()?;
            Ok(vec![(c, t)])
        }
    }

    fn btype(&mut self) -> PResult<SType> {
        let mut t = self.atype()?;
        while self.starts_atype() {
            let arg = self.atype()?;
            t = SType::App(Box::new(t), Box::new(arg));
        }
        Ok(t)
    }

    fn starts_atype(&mut self) -> bool {
        matches!(
            self.peek(),
            Tok::ConId(_) | Tok::VarId(_) | Tok::LParen | Tok::LParenHash
        )
    }

    fn atype(&mut self) -> PResult<SType> {
        match self.peek().clone() {
            Tok::ConId(s) => {
                self.next();
                Ok(SType::Con(s))
            }
            Tok::VarId(s) => {
                self.next();
                Ok(SType::Var(s))
            }
            Tok::LParen => {
                self.next();
                let t = self.ty()?;
                self.expect(Tok::RParen)?;
                Ok(t)
            }
            Tok::LParenHash => {
                self.next();
                let mut parts = Vec::new();
                if *self.peek() != Tok::HashRParen {
                    loop {
                        parts.push(self.ty()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(Tok::HashRParen)?;
                Ok(SType::UnboxedTuple(parts))
            }
            other => self.error(format!("expected a type, found `{other}`")),
        }
    }

    // -----------------------------------------------------------------
    // Patterns
    // -----------------------------------------------------------------

    /// Patterns allowed in λ binders and function parameters.
    fn simple_pat(&mut self) -> PResult<SPat> {
        match self.peek().clone() {
            Tok::VarId(v) => {
                self.next();
                Ok(SPat::Var(v))
            }
            Tok::Underscore => {
                self.next();
                Ok(SPat::Wild)
            }
            Tok::LParen => {
                self.next();
                let v = self.expect_var()?;
                self.expect(Tok::DColon)?;
                let t = self.ty()?;
                self.expect(Tok::RParen)?;
                Ok(SPat::Ann(v, t))
            }
            Tok::LParenHash => {
                self.next();
                let mut vars = Vec::new();
                if *self.peek() != Tok::HashRParen {
                    loop {
                        vars.push(self.expect_var()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(Tok::HashRParen)?;
                Ok(SPat::UnboxedTuple(vars))
            }
            other => self.error(format!("expected a pattern, found `{other}`")),
        }
    }

    /// Patterns allowed in case alternatives.
    fn case_pat(&mut self) -> PResult<SPat> {
        match self.peek().clone() {
            Tok::ConId(c) => {
                self.next();
                let mut vars = Vec::new();
                while let Tok::VarId(v) = self.peek().clone() {
                    self.next();
                    vars.push(v);
                }
                Ok(SPat::Con(c, vars))
            }
            Tok::Int(n) => {
                self.next();
                Ok(SPat::Lit(SLit::Int(n)))
            }
            Tok::IntHash(n) => {
                self.next();
                Ok(SPat::Lit(SLit::IntHash(n)))
            }
            Tok::DoubleHash(x) => {
                self.next();
                Ok(SPat::Lit(SLit::DoubleHash(x)))
            }
            Tok::CharHash(c) => {
                self.next();
                Ok(SPat::Lit(SLit::CharHash(c)))
            }
            Tok::Underscore => {
                self.next();
                Ok(SPat::Wild)
            }
            Tok::VarId(v) => {
                self.next();
                Ok(SPat::Var(v))
            }
            Tok::LParenHash => {
                self.next();
                let mut vars = Vec::new();
                if *self.peek() != Tok::HashRParen {
                    loop {
                        vars.push(self.expect_var()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(Tok::HashRParen)?;
                Ok(SPat::UnboxedTuple(vars))
            }
            other => self.error(format!("expected a case pattern, found `{other}`")),
        }
    }

    // -----------------------------------------------------------------
    // Expressions
    // -----------------------------------------------------------------

    fn expr(&mut self) -> PResult<SExpr> {
        let e = self.op_expr(0)?;
        // Optional type ascription.
        if self.eat(&Tok::DColon) {
            let t = self.ty()?;
            let span = e.span;
            return Ok(SExpr::new(SExprNode::Ann(Box::new(e), t), span));
        }
        Ok(e)
    }

    fn op_expr(&mut self, min_prec: u8) -> PResult<SExpr> {
        let mut lhs = self.app_expr()?;
        while let Tok::Op(s) = self.peek().clone() {
            let (op, prec, right) = match fixity(s) {
                Some((p, r)) if p >= min_prec => (s, p, r),
                _ => break,
            };
            let op_span = self.span();
            self.next();
            let next_min = if right { prec } else { prec + 1 };
            let rhs = self.op_expr(next_min)?;
            let span = lhs.span.to(rhs.span);
            lhs = SExpr::new(
                SExprNode::App(
                    Box::new(SExpr::app(SExpr::var(op, op_span), lhs)),
                    Box::new(rhs),
                ),
                span,
            );
        }
        Ok(lhs)
    }

    fn app_expr(&mut self) -> PResult<SExpr> {
        let mut e = self.aexpr()?;
        loop {
            if self.eat(&Tok::At) {
                let t = self.atype()?;
                let span = e.span;
                e = SExpr::new(SExprNode::TyApp(Box::new(e), t), span);
                continue;
            }
            if self.starts_aexpr() {
                let arg = self.aexpr()?;
                e = SExpr::app(e, arg);
                continue;
            }
            break;
        }
        Ok(e)
    }

    fn starts_aexpr(&mut self) -> bool {
        matches!(
            self.peek(),
            Tok::VarId(_)
                | Tok::ConId(_)
                | Tok::Int(_)
                | Tok::IntHash(_)
                | Tok::Double(_)
                | Tok::DoubleHash(_)
                | Tok::FloatHash(_)
                | Tok::Char(_)
                | Tok::CharHash(_)
                | Tok::Str(_)
                | Tok::LParen
                | Tok::LParenHash
                | Tok::Backslash
                | Tok::Let
                | Tok::Case
                | Tok::If
        )
    }

    fn aexpr(&mut self) -> PResult<SExpr> {
        let start = self.span();
        match self.peek().clone() {
            Tok::VarId(s) => {
                self.next();
                Ok(SExpr::var(s, start))
            }
            Tok::ConId(s) => {
                self.next();
                Ok(SExpr::new(SExprNode::Con(s), start))
            }
            Tok::Int(n) => {
                self.next();
                Ok(SExpr::new(SExprNode::Lit(SLit::Int(n)), start))
            }
            Tok::IntHash(n) => {
                self.next();
                Ok(SExpr::new(SExprNode::Lit(SLit::IntHash(n)), start))
            }
            Tok::Double(x) => {
                self.next();
                Ok(SExpr::new(SExprNode::Lit(SLit::Double(x)), start))
            }
            Tok::DoubleHash(x) => {
                self.next();
                Ok(SExpr::new(SExprNode::Lit(SLit::DoubleHash(x)), start))
            }
            Tok::FloatHash(_x) => {
                self.next();
                self.error("float literals are not supported in expressions yet; use doubles")
            }
            Tok::Char(c) => {
                self.next();
                Ok(SExpr::new(SExprNode::Lit(SLit::Char(c)), start))
            }
            Tok::CharHash(c) => {
                self.next();
                Ok(SExpr::new(SExprNode::Lit(SLit::CharHash(c)), start))
            }
            Tok::Str(s) => {
                self.next();
                Ok(SExpr::new(SExprNode::Str(s), start))
            }
            Tok::Backslash => {
                self.next();
                let mut pats = Vec::new();
                while *self.peek() != Tok::Arrow {
                    pats.push(self.simple_pat()?);
                }
                self.expect(Tok::Arrow)?;
                let body = self.expr()?;
                let span = start.to(body.span);
                Ok(SExpr::new(SExprNode::Lam(pats, Box::new(body)), span))
            }
            Tok::Let => {
                self.next();
                let name = self.binder_name()?;
                let ty = if self.eat(&Tok::DColon) {
                    Some(self.ty()?)
                } else {
                    None
                };
                // Sugar: let f x y = e — parameters become a lambda.
                let mut params = Vec::new();
                while *self.peek() != Tok::Equals {
                    params.push(self.simple_pat()?);
                }
                self.expect(Tok::Equals)?;
                let rhs = self.expr()?;
                let rhs = if params.is_empty() {
                    rhs
                } else {
                    let span = rhs.span;
                    SExpr::new(SExprNode::Lam(params, Box::new(rhs)), span)
                };
                self.expect(Tok::In)?;
                let body = self.expr()?;
                let span = start.to(body.span);
                Ok(SExpr::new(
                    SExprNode::Let(name, ty, Box::new(rhs), Box::new(body)),
                    span,
                ))
            }
            Tok::Case => {
                self.next();
                let scrut = self.expr()?;
                self.expect(Tok::Of)?;
                self.expect(Tok::LBrace)?;
                let mut alts = Vec::new();
                while *self.peek() != Tok::RBrace {
                    let pat = self.case_pat()?;
                    self.expect(Tok::Arrow)?;
                    let rhs = self.expr()?;
                    alts.push((pat, rhs));
                    if !self.eat(&Tok::Semi) {
                        break;
                    }
                }
                let end = self.expect(Tok::RBrace)?;
                Ok(SExpr::new(
                    SExprNode::Case(Box::new(scrut), alts),
                    start.to(end),
                ))
            }
            Tok::If => {
                self.next();
                let c = self.expr()?;
                self.expect(Tok::Then)?;
                let t = self.expr()?;
                self.expect(Tok::Else)?;
                let f = self.expr()?;
                let span = start.to(f.span);
                Ok(SExpr::new(
                    SExprNode::If(Box::new(c), Box::new(t), Box::new(f)),
                    span,
                ))
            }
            Tok::LParen => {
                self.next();
                // `(+)` — operator as a function.
                if let Tok::Op(s) = self.peek().clone() {
                    if self.peek2() == &Tok::RParen {
                        self.next();
                        let end = self.expect(Tok::RParen)?;
                        return Ok(SExpr::var(s, start.to(end)));
                    }
                }
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::LParenHash => {
                self.next();
                let mut parts = Vec::new();
                if *self.peek() != Tok::HashRParen {
                    loop {
                        parts.push(self.expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                let end = self.expect(Tok::HashRParen)?;
                Ok(SExpr::new(SExprNode::UnboxedTuple(parts), start.to(end)))
            }
            other => self.error(format!("expected an expression, found `{other}`")),
        }
    }
}

/// Parses a whole module.
///
/// # Errors
///
/// Returns the first lexing or parsing [`Diagnostic`].
///
/// # Examples
///
/// ```
/// use levity_surface::parser::parse_module;
///
/// let module = parse_module(
///     "sumTo# :: Int# -> Int# -> Int#\n\
///      sumTo# acc n = case n of { 0# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }\n",
/// )?;
/// assert_eq!(module.decls.len(), 2);
/// # Ok::<(), levity_core::diag::Diagnostic>(())
/// ```
pub fn parse_module(source: &str) -> Result<Module, Diagnostic> {
    let toks = lex(source)?;
    let mut parser = Parser::new(toks);
    parser.module()
}

/// Parses a single expression (tests and the REPL-style driver).
///
/// # Errors
///
/// Returns the first lexing or parsing [`Diagnostic`].
pub fn parse_expr(source: &str) -> Result<SExpr, Diagnostic> {
    let toks = lex(source)?;
    let mut parser = Parser::new(toks);
    let e = parser.expr()?;
    match parser.peek() {
        Tok::Eof => Ok(e),
        other => {
            let msg = format!("unexpected trailing input `{other}`");
            parser.error(msg)
        }
    }
}

/// Parses a single type.
///
/// # Errors
///
/// Returns the first lexing or parsing [`Diagnostic`].
pub fn parse_type(source: &str) -> Result<SType, Diagnostic> {
    let toks = lex(source)?;
    let mut parser = Parser::new(toks);
    parser.ty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sum_to_module() {
        let m = parse_module(
            "sumTo# :: Int# -> Int# -> Int#\n\
             sumTo# acc n = case n of { 0# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }\n",
        )
        .unwrap();
        assert_eq!(m.decls.len(), 2);
        assert!(matches!(&m.decls[0], SDecl::Sig { .. }));
        assert!(matches!(&m.decls[1], SDecl::Bind { params, .. } if params.len() == 2));
    }

    #[test]
    fn operator_precedence() {
        // 1# +# 2# *# 3# parses as 1# +# (2# *# 3#).
        let e = parse_expr("1# +# 2# *# 3#").unwrap();
        let shown = format!("{e:?}");
        // The outermost application is +#.
        match &e.node {
            SExprNode::App(f, _) => match &f.node {
                SExprNode::App(op, _) => {
                    assert!(
                        matches!(&op.node, SExprNode::Var(s) if s.as_str() == "+#"),
                        "{shown}"
                    );
                }
                _ => panic!("{shown}"),
            },
            _ => panic!("{shown}"),
        }
    }

    #[test]
    fn dollar_is_right_associative() {
        let e = parse_expr("f $ g $ x").unwrap();
        // f $ (g $ x): outer op is $, second arg is another $-application.
        match &e.node {
            SExprNode::App(f1, arg) => {
                assert!(matches!(&f1.node, SExprNode::App(op, _)
                    if matches!(&op.node, SExprNode::Var(s) if s.as_str() == "$")));
                assert!(matches!(&arg.node, SExprNode::App(..)));
            }
            _ => panic!("bad parse"),
        }
    }

    #[test]
    fn levity_polymorphic_signature() {
        let t =
            parse_type("forall (r :: Rep) (a :: Type) (b :: TYPE r). (a -> b) -> a -> b").unwrap();
        match t {
            SType::Forall(binders, _) => {
                assert_eq!(binders.len(), 3);
                assert_eq!(binders[0].1, Some(SKind::Rep));
                assert_eq!(binders[2].1, Some(SKind::Type_(SRep::Var("r".into()))));
            }
            other => panic!("expected forall, got {other:?}"),
        }
    }

    #[test]
    fn tuple_rep_kinds() {
        let t = parse_type("forall (a :: TYPE (TupleRep '[IntRep, LiftedRep])). a").unwrap();
        match t {
            SType::Forall(binders, _) => {
                assert_eq!(
                    binders[0].1,
                    Some(SKind::Type_(SRep::Tuple(vec![
                        SRep::Con("IntRep".into()),
                        SRep::Con("LiftedRep".into())
                    ])))
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unboxed_tuple_expressions_and_types() {
        let e = parse_expr("(# 1#, x #)").unwrap();
        assert!(matches!(e.node, SExprNode::UnboxedTuple(ref parts) if parts.len() == 2));
        let t = parse_type("(# Int#, Bool #)").unwrap();
        assert_eq!(
            t,
            SType::UnboxedTuple(vec![SType::Con("Int#".into()), SType::Con("Bool".into())])
        );
        let empty = parse_expr("(# #)").unwrap();
        assert!(matches!(empty.node, SExprNode::UnboxedTuple(ref parts) if parts.is_empty()));
    }

    #[test]
    fn class_and_instance() {
        let m = parse_module(
            "class Num (a :: TYPE r) where { (+) :: a -> a -> a; abs :: a -> a }\n\
             instance Num Int# where { (+) = plusInt#; abs n = n }\n",
        )
        .unwrap();
        assert_eq!(m.decls.len(), 2);
        match &m.decls[0] {
            SDecl::Class {
                name,
                var_kind,
                methods,
                ..
            } => {
                assert_eq!(name.as_str(), "Num");
                assert_eq!(*var_kind, Some(SKind::Type_(SRep::Var("r".into()))));
                assert_eq!(methods.len(), 2);
                assert_eq!(methods[0].0.as_str(), "+");
            }
            other => panic!("{other:?}"),
        }
        match &m.decls[1] {
            SDecl::Instance { class, methods, .. } => {
                assert_eq!(class.as_str(), "Num");
                assert_eq!(methods.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn data_declaration() {
        let m = parse_module("data Shape a = Circle Double a | Square Double\n").unwrap();
        match &m.decls[0] {
            SDecl::Data {
                name, params, cons, ..
            } => {
                assert_eq!(name.as_str(), "Shape");
                assert_eq!(params.len(), 1);
                assert_eq!(cons.len(), 2);
                assert_eq!(cons[0].1.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn type_family() {
        let m =
            parse_module("type family F a :: TYPE IntRep where { F Int = Int#; F Char = Char# }\n")
                .unwrap();
        match &m.decls[0] {
            SDecl::TypeFamily {
                name, equations, ..
            } => {
                assert_eq!(name.as_str(), "F");
                assert_eq!(equations.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_then_else() {
        let e = parse_expr("if b then 1# else 0#").unwrap();
        assert!(matches!(e.node, SExprNode::If(..)));
    }

    #[test]
    fn let_with_params_and_annotation() {
        let e = parse_expr("let f :: Int -> Int = \\x -> x in f 3").unwrap();
        assert!(matches!(e.node, SExprNode::Let(..)));
        let e2 = parse_expr("let g x = x in g 1#").unwrap();
        match &e2.node {
            SExprNode::Let(_, _, rhs, _) => assert!(matches!(rhs.node, SExprNode::Lam(..))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn constraints_in_types() {
        let t = parse_type("Num a => a -> a").unwrap();
        assert!(matches!(t, SType::Qual(ref ctx, _) if ctx.len() == 1));
    }

    #[test]
    fn type_application_syntax() {
        let e = parse_expr("error @Int# \"boom\"").unwrap();
        match &e.node {
            SExprNode::App(f, _) => assert!(matches!(f.node, SExprNode::TyApp(..))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn operator_reference_in_parens() {
        let e = parse_expr("(+) 1 2").unwrap();
        match &e.node {
            SExprNode::App(f, _) => match &f.node {
                SExprNode::App(op, _) => {
                    assert!(matches!(&op.node, SExprNode::Var(s) if s.as_str() == "+"))
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_spans() {
        let err = parse_expr("case x of").unwrap_err();
        assert_eq!(err.code, levity_core::diag::ErrorCode::Parse);
    }

    #[test]
    fn multiline_function_with_indented_continuation() {
        let m = parse_module("f :: Int -> Int\nf x =\n  x\n").unwrap();
        assert_eq!(m.decls.len(), 2);
    }
}
