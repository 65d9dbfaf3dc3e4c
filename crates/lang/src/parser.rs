//! Recursive-descent parser for the mini unsafe-Rust surface syntax.
//!
//! The syntax deliberately mirrors Rust so that the simulated language model
//! (which reasons over printed source text) sees realistic programs, and so
//! that printed programs round-trip: `parse(print(p)) == p` (a property
//! checked by the test-suite).

use crate::ast::{
    BinOp, Block, BuiltinKind, Expr, Function, IntTy, Lit, Mutability, Program, StaticDef, Stmt,
    Ty, UnOp, UnionDef,
};
use crate::error::{LangError, LangResult};
use crate::lexer::lex;
use crate::token::{Token, TokenKind};

/// Parses a full program from source text.
///
/// After parsing, variable references that name a declared `static` are
/// resolved to [`Expr::StaticRef`], making printing/parsing a round-trip.
///
/// # Errors
///
/// Returns [`LangError`] on lexical or syntactic problems.
///
/// ```
/// # use rb_lang::parser::parse_program;
/// let p = parse_program("fn main() { let x: i32 = 1; print(x); }").unwrap();
/// assert_eq!(p.funcs.len(), 1);
/// ```
pub fn parse_program(src: &str) -> LangResult<Program> {
    let toks = lex(src)?;
    let mut p = Parser::new(toks);
    let mut prog = Program::default();
    while !p.at_eof() {
        if p.peek_ident("union") {
            prog.unions.push(p.parse_union()?);
        } else if p.peek_ident("static") {
            prog.statics.push(p.parse_static()?);
        } else if p.peek_ident("fn") || p.peek_ident("unsafe") {
            prog.funcs.push(p.parse_fn()?);
        } else {
            return Err(p.err("expected `union`, `static`, `fn` or `unsafe fn`"));
        }
    }
    resolve_statics(&mut prog);
    Ok(prog)
}

/// Parses a single expression, mainly for tests and tooling.
///
/// # Errors
///
/// Returns [`LangError`] on lexical or syntactic problems.
pub fn parse_expr(src: &str) -> LangResult<Expr> {
    let toks = lex(src)?;
    let mut p = Parser::new(toks);
    let e = p.parse_expr_outer()?;
    p.expect(&TokenKind::Eof)?;
    Ok(e)
}

/// The deepest nesting the parser accepts; deeper input is a
/// [`LangError::TooDeep`].
///
/// Depth is counted on the tree as the parser builds it: a block, a type
/// and an expression operand each sit one level below the node that holds
/// them, and every link of an operator chain (`a + b + c`, `x.0.1`,
/// `e as T as U`) pushes the chain's left operand one level further down,
/// as the nested node it builds does. Every recursive pass over an
/// accepted program — checker, printer, lint, interpreter, repair rules —
/// fits a 2 MiB thread stack at this depth.
pub const MAX_NESTING: usize = 64;

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Nesting level of the node being parsed (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn new(toks: Vec<Token>) -> Parser {
        Parser {
            toks,
            pos: 0,
            depth: 0,
        }
    }

    /// Opens one nesting level, refusing to pass [`MAX_NESTING`].
    fn descend(&mut self) -> LangResult<()> {
        if self.depth >= MAX_NESTING {
            return Err(LangError::TooDeep {
                offset: self.offset(),
                limit: MAX_NESTING,
            });
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `parse` one nesting level down. A parse error ends the whole
    /// parse, so depths are restored on success only.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Parser) -> LangResult<T>) -> LangResult<T> {
        self.descend()?;
        let parsed = parse(self)?;
        self.depth -= 1;
        Ok(parsed)
    }

    fn peek(&self) -> &TokenKind {
        &self.toks[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].kind
    }

    fn offset(&self) -> usize {
        self.toks[self.pos].offset
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        k
    }

    fn err(&self, msg: &str) -> LangError {
        LangError::Parse {
            offset: self.offset(),
            message: format!("{msg}, found {}", self.peek()),
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> LangResult<()> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(&format!("expected {kind}")))
        }
    }

    fn peek_ident(&self, name: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s == name)
    }

    fn eat_ident(&mut self, name: &str) -> bool {
        if self.peek_ident(name) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident_kw(&mut self, name: &str) -> LangResult<()> {
        if self.eat_ident(name) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{name}`")))
        }
    }

    fn parse_name(&mut self) -> LangResult<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) if !is_keyword(&s) => {
                self.bump();
                Ok(s)
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    // ---- items -----------------------------------------------------------

    fn parse_union(&mut self) -> LangResult<UnionDef> {
        self.expect_ident_kw("union")?;
        let name = self.parse_name()?;
        self.expect(&TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while !matches!(self.peek(), TokenKind::RBrace) {
            let fname = self.parse_name()?;
            self.expect(&TokenKind::Colon)?;
            let ty = self.parse_ty()?;
            fields.push((fname, ty));
            if !matches!(self.peek(), TokenKind::RBrace) {
                self.expect(&TokenKind::Comma)?;
            }
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(UnionDef { name, fields })
    }

    fn parse_static(&mut self) -> LangResult<StaticDef> {
        self.expect_ident_kw("static")?;
        let mutable = self.eat_ident("mut");
        let name = self.parse_name()?;
        self.expect(&TokenKind::Colon)?;
        let ty = self.parse_ty()?;
        self.expect(&TokenKind::Eq)?;
        let init = self.parse_lit()?;
        self.expect(&TokenKind::Semi)?;
        Ok(StaticDef {
            name,
            ty,
            init,
            mutable,
        })
    }

    fn parse_fn(&mut self) -> LangResult<Function> {
        let is_unsafe = self.eat_ident("unsafe");
        self.expect_ident_kw("fn")?;
        let name = self.parse_name()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        while !matches!(self.peek(), TokenKind::RParen) {
            let pname = self.parse_name()?;
            self.expect(&TokenKind::Colon)?;
            let ty = self.parse_ty()?;
            params.push((pname, ty));
            if !matches!(self.peek(), TokenKind::RParen) {
                self.expect(&TokenKind::Comma)?;
            }
        }
        self.expect(&TokenKind::RParen)?;
        let ret = if matches!(self.peek(), TokenKind::Arrow) {
            self.bump();
            self.parse_ty()?
        } else {
            Ty::Unit
        };
        let body = self.parse_block()?;
        Ok(Function {
            name,
            params,
            ret,
            is_unsafe,
            body,
        })
    }

    // ---- types -----------------------------------------------------------

    fn parse_ty(&mut self) -> LangResult<Ty> {
        self.nested(Parser::parse_ty_here)
    }

    fn parse_ty_here(&mut self) -> LangResult<Ty> {
        match self.peek().clone() {
            TokenKind::LParen => {
                self.bump();
                if matches!(self.peek(), TokenKind::RParen) {
                    self.bump();
                    return Ok(Ty::Unit);
                }
                let mut items = vec![self.parse_ty()?];
                while matches!(self.peek(), TokenKind::Comma) {
                    self.bump();
                    if matches!(self.peek(), TokenKind::RParen) {
                        break;
                    }
                    items.push(self.parse_ty()?);
                }
                self.expect(&TokenKind::RParen)?;
                if items.len() == 1 {
                    Ok(items.pop().expect("non-empty"))
                } else {
                    Ok(Ty::Tuple(items))
                }
            }
            TokenKind::LBracket => {
                self.bump();
                let elem = self.parse_ty()?;
                self.expect(&TokenKind::Semi)?;
                let n = self.parse_usize_lit()?;
                self.expect(&TokenKind::RBracket)?;
                Ok(Ty::Array(Box::new(elem), n))
            }
            TokenKind::Star => {
                self.bump();
                let m = if self.eat_ident("mut") {
                    Mutability::Mut
                } else {
                    self.expect_ident_kw("const")?;
                    Mutability::Not
                };
                Ok(Ty::RawPtr(Box::new(self.parse_ty()?), m))
            }
            TokenKind::Amp => {
                self.bump();
                let m = if self.eat_ident("mut") {
                    Mutability::Mut
                } else {
                    Mutability::Not
                };
                Ok(Ty::Ref(Box::new(self.parse_ty()?), m))
            }
            TokenKind::Ident(name) => {
                self.bump();
                match name.as_str() {
                    "bool" => Ok(Ty::Bool),
                    "i8" => Ok(Ty::Int(IntTy::I8)),
                    "i16" => Ok(Ty::Int(IntTy::I16)),
                    "i32" => Ok(Ty::Int(IntTy::I32)),
                    "i64" => Ok(Ty::Int(IntTy::I64)),
                    "isize" => Ok(Ty::Int(IntTy::Isize)),
                    "u8" => Ok(Ty::Int(IntTy::U8)),
                    "u16" => Ok(Ty::Int(IntTy::U16)),
                    "u32" => Ok(Ty::Int(IntTy::U32)),
                    "u64" => Ok(Ty::Int(IntTy::U64)),
                    "usize" => Ok(Ty::Int(IntTy::Usize)),
                    "fn" => {
                        self.expect(&TokenKind::LParen)?;
                        let mut params = Vec::new();
                        while !matches!(self.peek(), TokenKind::RParen) {
                            params.push(self.parse_ty()?);
                            if !matches!(self.peek(), TokenKind::RParen) {
                                self.expect(&TokenKind::Comma)?;
                            }
                        }
                        self.expect(&TokenKind::RParen)?;
                        let ret = if matches!(self.peek(), TokenKind::Arrow) {
                            self.bump();
                            self.parse_ty()?
                        } else {
                            Ty::Unit
                        };
                        Ok(Ty::FnPtr(params, Box::new(ret)))
                    }
                    "Box" => {
                        self.expect(&TokenKind::Lt)?;
                        let inner = self.parse_ty()?;
                        self.expect(&TokenKind::Gt)?;
                        Ok(Ty::Boxed(Box::new(inner)))
                    }
                    _ => Ok(Ty::Union(name)),
                }
            }
            _ => Err(self.err("expected type")),
        }
    }

    fn parse_usize_lit(&mut self) -> LangResult<usize> {
        match self.peek().clone() {
            TokenKind::Int(v, None) if v >= 0 => {
                self.bump();
                Ok(v as usize)
            }
            _ => Err(self.err("expected array length")),
        }
    }

    fn parse_lit(&mut self) -> LangResult<Lit> {
        match self.peek().clone() {
            TokenKind::Int(v, suffix) => {
                self.bump();
                let ty = match suffix.as_deref() {
                    None | Some("i32") => IntTy::I32,
                    Some("i8") => IntTy::I8,
                    Some("i16") => IntTy::I16,
                    Some("i64") => IntTy::I64,
                    Some("isize") => IntTy::Isize,
                    Some("u8") => IntTy::U8,
                    Some("u16") => IntTy::U16,
                    Some("u32") => IntTy::U32,
                    Some("u64") => IntTy::U64,
                    Some("usize") => IntTy::Usize,
                    Some(other) => {
                        return Err(LangError::Parse {
                            offset: self.offset(),
                            message: format!("unknown integer suffix `{other}`"),
                        })
                    }
                };
                Ok(Lit::Int(v, ty))
            }
            TokenKind::Minus => {
                self.bump();
                match self.parse_lit()? {
                    Lit::Int(v, t) => Ok(Lit::Int(-v, t)),
                    _ => Err(self.err("expected integer after `-`")),
                }
            }
            TokenKind::Ident(s) if s == "true" => {
                self.bump();
                Ok(Lit::Bool(true))
            }
            TokenKind::Ident(s) if s == "false" => {
                self.bump();
                Ok(Lit::Bool(false))
            }
            TokenKind::LParen if matches!(self.peek2(), TokenKind::RParen) => {
                self.bump();
                self.bump();
                Ok(Lit::Unit)
            }
            _ => Err(self.err("expected literal")),
        }
    }

    // ---- statements ------------------------------------------------------

    fn parse_block(&mut self) -> LangResult<Block> {
        self.nested(Parser::parse_block_here)
    }

    fn parse_block_here(&mut self) -> LangResult<Block> {
        self.expect(&TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !matches!(self.peek(), TokenKind::RBrace) {
            stmts.push(self.parse_stmt()?);
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(Block::new(stmts))
    }

    fn parse_stmt(&mut self) -> LangResult<Stmt> {
        match self.peek().clone() {
            TokenKind::Ident(kw) => match kw.as_str() {
                "let" => {
                    self.bump();
                    let name = self.parse_name()?;
                    self.expect(&TokenKind::Colon)?;
                    let ty = self.parse_ty()?;
                    self.expect(&TokenKind::Eq)?;
                    let init = self.parse_expr_outer()?;
                    self.expect(&TokenKind::Semi)?;
                    Ok(Stmt::Let { name, ty, init })
                }
                "unsafe" => {
                    self.bump();
                    Ok(Stmt::Unsafe(self.parse_block()?))
                }
                "if" => {
                    self.bump();
                    let cond = self.parse_expr_no_struct()?;
                    let then_blk = self.parse_block()?;
                    let else_blk = if self.eat_ident("else") {
                        Some(self.parse_block()?)
                    } else {
                        None
                    };
                    Ok(Stmt::If {
                        cond,
                        then_blk,
                        else_blk,
                    })
                }
                "while" => {
                    self.bump();
                    let cond = self.parse_expr_no_struct()?;
                    let body = self.parse_block()?;
                    Ok(Stmt::While { cond, body })
                }
                "assert" => {
                    self.bump();
                    self.expect(&TokenKind::LParen)?;
                    let cond = self.parse_expr_outer()?;
                    let msg = if matches!(self.peek(), TokenKind::Comma) {
                        self.bump();
                        match self.bump() {
                            TokenKind::Str(s) => s,
                            _ => return Err(self.err("expected string message")),
                        }
                    } else {
                        "assertion failed".to_owned()
                    };
                    self.expect(&TokenKind::RParen)?;
                    self.expect(&TokenKind::Semi)?;
                    Ok(Stmt::Assert { cond, msg })
                }
                "return" => {
                    self.bump();
                    if matches!(self.peek(), TokenKind::Semi) {
                        self.bump();
                        Ok(Stmt::Return(None))
                    } else {
                        let e = self.parse_expr_outer()?;
                        self.expect(&TokenKind::Semi)?;
                        Ok(Stmt::Return(Some(e)))
                    }
                }
                "spawn" => {
                    self.bump();
                    Ok(Stmt::Spawn(self.parse_block()?))
                }
                "join" => {
                    self.bump();
                    self.expect(&TokenKind::Semi)?;
                    Ok(Stmt::JoinAll)
                }
                "lock" => {
                    self.bump();
                    self.expect(&TokenKind::LParen)?;
                    let id = self.parse_usize_lit()? as u32;
                    self.expect(&TokenKind::RParen)?;
                    Ok(Stmt::Lock(id, self.parse_block()?))
                }
                "print" => {
                    self.bump();
                    self.expect(&TokenKind::LParen)?;
                    let e = self.parse_expr_outer()?;
                    self.expect(&TokenKind::RParen)?;
                    self.expect(&TokenKind::Semi)?;
                    Ok(Stmt::Print(e))
                }
                "tailcall" => {
                    self.bump();
                    let name = self.parse_name()?;
                    self.expect(&TokenKind::LParen)?;
                    let args = self.parse_args()?;
                    self.expect(&TokenKind::Semi)?;
                    Ok(Stmt::TailCall(name, args))
                }
                "nop" => {
                    self.bump();
                    self.expect(&TokenKind::Semi)?;
                    Ok(Stmt::Nop)
                }
                _ => self.parse_assign_or_expr_stmt(),
            },
            TokenKind::LBrace => Ok(Stmt::Scope(self.parse_block()?)),
            _ => self.parse_assign_or_expr_stmt(),
        }
    }

    fn parse_assign_or_expr_stmt(&mut self) -> LangResult<Stmt> {
        let e = self.parse_expr_outer()?;
        if matches!(self.peek(), TokenKind::Eq) {
            self.bump();
            let value = self.parse_expr_outer()?;
            self.expect(&TokenKind::Semi)?;
            Ok(Stmt::Assign { place: e, value })
        } else {
            self.expect(&TokenKind::Semi)?;
            Ok(Stmt::Expr(e))
        }
    }

    fn parse_args(&mut self) -> LangResult<Vec<Expr>> {
        let mut args = Vec::new();
        while !matches!(self.peek(), TokenKind::RParen) {
            args.push(self.parse_expr_outer()?);
            if !matches!(self.peek(), TokenKind::RParen) {
                self.expect(&TokenKind::Comma)?;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(args)
    }

    // ---- expressions -----------------------------------------------------

    fn parse_expr_outer(&mut self) -> LangResult<Expr> {
        self.parse_expr_bp(0, true)
    }

    fn parse_expr_no_struct(&mut self) -> LangResult<Expr> {
        self.parse_expr_bp(0, false)
    }

    /// Pratt / precedence-climbing parser. `allow_struct` disables union
    /// literals in `if`/`while` conditions (mirroring Rust's restriction).
    /// Each cast or binary link nests the chain one level deeper.
    fn parse_expr_bp(&mut self, min_bp: u8, allow_struct: bool) -> LangResult<Expr> {
        let depth = self.depth;
        let mut lhs = self.parse_unary(allow_struct)?;
        // `as` casts bind tighter than any binary operator but looser than
        // unary operators, matching Rust (`&x as *const i32` is `(&x) as _`).
        while self.peek_ident("as") {
            self.descend()?;
            self.bump();
            let ty = self.parse_ty()?;
            lhs = Expr::Cast(Box::new(lhs), ty);
        }
        while let Some((op, l_bp, r_bp)) = self.binop_at() {
            if l_bp < min_bp {
                break;
            }
            self.descend()?;
            self.bump_binop(op);
            let rhs = self.parse_expr_bp(r_bp, allow_struct)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    /// Identifies a binary operator at the cursor and its binding powers.
    /// Adjacent `>` `>` tokens are fused into `>>` (see the lexer note).
    fn binop_at(&self) -> Option<(BinOp, u8, u8)> {
        let k = self.peek();
        let op = match k {
            TokenKind::PipePipe => BinOp::Or,
            TokenKind::AmpAmp => BinOp::And,
            TokenKind::EqEq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => {
                if matches!(self.peek2(), TokenKind::Gt)
                    && self.toks[self.pos + 1].offset == self.offset() + 1
                {
                    BinOp::Shr
                } else {
                    BinOp::Gt
                }
            }
            TokenKind::Ge => BinOp::Ge,
            TokenKind::Pipe => BinOp::BitOr,
            TokenKind::Caret => BinOp::BitXor,
            TokenKind::Amp => BinOp::BitAnd,
            TokenKind::Shl => BinOp::Shl,
            TokenKind::Plus => BinOp::Add,
            TokenKind::Minus => BinOp::Sub,
            TokenKind::Star => BinOp::Mul,
            TokenKind::Slash => BinOp::Div,
            TokenKind::Percent => BinOp::Rem,
            _ => return None,
        };
        let (l, r) = match op {
            BinOp::Or => (1, 2),
            BinOp::And => (3, 4),
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => (5, 6),
            BinOp::BitOr => (7, 8),
            BinOp::BitXor => (9, 10),
            BinOp::BitAnd => (11, 12),
            BinOp::Shl | BinOp::Shr => (13, 14),
            BinOp::Add | BinOp::Sub => (15, 16),
            BinOp::Mul | BinOp::Div | BinOp::Rem => (17, 18),
        };
        Some((op, l, r))
    }

    fn bump_binop(&mut self, op: BinOp) {
        self.bump();
        if op == BinOp::Shr {
            self.bump(); // second `>`
        }
    }

    fn parse_unary(&mut self, allow_struct: bool) -> LangResult<Expr> {
        self.nested(|p| p.parse_unary_here(allow_struct))
    }

    fn parse_unary_here(&mut self, allow_struct: bool) -> LangResult<Expr> {
        match self.peek().clone() {
            TokenKind::Minus => {
                self.bump();
                // Fold negation into integer literals for natural round-trips.
                let inner = self.parse_unary(allow_struct)?;
                if let Expr::Lit(Lit::Int(v, t)) = inner {
                    Ok(Expr::Lit(Lit::Int(-v, t)))
                } else {
                    Ok(Expr::Unary(UnOp::Neg, Box::new(inner)))
                }
            }
            TokenKind::Bang => {
                self.bump();
                Ok(Expr::Unary(
                    UnOp::Not,
                    Box::new(self.parse_unary(allow_struct)?),
                ))
            }
            TokenKind::Star => {
                self.bump();
                Ok(Expr::Deref(Box::new(self.parse_unary(allow_struct)?)))
            }
            TokenKind::Amp => {
                self.bump();
                if self.eat_ident("raw") {
                    let m = if self.eat_ident("mut") {
                        Mutability::Mut
                    } else {
                        self.expect_ident_kw("const")?;
                        Mutability::Not
                    };
                    Ok(Expr::RawAddrOf(
                        m,
                        Box::new(self.parse_unary(allow_struct)?),
                    ))
                } else {
                    let m = if self.eat_ident("mut") {
                        Mutability::Mut
                    } else {
                        Mutability::Not
                    };
                    Ok(Expr::AddrOf(m, Box::new(self.parse_unary(allow_struct)?)))
                }
            }
            _ => self.parse_postfix(allow_struct),
        }
    }

    /// Each postfix link nests the chain one level deeper.
    fn parse_postfix(&mut self, allow_struct: bool) -> LangResult<Expr> {
        let depth = self.depth;
        let mut e = self.parse_primary(allow_struct)?;
        loop {
            match self.peek().clone() {
                TokenKind::LBracket => {
                    self.descend()?;
                    self.bump();
                    let idx = self.parse_expr_outer()?;
                    self.expect(&TokenKind::RBracket)?;
                    e = Expr::Index(Box::new(e), Box::new(idx));
                }
                TokenKind::Dot => {
                    self.descend()?;
                    self.bump();
                    match self.bump() {
                        TokenKind::Int(n, None) => e = Expr::Field(Box::new(e), n as usize),
                        TokenKind::Ident(fname) => {
                            e = Expr::UnionField(Box::new(e), fname);
                        }
                        _ => return Err(self.err("expected field index or name")),
                    }
                }
                TokenKind::LParen => {
                    // Indirect call through an expression value. Direct
                    // calls `f(args)` are consumed in `parse_primary`, so a
                    // `(` here always means a call through a value, e.g.
                    // `(f)(3)` on a function-pointer variable.
                    self.descend()?;
                    self.bump();
                    let args = self.parse_args()?;
                    e = Expr::CallPtr(Box::new(e), args);
                }
                _ => break,
            }
        }
        self.depth = depth;
        Ok(e)
    }

    fn parse_primary(&mut self, allow_struct: bool) -> LangResult<Expr> {
        match self.peek().clone() {
            TokenKind::Int(..) | TokenKind::Ident(_)
                if matches!(self.peek(), TokenKind::Int(..))
                    || self.peek_ident("true")
                    || self.peek_ident("false") =>
            {
                Ok(Expr::Lit(self.parse_lit()?))
            }
            TokenKind::LParen => {
                self.bump();
                if matches!(self.peek(), TokenKind::RParen) {
                    self.bump();
                    return Ok(Expr::Lit(Lit::Unit));
                }
                let first = self.parse_expr_outer()?;
                if matches!(self.peek(), TokenKind::Comma) {
                    let mut items = vec![first];
                    while matches!(self.peek(), TokenKind::Comma) {
                        self.bump();
                        if matches!(self.peek(), TokenKind::RParen) {
                            break;
                        }
                        items.push(self.parse_expr_outer()?);
                    }
                    self.expect(&TokenKind::RParen)?;
                    Ok(Expr::Tuple(items))
                } else {
                    self.expect(&TokenKind::RParen)?;
                    Ok(first)
                }
            }
            TokenKind::LBracket => {
                self.bump();
                if matches!(self.peek(), TokenKind::RBracket) {
                    self.bump();
                    return Ok(Expr::ArrayLit(Vec::new()));
                }
                let first = self.parse_expr_outer()?;
                if matches!(self.peek(), TokenKind::Semi) {
                    self.bump();
                    let n = self.parse_usize_lit()?;
                    self.expect(&TokenKind::RBracket)?;
                    Ok(Expr::ArrayRepeat(Box::new(first), n))
                } else {
                    let mut items = vec![first];
                    while matches!(self.peek(), TokenKind::Comma) {
                        self.bump();
                        if matches!(self.peek(), TokenKind::RBracket) {
                            break;
                        }
                        items.push(self.parse_expr_outer()?);
                    }
                    self.expect(&TokenKind::RBracket)?;
                    Ok(Expr::ArrayLit(items))
                }
            }
            TokenKind::Ident(name) if !is_keyword(&name) => {
                self.bump();
                // Builtin with explicit type arguments: `name::<T, U>(args)`.
                if matches!(self.peek(), TokenKind::ColonColon) {
                    let Some(b) = BuiltinKind::from_name(&name) else {
                        return Err(LangError::Parse {
                            offset: self.offset(),
                            message: format!("`{name}` is not a builtin with type arguments"),
                        });
                    };
                    self.bump();
                    self.expect(&TokenKind::Lt)?;
                    let mut tys = vec![self.parse_ty()?];
                    while matches!(self.peek(), TokenKind::Comma) {
                        self.bump();
                        tys.push(self.parse_ty()?);
                    }
                    self.expect(&TokenKind::Gt)?;
                    self.expect(&TokenKind::LParen)?;
                    let args = self.parse_args()?;
                    return Ok(Expr::Builtin(b, tys, args));
                }
                if matches!(self.peek(), TokenKind::LParen) {
                    self.bump();
                    let args = self.parse_args()?;
                    if let Some(b) = BuiltinKind::from_name(&name) {
                        return Ok(Expr::Builtin(b, Vec::new(), args));
                    }
                    return Ok(Expr::Call(name, args));
                }
                // Union literal `U { field: expr }`.
                if allow_struct
                    && matches!(self.peek(), TokenKind::LBrace)
                    && name.chars().next().is_some_and(char::is_uppercase)
                {
                    self.bump();
                    let fname = self.parse_name()?;
                    self.expect(&TokenKind::Colon)?;
                    let val = self.parse_expr_outer()?;
                    self.expect(&TokenKind::RBrace)?;
                    return Ok(Expr::UnionLit(name, fname, Box::new(val)));
                }
                Ok(Expr::Var(name))
            }
            _ => Err(self.err("expected expression")),
        }
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "let"
            | "unsafe"
            | "if"
            | "else"
            | "while"
            | "assert"
            | "return"
            | "spawn"
            | "join"
            | "lock"
            | "print"
            | "tailcall"
            | "fn"
            | "static"
            | "union"
            | "mut"
            | "as"
            | "true"
            | "false"
            | "const"
            | "raw"
            | "nop"
    )
}

/// Rewrites `Var(name)` into `StaticRef(name)` wherever `name` is a declared
/// static, making the printed form unambiguous to re-parse.
fn resolve_statics(prog: &mut Program) {
    let names: Vec<String> = prog.statics.iter().map(|s| s.name.clone()).collect();
    if names.is_empty() {
        return;
    }
    for f in &mut prog.funcs {
        resolve_block(&mut f.body, &names);
    }
}

fn resolve_block(b: &mut Block, names: &[String]) {
    for s in &mut b.stmts {
        resolve_stmt(s, names);
    }
}

fn resolve_stmt(s: &mut Stmt, names: &[String]) {
    match s {
        Stmt::Let { init, .. } => resolve_expr(init, names),
        Stmt::Assign { place, value } => {
            resolve_expr(place, names);
            resolve_expr(value, names);
        }
        Stmt::Expr(e) | Stmt::Print(e) => resolve_expr(e, names),
        Stmt::Unsafe(b) | Stmt::Scope(b) | Stmt::Spawn(b) | Stmt::Lock(_, b) => {
            resolve_block(b, names);
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
        } => {
            resolve_expr(cond, names);
            resolve_block(then_blk, names);
            if let Some(e) = else_blk {
                resolve_block(e, names);
            }
        }
        Stmt::While { cond, body } => {
            resolve_expr(cond, names);
            resolve_block(body, names);
        }
        Stmt::Assert { cond, .. } => resolve_expr(cond, names),
        Stmt::Return(Some(e)) => resolve_expr(e, names),
        Stmt::TailCall(_, args) => {
            for a in args {
                resolve_expr(a, names);
            }
        }
        Stmt::Return(None) | Stmt::JoinAll | Stmt::Nop => {}
    }
}

fn resolve_expr(e: &mut Expr, names: &[String]) {
    match e {
        Expr::Var(n) => {
            if names.iter().any(|s| s == n) {
                *e = Expr::StaticRef(n.clone());
            }
        }
        Expr::Unary(_, a)
        | Expr::Cast(a, _)
        | Expr::AddrOf(_, a)
        | Expr::RawAddrOf(_, a)
        | Expr::Deref(a)
        | Expr::Field(a, _)
        | Expr::ArrayRepeat(a, _)
        | Expr::UnionLit(_, _, a)
        | Expr::UnionField(a, _) => resolve_expr(a, names),
        Expr::Binary(_, a, b) | Expr::Index(a, b) => {
            resolve_expr(a, names);
            resolve_expr(b, names);
        }
        Expr::Tuple(xs) | Expr::ArrayLit(xs) => {
            for x in xs {
                resolve_expr(x, names);
            }
        }
        Expr::Call(_, xs) | Expr::Builtin(_, _, xs) => {
            for x in xs {
                resolve_expr(x, names);
            }
        }
        Expr::CallPtr(f, xs) => {
            resolve_expr(f, names);
            for x in xs {
                resolve_expr(x, names);
            }
        }
        Expr::Lit(_) | Expr::StaticRef(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_fn() {
        let p = parse_program("fn main() { let x: i32 = 1 + 2 * 3; print(x); }").unwrap();
        let f = p.func("main").unwrap();
        assert_eq!(f.body.stmts.len(), 2);
        match &f.body.stmts[0] {
            Stmt::Let { init, .. } => match init {
                Expr::Binary(BinOp::Add, _, rhs) => {
                    assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _)));
                }
                other => panic!("precedence wrong: {other:?}"),
            },
            other => panic!("expected let: {other:?}"),
        }
    }

    #[test]
    fn parse_unsafe_block_and_deref() {
        let p = parse_program(
            "fn main() { let x: i32 = 5; let p: *const i32 = &raw const x; unsafe { print(*p); } }",
        )
        .unwrap();
        assert!(matches!(p.funcs[0].body.stmts[2], Stmt::Unsafe(_)));
    }

    #[test]
    fn parse_builtin_with_ty_args() {
        let e = parse_expr("transmute::<[u8; 2], u32>(n1)").unwrap();
        match e {
            Expr::Builtin(BuiltinKind::Transmute, tys, args) => {
                assert_eq!(tys.len(), 2);
                assert_eq!(args.len(), 1);
                assert_eq!(tys[0], Ty::Array(Box::new(Ty::Int(IntTy::U8)), 2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_shift_right_vs_generics() {
        let e = parse_expr("a >> 2").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Shr, _, _)));
        // `>` `>` from generic closing must not fuse (non-adjacent).
        let e = parse_expr("ptr_read::<*mut u32>(p)").unwrap();
        assert!(matches!(e, Expr::Builtin(BuiltinKind::PtrRead, ..)));
    }

    #[test]
    fn parse_static_and_resolution() {
        let p = parse_program(
            "static mut COUNTER: i32 = 0; fn main() { unsafe { COUNTER = COUNTER + 1; } }",
        )
        .unwrap();
        assert!(p.statics[0].mutable);
        let Stmt::Unsafe(b) = &p.funcs[0].body.stmts[0] else {
            panic!()
        };
        let Stmt::Assign { place, value } = &b.stmts[0] else {
            panic!()
        };
        assert_eq!(*place, Expr::StaticRef("COUNTER".into()));
        assert!(
            matches!(value, Expr::Binary(BinOp::Add, a, _) if **a == Expr::StaticRef("COUNTER".into()))
        );
    }

    #[test]
    fn parse_union() {
        let p = parse_program(
            "union Bits { i: i32, u: u32 } fn main() { let b: Bits = Bits { i: -1 }; unsafe { print(b.u); } }",
        )
        .unwrap();
        assert_eq!(p.unions[0].fields.len(), 2);
    }

    #[test]
    fn parse_spawn_lock_join() {
        let p = parse_program(
            "static mut G: i32 = 0; fn main() { spawn { lock(1) { unsafe { G = 1; } } } join; }",
        )
        .unwrap();
        assert!(matches!(p.funcs[0].body.stmts[0], Stmt::Spawn(_)));
        assert!(matches!(p.funcs[0].body.stmts[1], Stmt::JoinAll));
    }

    #[test]
    fn parse_tailcall() {
        let p = parse_program("fn f(x: i32) { print(x); } fn main() { tailcall f(1); }").unwrap();
        assert!(
            matches!(&p.funcs[1].body.stmts[0], Stmt::TailCall(n, a) if n == "f" && a.len() == 1)
        );
    }

    #[test]
    fn parse_indirect_call() {
        let e = parse_expr("(f)(1, 2)").unwrap();
        assert!(matches!(e, Expr::CallPtr(..)));
    }

    #[test]
    fn parse_scope_stmt() {
        let p = parse_program("fn main() { { let x: i32 = 1; } }").unwrap();
        assert!(matches!(p.funcs[0].body.stmts[0], Stmt::Scope(_)));
    }

    #[test]
    fn parse_array_repeat_and_index() {
        let e = parse_expr("[0u8; 4]").unwrap();
        assert!(matches!(e, Expr::ArrayRepeat(_, 4)));
        let e = parse_expr("a[1]").unwrap();
        assert!(matches!(e, Expr::Index(..)));
    }

    #[test]
    fn parse_cast_chain() {
        let e = parse_expr("p as *const i32 as usize").unwrap();
        assert!(
            matches!(e, Expr::Cast(inner, Ty::Int(IntTy::Usize)) if matches!(*inner, Expr::Cast(..)))
        );
    }

    #[test]
    fn parse_negative_literal() {
        let e = parse_expr("-5").unwrap();
        assert_eq!(e, Expr::i32(-5));
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_program("fn main() { let ; }").is_err());
        assert!(parse_program("garbage").is_err());
    }

    #[test]
    fn no_struct_literal_in_condition() {
        // `U { ... }` must not be parsed as a union literal in `if` heads.
        let p = parse_program("fn main() { let u: i32 = 0; if u == 0 { print(u); } }");
        assert!(p.is_ok());
    }
}
