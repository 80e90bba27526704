//! Core terms: an explicitly-typed intermediate representation in the
//! style of GHC's Core (§8.2 mentions Core as the language where the
//! levity checks run).
//!
//! Everything is type-annotated, so computing the type of a term is
//! syntax-directed and total ([`crate::typecheck::type_of`]); inference
//! happens upstream (the `levity-infer` crate) and produces these terms.

use std::fmt;
use std::sync::Arc;

use levity_core::kind::Kind;
use levity_core::rep::RepTy;
use levity_core::symbol::Symbol;
use levity_m::syntax::{Literal, PrimOp};

use crate::types::{TyCon, Type};

/// A type-level parameter of a data constructor: a representation
/// variable or a type variable. Unboxed-tuple-style constructors take
/// rep params first (§8.2: "it takes three times as many arguments as its
/// arity").
#[derive(Clone, Debug, PartialEq)]
pub enum TyParam {
    /// `r :: Rep`.
    Rep(Symbol),
    /// `a :: κ`.
    Ty(Symbol, Kind),
}

/// A type-level argument supplied to a data constructor.
#[derive(Clone, Debug, PartialEq)]
pub enum TyArg {
    /// A representation argument.
    Rep(RepTy),
    /// A type argument.
    Ty(Type),
}

/// A data constructor's full description.
#[derive(Clone, Debug, PartialEq)]
pub struct DataConInfo {
    /// Constructor name.
    pub name: Symbol,
    /// Tag within the datatype (0-based, used for case selection).
    pub tag: u32,
    /// Universally quantified parameters, outermost first.
    pub params: Vec<TyParam>,
    /// Field types, mentioning `params`.
    pub field_types: Vec<Type>,
    /// Result type, mentioning `params`.
    pub result: Type,
}

impl DataConInfo {
    /// Number of term-level fields.
    pub fn arity(&self) -> usize {
        self.field_types.len()
    }

    /// Instantiates field and result types at the given type arguments.
    ///
    /// # Errors
    ///
    /// Returns `None` on arity or sort mismatch between `params` and
    /// `args`.
    pub fn instantiate(&self, args: &[TyArg]) -> Option<(Vec<Type>, Type)> {
        if args.len() != self.params.len() {
            return None;
        }
        let mut fields = self.field_types.clone();
        let mut result = self.result.clone();
        for (param, arg) in self.params.iter().zip(args) {
            match (param, arg) {
                (TyParam::Ty(v, _), TyArg::Ty(t)) => {
                    fields = fields.into_iter().map(|f| f.subst_ty(*v, t)).collect();
                    result = result.subst_ty(*v, t);
                }
                (TyParam::Rep(v), TyArg::Rep(r)) => {
                    fields = fields.into_iter().map(|f| f.subst_rep(*v, r)).collect();
                    result = result.subst_rep(*v, r);
                }
                _ => return None,
            }
        }
        Some((fields, result))
    }
}

impl fmt::Display for DataConInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// A datatype declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct DataDecl {
    /// The type constructor being declared.
    pub tycon: Arc<TyCon>,
    /// Its parameters.
    pub params: Vec<TyParam>,
    /// Its constructors, in tag order.
    pub cons: Vec<Arc<DataConInfo>>,
}

/// Is a `let` recursive?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LetKind {
    /// Non-recursive: the binder scopes only over the body.
    NonRec,
    /// Recursive: the binder also scopes over its own right-hand side
    /// (must be lifted; becomes a cyclic thunk in `M`).
    Rec,
}

/// A case alternative.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreAlt {
    /// `C x₁ … xₙ -> e`, with binder types already instantiated at the
    /// scrutinee's type.
    Con {
        /// The matched constructor.
        con: Arc<DataConInfo>,
        /// Field binders with instantiated types.
        binders: Vec<(Symbol, Type)>,
        /// Right-hand side.
        rhs: CoreExpr,
    },
    /// `lit -> e`.
    Lit {
        /// The matched literal.
        lit: Literal,
        /// Right-hand side.
        rhs: CoreExpr,
    },
    /// `(# x₁, …, xₙ #) -> e` for unboxed-tuple scrutinees.
    Tuple {
        /// Component binders with their types.
        binders: Vec<(Symbol, Type)>,
        /// Right-hand side.
        rhs: CoreExpr,
    },
    /// `_ -> e` or `x -> e` (the binder, if present, names the evaluated
    /// scrutinee).
    Default {
        /// Optional binder for the scrutinee value.
        binder: Option<(Symbol, Type)>,
        /// Right-hand side.
        rhs: CoreExpr,
    },
}

impl CoreAlt {
    /// The alternative's right-hand side.
    pub fn rhs(&self) -> &CoreExpr {
        match self {
            CoreAlt::Con { rhs, .. }
            | CoreAlt::Lit { rhs, .. }
            | CoreAlt::Tuple { rhs, .. }
            | CoreAlt::Default { rhs, .. } => rhs,
        }
    }
}

/// A Core expression.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreExpr {
    /// A local variable.
    Var(Symbol),
    /// A reference to a top-level binding.
    Global(Symbol),
    /// An unboxed literal (`3#`, `2.5##`, `'c'#`).
    Lit(Literal),
    /// `e₁ e₂`.
    App(Box<CoreExpr>, Box<CoreExpr>),
    /// `e @τ`.
    TyApp(Box<CoreExpr>, Type),
    /// `e @ρ` — representation application.
    RepApp(Box<CoreExpr>, RepTy),
    /// `λ(x :: τ). e`.
    Lam(Symbol, Type, Box<CoreExpr>),
    /// `Λ(a :: κ). e`.
    TyLam(Symbol, Kind, Box<CoreExpr>),
    /// `Λ(r :: Rep). e`.
    RepLam(Symbol, Box<CoreExpr>),
    /// `let[rec] x :: τ = e₁ in e₂`.
    Let(LetKind, Symbol, Type, Box<CoreExpr>, Box<CoreExpr>),
    /// `case e of alts` (no scrutinee binder; use a `let!` upstream).
    Case(Box<CoreExpr>, Vec<CoreAlt>),
    /// Saturated constructor application `C @σ… e…`.
    Con(Arc<DataConInfo>, Vec<TyArg>, Vec<CoreExpr>),
    /// Saturated primop application.
    Prim(PrimOp, Vec<CoreExpr>),
    /// `(# e₁, …, eₙ #)` — unboxed tuple construction.
    Tuple(Vec<CoreExpr>),
    /// `error @ρ @τ "msg"` fully applied: the result type is recorded
    /// directly. Its kind may be levity-polymorphic — `error` never binds
    /// its result (§3.3).
    Error(Type, String),
}

impl CoreExpr {
    /// `e₁ e₂`.
    pub fn app(f: CoreExpr, a: CoreExpr) -> CoreExpr {
        CoreExpr::App(Box::new(f), Box::new(a))
    }

    /// n-ary application.
    pub fn apps(f: CoreExpr, args: impl IntoIterator<Item = CoreExpr>) -> CoreExpr {
        args.into_iter().fold(f, CoreExpr::app)
    }

    /// `λ(x :: τ). e`.
    pub fn lam(x: impl Into<Symbol>, ty: Type, body: CoreExpr) -> CoreExpr {
        CoreExpr::Lam(x.into(), ty, Box::new(body))
    }

    /// n-ary lambda.
    pub fn lams(binders: impl IntoIterator<Item = (Symbol, Type)>, body: CoreExpr) -> CoreExpr {
        let binders: Vec<_> = binders.into_iter().collect();
        binders
            .into_iter()
            .rev()
            .fold(body, |acc, (x, t)| CoreExpr::lam(x, t, acc))
    }

    /// `e @τ`.
    pub fn ty_app(f: CoreExpr, t: Type) -> CoreExpr {
        CoreExpr::TyApp(Box::new(f), t)
    }

    /// `e @ρ`.
    pub fn rep_app(f: CoreExpr, r: RepTy) -> CoreExpr {
        CoreExpr::RepApp(Box::new(f), r)
    }

    /// `Λ(a :: κ). e`.
    pub fn ty_lam(a: impl Into<Symbol>, k: Kind, body: CoreExpr) -> CoreExpr {
        CoreExpr::TyLam(a.into(), k, Box::new(body))
    }

    /// `Λ(r :: Rep). e`.
    pub fn rep_lam(r: impl Into<Symbol>, body: CoreExpr) -> CoreExpr {
        CoreExpr::RepLam(r.into(), Box::new(body))
    }

    /// `let x :: τ = rhs in body`.
    pub fn let_(x: impl Into<Symbol>, ty: Type, rhs: CoreExpr, body: CoreExpr) -> CoreExpr {
        CoreExpr::Let(LetKind::NonRec, x.into(), ty, Box::new(rhs), Box::new(body))
    }

    /// `case scrut of alts`.
    pub fn case(scrut: CoreExpr, alts: Vec<CoreAlt>) -> CoreExpr {
        CoreExpr::Case(Box::new(scrut), alts)
    }

    /// An integer literal.
    pub fn int(n: i64) -> CoreExpr {
        CoreExpr::Lit(Literal::Int(n))
    }

    /// Number of AST nodes (diagnostics/tests).
    pub fn size(&self) -> usize {
        let mut n = 1;
        self.for_each_child(|c| n += c.size());
        n
    }

    /// Applies `f` to every direct child expression, left to right: the
    /// function before its argument, a `let`'s right-hand side before
    /// its body, a scrutinee before its alternatives' right-hand sides.
    pub fn for_each_child(&self, mut f: impl FnMut(&CoreExpr)) {
        match self {
            CoreExpr::App(a, b) | CoreExpr::Let(_, _, _, a, b) => {
                f(a);
                f(b);
            }
            CoreExpr::TyApp(a, _)
            | CoreExpr::RepApp(a, _)
            | CoreExpr::Lam(_, _, a)
            | CoreExpr::TyLam(_, _, a)
            | CoreExpr::RepLam(_, a) => f(a),
            CoreExpr::Case(scrut, alts) => {
                f(scrut);
                for alt in alts {
                    f(alt.rhs());
                }
            }
            CoreExpr::Con(_, _, args) | CoreExpr::Prim(_, args) | CoreExpr::Tuple(args) => {
                for a in args {
                    f(a);
                }
            }
            CoreExpr::Var(_) | CoreExpr::Global(_) | CoreExpr::Lit(_) | CoreExpr::Error(..) => {}
        }
    }
}

impl fmt::Display for CoreExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreExpr::Var(x) => write!(f, "{x}"),
            CoreExpr::Global(g) => write!(f, "{g}"),
            CoreExpr::Lit(l) => write!(f, "{l}"),
            CoreExpr::App(a, b) => write!(f, "({a} {b})"),
            CoreExpr::TyApp(a, t) => write!(f, "({a} @{t})"),
            CoreExpr::RepApp(a, r) => write!(f, "({a} @{r})"),
            CoreExpr::Lam(x, t, b) => write!(f, "\\({x} :: {t}) -> {b}"),
            CoreExpr::TyLam(a, k, b) => write!(f, "/\\({a} :: {k}) -> {b}"),
            CoreExpr::RepLam(r, b) => write!(f, "/\\({r} :: Rep) -> {b}"),
            CoreExpr::Let(LetKind::NonRec, x, t, rhs, body) => {
                write!(f, "let {x} :: {t} = {rhs} in {body}")
            }
            CoreExpr::Let(LetKind::Rec, x, t, rhs, body) => {
                write!(f, "letrec {x} :: {t} = {rhs} in {body}")
            }
            CoreExpr::Case(s, alts) => {
                write!(f, "case {s} of {{")?;
                for (i, alt) in alts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    match alt {
                        CoreAlt::Con { con, binders, rhs } => {
                            write!(f, "{con}")?;
                            for (x, _) in binders {
                                write!(f, " {x}")?;
                            }
                            write!(f, " -> {rhs}")?;
                        }
                        CoreAlt::Lit { lit, rhs } => write!(f, "{lit} -> {rhs}")?,
                        CoreAlt::Tuple { binders, rhs } => {
                            write!(f, "(#")?;
                            for (i, (x, _)) in binders.iter().enumerate() {
                                if i > 0 {
                                    write!(f, ",")?;
                                }
                                write!(f, " {x}")?;
                            }
                            write!(f, " #) -> {rhs}")?;
                        }
                        CoreAlt::Default { binder, rhs } => match binder {
                            Some((x, _)) => write!(f, "{x} -> {rhs}")?,
                            None => write!(f, "_ -> {rhs}")?,
                        },
                    }
                }
                write!(f, "}}")
            }
            CoreExpr::Con(con, _, fields) => {
                write!(f, "{con}")?;
                for field in fields {
                    write!(f, " ({field})")?;
                }
                Ok(())
            }
            CoreExpr::Prim(op, args) => {
                write!(f, "({op}")?;
                for a in args {
                    write!(f, " {a}")?;
                }
                write!(f, ")")
            }
            CoreExpr::Tuple(es) => {
                write!(f, "(#")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, " {e}")?;
                }
                write!(f, " #)")
            }
            CoreExpr::Error(t, msg) => write!(f, "error @({t}) \"{msg}\""),
        }
    }
}

/// A top-level binding.
#[derive(Clone, Debug, PartialEq)]
pub struct TopBind {
    /// The binding's name.
    pub name: Symbol,
    /// Its (checked) type; may be levity-polymorphic.
    pub ty: Type,
    /// The right-hand side.
    pub expr: CoreExpr,
}

/// A complete Core program: datatypes plus top-level bindings. All
/// top-level bindings are mutually recursive (they compile to `M`
/// globals).
///
/// Bindings sit behind `Arc`s so programs can share them: a module
/// compiled after the prelude holds the prelude's bindings, not copies,
/// and a pass that keeps a binding unchanged may keep its `Arc`.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Datatype declarations (prelude + user).
    pub data_decls: Vec<Arc<DataDecl>>,
    /// Top-level value bindings.
    pub bindings: Vec<Arc<TopBind>>,
}

impl Program {
    /// Finds a binding by name.
    pub fn binding(&self, name: Symbol) -> Option<&TopBind> {
        self.bindings.iter().find(|b| b.name == name).map(|b| &**b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::builtins;

    #[test]
    fn instantiation_of_just() {
        let b = builtins();
        let (fields, result) = b
            .just
            .instantiate(&[TyArg::Ty(Type::con0(&b.int))])
            .unwrap();
        assert_eq!(fields[0].to_string(), "Int");
        assert_eq!(result.to_string(), "Maybe Int");
    }

    #[test]
    fn instantiation_arity_mismatch_is_detected() {
        let b = builtins();
        assert!(b.just.instantiate(&[]).is_none());
        assert!(b
            .just
            .instantiate(&[TyArg::Rep(levity_core::rep::RepTy::LIFTED)])
            .is_none());
    }

    #[test]
    fn display_of_core_terms() {
        let b = builtins();
        let e = CoreExpr::lam(
            "x",
            Type::con0(&b.int_hash),
            CoreExpr::Prim(
                PrimOp::AddI,
                vec![CoreExpr::Var("x".into()), CoreExpr::int(1)],
            ),
        );
        assert_eq!(e.to_string(), "\\(x :: Int#) -> (+# x 1#)");
    }

    #[test]
    fn size_counts_nodes() {
        let e = CoreExpr::app(CoreExpr::Var("f".into()), CoreExpr::int(1));
        assert_eq!(e.size(), 3);
    }

    #[test]
    fn program_lookup() {
        let b = builtins();
        let prog = Program {
            data_decls: b.data_decls.clone(),
            bindings: vec![Arc::new(TopBind {
                name: "main".into(),
                ty: Type::con0(&b.int),
                expr: CoreExpr::int(0),
            })],
        };
        assert!(prog.binding("main".into()).is_some());
        assert!(prog.binding("nope".into()).is_none());
    }
}
