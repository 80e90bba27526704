//! Kinding and type checking for Core ("lint", in GHC terms).
//!
//! Core is explicitly typed, so checking is syntax-directed. Notably —
//! and unlike the formal `L` — the checker here does *not* enforce the
//! §5.1 levity restrictions: GHC performs those after type checking, in
//! the desugarer (§8.2), and so do we (see [`crate::levity`]). This split
//! lets the pipeline demonstrate the paper's point that the checks are
//! separable.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use levity_core::kind::Kind;
use levity_core::rep::{normalize_tuple, RepTy};
use levity_core::symbol::Symbol;
use levity_m::syntax::{Literal, PrimOp};

use crate::builtin::{builtins, prim_signature, Builtins};
use crate::terms::{
    CoreAlt, CoreExpr, DataConInfo, DataDecl, LetKind, Program, TopBind, TyArg, TyParam,
};
use crate::types::{TyCon, Type};

/// A Core checking error.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreError {
    /// Unbound term variable.
    UnboundVar(Symbol),
    /// Unbound global.
    UnboundGlobal(Symbol),
    /// Unbound type variable.
    UnboundTyVar(Symbol),
    /// Unbound representation variable.
    UnboundRepVar(Symbol),
    /// Unknown type constructor.
    UnknownTyCon(Symbol),
    /// Expected a function type.
    NotAFunction(Type),
    /// Expected a forall type.
    NotAForall(Type),
    /// Type mismatch.
    Mismatch {
        /// Expected type.
        expected: Type,
        /// Actual type.
        actual: Type,
    },
    /// Kind mismatch.
    KindMismatch {
        /// Expected kind.
        expected: Kind,
        /// Actual kind.
        actual: Kind,
    },
    /// A type that should classify values (kind `TYPE ρ`) does not.
    NotAValueKind(Type, Kind),
    /// A representation variable escapes its `forall`'s scope through the
    /// kind (T_ALLREP's side condition, generalized).
    RepEscapes(Symbol, Type),
    /// Constructor applied at wrong arity (types or fields).
    ConArity(Symbol),
    /// Primop applied at wrong arity.
    PrimArity(PrimOp),
    /// A case alternative doesn't match the scrutinee's type.
    AltMismatch(String),
    /// Case with no alternatives.
    EmptyCase,
    /// A recursive let binder must be lifted (it becomes a heap thunk).
    RecBinderNotLifted(Symbol, Type),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnboundVar(x) => write!(f, "unbound variable `{x}`"),
            CoreError::UnboundGlobal(x) => write!(f, "unbound global `{x}`"),
            CoreError::UnboundTyVar(a) => write!(f, "unbound type variable `{a}`"),
            CoreError::UnboundRepVar(r) => write!(f, "unbound representation variable `{r}`"),
            CoreError::UnknownTyCon(t) => write!(f, "unknown type constructor `{t}`"),
            CoreError::NotAFunction(t) => write!(f, "expected a function type, got `{t}`"),
            CoreError::NotAForall(t) => write!(f, "expected a forall type, got `{t}`"),
            CoreError::Mismatch { expected, actual } => {
                write!(f, "type mismatch: expected `{expected}`, got `{actual}`")
            }
            CoreError::KindMismatch { expected, actual } => {
                write!(f, "kind mismatch: expected `{expected}`, got `{actual}`")
            }
            CoreError::NotAValueKind(t, k) => {
                write!(
                    f,
                    "type `{t}` has kind `{k}`, which does not classify values"
                )
            }
            CoreError::RepEscapes(r, t) => {
                write!(
                    f,
                    "representation variable `{r}` escapes in the kind of `{t}`"
                )
            }
            CoreError::ConArity(c) => write!(f, "constructor `{c}` applied at wrong arity"),
            CoreError::PrimArity(op) => write!(f, "primop `{op}` applied at wrong arity"),
            CoreError::AltMismatch(msg) => write!(f, "case alternative mismatch: {msg}"),
            CoreError::EmptyCase => write!(f, "case expression with no alternatives"),
            CoreError::RecBinderNotLifted(x, t) => write!(
                f,
                "recursive binder `{x}` has unlifted type `{t}`; recursion requires a thunk"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

/// The global environment: type constructors, data constructors and
/// top-level value types.
#[derive(Clone, Debug)]
pub struct TypeEnv {
    /// The built-in types and constructors.
    pub builtins: Builtins,
    tycons: HashMap<Symbol, Arc<TyCon>>,
    datacons: HashMap<Symbol, Arc<DataConInfo>>,
    datatypes: HashMap<Symbol, Arc<DataDecl>>,
    globals: HashMap<Symbol, Type>,
}

impl Default for TypeEnv {
    fn default() -> Self {
        TypeEnv::new()
    }
}

impl TypeEnv {
    /// An environment preloaded with the built-ins.
    pub fn new() -> TypeEnv {
        let b = builtins();
        let mut env = TypeEnv {
            builtins: b.clone(),
            tycons: HashMap::new(),
            datacons: HashMap::new(),
            datatypes: HashMap::new(),
            globals: HashMap::new(),
        };
        for tc in [
            &b.int_hash,
            &b.char_hash,
            &b.float_hash,
            &b.double_hash,
            &b.byte_array_hash,
            &b.array_hash,
        ] {
            env.tycons.insert(tc.name, Arc::clone(tc));
        }
        for decl in &b.data_decls {
            env.add_data_decl(Arc::clone(decl));
        }
        env
    }

    /// Registers a datatype declaration (type constructor and all of its
    /// data constructors).
    pub fn add_data_decl(&mut self, decl: Arc<DataDecl>) {
        self.tycons.insert(decl.tycon.name, Arc::clone(&decl.tycon));
        for con in &decl.cons {
            self.datacons.insert(con.name, Arc::clone(con));
        }
        self.datatypes.insert(decl.tycon.name, decl);
    }

    /// Declares a top-level value's type.
    pub fn define_global(&mut self, name: impl Into<Symbol>, ty: Type) {
        self.globals.insert(name.into(), ty);
    }

    /// Registers a standalone data constructor (used for generated
    /// class-dictionary constructors, which have no ordinary tycon).
    pub fn add_datacon(&mut self, con: Arc<DataConInfo>) {
        self.datacons.insert(con.name, con);
    }

    /// Looks up a type constructor.
    pub fn tycon(&self, name: Symbol) -> Option<&Arc<TyCon>> {
        self.tycons.get(&name)
    }

    /// Looks up a data constructor.
    pub fn datacon(&self, name: Symbol) -> Option<&Arc<DataConInfo>> {
        self.datacons.get(&name)
    }

    /// Looks up a datatype declaration by its type constructor name.
    pub fn datatype(&self, name: Symbol) -> Option<&Arc<DataDecl>> {
        self.datatypes.get(&name)
    }

    /// Looks up a global's type.
    pub fn global(&self, name: Symbol) -> Option<&Type> {
        self.globals.get(&name)
    }

    /// Iterates over all globals.
    pub fn globals(&self) -> impl Iterator<Item = (&Symbol, &Type)> {
        self.globals.iter()
    }
}

/// A lexical scope entry.
#[derive(Clone, Debug)]
pub enum ScopeEntry {
    /// A term variable with its type.
    Term(Type),
    /// A type variable with its kind.
    TyVar(Kind),
    /// A representation variable.
    RepVar,
}

/// The lexical scope used during checking.
#[derive(Clone, Debug, Default)]
pub struct Scope {
    entries: Vec<(Symbol, ScopeEntry)>,
}

impl Scope {
    /// An empty scope.
    pub fn new() -> Scope {
        Scope::default()
    }

    /// Pushes an entry; pair with [`Scope::pop`].
    pub fn push(&mut self, name: Symbol, entry: ScopeEntry) {
        self.entries.push((name, entry));
    }

    /// Pops the most recent entry.
    pub fn pop(&mut self) {
        self.entries.pop().expect("popped empty scope");
    }

    /// The type of a term variable.
    pub fn term(&self, name: Symbol) -> Option<&Type> {
        self.entries.iter().rev().find_map(|(n, e)| match e {
            ScopeEntry::Term(t) if *n == name => Some(t),
            _ => None,
        })
    }

    /// The kind of a type variable.
    pub fn ty_var(&self, name: Symbol) -> Option<&Kind> {
        self.entries.iter().rev().find_map(|(n, e)| match e {
            ScopeEntry::TyVar(k) if *n == name => Some(k),
            _ => None,
        })
    }

    /// Is a representation variable in scope?
    pub fn has_rep_var(&self, name: Symbol) -> bool {
        self.entries
            .iter()
            .rev()
            .any(|(n, e)| *n == name && matches!(e, ScopeEntry::RepVar))
    }
}

/// Checks that every rep variable in `rep` is in scope.
fn check_rep_scoped(scope: &Scope, rep: &RepTy) -> Result<(), CoreError> {
    for v in rep.free_vars() {
        if !scope.has_rep_var(v) {
            return Err(CoreError::UnboundRepVar(v));
        }
    }
    Ok(())
}

/// Checks that every rep variable in `kind` is in scope.
fn check_kind_scoped(scope: &Scope, kind: &Kind) -> Result<(), CoreError> {
    for v in kind.free_rep_vars() {
        if !scope.has_rep_var(v) {
            return Err(CoreError::UnboundRepVar(v));
        }
    }
    Ok(())
}

/// Computes the kind of a type (`Γ ⊢ τ : κ`, generalized from Figure 3).
// `env` is part of the judgment's signature even though the current rule
// set only consults it through recursive calls.
#[allow(clippy::only_used_in_recursion)]
pub fn kind_of(env: &TypeEnv, scope: &mut Scope, ty: &Type) -> Result<Kind, CoreError> {
    match ty {
        Type::Con(tc, args) => {
            let mut kind = tc.kind.clone();
            for arg in args {
                match kind {
                    Kind::Arrow(expected, rest) => {
                        let actual = kind_of(env, scope, arg)?;
                        if actual != *expected {
                            return Err(CoreError::KindMismatch {
                                expected: *expected,
                                actual,
                            });
                        }
                        kind = *rest;
                    }
                    other => {
                        return Err(CoreError::KindMismatch {
                            expected: Kind::arrow(Kind::TYPE, Kind::TYPE),
                            actual: other,
                        })
                    }
                }
            }
            Ok(kind)
        }
        Type::Var(v) => scope.ty_var(*v).cloned().ok_or(CoreError::UnboundTyVar(*v)),
        // The §4.3 arrow: (->) :: forall r1 r2. TYPE r1 -> TYPE r2 -> Type.
        // Both sides may have *any* representation; the arrow itself is
        // boxed and lifted.
        Type::Fun(a, b) => {
            let ka = kind_of(env, scope, a)?;
            if !ka.classifies_values() {
                return Err(CoreError::NotAValueKind((**a).clone(), ka));
            }
            let kb = kind_of(env, scope, b)?;
            if !kb.classifies_values() {
                return Err(CoreError::NotAValueKind((**b).clone(), kb));
            }
            Ok(Kind::TYPE)
        }
        // Quantifiers are erased, so the forall's kind is its body's
        // (T_ALLTY / T_ALLREP).
        Type::ForallTy(a, k, body) => {
            check_kind_scoped(scope, k)?;
            scope.push(*a, ScopeEntry::TyVar(k.clone()));
            let out = kind_of(env, scope, body);
            scope.pop();
            out
        }
        Type::ForallRep(r, body) => {
            scope.push(*r, ScopeEntry::RepVar);
            let out = kind_of(env, scope, body);
            scope.pop();
            let out = out?;
            if out.free_rep_vars().contains(r) {
                return Err(CoreError::RepEscapes(*r, (**body).clone()));
            }
            Ok(out)
        }
        // (# τ₁, …, τₙ #) :: TYPE (TupleRep '[ρ₁, …, ρₙ]) (§4.2).
        Type::UnboxedTuple(ts) => {
            let mut reps = Vec::with_capacity(ts.len());
            for t in ts {
                match kind_of(env, scope, t)? {
                    Kind::Type(rep) => reps.push(rep),
                    other => return Err(CoreError::NotAValueKind(t.clone(), other)),
                }
            }
            Ok(Kind::Type(normalize_tuple(reps)))
        }
        // Dictionaries are boxed, lifted records (§7.3) whose argument
        // may live at any representation: Num :: TYPE r -> Type.
        Type::Dict(_, t) => {
            let k = kind_of(env, scope, t)?;
            if !k.classifies_values() {
                return Err(CoreError::NotAValueKind((**t).clone(), k));
            }
            Ok(Kind::TYPE)
        }
    }
}

/// The type of a literal.
pub fn literal_type(env: &TypeEnv, lit: Literal) -> Type {
    let b = &env.builtins;
    match lit {
        Literal::Int(_) => Type::con0(&b.int_hash),
        Literal::Char(_) => Type::con0(&b.char_hash),
        Literal::FloatBits(_) => Type::con0(&b.float_hash),
        Literal::DoubleBits(_) => Type::con0(&b.double_hash),
    }
}

/// Matches a constructor's declared result type against a concrete
/// scrutinee type, recovering the type arguments.
pub fn match_con_result(con: &DataConInfo, scrut_ty: &Type) -> Option<Vec<TyArg>> {
    // The declared result is T p₁ … pₙ (or a dictionary type) with the
    // params appearing as distinct variables; walk both in lockstep.
    let mut subst: HashMap<Symbol, TyArg> = HashMap::new();
    fn walk(pattern: &Type, actual: &Type, subst: &mut HashMap<Symbol, TyArg>) -> bool {
        match (pattern, actual) {
            (Type::Var(v), t) => {
                subst.insert(*v, TyArg::Ty(t.clone()));
                true
            }
            (Type::Con(c1, a1), Type::Con(c2, a2)) => {
                c1.name == c2.name
                    && a1.len() == a2.len()
                    && a1.iter().zip(a2).all(|(p, a)| walk(p, a, subst))
            }
            (Type::Dict(c1, t1), Type::Dict(c2, t2)) => c1 == c2 && walk(t1, t2, subst),
            _ => pattern.alpha_eq(actual),
        }
    }
    if !walk(&con.result, scrut_ty, &mut subst) {
        return None;
    }
    // Rep params are recovered from the kind positions via the matched
    // type args; for the datatypes in this reproduction, rep params only
    // occur in class dictionaries where the rep is determined by the type
    // argument's kind, so we fill them opportunistically.
    let mut out = Vec::with_capacity(con.params.len());
    for p in &con.params {
        match p {
            TyParam::Ty(v, _) => match subst.get(v) {
                Some(arg) => out.push(arg.clone()),
                None => return None,
            },
            TyParam::Rep(v) => {
                // Find a matched type whose declared kind mentions `v`;
                // the instance rep is that type's actual kind rep. This
                // is only exercised by dictionary datatypes.
                let mut found = None;
                for q in &con.params {
                    if let TyParam::Ty(tv, k) = q {
                        if k.free_rep_vars().contains(v) {
                            if let Some(TyArg::Ty(_t)) = subst.get(tv) {
                                found = Some(TyArg::Rep(RepTy::Var(*v)));
                            }
                        }
                    }
                }
                match found {
                    Some(arg) => out.push(arg),
                    None => return None,
                }
            }
        }
    }
    Some(out)
}

/// Resolves a constructor's type arguments against a scrutinee type,
/// filling representation parameters from the *kinds* of the matched
/// type arguments (needed for levity-polymorphic dictionary
/// constructors, §7.3, whose first parameters are `Rep`s).
pub fn resolve_con_tyargs(
    env: &TypeEnv,
    scope: &mut Scope,
    con: &DataConInfo,
    scrut_ty: &Type,
) -> Option<Vec<TyArg>> {
    let mut args = match_con_result(con, scrut_ty)?;
    for (i, p) in con.params.iter().enumerate() {
        if let TyParam::Rep(v) = p {
            let mut found = None;
            for (j, q) in con.params.iter().enumerate() {
                if let TyParam::Ty(_, Kind::Type(RepTy::Var(w))) = q {
                    if w == v {
                        if let TyArg::Ty(t) = &args[j] {
                            if let Ok(Kind::Type(rep)) = kind_of(env, scope, &t.clone()) {
                                found = Some(rep);
                            }
                        }
                    }
                }
            }
            args[i] = TyArg::Rep(found?);
        }
    }
    Some(args)
}

/// Computes the type of a Core expression (`Γ ⊢ e : τ`).
///
/// # Errors
///
/// Returns the first [`CoreError`] found; spans are not tracked at the
/// Core level (the surface pipeline reports errors before Core).
pub fn type_of(env: &TypeEnv, scope: &mut Scope, e: &CoreExpr) -> Result<Type, CoreError> {
    match e {
        CoreExpr::Var(x) => scope.term(*x).cloned().ok_or(CoreError::UnboundVar(*x)),
        CoreExpr::Global(g) => env.global(*g).cloned().ok_or(CoreError::UnboundGlobal(*g)),
        CoreExpr::Lit(l) => Ok(literal_type(env, *l)),
        CoreExpr::App(f, a) => {
            let fun_ty = type_of(env, scope, f)?;
            let arg_ty = type_of(env, scope, a)?;
            match fun_ty {
                Type::Fun(dom, cod) => {
                    if !dom.alpha_eq(&arg_ty) {
                        return Err(CoreError::Mismatch {
                            expected: *dom,
                            actual: arg_ty,
                        });
                    }
                    Ok(*cod)
                }
                other => Err(CoreError::NotAFunction(other)),
            }
        }
        CoreExpr::TyApp(f, arg) => {
            let fun_ty = type_of(env, scope, f)?;
            match fun_ty {
                Type::ForallTy(v, k, body) => {
                    let arg_kind = kind_of(env, scope, arg)?;
                    if arg_kind != k {
                        return Err(CoreError::KindMismatch {
                            expected: k,
                            actual: arg_kind,
                        });
                    }
                    Ok(body.subst_ty(v, arg))
                }
                other => Err(CoreError::NotAForall(other)),
            }
        }
        CoreExpr::RepApp(f, rep) => {
            let fun_ty = type_of(env, scope, f)?;
            check_rep_scoped(scope, rep)?;
            match fun_ty {
                Type::ForallRep(r, body) => Ok(body.subst_rep(r, rep)),
                other => Err(CoreError::NotAForall(other)),
            }
        }
        CoreExpr::Lam(x, ty, body) => {
            let k = kind_of(env, scope, ty)?;
            if !k.classifies_values() {
                return Err(CoreError::NotAValueKind(ty.clone(), k));
            }
            scope.push(*x, ScopeEntry::Term(ty.clone()));
            let body_ty = type_of(env, scope, body);
            scope.pop();
            Ok(Type::fun(ty.clone(), body_ty?))
        }
        CoreExpr::TyLam(a, k, body) => {
            check_kind_scoped(scope, k)?;
            scope.push(*a, ScopeEntry::TyVar(k.clone()));
            let body_ty = type_of(env, scope, body);
            scope.pop();
            Ok(Type::forall_ty(*a, k.clone(), body_ty?))
        }
        CoreExpr::RepLam(r, body) => {
            scope.push(*r, ScopeEntry::RepVar);
            let body_ty = type_of(env, scope, body);
            scope.pop();
            let result = Type::forall_rep(*r, body_ty?);
            // Validate the result kind (rep-escape check).
            kind_of(env, scope, &result)?;
            Ok(result)
        }
        CoreExpr::Let(kind, x, ty, rhs, body) => {
            let declared_kind = kind_of(env, scope, ty)?;
            if !declared_kind.classifies_values() {
                return Err(CoreError::NotAValueKind(ty.clone(), declared_kind.clone()));
            }
            if *kind == LetKind::Rec {
                // A recursive binding becomes a cyclic heap thunk; it must
                // be boxed and lifted.
                if declared_kind != Kind::TYPE {
                    return Err(CoreError::RecBinderNotLifted(*x, ty.clone()));
                }
                scope.push(*x, ScopeEntry::Term(ty.clone()));
                let rhs_ty = type_of(env, scope, rhs);
                scope.pop();
                let rhs_ty = rhs_ty?;
                if !rhs_ty.alpha_eq(ty) {
                    return Err(CoreError::Mismatch {
                        expected: ty.clone(),
                        actual: rhs_ty,
                    });
                }
            } else {
                let rhs_ty = type_of(env, scope, rhs)?;
                if !rhs_ty.alpha_eq(ty) {
                    return Err(CoreError::Mismatch {
                        expected: ty.clone(),
                        actual: rhs_ty,
                    });
                }
            }
            scope.push(*x, ScopeEntry::Term(ty.clone()));
            let body_ty = type_of(env, scope, body);
            scope.pop();
            body_ty
        }
        CoreExpr::Case(scrut, alts) => {
            let scrut_ty = type_of(env, scope, scrut)?;
            if alts.is_empty() {
                return Err(CoreError::EmptyCase);
            }
            let mut result: Option<Type> = None;
            for alt in alts {
                let rhs_ty = match alt {
                    CoreAlt::Con { con, binders, rhs } => {
                        let ty_args =
                            resolve_con_tyargs(env, scope, con, &scrut_ty).ok_or_else(|| {
                                CoreError::AltMismatch(format!(
                                    "constructor {} does not build `{}`",
                                    con.name, scrut_ty
                                ))
                            })?;
                        let (fields, _result) = con
                            .instantiate(&ty_args)
                            .ok_or(CoreError::ConArity(con.name))?;
                        if fields.len() != binders.len() {
                            return Err(CoreError::ConArity(con.name));
                        }
                        for ((x, declared), actual) in binders.iter().zip(&fields) {
                            if !declared.alpha_eq(actual) {
                                return Err(CoreError::AltMismatch(format!(
                                    "binder {x} declared `{declared}`, field is `{actual}`"
                                )));
                            }
                        }
                        for (x, t) in binders {
                            scope.push(*x, ScopeEntry::Term(t.clone()));
                        }
                        let out = type_of(env, scope, rhs);
                        for _ in binders {
                            scope.pop();
                        }
                        out?
                    }
                    CoreAlt::Lit { lit, rhs } => {
                        let lit_ty = literal_type(env, *lit);
                        if !lit_ty.alpha_eq(&scrut_ty) {
                            return Err(CoreError::AltMismatch(format!(
                                "literal {lit} does not match scrutinee type `{scrut_ty}`"
                            )));
                        }
                        type_of(env, scope, rhs)?
                    }
                    CoreAlt::Tuple { binders, rhs } => {
                        let Type::UnboxedTuple(ts) = &scrut_ty else {
                            return Err(CoreError::AltMismatch(format!(
                                "unboxed tuple pattern on scrutinee of type `{scrut_ty}`"
                            )));
                        };
                        if ts.len() != binders.len() {
                            return Err(CoreError::AltMismatch(
                                "unboxed tuple arity mismatch".to_owned(),
                            ));
                        }
                        for ((x, declared), actual) in binders.iter().zip(ts) {
                            if !declared.alpha_eq(actual) {
                                return Err(CoreError::AltMismatch(format!(
                                    "tuple binder {x} declared `{declared}`, component is `{actual}`"
                                )));
                            }
                        }
                        for (x, t) in binders {
                            scope.push(*x, ScopeEntry::Term(t.clone()));
                        }
                        let out = type_of(env, scope, rhs);
                        for _ in binders {
                            scope.pop();
                        }
                        out?
                    }
                    CoreAlt::Default { binder, rhs } => match binder {
                        Some((x, t)) => {
                            if !t.alpha_eq(&scrut_ty) {
                                return Err(CoreError::AltMismatch(format!(
                                    "default binder {x} declared `{t}`, scrutinee is `{scrut_ty}`"
                                )));
                            }
                            scope.push(*x, ScopeEntry::Term(t.clone()));
                            let out = type_of(env, scope, rhs);
                            scope.pop();
                            out?
                        }
                        None => type_of(env, scope, rhs)?,
                    },
                };
                match &result {
                    None => result = Some(rhs_ty),
                    Some(prev) => {
                        if !prev.alpha_eq(&rhs_ty) {
                            return Err(CoreError::AltMismatch(format!(
                                "alternative types differ: `{prev}` vs `{rhs_ty}`"
                            )));
                        }
                    }
                }
            }
            Ok(result.expect("non-empty alts"))
        }
        CoreExpr::Con(con, ty_args, fields) => {
            for arg in ty_args {
                match arg {
                    TyArg::Ty(t) => {
                        kind_of(env, scope, t)?;
                    }
                    TyArg::Rep(r) => check_rep_scoped(scope, r)?,
                }
            }
            let (field_tys, result) = con
                .instantiate(ty_args)
                .ok_or(CoreError::ConArity(con.name))?;
            if field_tys.len() != fields.len() {
                return Err(CoreError::ConArity(con.name));
            }
            for (expected, field) in field_tys.iter().zip(fields) {
                let actual = type_of(env, scope, field)?;
                if !expected.alpha_eq(&actual) {
                    return Err(CoreError::Mismatch {
                        expected: expected.clone(),
                        actual,
                    });
                }
            }
            Ok(result)
        }
        CoreExpr::Prim(op, args) => {
            let (expected, result) = prim_signature(*op, &env.builtins);
            if expected.len() != args.len() {
                return Err(CoreError::PrimArity(*op));
            }
            for (exp, arg) in expected.iter().zip(args) {
                let actual = type_of(env, scope, arg)?;
                if !exp.alpha_eq(&actual) {
                    return Err(CoreError::Mismatch {
                        expected: exp.clone(),
                        actual,
                    });
                }
            }
            Ok(result)
        }
        CoreExpr::Tuple(es) => {
            let mut tys = Vec::with_capacity(es.len());
            for e in es {
                let t = type_of(env, scope, e)?;
                let k = kind_of(env, scope, &t)?;
                if !k.classifies_values() {
                    return Err(CoreError::NotAValueKind(t, k));
                }
                tys.push(t);
            }
            Ok(Type::UnboxedTuple(tys))
        }
        CoreExpr::Error(ty, _) => {
            let k = kind_of(env, scope, ty)?;
            if !k.classifies_values() {
                return Err(CoreError::NotAValueKind(ty.clone(), k));
            }
            Ok(ty.clone())
        }
    }
}

/// Checks a whole program: registers its datatypes and global types,
/// then checks every binding against its declared type.
///
/// # Errors
///
/// The first [`CoreError`], annotated with the binding's name.
pub fn check_program(prog: &Program) -> Result<TypeEnv, (Symbol, CoreError)> {
    let mut env = TypeEnv::new();
    check_module(&mut env, &prog.data_decls, &prog.bindings)?;
    Ok(env)
}

/// Checks one module's bindings against `env`, which already covers
/// everything they refer to outside the module, and extends `env` with
/// the module's datatypes and globals. [`check_program`] is this over
/// an empty environment; checking a program module by module, each
/// referring only to itself and the modules before it, gives the same
/// verdict and the same final environment.
///
/// # Errors
///
/// The first [`CoreError`], annotated with the binding's name.
pub fn check_module<'a>(
    env: &mut TypeEnv,
    data_decls: impl IntoIterator<Item = &'a Arc<DataDecl>>,
    bindings: impl IntoIterator<Item = &'a TopBind> + Clone,
) -> Result<(), (Symbol, CoreError)> {
    for decl in data_decls {
        env.add_data_decl(Arc::clone(decl));
    }
    // Globals first: all top-level bindings are mutually recursive.
    for bind in bindings.clone() {
        env.define_global(bind.name, bind.ty.clone());
    }
    for bind in bindings {
        let mut scope = Scope::new();
        kind_of(env, &mut scope, &bind.ty).map_err(|e| (bind.name, e))?;
        let actual = type_of(env, &mut scope, &bind.expr).map_err(|e| (bind.name, e))?;
        if !actual.alpha_eq(&bind.ty) {
            return Err((
                bind.name,
                CoreError::Mismatch {
                    expected: bind.ty.clone(),
                    actual,
                },
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terms::TopBind;
    use levity_core::rep::Rep;

    fn env() -> TypeEnv {
        TypeEnv::new()
    }

    #[test]
    fn literals_and_cons() {
        let env = env();
        let mut scope = Scope::new();
        assert_eq!(
            type_of(&env, &mut scope, &CoreExpr::int(3))
                .unwrap()
                .to_string(),
            "Int#"
        );
        let boxed = CoreExpr::Con(
            Arc::clone(&env.builtins.i_hash),
            vec![],
            vec![CoreExpr::int(3)],
        );
        assert_eq!(
            type_of(&env, &mut scope, &boxed).unwrap().to_string(),
            "Int"
        );
    }

    #[test]
    fn int_hash_to_int_hash_functions_are_well_kinded() {
        // The §3.2 problem solved: Int# -> Int# is a fine type, because
        // (->) is levity-polymorphic in both arguments.
        let env = env();
        let mut scope = Scope::new();
        let t = Type::fun(
            Type::con0(&env.builtins.int_hash),
            Type::con0(&env.builtins.int_hash),
        );
        assert_eq!(kind_of(&env, &mut scope, &t).unwrap(), Kind::TYPE);
    }

    #[test]
    fn unboxed_tuple_kinds_follow_section_4_2() {
        let env = env();
        let mut scope = Scope::new();
        let t = Type::UnboxedTuple(vec![
            Type::con0(&env.builtins.int_hash),
            Type::con0(&env.builtins.bool),
        ]);
        assert_eq!(
            kind_of(&env, &mut scope, &t).unwrap().to_string(),
            "TYPE (TupleRep '[IntRep, LiftedRep])"
        );
        // Nested vs flat: distinct kinds (§4.2).
        let nested = Type::UnboxedTuple(vec![
            Type::con0(&env.builtins.int),
            Type::UnboxedTuple(vec![
                Type::con0(&env.builtins.float_hash),
                Type::con0(&env.builtins.bool),
            ]),
        ]);
        let flat = Type::UnboxedTuple(vec![
            Type::con0(&env.builtins.int),
            Type::con0(&env.builtins.float_hash),
            Type::con0(&env.builtins.bool),
        ]);
        let kn = kind_of(&env, &mut Scope::new(), &nested).unwrap();
        let kf = kind_of(&env, &mut Scope::new(), &flat).unwrap();
        assert_ne!(kn, kf, "nesting is kind-relevant");
        // ... but the *runtime* shape matches (computed via Rep::slots).
        let rn = kn.concrete_rep().unwrap();
        let rf = kf.concrete_rep().unwrap();
        assert_eq!(
            rn.slots(),
            rf.slots(),
            "nesting is computationally irrelevant"
        );
    }

    #[test]
    fn array_hash_can_be_partially_applied() {
        // §7.1: unlifted types no longer need to be fully saturated; the
        // kind system tracks them accurately. `Array#` alone has an arrow
        // kind; `Array# Int` has TYPE UnliftedRep.
        let env = env();
        let mut scope = Scope::new();
        let bare = Type::con0(&env.builtins.array_hash);
        assert_eq!(
            kind_of(&env, &mut scope, &bare).unwrap().to_string(),
            "Type -> TYPE UnliftedRep"
        );
        let applied = Type::Con(
            Arc::clone(&env.builtins.array_hash),
            vec![Type::con0(&env.builtins.int)],
        );
        assert_eq!(
            kind_of(&env, &mut scope, &applied).unwrap(),
            Kind::of_rep(Rep::Unlifted)
        );
    }

    #[test]
    fn apply_and_lambda() {
        let env = env();
        let mut scope = Scope::new();
        let ih = Type::con0(&env.builtins.int_hash);
        let e = CoreExpr::app(
            CoreExpr::lam("x", ih.clone(), CoreExpr::Var("x".into())),
            CoreExpr::int(1),
        );
        assert_eq!(type_of(&env, &mut scope, &e).unwrap().to_string(), "Int#");
    }

    #[test]
    fn levity_polymorphic_signatures_typecheck_here() {
        // myError :: forall (r :: Rep) (a :: TYPE r). Int -> a
        // The *type checker* accepts this; the §5.1 checks live in the
        // levity pass (GHC's desugarer, §8.2).
        let env = env();
        let mut scope = Scope::new();
        let r: Symbol = "r".into();
        let a: Symbol = "a".into();
        let e = CoreExpr::rep_lam(
            r,
            CoreExpr::ty_lam(
                a,
                Kind::of_rep_var(r),
                CoreExpr::lam(
                    "s",
                    Type::con0(&env.builtins.int),
                    CoreExpr::Error(Type::Var(a), "myError".to_owned()),
                ),
            ),
        );
        let t = type_of(&env, &mut scope, &e).unwrap();
        assert_eq!(t.to_string(), "forall (r :: Rep) (a :: TYPE r). Int -> a");
    }

    #[test]
    fn case_on_bool() {
        let env = env();
        let mut scope = Scope::new();
        let b = &env.builtins;
        let e = CoreExpr::case(
            CoreExpr::Con(Arc::clone(&b.true_con), vec![], vec![]),
            vec![
                CoreAlt::Con {
                    con: Arc::clone(&b.false_con),
                    binders: vec![],
                    rhs: CoreExpr::int(0),
                },
                CoreAlt::Con {
                    con: Arc::clone(&b.true_con),
                    binders: vec![],
                    rhs: CoreExpr::int(1),
                },
            ],
        );
        assert_eq!(type_of(&env, &mut scope, &e).unwrap().to_string(), "Int#");
    }

    #[test]
    fn case_alternatives_must_agree() {
        let env = env();
        let mut scope = Scope::new();
        let b = &env.builtins;
        let e = CoreExpr::case(
            CoreExpr::Con(Arc::clone(&b.true_con), vec![], vec![]),
            vec![
                CoreAlt::Con {
                    con: Arc::clone(&b.false_con),
                    binders: vec![],
                    rhs: CoreExpr::int(0),
                },
                CoreAlt::Con {
                    con: Arc::clone(&b.true_con),
                    binders: vec![],
                    rhs: CoreExpr::Lit(Literal::double(1.0)),
                },
            ],
        );
        assert!(matches!(
            type_of(&env, &mut scope, &e).unwrap_err(),
            CoreError::AltMismatch(_)
        ));
    }

    #[test]
    fn case_on_maybe_instantiates_fields() {
        let env = env();
        let mut scope = Scope::new();
        let b = &env.builtins;
        let maybe_int = Type::Con(Arc::clone(&b.maybe), vec![Type::con0(&b.int)]);
        let e = CoreExpr::case(
            CoreExpr::Con(
                Arc::clone(&b.just),
                vec![TyArg::Ty(Type::con0(&b.int))],
                vec![CoreExpr::Con(
                    Arc::clone(&b.i_hash),
                    vec![],
                    vec![CoreExpr::int(3)],
                )],
            ),
            vec![
                CoreAlt::Con {
                    con: Arc::clone(&b.nothing),
                    binders: vec![],
                    rhs: CoreExpr::int(0),
                },
                CoreAlt::Con {
                    con: Arc::clone(&b.just),
                    binders: vec![("v".into(), Type::con0(&b.int))],
                    rhs: CoreExpr::case(
                        CoreExpr::Var("v".into()),
                        vec![CoreAlt::Con {
                            con: Arc::clone(&b.i_hash),
                            binders: vec![("n".into(), Type::con0(&b.int_hash))],
                            rhs: CoreExpr::Var("n".into()),
                        }],
                    ),
                },
            ],
        );
        let _ = maybe_int;
        assert_eq!(type_of(&env, &mut scope, &e).unwrap().to_string(), "Int#");
    }

    #[test]
    fn recursive_let_must_be_lifted() {
        let env = env();
        let mut scope = Scope::new();
        let ih = Type::con0(&env.builtins.int_hash);
        let e = CoreExpr::Let(
            LetKind::Rec,
            "x".into(),
            ih.clone(),
            Box::new(CoreExpr::Var("x".into())),
            Box::new(CoreExpr::Var("x".into())),
        );
        assert!(matches!(
            type_of(&env, &mut scope, &e).unwrap_err(),
            CoreError::RecBinderNotLifted(..)
        ));
    }

    #[test]
    fn unboxed_tuple_expressions_and_patterns() {
        let env = env();
        let mut scope = Scope::new();
        let b = &env.builtins;
        let ih = Type::con0(&b.int_hash);
        // case (# 1#, 2# #) of (# a, b #) -> +# a b
        let e = CoreExpr::case(
            CoreExpr::Tuple(vec![CoreExpr::int(1), CoreExpr::int(2)]),
            vec![CoreAlt::Tuple {
                binders: vec![("a".into(), ih.clone()), ("b".into(), ih.clone())],
                rhs: CoreExpr::Prim(
                    PrimOp::AddI,
                    vec![CoreExpr::Var("a".into()), CoreExpr::Var("b".into())],
                ),
            }],
        );
        assert_eq!(type_of(&env, &mut scope, &e).unwrap().to_string(), "Int#");
    }

    #[test]
    fn whole_program_check() {
        let env0 = TypeEnv::new();
        let b = &env0.builtins;
        let ih = Type::con0(&b.int_hash);
        let prog = Program {
            data_decls: b.data_decls.clone(),
            bindings: vec![TopBind {
                name: "inc".into(),
                ty: Type::fun(ih.clone(), ih.clone()),
                expr: CoreExpr::lam(
                    "x",
                    ih.clone(),
                    CoreExpr::Prim(
                        PrimOp::AddI,
                        vec![CoreExpr::Var("x".into()), CoreExpr::int(1)],
                    ),
                ),
            }],
        };
        let env = check_program(&prog).unwrap();
        assert!(env.global("inc".into()).is_some());
    }

    #[test]
    fn program_check_reports_binding_name() {
        let env0 = TypeEnv::new();
        let b = &env0.builtins;
        let prog = Program {
            data_decls: b.data_decls.clone(),
            bindings: vec![TopBind {
                name: "bad".into(),
                ty: Type::con0(&b.int),
                expr: CoreExpr::int(1), // Int# , not Int
            }],
        };
        let (name, err) = check_program(&prog).unwrap_err();
        assert_eq!(name, Symbol::intern("bad"));
        assert!(matches!(err, CoreError::Mismatch { .. }));
    }
}
