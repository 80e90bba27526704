//! Kinding and type checking for Core ("lint", in GHC terms).
//!
//! Core is explicitly typed, so checking is syntax-directed. Unlike the
//! formal `L`, the type rules allow levity-polymorphic binders and
//! arguments: the §5.1 restrictions ([`crate::levity`]) run after type
//! inference, as GHC's desugarer runs them (§8.2), and report apart from
//! type errors. Handed a diagnostics sink, the walk that types a binding
//! applies them too ([`check_binding`]), as GHC's Core Lint checks
//! representation-polymorphic binders and arguments in the walk that
//! types them.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use levity_core::diag::Diagnostics;
use levity_core::kind::Kind;
use levity_core::rep::{normalize_tuple, RepTy};
use levity_core::symbol::Symbol;
use levity_m::syntax::{Literal, PrimOp};

use crate::builtin::{builtins, prim_signature, Builtins};
use crate::levity;
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
///
/// An environment may sit over a shared, read-only base
/// ([`TypeEnv::over`]): lookups fall through to the base,
/// [`TypeEnv::globals`] yields both, and every write goes to the
/// environment's own maps. A module checked after the prelude is checked
/// in an environment over the prelude's, so it copies none of it.
#[derive(Clone, Debug)]
pub struct TypeEnv {
    /// The built-in types and constructors.
    pub builtins: Arc<Builtins>,
    base: Option<Arc<TypeEnv>>,
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
    /// An environment preloaded with the built-ins: an empty one over
    /// the process's built-in environment, which is made once.
    pub fn new() -> TypeEnv {
        static BUILTINS: OnceLock<Arc<TypeEnv>> = OnceLock::new();
        TypeEnv::over(Arc::clone(
            BUILTINS.get_or_init(|| Arc::new(TypeEnv::builtin())),
        ))
    }

    /// The built-in environment itself.
    fn builtin() -> TypeEnv {
        let b = Arc::new(builtins());
        let mut env = TypeEnv {
            builtins: Arc::clone(&b),
            base: None,
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

    /// An empty environment over `base`: it sees everything `base`
    /// binds, and what is added to it stays out of `base`.
    pub fn over(base: Arc<TypeEnv>) -> TypeEnv {
        TypeEnv {
            builtins: Arc::clone(&base.builtins),
            base: Some(base),
            tycons: HashMap::new(),
            datacons: HashMap::new(),
            datatypes: HashMap::new(),
            globals: HashMap::new(),
        }
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
        self.tycons
            .get(&name)
            .or_else(|| self.base.as_deref()?.tycon(name))
    }

    /// Looks up a data constructor.
    pub fn datacon(&self, name: Symbol) -> Option<&Arc<DataConInfo>> {
        self.datacons
            .get(&name)
            .or_else(|| self.base.as_deref()?.datacon(name))
    }

    /// Looks up a datatype declaration by its type constructor name.
    pub fn datatype(&self, name: Symbol) -> Option<&Arc<DataDecl>> {
        self.datatypes
            .get(&name)
            .or_else(|| self.base.as_deref()?.datatype(name))
    }

    /// Looks up a global's type.
    pub fn global(&self, name: Symbol) -> Option<&Type> {
        self.globals
            .get(&name)
            .or_else(|| self.base.as_deref()?.global(name))
    }

    /// Iterates over all globals: the environment's own, then those of
    /// its base that it does not shadow.
    pub fn globals(&self) -> Box<dyn Iterator<Item = (&Symbol, &Type)> + '_> {
        let inherited = self
            .base
            .iter()
            .flat_map(|base| base.globals())
            .filter(|(name, _)| !self.globals.contains_key(name));
        Box::new(self.globals.iter().chain(inherited))
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
    synth(env, scope, e, &mut None)
}

/// [`type_of`]'s walk. Handed a sink, it also pushes each §5.1 violation
/// as it meets it: restriction 1 at every λ, `let` and case binder,
/// restriction 2 at every application argument, scrutinee, constructor
/// field, primop argument and tuple component.
pub(crate) fn synth(
    env: &TypeEnv,
    scope: &mut Scope,
    e: &CoreExpr,
    sink: &mut Option<&mut Diagnostics>,
) -> Result<Type, CoreError> {
    match e {
        CoreExpr::Var(x) => scope.term(*x).cloned().ok_or(CoreError::UnboundVar(*x)),
        CoreExpr::Global(g) => env.global(*g).cloned().ok_or(CoreError::UnboundGlobal(*g)),
        CoreExpr::Lit(l) => Ok(literal_type(env, *l)),
        CoreExpr::App(f, a) => {
            let fun_ty = synth(env, scope, f, sink)?;
            let arg_ty = synth(env, scope, a, sink)?;
            moved(env, scope, &arg_ty, sink);
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
            let fun_ty = synth(env, scope, f, sink)?;
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
            let fun_ty = synth(env, scope, f, sink)?;
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
            if let Some(diags) = sink {
                levity::check_binder(diags, *x, ty, &k);
            }
            scope.push(*x, ScopeEntry::Term(ty.clone()));
            let body_ty = synth(env, scope, body, sink);
            scope.pop();
            Ok(Type::fun(ty.clone(), body_ty?))
        }
        CoreExpr::TyLam(a, k, body) => {
            check_kind_scoped(scope, k)?;
            scope.push(*a, ScopeEntry::TyVar(k.clone()));
            let body_ty = synth(env, scope, body, sink);
            scope.pop();
            Ok(Type::forall_ty(*a, k.clone(), body_ty?))
        }
        CoreExpr::RepLam(r, body) => {
            scope.push(*r, ScopeEntry::RepVar);
            let body_ty = synth(env, scope, body, sink);
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
            if let Some(diags) = sink {
                levity::check_binder(diags, *x, ty, &declared_kind);
            }
            if *kind == LetKind::Rec {
                // A recursive binding becomes a cyclic heap thunk; it must
                // be boxed and lifted.
                if declared_kind != Kind::TYPE {
                    return Err(CoreError::RecBinderNotLifted(*x, ty.clone()));
                }
                scope.push(*x, ScopeEntry::Term(ty.clone()));
                let rhs_ty = synth(env, scope, rhs, sink);
                scope.pop();
                let rhs_ty = rhs_ty?;
                if !rhs_ty.alpha_eq(ty) {
                    return Err(CoreError::Mismatch {
                        expected: ty.clone(),
                        actual: rhs_ty,
                    });
                }
            } else {
                let rhs_ty = synth(env, scope, rhs, sink)?;
                if !rhs_ty.alpha_eq(ty) {
                    return Err(CoreError::Mismatch {
                        expected: ty.clone(),
                        actual: rhs_ty,
                    });
                }
            }
            scope.push(*x, ScopeEntry::Term(ty.clone()));
            let body_ty = synth(env, scope, body, sink);
            scope.pop();
            body_ty
        }
        CoreExpr::Case(scrut, alts) => {
            let scrut_ty = synth(env, scope, scrut, sink)?;
            moved(env, scope, &scrut_ty, sink);
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
                            case_bound(env, scope, *x, t, sink);
                            scope.push(*x, ScopeEntry::Term(t.clone()));
                        }
                        let out = synth(env, scope, rhs, sink);
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
                        synth(env, scope, rhs, sink)?
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
                            case_bound(env, scope, *x, t, sink);
                            scope.push(*x, ScopeEntry::Term(t.clone()));
                        }
                        let out = synth(env, scope, rhs, sink);
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
                            case_bound(env, scope, *x, t, sink);
                            scope.push(*x, ScopeEntry::Term(t.clone()));
                            let out = synth(env, scope, rhs, sink);
                            scope.pop();
                            out?
                        }
                        None => synth(env, scope, rhs, sink)?,
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
                let actual = synth(env, scope, field, sink)?;
                moved(env, scope, &actual, sink);
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
                let actual = synth(env, scope, arg, sink)?;
                moved(env, scope, &actual, sink);
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
                let t = synth(env, scope, e, sink)?;
                let k = kind_of(env, scope, &t)?;
                if !k.classifies_values() {
                    return Err(CoreError::NotAValueKind(t, k));
                }
                if let Some(diags) = sink {
                    levity::check_moved(diags, &t, &k);
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

/// Restriction 1 at a case binder. The type rules never kind it, so a
/// kind error here is left unreported: it is no type error.
fn case_bound(
    env: &TypeEnv,
    scope: &mut Scope,
    x: Symbol,
    ty: &Type,
    sink: &mut Option<&mut Diagnostics>,
) {
    if let Some(diags) = sink {
        if let Ok(kind) = kind_of(env, scope, ty) {
            levity::check_binder(diags, x, ty, &kind);
        }
    }
}

/// Restriction 2 at a value of type `ty` moved into a register or the
/// heap. A kind error is left unreported, as at case binders.
fn moved(env: &TypeEnv, scope: &mut Scope, ty: &Type, sink: &mut Option<&mut Diagnostics>) {
    if let Some(diags) = sink {
        if let Ok(kind) = kind_of(env, scope, ty) {
            levity::check_moved(diags, ty, &kind);
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
    check_module(&mut env, &prog.data_decls, &prog.bindings, None)?;
    Ok(env)
}

/// Checks one module's bindings against `env`, which already covers
/// everything they refer to outside the module, and extends `env` with
/// the module's datatypes and globals. [`check_program`] is this over
/// an empty environment; checking a program module by module, each
/// referring only to itself and the modules before it, gives the same
/// verdict and the same final environment.
///
/// A `levity` sink gets every binding's §5.1 violations, in program
/// order ([`check_binding`]).
///
/// # Errors
///
/// The first [`CoreError`], annotated with the binding's name; it takes
/// precedence over what the sink holds.
pub fn check_module(
    env: &mut TypeEnv,
    data_decls: &[Arc<DataDecl>],
    bindings: &[Arc<TopBind>],
    mut levity: Option<&mut Diagnostics>,
) -> Result<(), (Symbol, CoreError)> {
    for decl in data_decls {
        env.add_data_decl(Arc::clone(decl));
    }
    // Globals first: all top-level bindings are mutually recursive.
    for bind in bindings {
        env.define_global(bind.name, bind.ty.clone());
    }
    for bind in bindings {
        check_binding(env, bind, levity.as_deref_mut())?;
    }
    Ok(())
}

/// Checks one binding against its declared type, in an `env` that
/// already binds every global the program defines: [`check_module`]'s
/// step per binding. Its verdict depends only on the binding, the types
/// of the globals its body mentions and the built-ins, so a caller that
/// knows which of those changed may re-check only the bindings they
/// touch.
///
/// A `levity` sink gets every §5.1 violation ([`crate::levity`]) the
/// walk meets, in order; the verdict does not change.
///
/// # Errors
///
/// The first [`CoreError`], annotated with the binding's name.
pub fn check_binding(
    env: &TypeEnv,
    bind: &TopBind,
    mut levity: Option<&mut Diagnostics>,
) -> Result<(), (Symbol, CoreError)> {
    let mut scope = Scope::new();
    kind_of(env, &mut scope, &bind.ty).map_err(|e| (bind.name, e))?;
    let actual = synth(env, &mut scope, &bind.expr, &mut levity).map_err(|e| (bind.name, e))?;
    if !actual.alpha_eq(&bind.ty) {
        return Err((
            bind.name,
            CoreError::Mismatch {
                expected: bind.ty.clone(),
                actual,
            },
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terms::TopBind;
    use levity_core::diag::ErrorCode;
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
        // The *type rules* accept this; the §5.1 rules (GHC's desugarer
        // checks, §8.2) apply only when the walk is handed a sink.
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
    fn an_environment_over_a_base_sees_it_shadows_it_and_leaves_it_alone() {
        let mut base = TypeEnv::new();
        let int = Type::con0(&base.builtins.int);
        let int_hash = Type::con0(&base.builtins.int_hash);
        base.define_global("shared", int.clone());
        base.define_global("shadowed", int.clone());
        let base = Arc::new(base);
        let mut env = TypeEnv::over(Arc::clone(&base));
        env.define_global("shadowed", int_hash.clone());
        env.define_global("own", int_hash.clone());
        assert_eq!(env.global("shared".into()), Some(&int));
        assert_eq!(env.global("shadowed".into()), Some(&int_hash));
        assert!(env.tycon(base.builtins.int.name).is_some());
        let mut globals: Vec<String> = env.globals().map(|(n, t)| format!("{n} {t}")).collect();
        globals.sort();
        assert_eq!(globals, ["own Int#", "shadowed Int#", "shared Int"]);
        assert_eq!(base.global("shadowed".into()), Some(&int));
        assert!(base.global("own".into()).is_none());
    }

    #[test]
    fn whole_program_check() {
        let env0 = TypeEnv::new();
        let b = &env0.builtins;
        let ih = Type::con0(&b.int_hash);
        let prog = Program {
            data_decls: b.data_decls.clone(),
            bindings: vec![Arc::new(TopBind {
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
            })],
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
            bindings: vec![Arc::new(TopBind {
                name: "bad".into(),
                ty: Type::con0(&b.int),
                expr: CoreExpr::int(1), // Int# , not Int
            })],
        };
        let (name, err) = check_program(&prog).unwrap_err();
        assert_eq!(name, Symbol::intern("bad"));
        assert!(matches!(err, CoreError::Mismatch { .. }));
    }

    /// `forall (r :: Rep) (a :: TYPE r). ty`
    fn rep_poly_ty(ty: Type) -> Type {
        Type::forall_rep("r", Type::forall_ty("a", Kind::of_rep_var("r".into()), ty))
    }

    /// `Λ(r :: Rep) (a :: TYPE r). body`
    fn rep_poly(body: CoreExpr) -> CoreExpr {
        CoreExpr::rep_lam(
            "r",
            CoreExpr::ty_lam("a", Kind::of_rep_var("r".into()), body),
        )
    }

    /// `f :: forall (r :: Rep) (a :: TYPE r). a -> a = λ(x :: a). x`:
    /// well-typed, and its binder breaks §5.1's restriction 1.
    fn levity_polymorphic_identity() -> Arc<TopBind> {
        let a = Type::Var("a".into());
        Arc::new(TopBind {
            name: "f".into(),
            ty: rep_poly_ty(Type::fun(a.clone(), a.clone())),
            expr: rep_poly(CoreExpr::lam("x", a, CoreExpr::Var("x".into()))),
        })
    }

    /// `g :: forall (r :: Rep) (a :: TYPE r). Int -> a`
    /// `  = λ(s :: Int). let (y :: a) = error in y`: well-typed, and its
    /// `let` binder breaks restriction 1.
    fn levity_polymorphic_let() -> Arc<TopBind> {
        let int = Type::con0(&env().builtins.int);
        let a = Type::Var("a".into());
        let body = CoreExpr::let_(
            "y",
            a.clone(),
            CoreExpr::Error(a.clone(), "never".to_owned()),
            CoreExpr::Var("y".into()),
        );
        Arc::new(TopBind {
            name: "g".into(),
            ty: rep_poly_ty(Type::fun(int.clone(), a)),
            expr: rep_poly(CoreExpr::lam("s", int, body)),
        })
    }

    #[test]
    fn a_type_error_takes_precedence_over_levity_diagnostics() {
        let b = &env().builtins;
        let ill_typed = Arc::new(TopBind {
            name: "bad".into(),
            ty: Type::con0(&b.int),
            expr: CoreExpr::int(1),
        });
        let mut levity = Diagnostics::new();
        let (name, err) = check_module(
            &mut TypeEnv::new(),
            &[],
            &[levity_polymorphic_identity(), ill_typed],
            Some(&mut levity),
        )
        .unwrap_err();
        assert_eq!(name, Symbol::intern("bad"));
        assert!(matches!(err, CoreError::Mismatch { .. }), "{err}");
    }

    #[test]
    fn a_sink_collects_violations_in_program_order() {
        let mut levity = Diagnostics::new();
        let bindings = [levity_polymorphic_identity(), levity_polymorphic_let()];
        check_module(&mut TypeEnv::new(), &[], &bindings, Some(&mut levity)).unwrap();
        let found: Vec<_> = levity
            .iter()
            .map(|d| (d.code, d.message.as_str()))
            .collect();
        assert_eq!(
            found,
            [
                (
                    ErrorCode::LevityPolymorphicBinder,
                    "the binder `x` has a levity-polymorphic type `a` (of kind `TYPE r`)"
                ),
                (
                    ErrorCode::LevityPolymorphicBinder,
                    "the binder `y` has a levity-polymorphic type `a` (of kind `TYPE r`)"
                ),
            ]
        );
        // Without a sink, the verdict is the same.
        check_module(&mut TypeEnv::new(), &[], &bindings, None).unwrap();
    }

    #[test]
    fn type_of_accepts_abs2_and_a_sink_finds_its_violations() {
        // abs2 = Λr a. λ(x :: a). abs @r @a x (§7.3): well-typed, with a
        // levity-polymorphic binder and argument. `type_of` collects no
        // diagnostics; the same walk handed a sink reports both.
        let mut env = env();
        let a = Type::Var("a".into());
        let ty = rep_poly_ty(Type::fun(a.clone(), a.clone()));
        env.define_global("abs", ty.clone());
        let call = CoreExpr::ty_app(
            CoreExpr::rep_app(CoreExpr::Global("abs".into()), RepTy::Var("r".into())),
            a.clone(),
        );
        let abs2 = rep_poly(CoreExpr::lam(
            "x",
            a,
            CoreExpr::app(call, CoreExpr::Var("x".into())),
        ));
        let t = type_of(&env, &mut Scope::new(), &abs2).unwrap();
        assert!(t.alpha_eq(&ty), "{t}");
        let bind = TopBind {
            name: "abs2".into(),
            ty,
            expr: abs2,
        };
        let mut levity = Diagnostics::new();
        check_binding(&env, &bind, Some(&mut levity)).unwrap();
        let codes: Vec<_> = levity.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            [
                ErrorCode::LevityPolymorphicBinder,
                ErrorCode::LevityPolymorphicArgument
            ]
        );
    }
}
