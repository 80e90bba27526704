//! Lowering Core to `M`: A-normalization plus "unarisation".
//!
//! This is Figure 7 scaled up to the full Core IR. The same two
//! ingredients do all the work:
//!
//! * **Kinds choose binding forms.** A pointer-kinded argument is
//!   let-bound lazily (a thunk); every unboxed argument is `let!`-bound
//!   strictly — exactly C_APPLAZY vs C_APPINT, generalized to all
//!   representations.
//! * **Kinds choose register classes.** Every binder's class comes from
//!   its type's kind. A levity-polymorphic binder has no class, so
//!   lowering fails with [`LowerError::AbstractRepresentation`] — the
//!   machine-level shadow of the §5.1 restrictions. (The pipeline runs
//!   the levity checks first, so this error is unreachable from checked
//!   programs; the tests hit it deliberately.)
//!
//! Unboxed tuples are *unarised* (the approach GHC takes in its Stg
//! pipeline): a binder of kind `TYPE (TupleRep '[ρ…])` becomes one
//! machine binder per register slot, flattening nesting — the runtime
//! irrelevance of tuple nesting (§2.3) made executable. Empty tuples
//! (`(# #)`, zero registers) use a single dummy word argument to keep
//! function arity stable.
//!
//! One deliberate deviation from the letter of Figure 7: when an
//! argument is already an atom (a variable or literal), it is passed
//! directly instead of being re-let-bound. Figure 7 always allocates;
//! `figure7.rs` keeps that literal behaviour for the formal fragment,
//! while this module matches what a real compiler (and GHC) does. The
//! ablation benchmark `anf_rebinding` measures the difference.

use std::fmt;
use std::sync::Arc;

use levity_core::kind::Kind;
use levity_core::rep::{Rep, Slot};
use levity_core::symbol::{NameSupply, Symbol};

use levity_ir::builtin::prim_signature;
use levity_ir::terms::{CoreAlt, CoreExpr, DataConInfo, LetKind, Program};
use levity_ir::typecheck::{
    kind_of, resolve_con_tyargs, type_of, CoreError, Scope, ScopeEntry, TypeEnv,
};
use levity_ir::types::Type;
use levity_m::machine::Globals;
use levity_m::syntax::{Alt, Atom, Binder, DataCon, JoinDef, MExpr};

use crate::opt::subst::count_uses;

/// Why lowering failed.
#[derive(Clone, Debug, PartialEq)]
pub enum LowerError {
    /// Core was ill-typed (lowering asks the checker for types).
    Core(CoreError),
    /// A binder or argument had a levity-polymorphic kind: no register
    /// class exists for it. Unreachable after the §5.1 levity checks.
    AbstractRepresentation {
        /// The type with no concrete representation.
        ty: Type,
        /// Its kind.
        kind: Kind,
    },
    /// A construct outside the supported fragment (e.g. unboxed sums in
    /// binders).
    Unsupported(String),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::Core(e) => write!(f, "cannot lower ill-typed Core: {e}"),
            LowerError::AbstractRepresentation { ty, kind } => write!(
                f,
                "cannot lower `{ty}` (kind `{kind}`): no concrete register class; \
                 levity polymorphism must have been rejected earlier"
            ),
            LowerError::Unsupported(msg) => write!(f, "unsupported in lowering: {msg}"),
        }
    }
}

impl std::error::Error for LowerError {}

impl From<CoreError> for LowerError {
    fn from(e: CoreError) -> LowerError {
        LowerError::Core(e)
    }
}

/// How a Core variable is represented in `M`: one atom per register slot.
#[derive(Clone, Debug)]
enum Lowered {
    /// A scalar variable in one register. The class is recorded for
    /// debugging; the machine re-derives it from binder sites.
    Scalar(Symbol, #[allow(dead_code)] Slot),
    /// An unboxed tuple spread over several registers (possibly zero).
    Multi(Vec<(Symbol, Slot)>),
    /// A join point: not a value at all. Every occurrence is a
    /// saturated tail call (validated by [`is_join_let`] before this
    /// variant is ever recorded) and lowers to [`MExpr::Jump`].
    Join(Symbol),
}

/// The number of leading term-λs of a candidate join-point right-hand
/// side. Joins are monomorphic continuations: any `Λ` disqualifies.
pub(crate) fn lam_chain_arity(rhs: &CoreExpr) -> Option<usize> {
    let mut n = 0usize;
    let mut cur = rhs;
    while let CoreExpr::Lam(_, _, b) = cur {
        n += 1;
        cur = b;
    }
    if n == 0 || matches!(cur, CoreExpr::TyLam(..) | CoreExpr::RepLam(..)) {
        return None;
    }
    Some(n)
}

/// Is `let x = λ…. e in body` a join point — is every free occurrence
/// of `x` in `body` a *saturated tail call*? "Tail" is relative to the
/// let body: case-alternative right-hand sides and nested tail-`let`
/// bodies inherit tailness; scrutinees, arguments, λ-bodies and
/// ordinary let right-hand sides do not (a jump from any of those would
/// return control to a frame the jump skips). The right-hand side of a
/// *nested join candidate* in tail position is itself a tail context —
/// GHC's rule — so joins created inside other joins' continuations
/// still qualify.
pub(crate) fn is_join_let(x: Symbol, arity: usize, body: &CoreExpr) -> bool {
    join_use_ok(body, x, arity, true)
}

fn strip_lams(rhs: &CoreExpr) -> &CoreExpr {
    let mut cur = rhs;
    while let CoreExpr::Lam(_, _, b) = cur {
        cur = b;
    }
    cur
}

fn join_use_ok(e: &CoreExpr, x: Symbol, arity: usize, tail: bool) -> bool {
    match e {
        // A bare occurrence (unapplied) escapes.
        CoreExpr::Var(v) => *v != x,
        CoreExpr::Global(_) | CoreExpr::Lit(_) | CoreExpr::Error(..) => true,
        // A saturated application spine headed by `x` is a jump — in
        // tail position only. Its arguments must not mention `x`.
        CoreExpr::App(..) => {
            let mut args = 0usize;
            let mut cur = e;
            loop {
                match cur {
                    CoreExpr::App(f, a) => {
                        if count_uses(a, x) != 0 {
                            return false;
                        }
                        args += 1;
                        cur = f;
                    }
                    // A type/rep application on the spine means this is
                    // not the monomorphic call shape joins have.
                    CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) => cur = f,
                    _ => break,
                }
            }
            match cur {
                CoreExpr::Var(v) if *v == x => tail && args == arity,
                head => join_use_ok(head, x, arity, false),
            }
        }
        CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) => join_use_ok(f, x, arity, false),
        // Under a λ the continuation would be captured by a closure.
        CoreExpr::Lam(b, _, body) => *b == x || count_uses(body, x) == 0,
        CoreExpr::TyLam(_, _, b) | CoreExpr::RepLam(_, b) => join_use_ok(b, x, arity, tail),
        CoreExpr::Let(kind, y, _, rhs, body) => {
            let rhs_shadowed = *kind == LetKind::Rec && *y == x;
            let rhs_ok = if rhs_shadowed || count_uses(rhs, x) == 0 {
                // The common case — `x` does not occur in the nested
                // right-hand side at all. Checked *first*: the nested
                // re-analysis below re-walks the whole body, and a
                // chain of k sibling join lets (exactly what
                // `opt/join.rs` emits) would otherwise cost 2^k body
                // traversals for no information.
                true
            } else if tail
                && *kind == LetKind::NonRec
                && *y != x
                && lam_chain_arity(rhs).is_some_and(|a| is_join_let(*y, a, body))
            {
                // `x` occurs inside a nested join candidate's body: a
                // join's body is a tail context for `x` exactly when
                // the nested let will itself lower as a join.
                join_use_ok(strip_lams(rhs), x, arity, true)
            } else {
                false
            };
            rhs_ok && (*y == x || join_use_ok(body, x, arity, tail))
        }
        CoreExpr::Case(scrut, alts) => {
            count_uses(scrut, x) == 0
                && alts.iter().all(|alt| {
                    let shadowed = match alt {
                        CoreAlt::Con { binders, .. } | CoreAlt::Tuple { binders, .. } => {
                            binders.iter().any(|(b, _)| *b == x)
                        }
                        CoreAlt::Default { binder, .. } => {
                            matches!(binder, Some((b, _)) if *b == x)
                        }
                        CoreAlt::Lit { .. } => false,
                    };
                    shadowed || join_use_ok(alt.rhs(), x, arity, tail)
                })
        }
        CoreExpr::Con(_, _, fields) => fields.iter().all(|f| count_uses(f, x) == 0),
        CoreExpr::Prim(_, args) | CoreExpr::Tuple(args) => {
            args.iter().all(|a| count_uses(a, x) == 0)
        }
    }
}

/// The lowering context.
pub struct Lowerer<'a> {
    env: &'a TypeEnv,
    scope: Scope,
    locals: Vec<(Symbol, Lowered)>,
    supply: NameSupply,
    /// The top-level binding being lowered; join-point names are minted
    /// as `j%<owner>%$n`, which is unique per compiled program (binding
    /// names are unique, `%` never appears in them) — the machines may
    /// then resolve jumps through one flat map.
    owner: String,
}

impl<'a> Lowerer<'a> {
    /// A fresh lowerer over the given environment.
    pub fn new(env: &'a TypeEnv) -> Lowerer<'a> {
        Lowerer::for_binding(env, "?expr")
    }

    /// A lowerer for the named top-level binding (the name seeds
    /// program-unique join-point names).
    pub fn for_binding(env: &'a TypeEnv, owner: &str) -> Lowerer<'a> {
        Lowerer {
            env,
            scope: Scope::new(),
            locals: Vec::new(),
            supply: NameSupply::new(),
            owner: owner.to_owned(),
        }
    }

    fn lookup(&self, x: Symbol) -> Option<&Lowered> {
        self.locals
            .iter()
            .rev()
            .find(|(n, _)| *n == x)
            .map(|(_, l)| l)
    }

    /// The concrete representation of a type, or the abstract-rep error.
    fn rep_of(&mut self, ty: &Type) -> Result<Rep, LowerError> {
        let kind = kind_of(self.env, &mut self.scope, ty)?;
        kind.concrete_rep()
            .ok_or(LowerError::AbstractRepresentation {
                ty: ty.clone(),
                kind,
            })
    }

    fn type_of(&mut self, e: &CoreExpr) -> Result<Type, LowerError> {
        Ok(type_of(self.env, &mut self.scope, e)?)
    }

    fn types_of(&mut self, es: &[CoreExpr]) -> Result<Vec<Type>, LowerError> {
        es.iter().map(|e| self.type_of(e)).collect()
    }

    /// Scalar register class of a representation.
    fn scalar_class(&self, rep: &Rep, ty: &Type) -> Result<Slot, LowerError> {
        match rep {
            Rep::Tuple(_) => Err(LowerError::Unsupported(format!(
                "internal: tuple rep where scalar expected for `{ty}`"
            ))),
            Rep::Sum(_) => Err(LowerError::Unsupported(format!(
                "unboxed sums in term positions are not lowered yet (`{ty}`)"
            ))),
            other => {
                let slots = other.slots();
                debug_assert_eq!(slots.len(), 1);
                Ok(slots[0])
            }
        }
    }

    /// The machine constructor for a Core constructor at instantiated
    /// field types.
    fn machine_con(
        &mut self,
        con: &DataConInfo,
        field_types: &[Type],
    ) -> Result<DataCon, LowerError> {
        let mut fields = Vec::with_capacity(field_types.len());
        for ft in field_types {
            let rep = self.rep_of(ft)?;
            if matches!(rep, Rep::Tuple(_) | Rep::Sum(_)) {
                return Err(LowerError::Unsupported(format!(
                    "unboxed tuple/sum constructor field `{ft}`"
                )));
            }
            fields.push(self.scalar_class(&rep, ft)?);
        }
        Ok(DataCon {
            name: con.name,
            tag: con.tag,
            fields: fields.into(),
        })
    }

    /// Lowers an expression to an `M` term.
    pub fn lower(&mut self, e: &CoreExpr) -> Result<Arc<MExpr>, LowerError> {
        match e {
            CoreExpr::Var(x) => match self.lookup(*x) {
                Some(Lowered::Scalar(name, _)) => Ok(MExpr::var(*name)),
                Some(Lowered::Multi(parts)) => Ok(Arc::new(MExpr::MultiVal(
                    parts.iter().map(|(n, _)| Atom::Var(*n)).collect(),
                ))),
                // Unreachable from a binder [`is_join_let`] admitted:
                // bare occurrences disqualify a join candidate.
                Some(Lowered::Join(_)) => Err(LowerError::Unsupported(format!(
                    "join point `{x}` used outside saturated tail-call position"
                ))),
                None => Err(LowerError::Core(CoreError::UnboundVar(*x))),
            },
            CoreExpr::Global(g) => Ok(MExpr::global(*g)),
            CoreExpr::Lit(l) => Ok(MExpr::lit(*l)),
            CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) => self.lower(f),
            CoreExpr::TyLam(a, k, body) => {
                self.scope.push(*a, ScopeEntry::TyVar(k.clone()));
                let out = self.lower(body);
                self.scope.pop();
                out
            }
            CoreExpr::RepLam(r, body) => {
                self.scope.push(*r, ScopeEntry::RepVar);
                let out = self.lower(body);
                self.scope.pop();
                out
            }
            CoreExpr::Lam(x, ty, body) => self.lower_lam(*x, ty, body),
            CoreExpr::App(..) => {
                if let Some(jump) = self.try_lower_jump(e)? {
                    return Ok(jump);
                }
                self.lower_call(e)
            }
            CoreExpr::Let(kind, x, ty, rhs, body) => self.lower_let(*kind, *x, ty, rhs, body),
            CoreExpr::Case(scrut, alts) => self.lower_case(scrut, alts),
            CoreExpr::Con(con, ty_args, fields) => {
                let (field_types, _) = con
                    .instantiate(ty_args)
                    .filter(|(types, _)| types.len() == fields.len())
                    .ok_or(LowerError::Core(CoreError::ConArity(con.name)))?;
                let mcon = self.machine_con(con, &field_types)?;
                self.bind_args(fields, &field_types, |_, atoms| {
                    Ok(Arc::new(MExpr::Con(mcon, atoms)))
                })
            }
            CoreExpr::Prim(op, args) => {
                let (arg_types, _) = prim_signature(*op, &self.env.builtins);
                if arg_types.len() != args.len() {
                    return Err(LowerError::Core(CoreError::PrimArity(*op)));
                }
                self.bind_args(args, &arg_types, |_, atoms| {
                    Ok(Arc::new(MExpr::Prim(*op, atoms)))
                })
            }
            CoreExpr::Tuple(es) => {
                let types = self.types_of(es)?;
                self.bind_args(es, &types, |_, atoms| Ok(Arc::new(MExpr::MultiVal(atoms))))
            }
            CoreExpr::Error(_, msg) => Ok(MExpr::error(msg.clone())),
        }
    }

    /// Lowers a λ, expanding tuple-kinded binders into one machine binder
    /// per register slot (unarisation).
    fn lower_lam(
        &mut self,
        x: Symbol,
        ty: &Type,
        body: &CoreExpr,
    ) -> Result<Arc<MExpr>, LowerError> {
        let rep = self.rep_of(ty)?;
        match rep {
            Rep::Tuple(_) => {
                let slots = rep.slots();
                let parts: Vec<(Symbol, Slot)> =
                    slots.iter().map(|s| (self.supply.fresh("u"), *s)).collect();
                self.locals.push((x, Lowered::Multi(parts.clone())));
                self.scope.push(x, ScopeEntry::Term(ty.clone()));
                let inner = self.lower(body);
                self.scope.pop();
                self.locals.pop();
                let inner = inner?;
                if parts.is_empty() {
                    // (# #): keep arity with a dummy word argument.
                    Ok(MExpr::lam(Binder::int(self.supply.fresh("void")), inner))
                } else {
                    Ok(MExpr::lams(
                        parts.iter().map(|(n, s)| Binder::new(*n, *s)),
                        inner,
                    ))
                }
            }
            Rep::Sum(_) => Err(LowerError::Unsupported(format!(
                "unboxed sum binder `{ty}`"
            ))),
            scalar => {
                let class = self.scalar_class(&scalar, ty)?;
                let name = self.supply.fresh(match class {
                    Slot::Ptr => "p",
                    Slot::Word => "i",
                    Slot::Float => "f",
                    Slot::Double => "d",
                });
                self.locals.push((x, Lowered::Scalar(name, class)));
                self.scope.push(x, ScopeEntry::Term(ty.clone()));
                let inner = self.lower(body);
                self.scope.pop();
                self.locals.pop();
                Ok(MExpr::lam(Binder::new(name, class), inner?))
            }
        }
    }

    /// Lowers an application spine: the head, then each term argument
    /// in application order. The head is typed once, and each
    /// argument's type is read off the head's type as its `∀`s are
    /// instantiated and its arrows peeled, so a nested argument is not
    /// typed again at every level.
    #[inline(never)]
    fn lower_call(&mut self, e: &CoreExpr) -> Result<Arc<MExpr>, LowerError> {
        let mut spine = Vec::new();
        let mut head = e;
        while let CoreExpr::App(f, _) | CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) = head {
            spine.push(head);
            head = f;
        }
        let mut ty = self.type_of(head)?;
        let mut call = self.lower(head)?;
        for node in spine.into_iter().rev() {
            ty = match (node, ty) {
                (CoreExpr::TyApp(_, t), Type::ForallTy(v, _, body)) => body.subst_ty(v, t),
                (CoreExpr::RepApp(_, r), Type::ForallRep(v, body)) => body.subst_rep(v, r),
                (CoreExpr::App(_, a), Type::Fun(dom, cod)) => {
                    call = self.lower_arg(call, a, &dom)?;
                    *cod
                }
                (CoreExpr::App(..), other) => return Err(CoreError::NotAFunction(other).into()),
                (_, other) => return Err(CoreError::NotAForall(other).into()),
            };
        }
        Ok(call)
    }

    /// Applies the lowered `t1` to the argument `a` of type `arg_ty`,
    /// choosing lazy vs strict binding by the argument's kind
    /// (C_APPLAZY / C_APPINT generalized).
    fn lower_arg(
        &mut self,
        t1: Arc<MExpr>,
        a: &CoreExpr,
        arg_ty: &Type,
    ) -> Result<Arc<MExpr>, LowerError> {
        let rep = self.rep_of(arg_ty)?;
        match rep {
            Rep::Tuple(_) => {
                // Unarised call: unpack the tuple and pass each register.
                let slots = rep.slots();
                if slots.is_empty() {
                    // Evaluate the (# #) argument, then pass a dummy word.
                    let scrut = self.lower(a)?;
                    return Ok(Arc::new(MExpr::CaseMulti(
                        scrut,
                        vec![],
                        MExpr::app(t1, Atom::Lit(levity_m::syntax::Literal::Int(0))),
                    )));
                }
                let binders: Vec<Binder> = slots
                    .iter()
                    .map(|s| Binder::new(self.supply.fresh("u"), *s))
                    .collect();
                let scrut = self.lower(a)?;
                let call = MExpr::apps(t1, binders.iter().map(|b| Atom::Var(b.name)));
                Ok(Arc::new(MExpr::CaseMulti(scrut, binders, call)))
            }
            Rep::Sum(_) => Err(LowerError::Unsupported(format!(
                "unboxed sum argument `{arg_ty}`"
            ))),
            scalar => {
                let class = self.scalar_class(&scalar, arg_ty)?;
                self.bind_scalar(a, class, |_, atom| Ok(MExpr::app(t1, atom)))
            }
        }
    }

    /// Lowers an application spine headed by a join-point binder as a
    /// [`MExpr::Jump`]. Returns `Ok(None)` for ordinary applications.
    fn try_lower_jump(&mut self, e: &CoreExpr) -> Result<Option<Arc<MExpr>>, LowerError> {
        let mut args: Vec<&CoreExpr> = Vec::new();
        let mut cur = e;
        loop {
            match cur {
                CoreExpr::App(f, a) => {
                    args.push(a);
                    cur = f;
                }
                CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) => cur = f,
                _ => break,
            }
        }
        let CoreExpr::Var(x) = cur else {
            return Ok(None);
        };
        let Some(Lowered::Join(jname)) = self.lookup(*x) else {
            return Ok(None);
        };
        let jname = *jname;
        args.reverse();
        let args: Vec<CoreExpr> = args.into_iter().cloned().collect();
        let types = self.types_of(&args)?;
        self.bind_args(&args, &types, |_, atoms| {
            Ok(Arc::new(MExpr::Jump(jname, atoms)))
        })
        .map(Some)
    }

    /// Lowers a validated join-point `let`: the continuation's
    /// parameters become machine binders (tuple params unarised like
    /// λ-binders), the binder is recorded as [`Lowered::Join`], and the
    /// whole thing becomes [`MExpr::LetJoin`] — no thunk, no closure.
    /// Returns `None` (falling back to an ordinary `let`) when a
    /// parameter's representation has no stable register split (empty
    /// tuples, sums).
    #[inline(never)]
    fn lower_join(
        &mut self,
        x: Symbol,
        ty: &Type,
        arity: usize,
        rhs: &CoreExpr,
        body: &CoreExpr,
    ) -> Result<Option<Arc<MExpr>>, LowerError> {
        // Peel the λ-chain into (binder, type) params.
        let mut params: Vec<(Symbol, Type)> = Vec::new();
        let mut jbody = rhs;
        for _ in 0..arity {
            let CoreExpr::Lam(p, pty, inner) = jbody else {
                unreachable!("lam_chain_arity counted the λs");
            };
            params.push((*p, pty.clone()));
            jbody = inner;
        }
        // Every parameter must unarise to at least one register: the
        // jump-site argument flattening and the parameter list must
        // stay in one-to-one slot correspondence.
        let mut reps = Vec::with_capacity(params.len());
        for (_, pty) in &params {
            let rep = self.rep_of(pty)?;
            match &rep {
                Rep::Sum(_) => return Ok(None),
                Rep::Tuple(slots) if slots.is_empty() => return Ok(None),
                _ => reps.push(rep),
            }
        }
        let jname = self.supply.fresh(&format!("j%{}%", self.owner));
        // Lower the continuation body with the params in scope.
        let mut mparams: Vec<Binder> = Vec::new();
        let mut pushed = 0usize;
        for ((p, pty), rep) in params.iter().zip(reps) {
            match rep {
                Rep::Tuple(_) => {
                    let parts: Vec<(Symbol, Slot)> = rep
                        .slots()
                        .iter()
                        .map(|s| (self.supply.fresh("u"), *s))
                        .collect();
                    mparams.extend(parts.iter().map(|(n, s)| Binder::new(*n, *s)));
                    self.locals.push((*p, Lowered::Multi(parts)));
                }
                scalar => {
                    let class = self.scalar_class(&scalar, pty)?;
                    let name = self.supply.fresh("u");
                    mparams.push(Binder::new(name, class));
                    self.locals.push((*p, Lowered::Scalar(name, class)));
                }
            }
            self.scope.push(*p, ScopeEntry::Term(pty.clone()));
            pushed += 1;
        }
        let jbody_t = self.lower(jbody);
        for _ in 0..pushed {
            self.scope.pop();
            self.locals.pop();
        }
        let jbody_t = jbody_t?;
        // Lower the let body with the binder visible as a join point.
        self.locals.push((x, Lowered::Join(jname)));
        self.scope.push(x, ScopeEntry::Term(ty.clone()));
        let body_t = self.lower(body);
        self.scope.pop();
        self.locals.pop();
        Ok(Some(Arc::new(MExpr::LetJoin(
            Arc::new(JoinDef {
                name: jname,
                params: mparams,
                body: jbody_t,
            }),
            body_t?,
        ))))
    }

    fn lower_let(
        &mut self,
        kind: LetKind,
        x: Symbol,
        ty: &Type,
        rhs: &CoreExpr,
        body: &CoreExpr,
    ) -> Result<Arc<MExpr>, LowerError> {
        // Join points first: a non-recursive λ-binding whose every use
        // is a saturated tail call compiles to a jump target, not a
        // thunk — the machine-level half of the case-of-case story.
        if kind == LetKind::NonRec {
            if let Some(arity) = lam_chain_arity(rhs) {
                if is_join_let(x, arity, body) {
                    if let Some(out) = self.lower_join(x, ty, arity, rhs, body)? {
                        return Ok(out);
                    }
                }
            }
        }
        let rep = self.rep_of(ty)?;
        match rep {
            Rep::Tuple(_) => {
                // Strictly evaluate and unpack.
                let slots = rep.slots();
                let parts: Vec<(Symbol, Slot)> =
                    slots.iter().map(|s| (self.supply.fresh("u"), *s)).collect();
                let scrut = self.lower(rhs)?;
                self.locals.push((x, Lowered::Multi(parts.clone())));
                self.scope.push(x, ScopeEntry::Term(ty.clone()));
                let inner = self.lower(body);
                self.scope.pop();
                self.locals.pop();
                Ok(Arc::new(MExpr::CaseMulti(
                    scrut,
                    parts.iter().map(|(n, s)| Binder::new(*n, *s)).collect(),
                    inner?,
                )))
            }
            Rep::Sum(_) => Err(LowerError::Unsupported(format!("unboxed sum let `{ty}`"))),
            Rep::Lifted | Rep::Unlifted => {
                let name = self.supply.fresh("p");
                // A recursive rhs sees its own binder (cyclic thunk).
                if kind == LetKind::Rec {
                    self.locals.push((x, Lowered::Scalar(name, Slot::Ptr)));
                    self.scope.push(x, ScopeEntry::Term(ty.clone()));
                }
                let rhs_t = self.lower(rhs);
                if kind == LetKind::Rec {
                    self.scope.pop();
                    self.locals.pop();
                }
                let rhs_t = rhs_t?;
                self.locals.push((x, Lowered::Scalar(name, Slot::Ptr)));
                self.scope.push(x, ScopeEntry::Term(ty.clone()));
                let body_t = self.lower(body);
                self.scope.pop();
                self.locals.pop();
                Ok(MExpr::let_lazy(name, rhs_t, body_t?))
            }
            scalar => {
                // Unboxed scalars bind strictly.
                let class = self.scalar_class(&scalar, ty)?;
                let name = self.supply.fresh("i");
                let rhs_t = self.lower(rhs)?;
                self.locals.push((x, Lowered::Scalar(name, class)));
                self.scope.push(x, ScopeEntry::Term(ty.clone()));
                let body_t = self.lower(body);
                self.scope.pop();
                self.locals.pop();
                Ok(MExpr::let_strict(Binder::new(name, class), rhs_t, body_t?))
            }
        }
    }

    fn lower_case(&mut self, scrut: &CoreExpr, alts: &[CoreAlt]) -> Result<Arc<MExpr>, LowerError> {
        let scrut_ty = self.type_of(scrut)?;
        let rep = self.rep_of(&scrut_ty)?;
        let scrut_t = self.lower(scrut)?;
        if let Rep::Tuple(_) = rep {
            // Unboxed tuple case: exactly one tuple alternative.
            let Some(CoreAlt::Tuple { binders, rhs }) = alts.first() else {
                return Err(LowerError::Unsupported(
                    "case on unboxed tuple needs a tuple alternative".to_owned(),
                ));
            };
            // Expand each component binder into its own slots.
            let mut mbinders = Vec::new();
            let mut pushed = 0usize;
            for (x, t) in binders {
                let brep = self.rep_of(t)?;
                match brep {
                    Rep::Tuple(_) => {
                        let parts: Vec<(Symbol, Slot)> = brep
                            .slots()
                            .iter()
                            .map(|s| (self.supply.fresh("u"), *s))
                            .collect();
                        mbinders.extend(parts.iter().map(|(n, s)| Binder::new(*n, *s)));
                        self.locals.push((*x, Lowered::Multi(parts)));
                    }
                    Rep::Sum(_) => {
                        return Err(LowerError::Unsupported("unboxed sum component".to_owned()))
                    }
                    scalar => {
                        let class = self.scalar_class(&scalar, t)?;
                        let name = self.supply.fresh("u");
                        mbinders.push(Binder::new(name, class));
                        self.locals.push((*x, Lowered::Scalar(name, class)));
                    }
                }
                self.scope.push(*x, ScopeEntry::Term(t.clone()));
                pushed += 1;
            }
            let rhs_t = self.lower(rhs);
            for _ in 0..pushed {
                self.scope.pop();
                self.locals.pop();
            }
            return Ok(Arc::new(MExpr::CaseMulti(scrut_t, mbinders, rhs_t?)));
        }

        // Scalar case: constructor and literal alternatives plus default.
        let mut malts = Vec::new();
        let mut default = None;
        for alt in alts {
            match alt {
                CoreAlt::Con { con, binders, rhs } => {
                    let ty_args = resolve_con_tyargs(self.env, &mut self.scope, con, &scrut_ty)
                        .ok_or_else(|| {
                            LowerError::Core(CoreError::AltMismatch(format!(
                                "constructor {} vs `{scrut_ty}`",
                                con.name
                            )))
                        })?;
                    let (field_types, _) = con
                        .instantiate(&ty_args)
                        .ok_or(LowerError::Core(CoreError::ConArity(con.name)))?;
                    let mcon = self.machine_con(con, &field_types)?;
                    let mut mbinders = Vec::with_capacity(binders.len());
                    for ((x, t), class) in binders.iter().zip(mcon.fields.iter()) {
                        let name = self.supply.fresh("fld");
                        mbinders.push(Binder::new(name, *class));
                        self.locals.push((*x, Lowered::Scalar(name, *class)));
                        self.scope.push(*x, ScopeEntry::Term(t.clone()));
                    }
                    let rhs_t = self.lower(rhs);
                    for _ in binders {
                        self.scope.pop();
                        self.locals.pop();
                    }
                    malts.push(Alt::Con(mcon, mbinders, rhs_t?));
                }
                CoreAlt::Lit { lit, rhs } => {
                    malts.push(Alt::Lit(*lit, self.lower(rhs)?));
                }
                CoreAlt::Tuple { .. } => {
                    return Err(LowerError::Unsupported(
                        "tuple alternative on scalar scrutinee".to_owned(),
                    ))
                }
                CoreAlt::Default { binder, rhs } => {
                    let class = self.scalar_class(&rep, &scrut_ty)?;
                    match binder {
                        Some((x, t)) => {
                            let name = self.supply.fresh("dflt");
                            self.locals.push((*x, Lowered::Scalar(name, class)));
                            self.scope.push(*x, ScopeEntry::Term(t.clone()));
                            let rhs_t = self.lower(rhs);
                            self.scope.pop();
                            self.locals.pop();
                            default = Some((Binder::new(name, class), rhs_t?));
                        }
                        None => {
                            let name = self.supply.fresh("dflt");
                            default = Some((Binder::new(name, class), self.lower(rhs)?));
                        }
                    }
                }
            }
        }
        Ok(Arc::new(MExpr::Case(scrut_t, malts.into(), default)))
    }

    /// A-normalizes a scalar expression: atoms pass through, anything
    /// else is bound — lazily for pointers, strictly otherwise.
    fn bind_scalar(
        &mut self,
        e: &CoreExpr,
        class: Slot,
        k: impl FnOnce(&mut Self, Atom) -> Result<Arc<MExpr>, LowerError>,
    ) -> Result<Arc<MExpr>, LowerError> {
        // Atom reuse: variables and literals need no binding.
        match e {
            CoreExpr::Lit(l) => return k(self, Atom::Lit(*l)),
            CoreExpr::Var(x) => {
                if let Some(Lowered::Scalar(name, _)) = self.lookup(*x) {
                    let atom = Atom::Var(*name);
                    return k(self, atom);
                }
            }
            CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) => {
                // Erased wrappers around an atom are still atoms.
                return self.bind_scalar(f, class, k);
            }
            _ => {}
        }
        let t = self.lower(e)?;
        let name = self.supply.fresh(match class {
            Slot::Ptr => "p",
            Slot::Word => "i",
            Slot::Float => "f",
            Slot::Double => "d",
        });
        let body = k(self, Atom::Var(name))?;
        Ok(match class {
            Slot::Ptr => MExpr::let_lazy(name, t, body),
            other => MExpr::let_strict(Binder::new(name, other), t, body),
        })
    }

    /// A-normalizes a list of scalar expressions (constructor fields,
    /// primop arguments, tuple components, jump arguments), one type
    /// each from the caller, then calls the continuation with their atoms.
    fn bind_args(
        &mut self,
        es: &[CoreExpr],
        types: &[Type],
        k: impl FnOnce(&mut Self, Vec<Atom>) -> Result<Arc<MExpr>, LowerError>,
    ) -> Result<Arc<MExpr>, LowerError> {
        debug_assert_eq!(es.len(), types.len());
        self.bind_args_go(es, types, Vec::with_capacity(es.len()), k)
    }

    fn bind_args_go(
        &mut self,
        es: &[CoreExpr],
        types: &[Type],
        mut acc: Vec<Atom>,
        k: impl FnOnce(&mut Self, Vec<Atom>) -> Result<Arc<MExpr>, LowerError>,
    ) -> Result<Arc<MExpr>, LowerError> {
        match (es.split_first(), types.split_first()) {
            (Some((e, rest)), Some((ty, rest_types))) => {
                let rep = self.rep_of(ty)?;
                match rep {
                    Rep::Tuple(_) => {
                        // Flatten tuple components into the atom list.
                        let slots = rep.slots();
                        let binders: Vec<Binder> = slots
                            .iter()
                            .map(|s| Binder::new(self.supply.fresh("u"), *s))
                            .collect();
                        let scrut = self.lower(e)?;
                        acc.extend(binders.iter().map(|b| Atom::Var(b.name)));
                        let body = self.bind_args_go(rest, rest_types, acc, k)?;
                        Ok(Arc::new(MExpr::CaseMulti(scrut, binders, body)))
                    }
                    Rep::Sum(_) => Err(LowerError::Unsupported(format!(
                        "unboxed sum argument `{ty}`"
                    ))),
                    scalar => {
                        let class = self.scalar_class(&scalar, ty)?;
                        self.bind_scalar(e, class, move |this, atom| {
                            acc.push(atom);
                            this.bind_args_go(rest, rest_types, acc, k)
                        })
                    }
                }
            }
            _ => k(self, acc),
        }
    }
}

/// Lowers a whole program to machine globals.
///
/// # Errors
///
/// See [`LowerError`]; unreachable for programs that passed type and
/// levity checking (other than the deliberately unsupported corners).
pub fn lower_program(env: &TypeEnv, prog: &Program) -> Result<Globals, LowerError> {
    let mut globals = Globals::new();
    for bind in &prog.bindings {
        let mut lowerer = Lowerer::for_binding(env, bind.name.as_str());
        globals.define(bind.name, lowerer.lower(&bind.expr)?);
    }
    Ok(globals)
}

/// Lowers a single expression in the context of a program's environment.
///
/// # Errors
///
/// See [`LowerError`].
pub fn lower_expr(env: &TypeEnv, e: &CoreExpr) -> Result<Arc<MExpr>, LowerError> {
    Lowerer::new(env).lower(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use levity_ir::terms::TyArg;
    use levity_m::machine::{Machine, RunOutcome, Value};
    use levity_m::syntax::{Literal, PrimOp};

    fn env() -> TypeEnv {
        TypeEnv::new()
    }

    fn run(env: &TypeEnv, e: &CoreExpr) -> (RunOutcome, levity_m::machine::MachineStats) {
        let t = lower_expr(env, e).expect("lowering failed");
        let mut m = Machine::new();
        let out = m.run(t).expect("machine failed");
        (out, *m.stats())
    }

    #[test]
    fn scalar_identity_runs() {
        let env = env();
        let ih = Type::con0(&env.builtins.int_hash);
        let e = CoreExpr::app(
            CoreExpr::lam("x", ih, CoreExpr::Var("x".into())),
            CoreExpr::int(9),
        );
        let (out, _) = run(&env, &e);
        assert_eq!(out, RunOutcome::Value(Value::Lit(Literal::Int(9))));
    }

    #[test]
    fn boxed_arguments_are_lazy() {
        // (\(x :: Int) -> 5#) (error) — laziness means no abort.
        let env = env();
        let int = Type::con0(&env.builtins.int);
        let e = CoreExpr::app(
            CoreExpr::lam("x", int.clone(), CoreExpr::int(5)),
            CoreExpr::Error(int, "unused".to_owned()),
        );
        let (out, _) = run(&env, &e);
        assert_eq!(out, RunOutcome::Value(Value::Lit(Literal::Int(5))));
    }

    #[test]
    fn unboxed_arguments_are_strict() {
        let env = env();
        let ih = Type::con0(&env.builtins.int_hash);
        let e = CoreExpr::app(
            CoreExpr::lam("x", ih.clone(), CoreExpr::int(5)),
            CoreExpr::Error(ih, "forced".to_owned()),
        );
        let (out, _) = run(&env, &e);
        assert_eq!(out, RunOutcome::Error("forced".to_owned()));
    }

    #[test]
    fn atom_arguments_are_not_rebound() {
        // (\(x :: Int#) -> x) 1# — the literal is passed directly; no
        // allocation at all.
        let env = env();
        let ih = Type::con0(&env.builtins.int_hash);
        let e = CoreExpr::app(
            CoreExpr::lam("x", ih, CoreExpr::Var("x".into())),
            CoreExpr::int(1),
        );
        let (_, stats) = run(&env, &e);
        assert_eq!(stats.allocated_words, 0);
    }

    #[test]
    fn unboxed_tuple_argument_is_unarised() {
        // (\(t :: (# Int#, Int# #)) -> case t of (# a, b #) -> a +# b)
        //   (# 3#, 4# #)
        let env = env();
        let ih = Type::con0(&env.builtins.int_hash);
        let tup_ty = Type::UnboxedTuple(vec![ih.clone(), ih.clone()]);
        let body = CoreExpr::case(
            CoreExpr::Var("t".into()),
            vec![CoreAlt::Tuple {
                binders: vec![("a".into(), ih.clone()), ("b".into(), ih.clone())],
                rhs: CoreExpr::Prim(
                    PrimOp::AddI,
                    vec![CoreExpr::Var("a".into()), CoreExpr::Var("b".into())],
                ),
            }],
        );
        let e = CoreExpr::app(
            CoreExpr::lam("t", tup_ty, body),
            CoreExpr::Tuple(vec![CoreExpr::int(3), CoreExpr::int(4)]),
        );
        let (out, stats) = run(&env, &e);
        assert_eq!(out, RunOutcome::Value(Value::Lit(Literal::Int(7))));
        // §2.3: unboxed tuples do not exist at runtime; nothing allocates.
        assert_eq!(stats.allocated_words, 0);
    }

    #[test]
    fn nested_tuples_flatten_to_the_same_registers() {
        // case (# 1#, (# 2#, 3# #) #) of (# a, bc #) ->
        //   case bc of (# b, c #) -> a +# (b +# c)
        let env = env();
        let ih = Type::con0(&env.builtins.int_hash);
        let inner_ty = Type::UnboxedTuple(vec![ih.clone(), ih.clone()]);
        let e = CoreExpr::case(
            CoreExpr::Tuple(vec![
                CoreExpr::int(1),
                CoreExpr::Tuple(vec![CoreExpr::int(2), CoreExpr::int(3)]),
            ]),
            vec![CoreAlt::Tuple {
                binders: vec![("a".into(), ih.clone()), ("bc".into(), inner_ty)],
                rhs: CoreExpr::case(
                    CoreExpr::Var("bc".into()),
                    vec![CoreAlt::Tuple {
                        binders: vec![("b".into(), ih.clone()), ("c".into(), ih.clone())],
                        rhs: CoreExpr::Prim(
                            PrimOp::AddI,
                            vec![
                                CoreExpr::Var("a".into()),
                                CoreExpr::Prim(
                                    PrimOp::AddI,
                                    vec![CoreExpr::Var("b".into()), CoreExpr::Var("c".into())],
                                ),
                            ],
                        ),
                    }],
                ),
            }],
        );
        let (out, stats) = run(&env, &e);
        assert_eq!(out, RunOutcome::Value(Value::Lit(Literal::Int(6))));
        assert_eq!(stats.allocated_words, 0);
    }

    #[test]
    fn empty_tuple_keeps_arity_via_void_argument() {
        // (\(u :: (# #)) -> 7#) (# #)
        let env = env();
        let e = CoreExpr::app(
            CoreExpr::lam("u", Type::UnboxedTuple(vec![]), CoreExpr::int(7)),
            CoreExpr::Tuple(vec![]),
        );
        let (out, _) = run(&env, &e);
        assert_eq!(out, RunOutcome::Value(Value::Lit(Literal::Int(7))));
    }

    #[test]
    fn boxed_constructors_allocate() {
        // I#[3#] allocates a two-word box; the unboxed 3# does not.
        let env = env();
        let e = CoreExpr::Con(
            Arc::clone(&env.builtins.i_hash),
            vec![],
            vec![CoreExpr::int(3)],
        );
        let (out, stats) = run(&env, &e);
        assert!(matches!(out, RunOutcome::Value(Value::Con(..))));
        assert_eq!(stats.con_allocs, 1);
        assert_eq!(stats.allocated_words, 2);
    }

    #[test]
    fn case_on_maybe_selects_and_binds() {
        let env = env();
        let b = &env.builtins;
        let int = Type::con0(&b.int);
        let e = CoreExpr::case(
            CoreExpr::Con(
                Arc::clone(&b.just),
                vec![TyArg::Ty(int.clone())],
                vec![CoreExpr::Con(
                    Arc::clone(&b.i_hash),
                    vec![],
                    vec![CoreExpr::int(11)],
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
                    binders: vec![("v".into(), int.clone())],
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
        let (out, _) = run(&env, &e);
        assert_eq!(out, RunOutcome::Value(Value::Lit(Literal::Int(11))));
    }

    #[test]
    fn letrec_builds_a_cyclic_thunk() {
        // letrec ones :: Maybe Int = Just ones-ish is hard without
        // laziness-observing code; instead: letrec x :: Int = x in 5#
        // never forces x, so the cycle is fine.
        let env = env();
        let int = Type::con0(&env.builtins.int);
        let e = CoreExpr::Let(
            LetKind::Rec,
            "x".into(),
            int,
            Box::new(CoreExpr::Var("x".into())),
            Box::new(CoreExpr::int(5)),
        );
        let (out, stats) = run(&env, &e);
        assert_eq!(out, RunOutcome::Value(Value::Lit(Literal::Int(5))));
        assert_eq!(stats.thunk_allocs, 1);
    }

    #[test]
    fn tail_called_let_lambda_lowers_to_a_join_point() {
        // let k = \(y :: Int#) -> y +# 1# in
        //   case 0# of { 0# -> k 10#; _ -> k 20# }
        // Both uses are saturated tail calls, so the let becomes a
        // `join` and the calls become `jump`s: no thunk, no closure.
        let env = env();
        let ih = Type::con0(&env.builtins.int_hash);
        let k: Symbol = "k".into();
        let body = CoreExpr::case(
            CoreExpr::int(0),
            vec![
                CoreAlt::Lit {
                    lit: Literal::Int(0),
                    rhs: CoreExpr::app(CoreExpr::Var(k), CoreExpr::int(10)),
                },
                CoreAlt::Default {
                    binder: None,
                    rhs: CoreExpr::app(CoreExpr::Var(k), CoreExpr::int(20)),
                },
            ],
        );
        let e = CoreExpr::let_(
            k,
            Type::fun(ih.clone(), ih.clone()),
            CoreExpr::lam(
                "y",
                ih,
                CoreExpr::Prim(
                    PrimOp::AddI,
                    vec![CoreExpr::Var("y".into()), CoreExpr::int(1)],
                ),
            ),
            body,
        );
        let t = lower_expr(&env, &e).unwrap();
        assert!(
            matches!(&*t, MExpr::LetJoin(..)),
            "expected a join point, got {t}"
        );
        let mut m = Machine::new();
        let out = m.run(t).unwrap();
        assert_eq!(out, RunOutcome::Value(Value::Lit(Literal::Int(11))));
        assert_eq!(m.stats().jumps, 1);
        assert_eq!(m.stats().thunk_allocs, 0, "a join point is not a thunk");
        assert_eq!(m.stats().allocated_words, 0);
    }

    #[test]
    fn escaping_let_lambda_stays_an_ordinary_closure() {
        // let f = \(y :: Int#) -> y in (f 1#) +# (case 0# of ...) — an
        // argument-position use disqualifies the join: `f` appears in a
        // primop argument, not a tail call.
        let env = env();
        let ih = Type::con0(&env.builtins.int_hash);
        let f: Symbol = "f".into();
        let e = CoreExpr::let_(
            f,
            Type::fun(ih.clone(), ih.clone()),
            CoreExpr::lam("y", ih, CoreExpr::Var("y".into())),
            CoreExpr::Prim(
                PrimOp::AddI,
                vec![
                    CoreExpr::app(CoreExpr::Var(f), CoreExpr::int(1)),
                    CoreExpr::int(2),
                ],
            ),
        );
        let t = lower_expr(&env, &e).unwrap();
        assert!(
            matches!(&*t, MExpr::LetLazy(..)),
            "an escaping λ must stay a lazy let, got {t}"
        );
        let (out, stats) = run(&env, &e);
        assert_eq!(out, RunOutcome::Value(Value::Lit(Literal::Int(3))));
        assert_eq!(stats.jumps, 0);
    }

    #[test]
    fn levity_polymorphic_binder_cannot_lower() {
        // \(x :: a) with a :: TYPE r — skipping the checks, lowering
        // itself must refuse: there is no register class for x.
        let env = env();
        let r: Symbol = "r".into();
        let a: Symbol = "a".into();
        let e = CoreExpr::rep_lam(
            r,
            CoreExpr::ty_lam(
                a,
                Kind::of_rep_var(r),
                CoreExpr::lam("x", Type::Var(a), CoreExpr::Var("x".into())),
            ),
        );
        let err = lower_expr(&env, &e).unwrap_err();
        assert!(
            matches!(err, LowerError::AbstractRepresentation { .. }),
            "{err}"
        );
    }

    #[test]
    fn program_lowering_defines_globals() {
        let env0 = TypeEnv::new();
        let b = &env0.builtins;
        let ih = Type::con0(&b.int_hash);
        let prog = Program {
            data_decls: b.data_decls.clone(),
            bindings: vec![levity_ir::terms::TopBind {
                name: "double".into(),
                ty: Type::fun(ih.clone(), ih.clone()),
                expr: CoreExpr::lam(
                    "x",
                    ih.clone(),
                    CoreExpr::Prim(
                        PrimOp::AddI,
                        vec![CoreExpr::Var("x".into()), CoreExpr::Var("x".into())],
                    ),
                ),
            }
            .into()],
        };
        let env = levity_ir::typecheck::check_program(&prog).unwrap();
        let globals = lower_program(&env, &prog).unwrap();
        assert_eq!(globals.len(), 1);
        let main = MExpr::app(MExpr::global("double"), Atom::Lit(Literal::Int(21)));
        let mut m = Machine::with_globals(globals);
        assert_eq!(
            m.run(main).unwrap(),
            RunOutcome::Value(Value::Lit(Literal::Int(42)))
        );
    }
}
