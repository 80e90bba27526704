//! Worker/wrapper unboxing: the §6.2 representation classes put to work.
//!
//! A function like
//!
//! ```text
//! loop :: Int -> Int -> Int
//! loop acc n = case n of { I# k -> case k of { 0# -> acc; _ -> … } }
//! ```
//!
//! scrutinises its boxed argument `n` before doing anything else, and is
//! strict in `acc` on every path (one branch returns it, the other
//! feeds it back into a strict position of the recursive call). Each
//! such argument is split: a **worker** `$wloop :: Int# -> Int# -> Int`
//! receives the payload in its §6.2 register class directly, and `loop`
//! becomes a thin **wrapper** that unboxes and tail-calls the worker.
//! The wrapper is then inlined at every call site (including the
//! worker's own recursive calls), and case-of-known-constructor cleanup
//! erases the reboxing — leaving a loop that runs entirely in unboxed
//! registers.
//!
//! Selection is deliberately conservative:
//!
//! * only **monomorphic** top-level functions (no quantifiers, no
//!   dictionary arguments) whose λ-arity matches their type;
//! * only arguments of single-constructor, single-field datatypes whose
//!   field has a concrete unboxed scalar representation (`Int`, `Double`,
//!   `Char` boxes — recognized from the data declarations, not by name);
//! * an argument qualifies if it is **head-scrutinised** (a `case` on it
//!   begins the body), or if every path through the body demands it —
//!   returns it in tail position, scrutinises it, or passes it to a
//!   strict position of a saturated self-call — **and** at least one
//!   path demands it directly (a witness), so a bare `f x = f x` never
//!   unboxes anything. The self-call rule mirrors GHC's strictness
//!   analysis on self-recursive loops; like GHC's, on a *diverging*
//!   call it can force a ⊥ argument that only the untaken terminating
//!   paths demand (observable only as one `error`/`<<loop>>` outcome
//!   replacing another, never as a wrong value — the imprecise-⊥
//!   latitude GHC also takes).
//!
//! The split also covers the **result** (GHC's constructed-product
//! result, CPR): when the result type is a single-constructor product
//! of concretely-represented fields, some tail path constructs it
//! directly, and *every call site scrutinises the result* (checked
//! program-wide — a result that escapes unscrutinised keeps its box),
//! the worker returns `(# field₁, … #)` and the wrapper reboxes. The
//! wrapper's rebox is erased by case-of-known-constructor at every
//! scrutinising call site, and a `case … of (# x… #) -> (# x… #)`
//! η-rule turns the worker's recursive tail calls into direct
//! tuple-returning jumps — deleting the per-iteration result box that
//! argument unboxing cannot touch.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use levity_core::rep::Rep;
use levity_core::symbol::Symbol;
use levity_ir::freshen;
use levity_ir::terms::{CoreAlt, CoreExpr, DataConInfo, LetKind, Program, TopBind, TyArg, TyParam};
use levity_ir::typecheck::{kind_of, match_con_result, Scope, TypeEnv};
use levity_ir::types::Type;
use levity_m::syntax::PrimOp;

use super::inline::{flatten_spine, SpinePart};
use super::subst::substitute;

/// A constructed-product-result (CPR) candidate: the function's result
/// is a single-constructor product whose every field has a concrete
/// scalar representation, so the worker can return the fields as an
/// unboxed tuple `(# τ₁, …, τₙ #)` and the wrapper rebox — which
/// case-of-known-constructor then erases at every scrutinising call
/// site, deleting the one allocation per loop iteration that argument
/// unboxing alone cannot reach.
struct CprInfo {
    /// The product's only constructor.
    con: Arc<DataConInfo>,
    /// Its type arguments at the function's (monomorphic) result type.
    ty_args: Vec<TyArg>,
    /// The instantiated field types — the unboxed tuple's components.
    field_tys: Vec<Type>,
}

impl CprInfo {
    /// The worker's result type, `(# τ₁, …, τₙ #)`.
    fn tuple_ty(&self) -> Type {
        Type::UnboxedTuple(self.field_tys.clone())
    }
}

/// Is `ty` a single-constructor product fit for CPR? Structural, like
/// [`unboxable`], but over the *result*: any arity ≥ 1, fields of any
/// concrete scalar representation (boxed fields ride along in pointer
/// registers). Rep-parameterised datatypes (dictionaries) and
/// levity-polymorphic fields are excluded — §6.2 has no register class
/// for them.
fn cpr_product(env: &TypeEnv, ty: &Type) -> Option<CprInfo> {
    let Type::Con(tc, _) = ty else {
        return None;
    };
    let decl = env.datatype(tc.name)?;
    if decl.cons.len() != 1 || !decl.params.iter().all(|p| matches!(p, TyParam::Ty(..))) {
        return None;
    }
    let con = Arc::clone(&decl.cons[0]);
    if con.arity() == 0 {
        return None;
    }
    let ty_args = match_con_result(&con, ty)?;
    let (field_tys, _) = con.instantiate(&ty_args)?;
    for ft in &field_tys {
        let kind = kind_of(env, &mut Scope::new(), ft).ok()?;
        match kind.concrete_rep() {
            None | Some(Rep::Tuple(_) | Rep::Sum(_)) => return None,
            Some(_) => {}
        }
    }
    Some(CprInfo {
        con,
        ty_args,
        field_tys,
    })
}

/// Flattens `e` into a term-argument spine, refusing any type or rep
/// application (CPR candidates are monomorphic).
fn term_spine(e: &CoreExpr) -> Option<(&CoreExpr, Vec<&CoreExpr>)> {
    let mut args = Vec::new();
    let mut cur = e;
    while let CoreExpr::App(f, a) = cur {
        args.push(&**a);
        cur = f;
    }
    if matches!(cur, CoreExpr::TyApp(..) | CoreExpr::RepApp(..)) {
        return None;
    }
    args.reverse();
    Some((cur, args))
}

/// Does every use of `f` in `e` keep its result from escaping — i.e.,
/// is every occurrence the head of a saturated call that is either the
/// scrutinee of a `case` or (inside `f`'s own body, `tail = true`) a
/// tail call that the CPR transform will retype? An escaping result
/// would make the wrapper's rebox the common path instead of the erased
/// one, so such functions keep their box.
fn cpr_uses_ok(e: &CoreExpr, f: Symbol, arity: usize, tail: bool) -> bool {
    match e {
        CoreExpr::Global(g) => *g != f,
        CoreExpr::Var(_) | CoreExpr::Lit(_) | CoreExpr::Error(..) => true,
        CoreExpr::App(..) => match saturated_call_of(e, f, arity) {
            // A tail call (inside f itself) is fine: the transform
            // rewrites it to return the tuple.
            Some(args) => tail && args.iter().all(|a| cpr_uses_ok(a, f, arity, false)),
            None => {
                let Some((head, args)) = term_spine(e) else {
                    // A type/rep application spine cannot involve the
                    // monomorphic f as head; check subterms anyway.
                    return cpr_uses_ok_children(e, f, arity);
                };
                cpr_uses_ok(head, f, arity, false)
                    && args.iter().all(|a| cpr_uses_ok(a, f, arity, false))
            }
        },
        CoreExpr::TyApp(g, _) | CoreExpr::RepApp(g, _) => cpr_uses_ok(g, f, arity, false),
        CoreExpr::Lam(_, _, b) => cpr_uses_ok(b, f, arity, false),
        CoreExpr::TyLam(_, _, b) | CoreExpr::RepLam(_, b) => cpr_uses_ok(b, f, arity, tail),
        CoreExpr::Let(_, _, _, rhs, body) => {
            cpr_uses_ok(rhs, f, arity, false) && cpr_uses_ok(body, f, arity, tail)
        }
        CoreExpr::Case(scrut, alts) => {
            let scrut_ok = match saturated_call_of(scrut, f, arity) {
                // The scrutinised call: the shape CPR exists for.
                Some(args) => args.iter().all(|a| cpr_uses_ok(a, f, arity, false)),
                None => cpr_uses_ok(scrut, f, arity, false),
            };
            scrut_ok
                && alts
                    .iter()
                    .all(|alt| cpr_uses_ok(alt.rhs(), f, arity, tail))
        }
        CoreExpr::Con(_, _, fields) => fields.iter().all(|a| cpr_uses_ok(a, f, arity, false)),
        CoreExpr::Prim(_, args) | CoreExpr::Tuple(args) => {
            args.iter().all(|a| cpr_uses_ok(a, f, arity, false))
        }
    }
}

/// The saturated-call view of `e`: its term arguments when `e` is
/// `f a₁ … aₙ` exactly.
fn saturated_call_of(e: &CoreExpr, f: Symbol, arity: usize) -> Option<Vec<&CoreExpr>> {
    let (head, args) = term_spine(e)?;
    match head {
        CoreExpr::Global(g) if *g == f && args.len() == arity => Some(args),
        _ => None,
    }
}

fn cpr_uses_ok_children(e: &CoreExpr, f: Symbol, arity: usize) -> bool {
    match e {
        CoreExpr::App(g, a) => cpr_uses_ok(g, f, arity, false) && cpr_uses_ok(a, f, arity, false),
        CoreExpr::TyApp(g, _) | CoreExpr::RepApp(g, _) => cpr_uses_ok(g, f, arity, false),
        _ => cpr_uses_ok(e, f, arity, false),
    }
}

/// Does some tail path of `body` construct the product directly? The
/// witness requirement keeps CPR from splitting functions that merely
/// forward another function's result.
fn has_con_tail_witness(body: &CoreExpr, con: Symbol) -> bool {
    match body {
        CoreExpr::Con(c, _, _) => c.name == con,
        CoreExpr::Case(_, alts) => alts.iter().any(|a| has_con_tail_witness(a.rhs(), con)),
        CoreExpr::Let(_, _, _, _, b) => has_con_tail_witness(b, con),
        _ => false,
    }
}

/// Rewrites every tail position of a CPR worker's body to yield the
/// unboxed tuple: direct constructions become `(# fields #)`, `error`
/// is retyped, and any other tail expression (a self-call through the
/// wrapper, a forwarded call) is unboxed with a `case` — which the
/// simplifier erases once the wrapper inlines.
fn cpr_tails(e: &CoreExpr, cpr: &CprInfo) -> CoreExpr {
    match e {
        CoreExpr::Con(c, _, fields) if c.name == cpr.con.name => CoreExpr::Tuple(fields.clone()),
        CoreExpr::Case(scrut, alts) => CoreExpr::Case(
            scrut.clone(),
            alts.iter()
                .map(|alt| match alt {
                    CoreAlt::Con { con, binders, rhs } => CoreAlt::Con {
                        con: Arc::clone(con),
                        binders: binders.clone(),
                        rhs: cpr_tails(rhs, cpr),
                    },
                    CoreAlt::Lit { lit, rhs } => CoreAlt::Lit {
                        lit: *lit,
                        rhs: cpr_tails(rhs, cpr),
                    },
                    CoreAlt::Tuple { binders, rhs } => CoreAlt::Tuple {
                        binders: binders.clone(),
                        rhs: cpr_tails(rhs, cpr),
                    },
                    CoreAlt::Default { binder, rhs } => CoreAlt::Default {
                        binder: binder.clone(),
                        rhs: cpr_tails(rhs, cpr),
                    },
                })
                .collect(),
        ),
        CoreExpr::Let(kind, x, t, rhs, body) => CoreExpr::Let(
            *kind,
            *x,
            t.clone(),
            rhs.clone(),
            Box::new(cpr_tails(body, cpr)),
        ),
        CoreExpr::Error(_, msg) => CoreExpr::Error(cpr.tuple_ty(), msg.clone()),
        other => {
            // Unbox whatever the tail evaluates to. The scrutinee's
            // type is the product, whose only constructor this is, so
            // the match is total.
            let binders: Vec<(Symbol, Type)> = cpr
                .field_tys
                .iter()
                .map(|t| (freshen(Symbol::intern("cpr")), t.clone()))
                .collect();
            CoreExpr::case(
                other.clone(),
                vec![CoreAlt::Con {
                    con: Arc::clone(&cpr.con),
                    binders: binders.clone(),
                    rhs: CoreExpr::Tuple(binders.iter().map(|(b, _)| CoreExpr::Var(*b)).collect()),
                }],
            )
        }
    }
}

/// A worker/wrapper split candidate argument.
struct Unboxing {
    /// The box constructor (`I#`, `D#`, …).
    con: Arc<DataConInfo>,
    /// The unboxed field type (`Int#`, …).
    field_ty: Type,
}

/// Is `ty` a single-constructor, single-field box around an unboxed
/// scalar? Recognized structurally from the data declarations.
fn unboxable(env: &TypeEnv, ty: &Type) -> Option<Unboxing> {
    let Type::Con(tc, args) = ty else {
        return None;
    };
    if !args.is_empty() {
        return None;
    }
    let decl = env.datatype(tc.name)?;
    if !decl.params.is_empty() || decl.cons.len() != 1 {
        return None;
    }
    let con = &decl.cons[0];
    if con.arity() != 1 {
        return None;
    }
    let field_ty = con.field_types[0].clone();
    let kind = kind_of(env, &mut Scope::new(), &field_ty).ok()?;
    match kind.concrete_rep() {
        Some(Rep::Lifted | Rep::Unlifted | Rep::Tuple(_) | Rep::Sum(_)) | None => None,
        Some(_) => Some(Unboxing {
            con: Arc::clone(con),
            field_ty,
        }),
    }
}

/// Context for the all-paths demand analysis.
struct DemandCx<'a> {
    env: &'a TypeEnv,
    /// The function being analysed (for self-call detection).
    fname: Symbol,
    /// Its argument names, in order.
    args: &'a [Symbol],
    /// Which argument positions have unboxed types (already values —
    /// evaluated at every call before the body runs).
    arg_unboxed: &'a [bool],
    /// Argument positions assumed strict (the immediate set plus the
    /// candidate under test).
    assumed: &'a HashSet<usize>,
}

/// Is `ty` an unboxed scalar type — one whose values cannot be thunks,
/// so forcing a variable of this type can never abort? Open types (only
/// reachable under local polymorphism) conservatively answer no.
fn is_unboxed_value_ty(env: &TypeEnv, ty: &Type) -> bool {
    match kind_of(env, &mut Scope::new(), ty) {
        Ok(kind) => !matches!(
            kind.concrete_rep(),
            Some(Rep::Lifted | Rep::Unlifted) | None
        ),
        Err(_) => false,
    }
}

/// Is `x` demanded *directly* somewhere in `e` — in evaluated position
/// (tail return, scrutinee, primop argument, application head), not
/// merely passed to a self-call? The all-paths analysis is an
/// optimistic fixpoint over self-calls; without a direct witness it
/// would conclude `f x = f x` is strict in `x` and force an argument a
/// diverging program never demands.
fn direct_demand_witness(e: &CoreExpr, x: Symbol) -> bool {
    match e {
        CoreExpr::Var(v) => *v == x,
        CoreExpr::Global(_)
        | CoreExpr::Lit(_)
        | CoreExpr::Error(..)
        | CoreExpr::Lam(..)
        | CoreExpr::Con(..)
        | CoreExpr::Tuple(_) => false,
        CoreExpr::TyLam(_, _, b) | CoreExpr::RepLam(_, b) => direct_demand_witness(b, x),
        CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) => direct_demand_witness(f, x),
        CoreExpr::Prim(_, args) => args.iter().any(|a| direct_demand_witness(a, x)),
        CoreExpr::App(..) => {
            let (head, _) = flatten_spine(e);
            matches!(head, CoreExpr::Var(v) if *v == x)
        }
        CoreExpr::Let(kind, y, _, rhs, body) => {
            let in_rhs = !(*kind == LetKind::Rec && *y == x) && direct_demand_witness(rhs, x);
            in_rhs || (*y != x && direct_demand_witness(body, x))
        }
        CoreExpr::Case(scrut, alts) => {
            if matches!(&**scrut, CoreExpr::Var(v) if *v == x) || direct_demand_witness(scrut, x) {
                return true;
            }
            alts.iter().any(|alt| {
                let shadowed = match alt {
                    CoreAlt::Con { binders, .. } | CoreAlt::Tuple { binders, .. } => {
                        binders.iter().any(|(b, _)| *b == x)
                    }
                    CoreAlt::Default { binder, .. } => {
                        matches!(binder, Some((b, _)) if *b == x)
                    }
                    CoreAlt::Lit { .. } => false,
                };
                !shadowed && direct_demand_witness(alt.rhs(), x)
            })
        }
    }
}

/// Can evaluating `e` be relied on not to abort or diverge? Used to
/// order demand against effects: atoms are values (prim arguments and
/// unboxed call arguments are unboxed-typed, so even a variable is
/// already a value), and total primops over atoms cannot fail.
fn eval_cannot_abort(e: &CoreExpr) -> bool {
    match e {
        CoreExpr::Var(_) | CoreExpr::Lit(_) => true,
        CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) => eval_cannot_abort(f),
        CoreExpr::Prim(op, args) => {
            !matches!(op, PrimOp::QuotI | PrimOp::RemI) && args.iter().all(eval_cannot_abort)
        }
        _ => false,
    }
}

/// Does evaluating `e` to WHNF demand the variable `x` on every path,
/// *before* any other evaluation that could abort or diverge with a
/// different observable? `evaluated` tracks in-scope variables known to
/// be values already (unboxed binders), whose forcing is free of
/// effects — only such scrutinees license the all-alternatives rule.
fn demands(e: &CoreExpr, x: Symbol, cx: &DemandCx<'_>, evaluated: &mut Vec<Symbol>) -> bool {
    match e {
        CoreExpr::Var(v) => *v == x,
        CoreExpr::Global(_)
        | CoreExpr::Lit(_)
        | CoreExpr::Error(..)
        | CoreExpr::Lam(..)
        | CoreExpr::Con(..)
        | CoreExpr::Tuple(_) => false,
        CoreExpr::TyLam(_, _, b) | CoreExpr::RepLam(_, b) => demands(b, x, cx, evaluated),
        CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) => demands(f, x, cx, evaluated),
        CoreExpr::Prim(_, args) => {
            // Arguments evaluate left-to-right; demand in a later
            // argument only counts while everything before it is
            // effect-free (prim arguments are unboxed-typed, so a
            // variable is already a value).
            for a in args {
                if demands(a, x, cx, evaluated) {
                    return true;
                }
                if !eval_cannot_abort(a) {
                    return false;
                }
            }
            false
        }
        CoreExpr::App(..) => {
            let (head, parts) = flatten_spine(e);
            match head {
                CoreExpr::Var(v) => *v == x,
                CoreExpr::Global(g) if *g == cx.fname => {
                    let terms: Vec<&CoreExpr> = parts
                        .iter()
                        .filter_map(|p| match p {
                            SpinePart::Term(t) => Some(t),
                            _ => None,
                        })
                        .collect();
                    if terms.len() != cx.args.len() || parts.len() != terms.len() {
                        return false;
                    }
                    // The callee's wrapper forces an assumed position
                    // only after the call's own unboxed arguments have
                    // evaluated — those must not be able to abort first.
                    let unboxed_args_safe = terms
                        .iter()
                        .enumerate()
                        .all(|(j, arg)| !cx.arg_unboxed[j] || eval_cannot_abort(arg));
                    unboxed_args_safe
                        && terms.iter().enumerate().any(|(j, arg)| {
                            cx.assumed.contains(&j) && demands(arg, x, cx, evaluated)
                        })
                }
                _ => false,
            }
        }
        CoreExpr::Let(kind, y, ty, rhs, body) => {
            // A *strict* (unboxed) binding evaluates its rhs first, so
            // demand there counts; a lazy rhs is merely thunked and
            // contributes nothing. The binder enters the evaluated set
            // exactly when the binding is strict.
            let strict = is_unboxed_value_ty(cx.env, ty);
            if *kind == LetKind::NonRec && strict {
                if demands(rhs, x, cx, evaluated) {
                    return true;
                }
                if !eval_cannot_abort(rhs) {
                    return false;
                }
            }
            if *y == x {
                return false;
            }
            if strict {
                evaluated.push(*y);
            }
            let out = demands(body, x, cx, evaluated);
            if strict {
                evaluated.pop();
            }
            out
        }
        CoreExpr::Case(scrut, alts) => {
            if demands(scrut, x, cx, evaluated) {
                return true;
            }
            // Demand inside every alternative only counts when forcing
            // the scrutinee cannot itself abort first with a different
            // observable: a literal, or a variable already known to be
            // a value (an unboxed binder or unboxed argument). A lazy
            // variable's thunk may abort, so it does not qualify.
            let transparent = match &**scrut {
                CoreExpr::Lit(_) => true,
                CoreExpr::Var(v) => {
                    evaluated.contains(v)
                        || cx
                            .args
                            .iter()
                            .position(|a| a == v)
                            .is_some_and(|i| cx.arg_unboxed[i])
                }
                _ => false,
            };
            if !transparent || alts.is_empty() {
                return false;
            }
            alts.iter().all(|alt| {
                let (binders, rhs): (Vec<(Symbol, Type)>, &CoreExpr) = match alt {
                    CoreAlt::Con { binders, rhs, .. } | CoreAlt::Tuple { binders, rhs } => {
                        (binders.clone(), rhs)
                    }
                    CoreAlt::Default { binder, rhs } => (binder.iter().cloned().collect(), rhs),
                    CoreAlt::Lit { rhs, .. } => (Vec::new(), rhs),
                };
                if binders.iter().any(|(b, _)| *b == x) {
                    return false;
                }
                let mut pushed = 0usize;
                for (b, t) in &binders {
                    if is_unboxed_value_ty(cx.env, t) {
                        evaluated.push(*b);
                        pushed += 1;
                    }
                }
                let out = demands(rhs, x, cx, evaluated);
                for _ in 0..pushed {
                    evaluated.pop();
                }
                out
            })
        }
    }
}

/// Does `f`'s result stay scrutinised program-wide? `f`'s own body is
/// analysed with its leading λs peeled, so tail self-calls (which the
/// CPR transform retypes) qualify.
fn result_never_escapes(prog: &Program, f: Symbol, arity: usize) -> bool {
    prog.bindings.iter().all(|b| {
        if b.name == f {
            let mut body = &b.expr;
            let mut peeled = 0usize;
            while peeled < arity {
                let CoreExpr::Lam(_, _, inner) = body else {
                    break;
                };
                body = inner;
                peeled += 1;
            }
            cpr_uses_ok(body, f, arity, true)
        } else {
            cpr_uses_ok(&b.expr, f, arity, false)
        }
    })
}

/// Runs the worker/wrapper split over the program. Returns the new
/// program, the set of wrapper names (which the caller must force-inline
/// so workers tail-call themselves directly), how many workers were
/// created, and how many of them are CPR workers (unboxed-tuple
/// results).
pub fn worker_wrapper(env: &TypeEnv, prog: &Program) -> (Program, HashSet<Symbol>, usize, usize) {
    let existing: HashSet<Symbol> = prog.bindings.iter().map(|b| b.name).collect();
    let mut wrappers = HashSet::new();
    let mut made = 0usize;
    let mut cpr_made = 0usize;
    let mut bindings: Vec<Arc<TopBind>> = Vec::with_capacity(prog.bindings.len());
    for b in &prog.bindings {
        match split_binding(env, b, &existing, prog) {
            Some((wrapper, worker, cpr_applied)) => {
                wrappers.insert(wrapper.name);
                made += 1;
                cpr_made += usize::from(cpr_applied);
                bindings.push(Arc::new(wrapper));
                bindings.push(Arc::new(worker));
            }
            None => bindings.push(b.clone()),
        }
    }
    (
        Program {
            data_decls: prog.data_decls.clone(),
            bindings,
        },
        wrappers,
        made,
        cpr_made,
    )
}

fn split_binding(
    env: &TypeEnv,
    b: &TopBind,
    existing: &HashSet<Symbol>,
    prog: &Program,
) -> Option<(TopBind, TopBind, bool)> {
    if b.name.as_str().starts_with("$w") {
        return None;
    }
    // Monomorphic function type only; no dictionary arguments.
    let (arg_tys, _result_ty) = b.ty.split_funs();
    if arg_tys.is_empty()
        || matches!(b.ty, Type::ForallTy(..) | Type::ForallRep(..))
        || arg_tys.iter().any(|t| matches!(t, Type::Dict(..)))
    {
        return None;
    }
    // Peel exactly one λ per argument.
    let mut lams: Vec<(Symbol, Type)> = Vec::new();
    let mut body = &b.expr;
    while let CoreExpr::Lam(x, t, inner) = body {
        if lams.len() == arg_tys.len() {
            break;
        }
        lams.push((*x, t.clone()));
        body = inner;
    }
    if lams.len() != arg_tys.len() {
        return None;
    }
    let arg_names: Vec<Symbol> = lams.iter().map(|(x, _)| *x).collect();
    let positions: HashMap<Symbol, usize> =
        arg_names.iter().enumerate().map(|(i, x)| (*x, i)).collect();
    let unboxings: Vec<Option<Unboxing>> = lams.iter().map(|(_, t)| unboxable(env, t)).collect();

    // Phase 1: head-scrutinised arguments, in scrutiny order. The
    // unboxed field binders they introduce are values in the rest of
    // the body — phase 2's demand analysis starts from that knowledge.
    let mut order: Vec<usize> = Vec::new();
    let mut peel_binders: Vec<Symbol> = Vec::new();
    let mut rest = body;
    while let CoreExpr::Case(scrut, alts) = rest {
        let CoreExpr::Var(v) = &**scrut else { break };
        let Some(&i) = positions.get(v) else { break };
        let Some(u) = &unboxings[i] else { break };
        if order.contains(&i) {
            break;
        }
        let [CoreAlt::Con { con, binders, rhs }] = &alts[..] else {
            break;
        };
        if con.name != u.con.name || binders.len() != 1 {
            break;
        }
        order.push(i);
        peel_binders.push(binders[0].0);
        rest = rhs;
    }
    // Phase 2: arguments demanded on every remaining path.
    let arg_unboxed: Vec<bool> = lams
        .iter()
        .map(|(_, t)| is_unboxed_value_ty(env, t))
        .collect();
    for i in 0..arg_names.len() {
        if order.contains(&i) || unboxings[i].is_none() {
            continue;
        }
        let assumed: HashSet<usize> = order.iter().copied().chain([i]).collect();
        let cx = DemandCx {
            env,
            fname: b.name,
            args: &arg_names,
            arg_unboxed: &arg_unboxed,
            assumed: &assumed,
        };
        let mut evaluated = peel_binders.clone();
        if direct_demand_witness(rest, arg_names[i])
            && demands(rest, arg_names[i], &cx, &mut evaluated)
        {
            order.push(i);
        }
    }
    // Result demand: CPR applies when the result is a single-con
    // product, some tail constructs it directly, and no call site lets
    // it escape unscrutinised.
    let result_ty = {
        let (_, r) = b.ty.split_funs();
        r.clone()
    };
    let cpr = cpr_product(env, &result_ty)
        .filter(|c| has_con_tail_witness(body, c.con.name))
        .filter(|_| result_never_escapes(prog, b.name, arg_names.len()));
    if order.is_empty() && cpr.is_none() {
        return None;
    }

    let worker_name = Symbol::intern(&format!("$w{}", b.name));
    if existing.contains(&worker_name) {
        return None;
    }

    // Worker: same λ-chain, unboxed binders for the selected arguments;
    // occurrences of a selected argument rebox (case-of-known-con erases
    // the rebox wherever the body scrutinises).
    let mut worker_args: Vec<(Symbol, Type)> = Vec::new();
    let mut rebox: HashMap<Symbol, CoreExpr> = HashMap::new();
    for (i, (x, t)) in lams.iter().enumerate() {
        if order.contains(&i) {
            let u = unboxings[i].as_ref().expect("selected implies unboxable");
            let y = freshen(*x);
            rebox.insert(
                *x,
                CoreExpr::Con(Arc::clone(&u.con), Vec::new(), vec![CoreExpr::Var(y)]),
            );
            worker_args.push((y, u.field_ty.clone()));
        } else {
            worker_args.push((*x, t.clone()));
        }
    }
    let mut unboxed_body = substitute(body, &rebox);
    if let Some(c) = &cpr {
        unboxed_body = cpr_tails(&unboxed_body, c);
    }
    let worker_body = CoreExpr::lams(worker_args.clone(), unboxed_body);
    let worker_result = match &cpr {
        Some(c) => c.tuple_ty(),
        None => result_ty.clone(),
    };
    let worker_ty = Type::funs(worker_args.iter().map(|(_, t)| t.clone()), worker_result);

    // Wrapper: unbox the selected arguments in demand order, tail-call
    // the worker, rebox a CPR result.
    let wrapper_args: Vec<(Symbol, Type)> =
        lams.iter().map(|(x, t)| (freshen(*x), t.clone())).collect();
    let mut payload: HashMap<usize, Symbol> = HashMap::new();
    for &i in &order {
        payload.insert(i, freshen(arg_names[i]));
    }
    let call = CoreExpr::apps(
        CoreExpr::Global(worker_name),
        wrapper_args
            .iter()
            .enumerate()
            .map(|(i, (w, _))| match payload.get(&i) {
                Some(z) => CoreExpr::Var(*z),
                None => CoreExpr::Var(*w),
            }),
    );
    let call = match &cpr {
        Some(c) => {
            // case $wf … of (# r₁, … #) -> C r₁ … — erased by
            // case-of-known-con wherever the call site scrutinises.
            let binders: Vec<(Symbol, Type)> = c
                .field_tys
                .iter()
                .map(|t| (freshen(Symbol::intern("r")), t.clone()))
                .collect();
            CoreExpr::case(
                call,
                vec![CoreAlt::Tuple {
                    binders: binders.clone(),
                    rhs: CoreExpr::Con(
                        Arc::clone(&c.con),
                        c.ty_args.clone(),
                        binders.iter().map(|(x, _)| CoreExpr::Var(*x)).collect(),
                    ),
                }],
            )
        }
        None => call,
    };
    // Innermost case last: build from the end of the demand order.
    let mut wrapper_body = call;
    for &i in order.iter().rev() {
        let u = unboxings[i].as_ref().expect("selected implies unboxable");
        wrapper_body = CoreExpr::case(
            CoreExpr::Var(wrapper_args[i].0),
            vec![CoreAlt::Con {
                con: Arc::clone(&u.con),
                binders: vec![(payload[&i], u.field_ty.clone())],
                rhs: wrapper_body,
            }],
        );
    }
    let wrapper = TopBind {
        name: b.name,
        ty: b.ty.clone(),
        expr: CoreExpr::lams(wrapper_args, wrapper_body),
    };
    let worker = TopBind {
        name: worker_name,
        ty: worker_ty,
        expr: worker_body,
    };
    Some((wrapper, worker, cpr.is_some()))
}
