//! The simplifier: inlining at call sites, case-of-known-constructor
//! and friends.
//!
//! Grafts and worker/wrapper leave behind shapes like
//!
//! ```text
//! case (let a = … in case b of { I# y -> I# (x -# y) }) of { I# k -> e }
//! ```
//!
//! This pass normalizes them away with local, outcome-exact rules:
//!
//! * **graft** — a saturated call to a small non-recursive global, or to
//!   a worker/wrapper wrapper, becomes the callee's β-reduced body
//!   ([`super::inline`] decides which callees qualify and rewrites the
//!   call);
//! * **β** — a literal `(\x -> e) a` redex reduces (via the inliner's
//!   machinery, so argument evaluation order is preserved);
//! * **case-of-let** — `case (let x = r in b) of alts` floats the `let`
//!   outward (binder freshened so the alternatives cannot be captured);
//! * **case-of-case** — when the inner case has exactly *one*
//!   alternative, the outer case pushes into it directly (no code
//!   duplication); a *multi*-alternative inner case goes through
//!   [`super::join`]: the outer alternatives become join points and the
//!   pushed copies are jumps, so worker results flow into their
//!   consumers without duplicating continuations;
//! * **tuple-η** — `case e of (# x… #) -> (# x… #)` is `e`: this is
//!   what turns a CPR worker's reboxed-then-unboxed recursive tail
//!   call back into a direct tuple-returning call;
//! * **case-of-known-constructor** — a case whose scrutinee is a visible
//!   constructor application, unboxed tuple, literal, or a global CAF
//!   that is a constructor of atoms (a specialised dictionary) selects
//!   its alternative at compile time; field binders become `let`s, whose
//!   type-directed strictness matches exactly how lowering would have
//!   bound the constructor's fields;
//! * **let-of-atom / dead let** — `let x = atom in b` substitutes, and
//!   an unused binder is dropped when doing so cannot lose an effect
//!   (always for lazy pointers, only for manifestly pure right-hand
//!   sides when the binding is strict).
//!
//! Every strictness decision is made from the binder's *type* via
//! [`kind_of`], exactly the §6.2 rule lowering itself uses — which is
//! what makes these rewrites representation-preserving.
//!
//! **The grafting rule.** A body is simplified in up to four rounds,
//! and only the first grafts: top-down, on the nodes of the body handed
//! in and of each graft, before the walk descends into them (the other
//! rules apply bottom-up, children first). The result of a rewrite is
//! walked without grafting, so a call that a rewrite exposes (`let k =
//! h in k 0#` becomes `h 0#`) is grafted by the next pass. Grafts come
//! from the pass's input bodies, and no callee on a call-graph cycle is
//! inlineable, so grafting terminates; a graft neither marks a round
//! changed nor spends rewrite fuel.
//!
//! The pass works from the optimizer's entry points, through
//! [`rewrite_reachable`]: it simplifies the entries, then whatever the
//! simplified bodies still call, and drops every binding no simplified
//! body reaches — a callee whose every call was grafted, or one only a
//! discarded branch mentioned, goes in the pass that emptied it, as GHC
//! drops a binding in the pass that inlines its last use. A chain
//! `c_j x = c_{j-1} …` therefore collapses into `main` once, not into
//! every `c_j` on the way, and the passes after it see only `main`; the
//! last pass leaves nothing unreachable behind it. Grafts and the
//! constructor globals are read off the pass's input, so the result
//! does not depend on the visit order; the fresh binder names do, which
//! is why the walk's order is fixed (see [`usage`](super::usage)).

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use levity_core::rep::Rep;
use levity_core::symbol::Symbol;
use levity_ir::freshen;
use levity_ir::terms::{CoreAlt, CoreExpr, LetKind, Program};
use levity_ir::typecheck::{kind_of, Scope, ScopeEntry, TypeEnv};
use levity_ir::types::Type;
use levity_m::syntax::Literal;

use super::inline::{self, inlineable, reduce_redex};
use super::subst::{count_uses, is_atom, is_value_atom, substitute};
use super::usage::rewrite_reachable;

/// Hard cap on rewrites per binding; guarantees termination regardless
/// of rule interaction.
const REWRITE_FUEL: u32 = 10_000;

/// How a binder of a given type is bound by lowering.
#[derive(Clone, Copy, PartialEq)]
enum Strictness {
    /// Pointer-kinded: bound lazily (a thunk).
    Lazy,
    /// Unboxed: bound strictly (evaluated now).
    Strict,
    /// Kind unknown here (open type under polymorphism): assume nothing.
    Unknown,
}

/// A global binding that is a constructor application of atoms — a
/// specialised dictionary CAF, or any other statically known record.
struct GlobalCon {
    con: Symbol,
    fields: Vec<CoreExpr>,
}

/// Shared context for one simplification pass: the bodies it may graft,
/// and the globals that are constructors of atoms, both read off the
/// pass's input. `grafts` counts the calls grafted and `join_points` the
/// continuations bound by the multi-alternative case-of-case rule
/// (`Cell`s so the read-mostly context can stay shared).
struct Cx<'a> {
    env: &'a TypeEnv,
    bodies: HashMap<Symbol, &'a CoreExpr>,
    global_cons: HashMap<Symbol, GlobalCon>,
    grafts: Cell<usize>,
    join_points: Cell<usize>,
}

impl Cx<'_> {
    fn strictness(&self, scope: &mut Scope, ty: &Type) -> Strictness {
        match kind_of(self.env, scope, ty) {
            Ok(kind) => match kind.concrete_rep() {
                Some(Rep::Lifted | Rep::Unlifted) => Strictness::Lazy,
                Some(_) => Strictness::Strict,
                None => Strictness::Unknown,
            },
            Err(_) => Strictness::Unknown,
        }
    }
}

/// Is evaluating this expression guaranteed effect-free (no abort, no
/// divergence)? Used to drop dead *strict* lets. `Global` does not
/// qualify: evaluating it runs its top-level body, which may abort
/// (think `bad :: Int#` = a division by zero); likewise constructor
/// fields, whose unboxed members evaluate at construction.
fn pure_value(e: &CoreExpr) -> bool {
    match e {
        CoreExpr::Var(_) | CoreExpr::Lit(_) => true,
        CoreExpr::Lam(..) | CoreExpr::TyLam(..) | CoreExpr::RepLam(..) => true,
        CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) => pure_value(f),
        CoreExpr::Con(_, _, fields) | CoreExpr::Tuple(fields) => fields.iter().all(is_value_atom),
        _ => false,
    }
}

/// Can this expression be *evaluated early* without changing any
/// observable — no abort, no divergence, no thunk forced? Variables
/// and literals are values; total primops over such arguments compute
/// but cannot fail (`quot`/`rem` can divide by zero, so they do not
/// qualify). Used by the let-float rule, which moves an evaluation
/// forward in time.
fn pure_total(e: &CoreExpr) -> bool {
    match e {
        CoreExpr::Var(_) | CoreExpr::Lit(_) => true,
        CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) => pure_total(f),
        CoreExpr::Prim(op, args) => {
            !matches!(
                op,
                levity_m::syntax::PrimOp::QuotI | levity_m::syntax::PrimOp::RemI
            ) && args.iter().all(pure_total)
        }
        _ => false,
    }
}

/// Runs one simplifier pass over the bindings reachable from `entries`
/// (to a bounded fixpoint per binding), grafting calls to the callees
/// `inline::inlineable` selects from `prog` and `force_inline`. Returns
/// the rewritten program — the rewritten reachable bindings only, in
/// program order, each with neither graft nor rewrite kept as the same
/// `Arc` — the number of calls grafted, the number of rewrites applied,
/// and the number of join points bound by the case-of-case rule.
pub fn simplify(
    env: &TypeEnv,
    prog: &Program,
    entries: &HashSet<Symbol>,
    force_inline: &HashSet<Symbol>,
) -> (Program, usize, usize, usize) {
    let mut global_cons = HashMap::new();
    for b in &prog.bindings {
        if let CoreExpr::Con(con, _, fields) = &b.expr {
            if fields.iter().all(is_atom) {
                global_cons.insert(
                    b.name,
                    GlobalCon {
                        con: con.name,
                        fields: fields.clone(),
                    },
                );
            }
        }
    }
    let cx = Cx {
        env,
        bodies: inlineable(prog, force_inline),
        global_cons,
        grafts: Cell::new(0),
        join_points: Cell::new(0),
    };
    let mut rewrites = 0usize;
    let out = rewrite_reachable(prog, entries, |b| {
        let grafts = cx.grafts.get();
        let (expr, n) = simp_rounds(&b.expr, &cx);
        rewrites += n;
        super::rebuilt(b, n + cx.grafts.get() - grafts, expr)
    });
    (out, cx.grafts.get(), rewrites, cx.join_points.get())
}

/// Simplifies one body: up to four rounds, each with fresh fuel, until
/// a round rewrites nothing; only the first grafts. Returns the body
/// and its rewrite count.
fn simp_rounds(body: &CoreExpr, cx: &Cx<'_>) -> (CoreExpr, usize) {
    let mut rewrites = 0usize;
    let mut round = |e: &CoreExpr, graft: bool| {
        let mut fuel = REWRITE_FUEL;
        let mut changed = false;
        let out = simp(e, cx, graft, &mut Scope::new(), &mut changed, &mut fuel);
        rewrites += (REWRITE_FUEL - fuel) as usize;
        (out, changed)
    };
    let (mut expr, mut changed) = round(body, true);
    for _ in 1..4 {
        if !changed {
            break;
        }
        (expr, changed) = round(&expr, false);
    }
    (expr, rewrites)
}

/// Simplifies `e`, grafting its inlineable calls first when `graft` is
/// set (see the module docs for the grafting rule).
fn simp(
    e: &CoreExpr,
    cx: &Cx<'_>,
    graft: bool,
    scope: &mut Scope,
    changed: &mut bool,
    fuel: &mut u32,
) -> CoreExpr {
    // Top-down: graft the node before descending into it, in a loop
    // here rather than one frame deeper per graft.
    let mut grafted = None;
    if graft {
        while let Some(next) = inline::graft(grafted.as_ref().unwrap_or(e), &cx.bodies) {
            cx.grafts.set(cx.grafts.get() + 1);
            grafted = Some(next);
        }
    }
    let e = grafted.as_ref().unwrap_or(e);
    // Bottom-up: simplify children first.
    let node = match e {
        CoreExpr::Var(_) | CoreExpr::Global(_) | CoreExpr::Lit(_) | CoreExpr::Error(..) => {
            e.clone()
        }
        CoreExpr::App(f, a) => CoreExpr::app(
            simp(f, cx, graft, scope, changed, fuel),
            simp(a, cx, graft, scope, changed, fuel),
        ),
        CoreExpr::TyApp(f, t) => {
            CoreExpr::ty_app(simp(f, cx, graft, scope, changed, fuel), t.clone())
        }
        CoreExpr::RepApp(f, r) => {
            CoreExpr::rep_app(simp(f, cx, graft, scope, changed, fuel), r.clone())
        }
        CoreExpr::Lam(x, t, b) => {
            scope.push(*x, ScopeEntry::Term(t.clone()));
            let b = simp(b, cx, graft, scope, changed, fuel);
            scope.pop();
            CoreExpr::lam(*x, t.clone(), b)
        }
        CoreExpr::TyLam(a, k, b) => {
            scope.push(*a, ScopeEntry::TyVar(k.clone()));
            let b = simp(b, cx, graft, scope, changed, fuel);
            scope.pop();
            CoreExpr::ty_lam(*a, k.clone(), b)
        }
        CoreExpr::RepLam(r, b) => {
            scope.push(*r, ScopeEntry::RepVar);
            let b = simp(b, cx, graft, scope, changed, fuel);
            scope.pop();
            CoreExpr::rep_lam(*r, b)
        }
        CoreExpr::Let(kind, x, t, rhs, body) => {
            let rhs = if *kind == LetKind::Rec {
                scope.push(*x, ScopeEntry::Term(t.clone()));
                let r = simp(rhs, cx, graft, scope, changed, fuel);
                scope.pop();
                r
            } else {
                simp(rhs, cx, graft, scope, changed, fuel)
            };
            scope.push(*x, ScopeEntry::Term(t.clone()));
            let body = simp(body, cx, graft, scope, changed, fuel);
            scope.pop();
            CoreExpr::Let(*kind, *x, t.clone(), Box::new(rhs), Box::new(body))
        }
        CoreExpr::Case(scrut, alts) => {
            let scrut = simp(scrut, cx, graft, scope, changed, fuel);
            let alts = alts
                .iter()
                .map(|alt| simp_alt(alt, cx, graft, scope, changed, fuel))
                .collect();
            CoreExpr::Case(Box::new(scrut), alts)
        }
        CoreExpr::Con(con, ty_args, fields) => CoreExpr::Con(
            Arc::clone(con),
            ty_args.clone(),
            fields
                .iter()
                .map(|f| simp(f, cx, graft, scope, changed, fuel))
                .collect(),
        ),
        CoreExpr::Prim(op, args) => CoreExpr::Prim(
            *op,
            args.iter()
                .map(|a| simp(a, cx, graft, scope, changed, fuel))
                .collect(),
        ),
        CoreExpr::Tuple(args) => CoreExpr::Tuple(
            args.iter()
                .map(|a| simp(a, cx, graft, scope, changed, fuel))
                .collect(),
        ),
    };
    // Then rewrite the node itself; a successful rewrite is re-entered
    // so newly exposed redexes (case-of-known-con after a push, a let of
    // an atom after a selection) simplify in the same pass. The result
    // is walked without grafting: a call the rewrite exposed is grafted
    // by the next pass.
    if *fuel == 0 {
        return node;
    }
    match rewrite(&node, cx, scope) {
        Some(next) => {
            *changed = true;
            *fuel -= 1;
            simp(&next, cx, false, scope, changed, fuel)
        }
        None => node,
    }
}

fn simp_alt(
    alt: &CoreAlt,
    cx: &Cx<'_>,
    graft: bool,
    scope: &mut Scope,
    changed: &mut bool,
    fuel: &mut u32,
) -> CoreAlt {
    match alt {
        CoreAlt::Con { con, binders, rhs } => {
            for (x, t) in binders {
                scope.push(*x, ScopeEntry::Term(t.clone()));
            }
            let rhs = simp(rhs, cx, graft, scope, changed, fuel);
            for _ in binders {
                scope.pop();
            }
            CoreAlt::Con {
                con: Arc::clone(con),
                binders: binders.clone(),
                rhs,
            }
        }
        CoreAlt::Lit { lit, rhs } => CoreAlt::Lit {
            lit: *lit,
            rhs: simp(rhs, cx, graft, scope, changed, fuel),
        },
        CoreAlt::Tuple { binders, rhs } => {
            for (x, t) in binders {
                scope.push(*x, ScopeEntry::Term(t.clone()));
            }
            let rhs = simp(rhs, cx, graft, scope, changed, fuel);
            for _ in binders {
                scope.pop();
            }
            CoreAlt::Tuple {
                binders: binders.clone(),
                rhs,
            }
        }
        CoreAlt::Default { binder, rhs } => {
            if let Some((x, t)) = binder {
                scope.push(*x, ScopeEntry::Term(t.clone()));
            }
            let rhs = simp(rhs, cx, graft, scope, changed, fuel);
            if binder.is_some() {
                scope.pop();
            }
            CoreAlt::Default {
                binder: binder.clone(),
                rhs,
            }
        }
    }
}

/// Tries exactly one rewrite at this node.
fn rewrite(e: &CoreExpr, cx: &Cx<'_>, scope: &mut Scope) -> Option<CoreExpr> {
    if let Some(reduced) = reduce_redex(e) {
        return Some(reduced);
    }
    match e {
        CoreExpr::Case(scrut, alts) => {
            // Tuple-η: case e of (# x… #) -> (# x… #)  ==>  e. Both
            // sides force the scrutinee to the same multi-value.
            if let [CoreAlt::Tuple {
                binders,
                rhs: CoreExpr::Tuple(es),
            }] = &alts[..]
            {
                let eta = es.len() == binders.len()
                    && es
                        .iter()
                        .zip(binders)
                        .all(|(e, (b, _))| matches!(e, CoreExpr::Var(v) if v == b));
                if eta {
                    return Some((**scrut).clone());
                }
            }
            rewrite_case(scrut, alts, cx, scope)
        }
        CoreExpr::Let(kind, x, ty, rhs, body) => rewrite_let(*kind, *x, ty, rhs, body, cx, scope),
        _ => None,
    }
}

fn rewrite_let(
    kind: LetKind,
    x: Symbol,
    ty: &Type,
    rhs: &CoreExpr,
    body: &CoreExpr,
    cx: &Cx<'_>,
    scope: &mut Scope,
) -> Option<CoreExpr> {
    let uses = count_uses(body, x);
    let strictness = cx.strictness(scope, ty);
    // Dead binder.
    if uses == 0 {
        let droppable = match strictness {
            // A lazy binding that is never used is never forced —
            // recursive or not, the thunk is inert.
            Strictness::Lazy => true,
            Strictness::Strict | Strictness::Unknown => pure_value(rhs),
        };
        if droppable {
            return Some(body.clone());
        }
    }
    // Atom right-hand side: a variable or literal substitutes freely
    // (it is a value in either strictness). A `Global` is different —
    // evaluating it runs its top-level body — so it may only replace a
    // *lazy* binder (the use sites demand it exactly where the thunk
    // would have been forced), and only a single use (a thunk shares
    // the evaluation; duplicating it would be a pessimization). Under a
    // strict binding the global evaluates here and now, and moving that
    // evaluation could drop or reorder an abort.
    if kind == LetKind::NonRec && is_atom(rhs) {
        let ok = is_value_atom(rhs) || (strictness == Strictness::Lazy && uses <= 1);
        if ok {
            let mut map = HashMap::new();
            map.insert(x, rhs.clone());
            return Some(substitute(body, &map));
        }
    }
    // let x = (let y = e in b) in body
    //   ==>  let y' = e in let x = b in body
    // when the inner binding is strict (unboxed) and its right-hand
    // side is pure and total: evaluating `e` early cannot abort,
    // diverge, or force anything, so no observable moves — only the
    // evaluation's position. This is what lets the known-constructor
    // rule below see through the let-wrapped boxes the inliner's
    // argument lets produce (`let acc = (let! y = n +# n in I# …) in
    // … case acc of …`), and with it the reboxing in a specialised
    // clone's loop disappears entirely.
    if kind == LetKind::NonRec {
        if let CoreExpr::Let(LetKind::NonRec, y, yt, ye, yb) = rhs {
            if cx.strictness(scope, yt) == Strictness::Strict && pure_total(ye) {
                let fresh = freshen(*y);
                let mut map = HashMap::new();
                map.insert(*y, CoreExpr::Var(fresh));
                let inner_body = substitute(yb, &map);
                return Some(CoreExpr::Let(
                    LetKind::NonRec,
                    fresh,
                    yt.clone(),
                    Box::new((**ye).clone()),
                    Box::new(CoreExpr::Let(
                        kind,
                        x,
                        ty.clone(),
                        Box::new(inner_body),
                        Box::new(body.clone()),
                    )),
                ));
            }
        }
    }
    // A binder whose right-hand side is a visible constructor
    // application: every `case x of …` in the body can select its
    // alternative now (evaluating the thunk could only have produced
    // exactly this constructor). Sound unconditionally when the fields
    // are atoms; with computed fields, only when the binder is forced at
    // a single site *not under a λ* (the field computation moves to
    // that site — same first-force timing, and no work can be
    // duplicated; a λ-body site would recompute a once-memoized thunk
    // on every call, so the walk refuses to descend there). Once no
    // scrutinee mentions x, the dead-let rule erases the allocation —
    // this is what unboxes a worker's reboxed recursive arguments.
    if kind == LetKind::NonRec {
        if let CoreExpr::Con(con, _, fields) = rhs {
            let atoms_only = fields.iter().all(is_value_atom);
            if atoms_only || uses == 1 {
                let mut stop = vec![x];
                for f in fields {
                    stop.extend(super::subst::free_term_vars(f));
                }
                let mut n = 0usize;
                let body = replace_known_case(body, x, con.name, fields, &stop, atoms_only, &mut n);
                if n > 0 {
                    return Some(CoreExpr::Let(
                        kind,
                        x,
                        ty.clone(),
                        Box::new(rhs.clone()),
                        Box::new(body),
                    ));
                }
            }
        }
    }
    None
}

/// Rewrites every `case v of alts` in `e` (where `v` is known to be the
/// constructor `cname` applied to `fields`) into the selected
/// alternative. Stops at any binder in `stop` — a shadower of `v` itself
/// or of a field's free variable — leaving that subtree untouched, and
/// refuses to descend into λ-bodies unless the fields are atoms
/// (rewriting there would move a shared computation into per-call code).
fn replace_known_case(
    e: &CoreExpr,
    v: Symbol,
    cname: Symbol,
    fields: &[CoreExpr],
    stop: &[Symbol],
    atoms_only: bool,
    n: &mut usize,
) -> CoreExpr {
    let go =
        |e: &CoreExpr, n: &mut usize| replace_known_case(e, v, cname, fields, stop, atoms_only, n);
    match e {
        CoreExpr::Case(scrut, alts) if matches!(&**scrut, CoreExpr::Var(s) if *s == v) => {
            if let Some(selected) = select_con(cname, fields, alts, Some(scrut)) {
                *n += 1;
                // The selection may expose further cases on `v` inside
                // the chosen alternative.
                return go(&selected, n);
            }
            let alts = alts
                .iter()
                .map(|a| known_case_alt(a, stop, &go, n))
                .collect();
            CoreExpr::Case(Box::new((**scrut).clone()), alts)
        }
        CoreExpr::Var(_) | CoreExpr::Global(_) | CoreExpr::Lit(_) | CoreExpr::Error(..) => {
            e.clone()
        }
        CoreExpr::App(f, a) => CoreExpr::app(go(f, n), go(a, n)),
        CoreExpr::TyApp(f, t) => CoreExpr::ty_app(go(f, n), t.clone()),
        CoreExpr::RepApp(f, r) => CoreExpr::rep_app(go(f, n), r.clone()),
        CoreExpr::Lam(x, t, b) => {
            if stop.contains(x) || !atoms_only {
                e.clone()
            } else {
                CoreExpr::lam(*x, t.clone(), go(b, n))
            }
        }
        CoreExpr::TyLam(a, k, b) => CoreExpr::ty_lam(*a, k.clone(), go(b, n)),
        CoreExpr::RepLam(r, b) => CoreExpr::rep_lam(*r, go(b, n)),
        CoreExpr::Let(kind, x, t, rhs, body) => {
            let shadowed = stop.contains(x);
            let rhs = if *kind == LetKind::Rec && shadowed {
                (**rhs).clone()
            } else {
                go(rhs, n)
            };
            let body = if shadowed {
                (**body).clone()
            } else {
                go(body, n)
            };
            CoreExpr::Let(*kind, *x, t.clone(), Box::new(rhs), Box::new(body))
        }
        CoreExpr::Case(scrut, alts) => {
            let scrut = go(scrut, n);
            let alts = alts
                .iter()
                .map(|a| known_case_alt(a, stop, &go, n))
                .collect();
            CoreExpr::Case(Box::new(scrut), alts)
        }
        CoreExpr::Con(con, ty_args, fields_) => CoreExpr::Con(
            Arc::clone(con),
            ty_args.clone(),
            fields_.iter().map(|f| go(f, n)).collect(),
        ),
        CoreExpr::Prim(op, args) => CoreExpr::Prim(*op, args.iter().map(|a| go(a, n)).collect()),
        CoreExpr::Tuple(args) => CoreExpr::Tuple(args.iter().map(|a| go(a, n)).collect()),
    }
}

fn known_case_alt(
    alt: &CoreAlt,
    stop: &[Symbol],
    go: &dyn Fn(&CoreExpr, &mut usize) -> CoreExpr,
    n: &mut usize,
) -> CoreAlt {
    let shadowed = match alt {
        CoreAlt::Con { binders, .. } | CoreAlt::Tuple { binders, .. } => {
            binders.iter().any(|(b, _)| stop.contains(b))
        }
        CoreAlt::Default { binder, .. } => {
            matches!(binder, Some((b, _)) if stop.contains(b))
        }
        CoreAlt::Lit { .. } => false,
    };
    if shadowed {
        return alt.clone();
    }
    match alt {
        CoreAlt::Con { con, binders, rhs } => CoreAlt::Con {
            con: Arc::clone(con),
            binders: binders.clone(),
            rhs: go(rhs, n),
        },
        CoreAlt::Lit { lit, rhs } => CoreAlt::Lit {
            lit: *lit,
            rhs: go(rhs, n),
        },
        CoreAlt::Tuple { binders, rhs } => CoreAlt::Tuple {
            binders: binders.clone(),
            rhs: go(rhs, n),
        },
        CoreAlt::Default { binder, rhs } => CoreAlt::Default {
            binder: binder.clone(),
            rhs: go(rhs, n),
        },
    }
}

fn rewrite_case(
    scrut: &CoreExpr,
    alts: &[CoreAlt],
    cx: &Cx<'_>,
    scope: &mut Scope,
) -> Option<CoreExpr> {
    match scrut {
        // case (let x = r in b) of alts  ==>  let x' = r in case b' of alts
        CoreExpr::Let(kind, x, ty, rhs, body) => {
            let fresh = freshen(*x);
            let mut map = HashMap::new();
            map.insert(*x, CoreExpr::Var(fresh));
            let rhs = if *kind == LetKind::Rec {
                substitute(rhs, &map)
            } else {
                (**rhs).clone()
            };
            let body = substitute(body, &map);
            Some(CoreExpr::Let(
                *kind,
                fresh,
                ty.clone(),
                Box::new(rhs),
                Box::new(CoreExpr::case(body, alts.to_vec())),
            ))
        }
        // case (case s of { p -> r }) of alts
        //   ==>  case s of { p -> case r of alts }     (single alt only)
        CoreExpr::Case(inner_scrut, inner_alts) if inner_alts.len() == 1 => {
            let pushed = match &inner_alts[0] {
                CoreAlt::Con { con, binders, rhs } => {
                    let (binders, rhs) = refresh_alt_binders(binders, rhs);
                    CoreAlt::Con {
                        con: Arc::clone(con),
                        binders,
                        rhs: CoreExpr::case(rhs, alts.to_vec()),
                    }
                }
                CoreAlt::Lit { lit, rhs } => CoreAlt::Lit {
                    lit: *lit,
                    rhs: CoreExpr::case(rhs.clone(), alts.to_vec()),
                },
                CoreAlt::Tuple { binders, rhs } => {
                    let (binders, rhs) = refresh_alt_binders(binders, rhs);
                    CoreAlt::Tuple {
                        binders,
                        rhs: CoreExpr::case(rhs, alts.to_vec()),
                    }
                }
                CoreAlt::Default { binder, rhs } => match binder {
                    Some((x, t)) => {
                        let fresh = freshen(*x);
                        let mut map = HashMap::new();
                        map.insert(*x, CoreExpr::Var(fresh));
                        CoreAlt::Default {
                            binder: Some((fresh, t.clone())),
                            rhs: CoreExpr::case(substitute(rhs, &map), alts.to_vec()),
                        }
                    }
                    None => CoreAlt::Default {
                        binder: None,
                        rhs: CoreExpr::case(rhs.clone(), alts.to_vec()),
                    },
                },
            };
            Some(CoreExpr::case((**inner_scrut).clone(), vec![pushed]))
        }
        // Multi-alternative inner case: push through join points, so no
        // continuation is duplicated (see `super::join`).
        CoreExpr::Case(inner_scrut, inner_alts) if inner_alts.len() > 1 => {
            let (out, joins) =
                super::join::case_of_case_with_joins(cx.env, scope, inner_scrut, inner_alts, alts)?;
            cx.join_points.set(cx.join_points.get() + joins);
            Some(out)
        }
        // case C fields of alts — the constructor is visible.
        CoreExpr::Con(con, _, fields) => select_con(con.name, fields, alts, Some(scrut)),
        // case (# fields #) of { (# binders #) -> rhs }.
        CoreExpr::Tuple(fields) => {
            let CoreAlt::Tuple { binders, rhs } = alts.first()? else {
                return None;
            };
            Some(bind_fields(binders, fields, rhs))
        }
        // case lit of alts.
        CoreExpr::Lit(l) => select_lit(*l, alts),
        // case $dC_τ of alts — a global CAF that is a constructor of
        // atoms (a dictionary): selection is free.
        CoreExpr::Global(g) => {
            let info = cx.global_cons.get(g)?;
            select_con(info.con, &info.fields.clone(), alts, Some(scrut))
        }
        _ => None,
    }
}

fn refresh_alt_binders(
    binders: &[(Symbol, Type)],
    rhs: &CoreExpr,
) -> (Vec<(Symbol, Type)>, CoreExpr) {
    let mut map = HashMap::new();
    let mut renamed = Vec::with_capacity(binders.len());
    for (x, t) in binders {
        let fresh = freshen(*x);
        map.insert(*x, CoreExpr::Var(fresh));
        renamed.push((fresh, t.clone()));
    }
    (renamed, substitute(rhs, &map))
}

/// Selects the alternative for a known constructor `cname`.
fn select_con(
    cname: Symbol,
    fields: &[CoreExpr],
    alts: &[CoreAlt],
    scrut: Option<&CoreExpr>,
) -> Option<CoreExpr> {
    for alt in alts {
        if let CoreAlt::Con { con, binders, rhs } = alt {
            if con.name == cname {
                return Some(bind_fields(binders, fields, rhs));
            }
        }
    }
    // No constructor alternative matched: fall to the default, but only
    // when re-materializing the scrutinee is effect-free.
    for alt in alts {
        if let CoreAlt::Default { binder, rhs } = alt {
            let scrut = scrut?;
            if !fields.iter().all(is_value_atom) {
                return None;
            }
            return Some(match binder {
                None => rhs.clone(),
                Some((x, t)) => CoreExpr::let_(*x, t.clone(), scrut.clone(), rhs.clone()),
            });
        }
    }
    None
}

/// Binds alternative binders to the known constructor's fields: value
/// atoms substitute, the rest (globals included — their evaluation
/// point must not move) become `let`s in field order (matching the
/// left-to-right evaluation order of constructor arguments), with
/// binders freshened so a field expression can never be captured by a
/// sibling.
fn bind_fields(binders: &[(Symbol, Type)], fields: &[CoreExpr], rhs: &CoreExpr) -> CoreExpr {
    debug_assert_eq!(binders.len(), fields.len(), "checked Core guarantees arity");
    let mut map = HashMap::new();
    let mut lets: Vec<(Symbol, Type, CoreExpr)> = Vec::new();
    for ((x, t), f) in binders.iter().zip(fields) {
        if is_value_atom(f) {
            map.insert(*x, f.clone());
        } else {
            let fresh = freshen(*x);
            map.insert(*x, CoreExpr::Var(fresh));
            lets.push((fresh, t.clone(), f.clone()));
        }
    }
    let mut out = substitute(rhs, &map);
    // First field outermost: constructor arguments evaluate left-to-right.
    for (x, t, f) in lets.into_iter().rev() {
        out = CoreExpr::let_(x, t, f, out);
    }
    out
}

fn select_lit(l: Literal, alts: &[CoreAlt]) -> Option<CoreExpr> {
    for alt in alts {
        if let CoreAlt::Lit { lit, rhs } = alt {
            if *lit == l {
                return Some(rhs.clone());
            }
        }
    }
    for alt in alts {
        if let CoreAlt::Default { binder, rhs } = alt {
            return Some(match binder {
                None => rhs.clone(),
                Some((x, _)) => {
                    let mut map = HashMap::new();
                    map.insert(*x, CoreExpr::Lit(l));
                    substitute(rhs, &map)
                }
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use levity_ir::terms::TopBind;
    use levity_ir::typecheck::check_program;

    /// Pins the grafting rule: a pass grafts the calls of the bodies it
    /// is handed, never a call that one of its rewrites exposes. With
    /// `h = λx. x`, let-of-atom turns `main = let k = h in k 0#` into
    /// `h 0#`, and only the next pass grafts that to `0#` and drops `h`.
    #[test]
    fn a_call_a_rewrite_exposes_is_grafted_by_the_next_pass() {
        let env = TypeEnv::new();
        let ih = Type::con0(&env.builtins.int_hash);
        let fun = Type::fun(ih.clone(), ih.clone());
        let prog = Program {
            data_decls: env.builtins.data_decls.clone(),
            bindings: vec![
                TopBind {
                    name: "h".into(),
                    ty: fun.clone(),
                    expr: CoreExpr::lam("x", ih.clone(), CoreExpr::Var("x".into())),
                }
                .into(),
                TopBind {
                    name: "main".into(),
                    ty: ih,
                    expr: CoreExpr::let_(
                        "k",
                        fun,
                        CoreExpr::Global("h".into()),
                        CoreExpr::app(CoreExpr::Var("k".into()), CoreExpr::int(0)),
                    ),
                }
                .into(),
            ],
        };
        let entries: HashSet<Symbol> = ["main".into()].into();
        let pass = |prog: &Program| {
            let env = check_program(prog).unwrap();
            let (out, grafts, rewrites, _) = simplify(&env, prog, &entries, &HashSet::new());
            (out, grafts, rewrites)
        };
        let (once, grafts, rewrites) = pass(&prog);
        assert_eq!((grafts, rewrites), (0, 1));
        assert_eq!(
            once.binding("main".into()).unwrap().expr,
            CoreExpr::app(CoreExpr::Global("h".into()), CoreExpr::int(0))
        );
        let (twice, grafts, rewrites) = pass(&once);
        assert_eq!((grafts, rewrites), (1, 0));
        let names: Vec<&str> = twice.bindings.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ["main"]);
        assert_eq!(twice.bindings[0].expr, CoreExpr::int(0));
    }
}
