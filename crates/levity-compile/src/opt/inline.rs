//! Inlining of saturated calls to small, non-recursive top-level
//! functions, with β-reduction.
//!
//! The specialiser leaves behind direct calls like `$fNum_Int#_+ acc n`
//! whose bodies are a couple of nodes; the worker/wrapper split leaves
//! thin wrappers at every call site. Such a call is replaced with the
//! callee's body, atomic arguments substituted directly and the rest
//! `let`-bound. This module decides which callees qualify
//! (`inlineable`) and rewrites one call (`graft`); it runs no pass of
//! its own. The simplifier ([`simplify`](super::simplify)) grafts as
//! its walk meets a call, as GHC's simplifier decides inlining at each
//! call site it meets.
//!
//! Two invariants keep the rewrite outcome-exact:
//!
//! * the callee's body is α-refreshed before grafting, so its binders
//!   can never capture call-site variables;
//! * non-atomic arguments are bound with the **last argument outermost**,
//!   because lowering a curried application evaluates strict arguments
//!   right-to-left (each `App` wraps its own `let!` around the spine
//!   built so far) — the `let` nest reproduces that order exactly.
//!
//! Functions on a call-graph cycle are never inlined (grafting would not
//! terminate, and loops belong in one place); everything else under the
//! size threshold is fair game, plus whatever the worker/wrapper pass
//! explicitly marks (wrappers must disappear at call sites for the
//! worker to tail-call itself directly).

use std::collections::{HashMap, HashSet};

use levity_core::rep::RepTy;
use levity_core::symbol::Symbol;
use levity_ir::terms::{CoreExpr, LetKind, Program};
use levity_ir::types::Type;

use super::subst::{globals_of, is_value_atom, mentions_global, refresh_binders, substitute};

/// Bodies above this node count are not worth duplicating.
const INLINE_SIZE_LIMIT: usize = 64;

/// One argument of a flattened application spine.
pub(super) enum SpinePart {
    Term(CoreExpr),
    Ty(Type),
    Rep(RepTy),
}

/// Flattens nested `App`/`TyApp`/`RepApp` into head + arguments in
/// application order.
pub(super) fn flatten_spine(e: &CoreExpr) -> (&CoreExpr, Vec<SpinePart>) {
    let mut parts = Vec::new();
    let mut cur = e;
    loop {
        match cur {
            CoreExpr::App(f, a) => {
                parts.push(SpinePart::Term((**a).clone()));
                cur = f;
            }
            CoreExpr::TyApp(f, t) => {
                parts.push(SpinePart::Ty(t.clone()));
                cur = f;
            }
            CoreExpr::RepApp(f, r) => {
                parts.push(SpinePart::Rep(r.clone()));
                cur = f;
            }
            _ => break,
        }
    }
    parts.reverse();
    (cur, parts)
}

/// β-reduces a literal redex — an application spine whose head is a
/// λ/Λ-chain, as left behind by other passes. Used by the simplifier.
pub(super) fn reduce_redex(e: &CoreExpr) -> Option<CoreExpr> {
    if !matches!(
        e,
        CoreExpr::App(..) | CoreExpr::TyApp(..) | CoreExpr::RepApp(..)
    ) {
        return None;
    }
    let (head, parts) = flatten_spine(e);
    if !matches!(
        head,
        CoreExpr::Lam(..) | CoreExpr::TyLam(..) | CoreExpr::RepLam(..)
    ) || parts.is_empty()
    {
        return None;
    }
    beta(head, &parts)
}

// Capture audit (why the graft cannot capture, even when a let-bound
// argument's name shadows a free variable of the inlined body across a
// `Case` binder):
//
// 1. `refresh_binders` renames EVERY term binder of the body — the λ
//    chain itself included — to a fresh name before anything
//    else happens. The λ binders that become `pending` let binders are
//    therefore fresh and can never collide with a call-site variable
//    free in a later argument's right-hand side, nor with any `Case`
//    binder of the body (those were freshened by the same walk).
// 2. Value atoms substitute through `substitute`, which freshens every
//    binder it walks under on the way down, so an argument variable
//    passing a `Case` alternative whose (already fresh) binder happened
//    to collide would be re-freshened again — collision is impossible
//    twice over.
// 3. Type/rep arguments go through `subst_ty_expr`/`subst_rep_expr`,
//    which rename a shadowing `Λ` quantifier whenever the payload's
//    free variables would be captured.
//
// `tests/differential.rs` (`inliner_alpha_refresh_survives_shadowing`)
// pins the observable consequences against the O0 baseline.
fn beta(body: &CoreExpr, parts: &[SpinePart]) -> Option<CoreExpr> {
    let mut cur = refresh_binders(body);
    let mut atom_map: HashMap<Symbol, CoreExpr> = HashMap::new();
    // (binder, type, rhs) for non-atomic arguments, in argument order.
    let mut pending: Vec<(Symbol, Type, CoreExpr)> = Vec::new();
    let mut leftover = Vec::new();
    let mut it = parts.iter();
    while let Some(part) = it.next() {
        match (part, cur) {
            (SpinePart::Ty(t), CoreExpr::TyLam(a, _, inner)) => {
                cur = super::subst::subst_ty_expr(&inner, a, t);
            }
            (SpinePart::Rep(r), CoreExpr::RepLam(v, inner)) => {
                cur = super::subst::subst_rep_expr(&inner, v, r);
            }
            (SpinePart::Term(e), CoreExpr::Lam(x, ty, inner)) => {
                // Only variables and literals substitute directly: a
                // `Global` must keep its evaluation point (a strict
                // binding evaluates it exactly once, here and now), so
                // it is let-bound like any other expression.
                if is_value_atom(e) {
                    atom_map.insert(x, e.clone());
                } else {
                    pending.push((x, ty, e.clone()));
                }
                cur = *inner;
            }
            (_, other) => {
                // The chain ran out (oversaturation) or the shapes
                // mismatch. Oversaturated *term* arguments can simply be
                // re-applied around the reduced prefix; a type argument
                // with no Λ to consume means we should not have tried.
                cur = other;
                match part {
                    SpinePart::Term(e) => leftover.push(SpinePart::Term(e.clone())),
                    _ => return None,
                }
                for rest in it.by_ref() {
                    match rest {
                        SpinePart::Term(e) => leftover.push(SpinePart::Term(e.clone())),
                        _ => return None,
                    }
                }
                break;
            }
        }
    }
    let mut out = substitute(&cur, &atom_map);
    // Last argument outermost: lowering evaluates curried-call arguments
    // right-to-left, and the let-nest must agree.
    for (x, ty, rhs) in pending {
        out = CoreExpr::Let(LetKind::NonRec, x, ty, Box::new(rhs), Box::new(out));
    }
    for part in leftover {
        if let SpinePart::Term(e) = part {
            out = CoreExpr::app(out, e);
        }
    }
    Some(out)
}

/// The set of globals that participate in a call-graph cycle (including
/// self-recursion); these are never inlined.
fn cyclic_globals(prog: &Program) -> HashSet<Symbol> {
    let mut edges: HashMap<Symbol, Vec<Symbol>> = HashMap::new();
    for b in &prog.bindings {
        let mut callees = Vec::new();
        globals_of(&b.expr, &mut callees);
        edges.insert(b.name, callees);
    }
    let mut cyclic = HashSet::new();
    for b in &prog.bindings {
        // DFS from each binding's callees; a path back to the binding
        // itself marks the whole path's endpoints lazily (per-node check
        // keeps this simple and the program sizes small).
        let mut stack: Vec<Symbol> = edges.get(&b.name).cloned().unwrap_or_default();
        let mut seen = HashSet::new();
        while let Some(g) = stack.pop() {
            if g == b.name {
                cyclic.insert(b.name);
                break;
            }
            if seen.insert(g) {
                if let Some(next) = edges.get(&g) {
                    stack.extend(next.iter().copied());
                }
            }
        }
    }
    cyclic
}

/// The bodies a pass over `prog` may graft: every binding of at most
/// [`INLINE_SIZE_LIMIT`] nodes on no call-graph cycle, and every binding
/// `force_inline` names (worker/wrapper wrappers) that does not mention
/// itself, whatever its size.
pub(super) fn inlineable<'a>(
    prog: &'a Program,
    force_inline: &HashSet<Symbol>,
) -> HashMap<Symbol, &'a CoreExpr> {
    let cyclic = cyclic_globals(prog);
    let mut bodies: HashMap<Symbol, &CoreExpr> = HashMap::new();
    for b in &prog.bindings {
        // A worker/wrapper wrapper sits on a cycle *through its worker*
        // (the worker's recursive calls go back through the wrapper),
        // but never mentions itself — inlining it terminates, and must
        // happen for the worker to call itself directly. The worker is
        // the loop breaker.
        let allowed = if force_inline.contains(&b.name) {
            !mentions_global(&b.expr, b.name)
        } else {
            b.expr.size() <= INLINE_SIZE_LIMIT && !cyclic.contains(&b.name)
        };
        if allowed {
            bodies.insert(b.name, &b.expr);
        }
    }
    bodies
}

/// The graft of `e`: when `e` is a call to one of `bodies`, the callee's
/// body β-reduced against the call's arguments. `None` when `e` is no
/// such call, or when the callee's binder chain does not consume its
/// type and representation arguments. The spine's arguments are cloned
/// only once its head is known to be inlineable.
pub(super) fn graft(e: &CoreExpr, bodies: &HashMap<Symbol, &CoreExpr>) -> Option<CoreExpr> {
    // A term application: the call has at least one term argument.
    if !matches!(e, CoreExpr::App(..)) {
        return None;
    }
    let mut head = e;
    while let CoreExpr::App(f, _) | CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) = head {
        head = f;
    }
    let CoreExpr::Global(g) = head else {
        return None;
    };
    beta(bodies.get(g)?, &flatten_spine(e).1)
}
