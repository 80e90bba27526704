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
//!   outward;
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
//! * **let-float** — `let x = (let y = e in b) in body` floats `y` out
//!   when it is strict and `e` is pure and total;
//! * **let-of-atom / dead let** — `let x = atom in b` substitutes, and
//!   an unused binder is dropped when doing so cannot lose an effect
//!   (always for lazy pointers, only for manifestly pure right-hand
//!   sides when the binding is strict).
//!
//! Every strictness decision is made from the binder's *type* via
//! [`kind_of`], exactly the §6.2 rule lowering itself uses — which is
//! what makes these rewrites representation-preserving.
//!
//! **One walk per round.** A round is one walk over the body, children
//! before the rewrite at their node, in the style of GHC's simplifier
//! (Peyton Jones & Santos, SCP 1998; Peyton Jones & Marlow, JFP 2002):
//!
//! * *Occurrence counts.* The walk counts each variable it emits, so a
//!   `let`'s uses are the count of its binder before and after its body
//!   was walked; output a rewrite discards is counted back out.
//! * *A substitution environment.* A let-of-atom, a selected
//!   alternative's field binders and a literal default's binder map to
//!   their atoms, and the walk substitutes where it meets the variable.
//!   A binder that would shadow an output binder in scope is renamed
//!   through the same map, so nothing the walk substitutes or moves can
//!   be captured, and no rule freshens or substitutes a body it has
//!   walked. A known scrutinee selects its alternative before any
//!   alternative is walked.
//! * *Carried let-floats.* The right-hand side of a non-recursive `let`
//!   is walked with a float list: a strict, pure-total `let` at its head
//!   goes on the list, and its body continues at the head, so a nest of
//!   such lets floats out in one step and the enclosing `let` wraps them
//!   once.
//! * *Unchanged without rebuilding.* A subtree the walk leaves alone
//!   comes back as `None`, and a binding no round changed keeps its
//!   `Arc`.
//!
//! The rare rewrite whose result is built from walked pieces (β, a join
//! point, a known unboxed tuple, a let-bound global, a known-constructor
//! `let`) walks that result again without grafting.
//!
//! **The grafting rule.** A body is simplified in up to four rounds,
//! and only the first grafts: top-down, on the nodes of the body handed
//! in and of each graft, before the walk descends into them. A call that
//! a rewrite exposes (`let k = h in k 0#` becomes `h 0#`) is grafted by
//! the next pass. Grafts come from the pass's input bodies, and no callee
//! on a call-graph cycle is inlineable, so grafting terminates; a graft
//! neither marks a round changed nor spends rewrite fuel.
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

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use levity_core::rep::Rep;
use levity_core::symbol::{BuildSymbolHasher, Symbol, SymbolMap};
use levity_ir::freshen;
use levity_ir::terms::{CoreAlt, CoreExpr, LetKind, Program, TopBind};
use levity_ir::typecheck::{kind_of, Scope, ScopeEntry, TypeEnv};
use levity_ir::types::Type;
use levity_m::syntax::Literal;

use super::inline::{self, inlineable, reduce_redex};
use super::subst::{free_term_vars, is_atom, is_value_atom};
use super::usage::rewrite_reachable;
use super::{fold_round, OptReport};

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
/// pass's input.
struct Cx<'a> {
    env: &'a TypeEnv,
    bodies: HashMap<Symbol, &'a CoreExpr>,
    global_cons: HashMap<Symbol, GlobalCon>,
}

impl Cx<'_> {
    #[inline(never)]
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
/// program order, each binding no round changed kept as the same `Arc`.
/// Folds into `report` the calls grafted, the rewrites applied and the
/// join points bound by the case-of-case rule (this pass's counts), and
/// adds the nodes its walks visited.
pub fn simplify(
    env: &TypeEnv,
    prog: &Program,
    entries: &HashSet<Symbol>,
    force_inline: &HashSet<Symbol>,
    report: &mut OptReport,
) -> Program {
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
    };
    let mut counts = Counts::default();
    let out = rewrite_reachable(prog, entries, |b| {
        match simp_rounds(&b.expr, &cx, &mut counts) {
            None => Arc::clone(b),
            Some(expr) => Arc::new(TopBind {
                name: b.name,
                ty: b.ty.clone(),
                expr,
            }),
        }
    });
    fold_round(&mut report.inlined, counts.grafts);
    fold_round(&mut report.simplified, counts.rewrites);
    fold_round(&mut report.join_points, counts.join_points);
    report.simplify_nodes += counts.nodes;
    out
}

/// One pass's totals over every body and round.
#[derive(Default)]
struct Counts {
    grafts: usize,
    rewrites: usize,
    join_points: usize,
    nodes: usize,
}

/// Simplifies one body: up to four rounds, each one walk with fresh
/// fuel, until a round rewrites nothing; only the first grafts. Returns
/// the new body, or `None` when no round changed it.
fn simp_rounds(body: &CoreExpr, cx: &Cx<'_>, counts: &mut Counts) -> Option<CoreExpr> {
    let mut out: Option<CoreExpr> = None;
    for round in 0..4 {
        let mut walk = Walk::new(cx, round == 0);
        let next = walk.expr(out.as_ref().unwrap_or(body), None);
        let rewrites = (REWRITE_FUEL - walk.fuel) as usize;
        counts.grafts += walk.grafts;
        counts.rewrites += rewrites;
        counts.join_points += walk.join_points;
        counts.nodes += walk.nodes;
        if next.is_some() {
            out = next;
        }
        if rewrites == 0 {
            break;
        }
    }
    out
}

/// A `let` taken out of the expression that bound it, to be wrapped
/// around an enclosing one: a carried float, or a `let` that
/// case-of-let moved out of a scrutinee. Its binder is in scope until
/// it is wrapped.
struct Bind {
    kind: LetKind,
    x: Symbol,
    ty: Type,
    rhs: CoreExpr,
}

/// Where the lets at the head of an expression may float: the float
/// list of the non-recursive `let` whose right-hand side the expression
/// heads, or `None` when it heads none.
type Floats<'l> = Option<&'l mut Vec<Bind>>;

/// What a `let` scopes over: an input expression, or the field lets a
/// constructor selection has still to bind before the alternative's
/// right-hand side.
enum Body<'e, 'i> {
    Expr(&'e CoreExpr),
    Fields(
        &'i mut std::vec::IntoIter<(Symbol, Type, CoreExpr)>,
        &'e CoreExpr,
    ),
}

/// A non-recursive `let`'s binder, input and output name, and its
/// walked right-hand side, whose floats are `list[start..]`.
struct Rhs<'e, 't> {
    x: Symbol,
    xo: Symbol,
    t: &'t Type,
    core: Cow<'e, CoreExpr>,
    start: usize,
}

/// One round's walk over one body.
struct Walk<'w, 'a> {
    cx: &'w Cx<'a>,
    /// Graft calls as the walk meets them (a body's first round only).
    graft: bool,
    /// Types and kinds of the output binders in scope.
    scope: Scope,
    /// The output term binders in scope. A binder that would shadow one
    /// is renamed, so the output never shadows.
    in_scope: HashSet<Symbol, BuildSymbolHasher>,
    /// Input variable → output expression: a renamed binder, or the atom
    /// a let-of-atom or a selected field bound. `undo` restores what each
    /// binder shadowed.
    subst: SymbolMap<CoreExpr>,
    undo: Vec<(Symbol, Option<CoreExpr>)>,
    /// Occurrences of each variable in the output so far.
    occ: SymbolMap<usize>,
    fuel: u32,
    grafts: usize,
    join_points: usize,
    nodes: usize,
}

impl<'w, 'a> Walk<'w, 'a> {
    fn new(cx: &'w Cx<'a>, graft: bool) -> Walk<'w, 'a> {
        Walk {
            cx,
            graft,
            scope: Scope::new(),
            in_scope: HashSet::default(),
            subst: SymbolMap::default(),
            undo: Vec::new(),
            occ: SymbolMap::default(),
            fuel: REWRITE_FUEL,
            grafts: 0,
            join_points: 0,
            nodes: 0,
        }
    }

    /// Spends fuel on one rewrite; false, and no rewrite, when none is
    /// left.
    fn fire(&mut self) -> bool {
        let ok = self.fuel > 0;
        self.fuel -= u32::from(ok);
        ok
    }

    /// Simplifies `e`, grafting its inlineable calls first when the walk
    /// grafts. Returns `None` when `e` comes back unchanged. With a float
    /// list, the strict pure-total lets at the head of the result go on
    /// it instead.
    fn expr(&mut self, e: &CoreExpr, out: Floats<'_>) -> Option<CoreExpr> {
        self.nodes += 1;
        let grafted = if self.graft {
            self.graft_calls(e)
        } else {
            None
        };
        let e = grafted.as_ref().unwrap_or(e);
        // Each form's work sits in a function of its own, so the frame
        // every level of a deep term keeps on the stack stays small.
        let r = match e {
            CoreExpr::Var(v) => self.var(*v),
            CoreExpr::Global(_) | CoreExpr::Lit(_) | CoreExpr::Error(..) => None,
            CoreExpr::App(..) | CoreExpr::TyApp(..) | CoreExpr::RepApp(..) => self.app(e, out),
            CoreExpr::Lam(..) | CoreExpr::TyLam(..) | CoreExpr::RepLam(..) => self.lam(e),
            CoreExpr::Let(LetKind::Rec, x, t, rhs, body) => self.let_rec(*x, t, rhs, body, out),
            CoreExpr::Let(LetKind::NonRec, x, t, rhs, body) => {
                self.let_(*x, t, Cow::Borrowed(rhs), Body::Expr(body), out)
            }
            CoreExpr::Case(scrut, alts) => self.case_(scrut, alts, out),
            CoreExpr::Con(..) | CoreExpr::Prim(..) | CoreExpr::Tuple(..) => self.args(e),
        };
        r.or(grafted)
    }

    /// An application: the function and argument, then β.
    #[inline(never)]
    fn app(&mut self, e: &CoreExpr, out: Floats<'_>) -> Option<CoreExpr> {
        let node = match e {
            CoreExpr::App(f, a) => {
                let f2 = self.expr(f, None);
                let a2 = self.expr(a, None);
                (f2.is_some() || a2.is_some()).then(|| {
                    CoreExpr::app(
                        f2.unwrap_or_else(|| (**f).clone()),
                        a2.unwrap_or_else(|| (**a).clone()),
                    )
                })
            }
            CoreExpr::TyApp(f, t) => self.expr(f, None).map(|f| CoreExpr::ty_app(f, t.clone())),
            CoreExpr::RepApp(f, r) => self.expr(f, None).map(|f| CoreExpr::rep_app(f, r.clone())),
            _ => unreachable!("an application"),
        };
        self.redex(node, e, out)
    }

    /// A constructor, primop or unboxed tuple: its arguments.
    #[inline(never)]
    fn args(&mut self, e: &CoreExpr) -> Option<CoreExpr> {
        match e {
            CoreExpr::Con(con, ty_args, fields) => self
                .exprs(fields)
                .map(|fields| CoreExpr::Con(Arc::clone(con), ty_args.clone(), fields)),
            CoreExpr::Prim(op, args) => self.exprs(args).map(|args| CoreExpr::Prim(*op, args)),
            CoreExpr::Tuple(args) => self.exprs(args).map(CoreExpr::Tuple),
            _ => unreachable!("an argument list"),
        }
    }

    /// Simplifies each of `es`; `None` when none changed.
    #[inline(always)]
    fn exprs(&mut self, es: &[CoreExpr]) -> Option<Vec<CoreExpr>> {
        let mut out: Option<Vec<CoreExpr>> = None;
        for (i, e) in es.iter().enumerate() {
            let r = self.expr(e, None);
            match (&mut out, r) {
                (Some(v), r) => v.push(r.unwrap_or_else(|| e.clone())),
                (None, Some(r)) => {
                    let mut v = Vec::with_capacity(es.len());
                    v.extend_from_slice(&es[..i]);
                    v.push(r);
                    out = Some(v);
                }
                (None, None) => {}
            }
        }
        out
    }

    /// Top-down: the graft of `e`, grafted again while it is a call, in
    /// a loop here rather than one frame deeper per graft.
    #[inline(never)]
    fn graft_calls(&mut self, e: &CoreExpr) -> Option<CoreExpr> {
        let mut grafted = None;
        while let Some(next) = inline::graft(grafted.as_ref().unwrap_or(e), &self.cx.bodies) {
            self.grafts += 1;
            grafted = Some(next);
        }
        grafted
    }

    /// A λ, Λ or representation λ.
    #[inline(never)]
    fn lam(&mut self, e: &CoreExpr) -> Option<CoreExpr> {
        match e {
            CoreExpr::Lam(x, t, b) => {
                let xo = self.bind(*x, t);
                let b2 = self.expr(b, None);
                self.unbind(xo);
                (xo != *x || b2.is_some())
                    .then(|| CoreExpr::lam(xo, t.clone(), b2.unwrap_or_else(|| (**b).clone())))
            }
            CoreExpr::TyLam(a, k, b) => {
                self.scope.push(*a, ScopeEntry::TyVar(k.clone()));
                let b2 = self.expr(b, None);
                self.scope.pop();
                b2.map(|b| CoreExpr::ty_lam(*a, k.clone(), b))
            }
            CoreExpr::RepLam(r, b) => {
                self.scope.push(*r, ScopeEntry::RepVar);
                let b2 = self.expr(b, None);
                self.scope.pop();
                b2.map(|b| CoreExpr::rep_lam(*r, b))
            }
            _ => unreachable!("a binder form"),
        }
    }

    /// A variable occurrence: its substitution, counted, or itself.
    #[inline(never)]
    fn var(&mut self, v: Symbol) -> Option<CoreExpr> {
        if let Some(e) = self.subst.get(&v) {
            let e = e.clone();
            self.count(&e);
            return Some(e);
        }
        *self.occ.entry(v).or_insert(0) += 1;
        None
    }

    /// Counts the variables of `e`, which enters the output.
    fn count(&mut self, e: &CoreExpr) {
        if let CoreExpr::Var(v) = e {
            *self.occ.entry(*v).or_insert(0) += 1;
        }
        e.for_each_child(|c| self.count(c));
    }

    /// Counts the variables of `e` back out: `e` leaves the output.
    fn forget(&mut self, e: &CoreExpr) {
        self.nodes += 1;
        if let CoreExpr::Var(v) = e {
            if let Some(n) = self.occ.get_mut(v) {
                debug_assert!(*n > 0, "`{v}` left the output more often than it entered");
                *n = n.saturating_sub(1);
            }
        }
        e.for_each_child(|c| self.forget(c));
    }

    fn uses(&self, x: Symbol) -> usize {
        self.occ.get(&x).copied().unwrap_or(0)
    }

    /// Brings the input binder `x` into scope under an output name: `x`
    /// itself, or a fresh name when `x` would shadow an output binder.
    #[inline(never)]
    fn bind(&mut self, x: Symbol, t: &Type) -> Symbol {
        let xo = if self.in_scope.contains(&x) {
            freshen(x)
        } else {
            x
        };
        let shadowed = if xo != x {
            self.subst.insert(x, CoreExpr::Var(xo))
        } else if self.subst.is_empty() {
            None
        } else {
            self.subst.remove(&x)
        };
        self.undo.push((x, shadowed));
        self.enter(xo, t);
        xo
    }

    /// Takes the binder [`Walk::bind`] named `xo` out of scope.
    #[inline(never)]
    fn unbind(&mut self, xo: Symbol) {
        self.leave(xo);
        self.restore();
    }

    /// Maps the input variable `x` to the output atom `e`.
    #[inline(never)]
    fn substitute(&mut self, x: Symbol, e: CoreExpr) {
        let shadowed = self.subst.insert(x, e);
        self.undo.push((x, shadowed));
    }

    /// Undoes the latest [`Walk::bind`] or [`Walk::substitute`] mapping.
    #[inline(never)]
    fn restore(&mut self) {
        let (x, shadowed) = self.undo.pop().expect("balanced substitution");
        match shadowed {
            Some(e) => self.subst.insert(x, e),
            None => self.subst.remove(&x),
        };
    }

    /// Puts the output binder `xo` in scope.
    fn enter(&mut self, xo: Symbol, t: &Type) {
        self.scope.push(xo, ScopeEntry::Term(t.clone()));
        self.in_scope.insert(xo);
    }

    fn leave(&mut self, xo: Symbol) {
        self.scope.pop();
        self.in_scope.remove(&xo);
    }

    /// Walks the output expression `e` again, without grafting, with
    /// `entry` as the only substitution: the result of a rewrite built
    /// from walked pieces.
    #[inline(never)]
    fn rewalk(
        &mut self,
        e: CoreExpr,
        entry: Option<(Symbol, CoreExpr)>,
        out: Floats<'_>,
    ) -> CoreExpr {
        let subst = std::mem::take(&mut self.subst);
        let undo = std::mem::take(&mut self.undo);
        let graft = std::mem::replace(&mut self.graft, false);
        if let Some((x, v)) = entry {
            self.subst.insert(x, v);
        }
        let r = self.expr(&e, out);
        self.subst = subst;
        self.undo = undo;
        self.graft = graft;
        r.unwrap_or(e)
    }

    /// β: reduces `node` (or, when it is `None`, the unchanged `e`) if it
    /// applies a λ.
    fn redex(&mut self, node: Option<CoreExpr>, e: &CoreExpr, out: Floats<'_>) -> Option<CoreExpr> {
        let cur = node.as_ref().unwrap_or(e);
        let mut head = cur;
        while let CoreExpr::App(f, _) | CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) = head {
            head = f;
        }
        if self.fuel == 0
            || !matches!(
                head,
                CoreExpr::Lam(..) | CoreExpr::TyLam(..) | CoreExpr::RepLam(..)
            )
        {
            return node;
        }
        self.reduce(cur, out).or(node)
    }

    #[inline(never)]
    fn reduce(&mut self, redex: &CoreExpr, out: Floats<'_>) -> Option<CoreExpr> {
        let reduced = reduce_redex(redex)?;
        self.fire();
        self.forget(redex);
        Some(self.rewalk(reduced, None, out))
    }

    /// Would a strict `let` of `rhs` float: is it pure and total and
    /// not an atom (which substitutes instead)?
    fn floats(strictness: Strictness, rhs: &CoreExpr) -> bool {
        strictness == Strictness::Strict && pure_total(rhs) && !is_value_atom(rhs)
    }

    /// `e` placed where `out` says: its leading floating lets go on the
    /// list, and the rest comes back.
    #[inline(never)]
    fn place(&mut self, mut e: CoreExpr, out: Floats<'_>) -> CoreExpr {
        let Some(list) = out else { return e };
        while let CoreExpr::Let(LetKind::NonRec, _, ty, rhs, _) = &e {
            let strictness = self.cx.strictness(&mut self.scope, ty);
            if !Self::floats(strictness, rhs) || !self.fire() {
                break;
            }
            let CoreExpr::Let(_, x, ty, rhs, body) = e else {
                unreachable!("matched above")
            };
            self.enter(x, &ty);
            list.push(Bind {
                kind: LetKind::NonRec,
                x,
                ty,
                rhs: *rhs,
            });
            e = *body;
        }
        e
    }

    /// Wraps `binds` around `e`, taking their binders out of scope.
    #[inline(never)]
    fn wrap(&mut self, binds: Vec<Bind>, mut e: CoreExpr) -> CoreExpr {
        for b in binds.into_iter().rev() {
            self.leave(b.x);
            e = CoreExpr::Let(b.kind, b.x, b.ty, Box::new(b.rhs), Box::new(e));
        }
        e
    }

    #[inline(never)]
    fn let_rec(
        &mut self,
        x: Symbol,
        t: &Type,
        rhs: &CoreExpr,
        body: &CoreExpr,
        out: Floats<'_>,
    ) -> Option<CoreExpr> {
        let xo = self.bind(x, t);
        let rhs2 = self.expr(rhs, None);
        let before = self.uses(xo);
        let body2 = self.expr(body, None);
        let uses = self.uses(xo) - before;
        self.unbind(xo);
        // Dead binder: a lazy binding that is never used is never forced
        // — recursive or not, the thunk is inert.
        let r = rhs2.as_ref().unwrap_or(rhs);
        if uses == 0
            && (self.cx.strictness(&mut self.scope, t) == Strictness::Lazy || pure_value(r))
            && self.fire()
        {
            self.forget(r);
            return Some(self.place(body2.unwrap_or_else(|| body.clone()), out));
        }
        (xo != x || rhs2.is_some() || body2.is_some()).then(|| {
            CoreExpr::Let(
                LetKind::Rec,
                xo,
                t.clone(),
                Box::new(rhs2.unwrap_or_else(|| rhs.clone())),
                Box::new(body2.unwrap_or_else(|| body.clone())),
            )
        })
    }

    /// A non-recursive `let x = rhs in body`, `rhs` walked here
    /// (borrowed input) or already walked (owned output). Its floats go
    /// on `out` when the `let` heads a right-hand side, and wrap it
    /// otherwise.
    #[inline(never)]
    fn let_(
        &mut self,
        x: Symbol,
        t: &Type,
        rhs: Cow<'_, CoreExpr>,
        body: Body<'_, '_>,
        out: Floats<'_>,
    ) -> Option<CoreExpr> {
        let shared = out.is_some();
        let mut own = Vec::new();
        let list = match out {
            Some(list) => list,
            None => &mut own,
        };
        let start = list.len();
        let core = match rhs {
            Cow::Borrowed(r) => self
                .expr(r, Some(&mut *list))
                .map_or(Cow::Borrowed(r), Cow::Owned),
            Cow::Owned(r) => Cow::Owned(self.place(r, Some(&mut *list))),
        };
        let r = self.let_body(x, t, core, start, body, list, shared);
        if own.is_empty() {
            return r;
        }
        let r = r.expect("floats leave a changed right-hand side");
        Some(self.wrap(own, r))
    }

    /// The rest of [`Walk::let_`], after the right-hand side: the
    /// let-of-atom, let-float, dead-binder and known-constructor rules.
    /// `list[start..]` holds the floats out of the right-hand side.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn let_body(
        &mut self,
        x: Symbol,
        t: &Type,
        core: Cow<'_, CoreExpr>,
        start: usize,
        mut body: Body<'_, '_>,
        list: &mut Vec<Bind>,
        shared: bool,
    ) -> Option<CoreExpr> {
        let floated = list.len() > start;
        let strictness = self.cx.strictness(&mut self.scope, t);
        let lazy = strictness == Strictness::Lazy;
        let body_in = match &body {
            Body::Expr(e) => Some(*e),
            Body::Fields(..) => None,
        };
        let whole =
            |b: Option<CoreExpr>| b.unwrap_or_else(|| body_in.expect("an input body").clone());
        // Let-of-atom: a variable or literal substitutes freely (it is a
        // value in either strictness). A lazy binder with floats waits
        // for its uses: unused, it drops the floats with it.
        if is_value_atom(&core) && !(lazy && floated) && self.fire() {
            let atom = core.into_owned();
            self.forget(&atom);
            self.substitute(x, atom);
            let b = self.body(&mut body, shared.then_some(&mut *list));
            self.restore();
            return Some(whole(b));
        }
        let xo = self.bind(x, t);
        // let x = (let y = e in b) in body  ==>  let y = e in let x = b in body
        // when `y` is strict and `e` pure and total: evaluating `e` early
        // cannot abort, diverge, or force anything. Such a `let` heading
        // a right-hand side goes on that `let`'s float list, and its body
        // takes its place.
        if shared && Self::floats(strictness, &core) && self.fire() {
            list.push(Bind {
                kind: LetKind::NonRec,
                x: xo,
                ty: t.clone(),
                rhs: core.into_owned(),
            });
            let b = self.body(&mut body, Some(list));
            self.restore();
            return Some(whole(b));
        }
        let before = self.uses(xo);
        let b = self.body(&mut body, None);
        let uses = self.uses(xo) - before;
        self.unbind(xo);
        let b = b.map_or_else(
            || Cow::Borrowed(body_in.expect("an input body")),
            Cow::Owned,
        );
        let rhs = Rhs {
            x,
            xo,
            t,
            core,
            start,
        };
        self.let_rules(rhs, b, uses, lazy, list, shared)
    }

    /// The rules [`Walk::let_body`] applies once the body is walked:
    /// dead binder, atom right-hand side, known constructor. Kept out
    /// of the walk's frames, as it runs after the recursion returns.
    #[inline(never)]
    fn let_rules(
        &mut self,
        rhs: Rhs<'_, '_>,
        mut b: Cow<'_, CoreExpr>,
        mut uses: usize,
        lazy: bool,
        list: &mut Vec<Bind>,
        shared: bool,
    ) -> Option<CoreExpr> {
        let Rhs {
            x,
            xo,
            t,
            core,
            start,
        } = rhs;
        // Until a known-constructor rewrite, the floats are still part
        // of the right-hand side.
        let mut first = true;
        loop {
            // Dead binder. A lazy one found dead at once takes its floats
            // with it.
            if uses == 0 && (lazy || pure_value(&core)) && self.fire() {
                if lazy && first {
                    for f in list.drain(start..).rev() {
                        self.leave(f.x);
                        self.forget(&f.rhs);
                    }
                }
                self.forget(&core);
                return Some(self.place(b.into_owned(), shared.then_some(list)));
            }
            // Atom right-hand side. A `Global` — evaluating it runs its
            // top-level body — may only replace a *lazy* binder (the use
            // sites demand it exactly where the thunk would have been
            // forced), and only a single use (a thunk shares the
            // evaluation). Under a strict binding the global evaluates
            // here and now, and moving that evaluation could drop or
            // reorder an abort.
            if is_atom(&core) && (is_value_atom(&core) || (lazy && uses <= 1)) && self.fire() {
                let atom = core.into_owned();
                self.forget(&atom);
                let b = b.into_owned();
                self.forget(&b);
                return Some(self.rewalk(b, Some((xo, atom)), shared.then_some(list)));
            }
            match self.known_con(xo, t, &core, &b, uses) {
                Some((replaced, n)) => (b, uses) = (Cow::Owned(replaced), n),
                None => break,
            }
            first = false;
        }
        let changed = xo != x || matches!(core, Cow::Owned(_)) || matches!(b, Cow::Owned(_));
        changed.then(|| {
            CoreExpr::Let(
                LetKind::NonRec,
                xo,
                t.clone(),
                Box::new(core.into_owned()),
                Box::new(b.into_owned()),
            )
        })
    }

    /// A binder whose right-hand side is a visible constructor
    /// application: every `case x of …` in the body can select its
    /// alternative now (evaluating the thunk could only have produced
    /// exactly this constructor). Sound unconditionally when the fields
    /// are atoms; with computed fields, only when the binder is forced
    /// at a single site *not under a λ* (the field computation moves to
    /// that site — same first-force timing, and no work can be
    /// duplicated; a λ-body site would recompute a once-memoized thunk
    /// on every call, so the replacement refuses to descend there). Once
    /// no scrutinee mentions x, the dead-let rule erases the allocation
    /// — this is what unboxes a worker's reboxed recursive arguments.
    /// Returns the body walked again and the binder's uses in it.
    #[inline(never)]
    fn known_con(
        &mut self,
        xo: Symbol,
        t: &Type,
        rhs: &CoreExpr,
        body: &CoreExpr,
        uses: usize,
    ) -> Option<(CoreExpr, usize)> {
        let CoreExpr::Con(con, _, fields) = rhs else {
            return None;
        };
        let atoms_only = fields.iter().all(is_value_atom);
        if !(atoms_only || uses == 1) {
            return None;
        }
        let mut stop = vec![xo];
        for f in fields {
            stop.extend(free_term_vars(f));
        }
        let mut known = KnownCase {
            v: xo,
            cname: con.name,
            fields,
            stop,
            atoms_only,
            hits: 0,
            nodes: 0,
        };
        let replaced = known.go(body);
        self.nodes += known.nodes;
        if known.hits == 0 || !self.fire() {
            return None;
        }
        self.forget(body);
        self.enter(xo, t);
        let before = self.uses(xo);
        let body = self.rewalk(replaced, None, None);
        let uses = self.uses(xo) - before;
        self.leave(xo);
        Some((body, uses))
    }

    /// Walks what a `let` scopes over.
    #[inline(always)]
    fn body(&mut self, body: &mut Body<'_, '_>, out: Floats<'_>) -> Option<CoreExpr> {
        match body {
            Body::Expr(e) => self.expr(e, out),
            Body::Fields(lets, rhs) => Some(self.field_lets(lets, rhs, out)),
        }
    }

    /// Binds the remaining field `lets`, first field outermost
    /// (constructor arguments evaluate left to right), around the
    /// alternative's right-hand side `rhs`.
    fn field_lets(
        &mut self,
        lets: &mut std::vec::IntoIter<(Symbol, Type, CoreExpr)>,
        rhs: &CoreExpr,
        out: Floats<'_>,
    ) -> CoreExpr {
        match lets.next() {
            None => self.expr(rhs, out).unwrap_or_else(|| rhs.clone()),
            Some((x, t, f)) => self
                .let_(x, &t, Cow::Owned(f), Body::Fields(lets, rhs), out)
                .expect("a new let"),
        }
    }

    /// Binds a selected alternative's binders to the known constructor's
    /// fields and walks its right-hand side: value atoms substitute, the
    /// rest (globals included — their evaluation point must not move)
    /// become `let`s.
    #[inline(never)]
    fn bind_fields(
        &mut self,
        binders: &[(Symbol, Type)],
        fields: Vec<CoreExpr>,
        rhs: &CoreExpr,
        out: Floats<'_>,
    ) -> CoreExpr {
        debug_assert_eq!(binders.len(), fields.len(), "checked Core guarantees arity");
        let mut lets = Vec::new();
        let mut substituted = 0;
        for ((x, t), f) in binders.iter().zip(fields) {
            if is_value_atom(&f) {
                self.forget(&f);
                self.substitute(*x, f);
                substituted += 1;
            } else {
                lets.push((*x, t.clone(), f));
            }
        }
        let r = self.field_lets(&mut lets.into_iter(), rhs, out);
        for _ in 0..substituted {
            self.restore();
        }
        r
    }

    /// `case scrut of alts`.
    #[inline(never)]
    fn case_(&mut self, scrut: &CoreExpr, alts: &[CoreAlt], out: Floats<'_>) -> Option<CoreExpr> {
        let s = self.expr(scrut, None);
        self.case_on(s.map_or(Cow::Borrowed(scrut), Cow::Owned), alts, out)
    }

    /// `case s of alts`, the scrutinee `s` walked and the alternatives
    /// not yet.
    fn case_on(
        &mut self,
        s: Cow<'_, CoreExpr>,
        alts: &[CoreAlt],
        mut out: Floats<'_>,
    ) -> Option<CoreExpr> {
        let s = match self.case_known(s, alts, out.as_deref_mut()) {
            Ok(done) => return Some(done),
            Err(s) => s,
        };
        let walked: Vec<Option<CoreAlt>> = alts.iter().map(|a| self.alt(a)).collect();
        self.case_walked(s, alts, walked, out)
    }

    /// The rules that apply before the alternatives are walked:
    /// case-of-let, single-alternative case-of-case, and a known
    /// constructor, literal or constructor global selecting its
    /// alternative. Hands the scrutinee back when none applies.
    #[inline(never)]
    fn case_known<'s>(
        &mut self,
        s: Cow<'s, CoreExpr>,
        alts: &[CoreAlt],
        out: Floats<'_>,
    ) -> Result<CoreExpr, Cow<'s, CoreExpr>> {
        if self.fuel > 0 {
            match &*s {
                CoreExpr::Let(..) => return Ok(self.case_of_let(s.into_owned(), alts, out)),
                CoreExpr::Case(_, inner) if inner.len() == 1 => {
                    return Ok(self.case_of_case(s.into_owned(), alts, out))
                }
                CoreExpr::Con(con, _, fields) => {
                    if let Some(sel) = select_con(con.name, fields, alts) {
                        self.fire();
                        return Ok(match (sel, s.into_owned()) {
                            (Selected::Fields(binders, rhs), CoreExpr::Con(_, _, fields)) => {
                                self.bind_fields(binders, fields, rhs, out)
                            }
                            (sel, scrut) => self.selected(sel, scrut, out),
                        });
                    }
                }
                CoreExpr::Lit(l) => {
                    if let Some(sel) = select_lit(*l, alts) {
                        self.fire();
                        return Ok(self.selected(sel, CoreExpr::Lit(*l), out));
                    }
                }
                CoreExpr::Global(g) => {
                    // case $dC_τ of alts — a global CAF that is a
                    // constructor of atoms (a dictionary): selection is
                    // free.
                    let cx = self.cx;
                    if let Some(info) = cx.global_cons.get(g) {
                        if let Some(sel) = select_con(info.con, &info.fields, alts) {
                            self.fire();
                            return Ok(match sel {
                                Selected::Fields(binders, rhs) => {
                                    self.bind_fields(binders, info.fields.clone(), rhs, out)
                                }
                                sel => self.selected(sel, s.into_owned(), out),
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        Err(s)
    }

    /// The rules that apply once the alternatives are walked: tuple-η,
    /// a known unboxed tuple, and case-of-case through join points.
    #[inline(never)]
    fn case_walked(
        &mut self,
        s: Cow<'_, CoreExpr>,
        alts: &[CoreAlt],
        walked: Vec<Option<CoreAlt>>,
        out: Floats<'_>,
    ) -> Option<CoreExpr> {
        let alt_at = |i: usize| walked[i].as_ref().unwrap_or(&alts[i]);
        // Tuple-η: case e of (# x… #) -> (# x… #)  ==>  e. Both sides
        // force the scrutinee to the same multi-value.
        if alts.len() == 1 && is_eta(alt_at(0)) && self.fire() {
            self.forget(alt_at(0).rhs());
            return Some(self.place(s.into_owned(), out));
        }
        // case (# fields #) of { (# binders #) -> rhs }.
        if let (CoreExpr::Tuple(fields), Some(CoreAlt::Tuple { binders, rhs })) =
            (&*s, alts.first().map(|_| alt_at(0)))
        {
            if self.fire() {
                self.forget(&s);
                self.forget(rhs);
                let e = field_binds(binders, fields.clone(), rhs.clone());
                return Some(self.rewalk(e, None, out));
            }
        }
        let changed = matches!(s, Cow::Owned(_)) || walked.iter().any(Option::is_some);
        let multi = self.fuel > 0 && matches!(&*s, CoreExpr::Case(_, inner) if inner.len() > 1);
        if !changed && !multi {
            return None;
        }
        let outer: Vec<CoreAlt> = walked
            .into_iter()
            .zip(alts)
            .map(|(w, a)| w.unwrap_or_else(|| a.clone()))
            .collect();
        // Multi-alternative inner case: push through join points, so no
        // continuation is duplicated (see `super::join`).
        if let (true, CoreExpr::Case(inner_scrut, inner_alts)) = (multi, &*s) {
            if let Some((e, joins)) = super::join::case_of_case_with_joins(
                self.cx.env,
                &mut self.scope,
                inner_scrut,
                inner_alts,
                &outer,
            ) {
                self.fire();
                self.join_points += joins;
                self.forget(&s);
                for a in &outer {
                    self.forget(a.rhs());
                }
                return Some(self.rewalk(e, None, out));
            }
        }
        changed.then(|| CoreExpr::Case(Box::new(s.into_owned()), outer))
    }

    /// Walks one alternative, its binders in scope.
    #[inline(never)]
    fn alt(&mut self, alt: &CoreAlt) -> Option<CoreAlt> {
        let binders = alt_binders(alt);
        let names: Vec<Symbol> = binders.iter().map(|(x, t)| self.bind(*x, t)).collect();
        let rhs = self.expr(alt.rhs(), None);
        for &x in names.iter().rev() {
            self.unbind(x);
        }
        let renamed = names.iter().zip(binders).any(|(n, (x, _))| n != x);
        (renamed || rhs.is_some())
            .then(|| with_parts(alt, &names, rhs.unwrap_or_else(|| alt.rhs().clone())))
    }

    /// The literal or default alternative `sel` of a case on the known
    /// `scrut`, whose default binder names it.
    #[inline(never)]
    fn selected(&mut self, sel: Selected<'_>, scrut: CoreExpr, out: Floats<'_>) -> CoreExpr {
        let Selected::Rhs(binder, rhs) = sel else {
            unreachable!("constructor alternatives bind their fields")
        };
        match binder {
            None => {
                self.forget(&scrut);
                self.expr(rhs, out).unwrap_or_else(|| rhs.clone())
            }
            Some((x, _)) if matches!(scrut, CoreExpr::Lit(_)) => {
                self.substitute(*x, scrut);
                let r = self.expr(rhs, out).unwrap_or_else(|| rhs.clone());
                self.restore();
                r
            }
            Some((x, t)) => self
                .let_(*x, t, Cow::Owned(scrut), Body::Expr(rhs), out)
                .expect("a new let"),
        }
    }

    /// case (let x = r in b) of alts  ==>  let x = r in case b of alts,
    /// for every `let` at the head of the scrutinee. The floated binders
    /// are already unique in scope, so the alternatives cannot capture.
    #[inline(never)]
    fn case_of_let(&mut self, s: CoreExpr, alts: &[CoreAlt], mut out: Floats<'_>) -> CoreExpr {
        let mut e = s;
        let mut wrapped = Vec::new();
        while matches!(e, CoreExpr::Let(..)) && self.fire() {
            let CoreExpr::Let(kind, x, ty, rhs, body) = e else {
                unreachable!("matched above")
            };
            self.enter(x, &ty);
            let bind = Bind {
                kind,
                x,
                ty,
                rhs: *rhs,
            };
            // Heading a right-hand side, the leading floating lets go on
            // to that `let`.
            let onward = wrapped.is_empty()
                && kind == LetKind::NonRec
                && out.is_some()
                && Self::floats(self.cx.strictness(&mut self.scope, &bind.ty), &bind.rhs)
                && self.fire();
            match out.as_deref_mut() {
                Some(list) if onward => list.push(bind),
                _ => wrapped.push(bind),
            }
            e = *body;
        }
        let inner_out = if wrapped.is_empty() { out } else { None };
        let inner = self
            .case_on(Cow::Owned(e), alts, inner_out)
            .expect("a new case");
        self.wrap(wrapped, inner)
    }

    /// case (case s of { p -> r }) of alts
    ///   ==>  case s of { p -> case r of alts }     (single alt only)
    #[inline(never)]
    fn case_of_case(&mut self, s: CoreExpr, alts: &[CoreAlt], out: Floats<'_>) -> CoreExpr {
        self.fire();
        let CoreExpr::Case(inner_scrut, mut inner_alts) = s else {
            unreachable!("a single-alternative case")
        };
        let mut alt = inner_alts.pop().expect("one alternative");
        let names: Vec<Symbol> = alt_binders(&alt)
            .iter()
            .map(|(x, t)| {
                self.enter(*x, t);
                *x
            })
            .collect();
        let rhs = std::mem::replace(rhs_mut(&mut alt), CoreExpr::int(0));
        let pushed = self
            .case_on(Cow::Owned(rhs), alts, None)
            .expect("a new case");
        for &x in names.iter().rev() {
            self.leave(x);
        }
        *rhs_mut(&mut alt) = pushed;
        if is_eta(&alt) && self.fire() {
            self.forget(alt.rhs());
            return self.place(*inner_scrut, out);
        }
        CoreExpr::Case(inner_scrut, vec![alt])
    }
}

/// Rewrites every `case v of alts` in an expression (where `v` is known
/// to be the constructor `cname` applied to `fields`) into the selected
/// alternative, its binders `let`-bound to the fields. Stops at any
/// binder in `stop` — a shadower of `v` itself or of a field's free
/// variable — leaving that subtree untouched, and refuses to descend
/// into λ-bodies unless the fields are atoms (rewriting there would move
/// a shared computation into per-call code). Counts the selections and
/// the nodes visited.
struct KnownCase<'k> {
    v: Symbol,
    cname: Symbol,
    fields: &'k [CoreExpr],
    stop: Vec<Symbol>,
    atoms_only: bool,
    hits: usize,
    nodes: usize,
}

impl KnownCase<'_> {
    fn go(&mut self, e: &CoreExpr) -> CoreExpr {
        self.nodes += 1;
        match e {
            CoreExpr::Case(scrut, alts) if matches!(&**scrut, CoreExpr::Var(s) if *s == self.v) => {
                if let Some(sel) = select_con(self.cname, self.fields, alts) {
                    self.hits += 1;
                    let selected = match sel {
                        Selected::Fields(binders, rhs) => {
                            field_binds(binders, self.fields.to_vec(), rhs.clone())
                        }
                        Selected::Rhs(None, rhs) => rhs.clone(),
                        Selected::Rhs(Some((x, t)), rhs) => {
                            CoreExpr::let_(*x, t.clone(), (**scrut).clone(), rhs.clone())
                        }
                    };
                    // The selection may expose further cases on `v`
                    // inside the chosen alternative.
                    return self.go(&selected);
                }
                let alts = alts.iter().map(|a| self.alt(a)).collect();
                CoreExpr::Case(Box::new((**scrut).clone()), alts)
            }
            CoreExpr::Var(_) | CoreExpr::Global(_) | CoreExpr::Lit(_) | CoreExpr::Error(..) => {
                e.clone()
            }
            CoreExpr::App(f, a) => CoreExpr::app(self.go(f), self.go(a)),
            CoreExpr::TyApp(f, t) => CoreExpr::ty_app(self.go(f), t.clone()),
            CoreExpr::RepApp(f, r) => CoreExpr::rep_app(self.go(f), r.clone()),
            CoreExpr::Lam(x, t, b) => {
                if self.stop.contains(x) || !self.atoms_only {
                    e.clone()
                } else {
                    CoreExpr::lam(*x, t.clone(), self.go(b))
                }
            }
            CoreExpr::TyLam(a, k, b) => CoreExpr::ty_lam(*a, k.clone(), self.go(b)),
            CoreExpr::RepLam(r, b) => CoreExpr::rep_lam(*r, self.go(b)),
            CoreExpr::Let(kind, x, t, rhs, body) => {
                let shadowed = self.stop.contains(x);
                let rhs = if *kind == LetKind::Rec && shadowed {
                    (**rhs).clone()
                } else {
                    self.go(rhs)
                };
                let body = if shadowed {
                    (**body).clone()
                } else {
                    self.go(body)
                };
                CoreExpr::Let(*kind, *x, t.clone(), Box::new(rhs), Box::new(body))
            }
            CoreExpr::Case(scrut, alts) => {
                let scrut = self.go(scrut);
                let alts = alts.iter().map(|a| self.alt(a)).collect();
                CoreExpr::Case(Box::new(scrut), alts)
            }
            CoreExpr::Con(con, ty_args, fields) => CoreExpr::Con(
                Arc::clone(con),
                ty_args.clone(),
                fields.iter().map(|f| self.go(f)).collect(),
            ),
            CoreExpr::Prim(op, args) => {
                CoreExpr::Prim(*op, args.iter().map(|a| self.go(a)).collect())
            }
            CoreExpr::Tuple(args) => CoreExpr::Tuple(args.iter().map(|a| self.go(a)).collect()),
        }
    }

    fn alt(&mut self, alt: &CoreAlt) -> CoreAlt {
        if alt_binders(alt).iter().any(|(b, _)| self.stop.contains(b)) {
            return alt.clone();
        }
        let names: Vec<Symbol> = alt_binders(alt).iter().map(|(b, _)| *b).collect();
        let rhs = self.go(alt.rhs());
        with_parts(alt, &names, rhs)
    }
}

/// The binders an alternative brings into scope.
fn alt_binders(alt: &CoreAlt) -> &[(Symbol, Type)] {
    match alt {
        CoreAlt::Con { binders, .. } | CoreAlt::Tuple { binders, .. } => binders,
        CoreAlt::Default {
            binder: Some(b), ..
        } => std::slice::from_ref(b),
        CoreAlt::Lit { .. } | CoreAlt::Default { binder: None, .. } => &[],
    }
}

fn rhs_mut(alt: &mut CoreAlt) -> &mut CoreExpr {
    match alt {
        CoreAlt::Con { rhs, .. }
        | CoreAlt::Lit { rhs, .. }
        | CoreAlt::Tuple { rhs, .. }
        | CoreAlt::Default { rhs, .. } => rhs,
    }
}

/// `alt` with its binders named `names` and its right-hand side `rhs`.
fn with_parts(alt: &CoreAlt, names: &[Symbol], rhs: CoreExpr) -> CoreAlt {
    let named = |binders: &[(Symbol, Type)]| -> Vec<(Symbol, Type)> {
        names
            .iter()
            .zip(binders)
            .map(|(n, (_, t))| (*n, t.clone()))
            .collect()
    };
    match alt {
        CoreAlt::Con { con, binders, .. } => CoreAlt::Con {
            con: Arc::clone(con),
            binders: named(binders),
            rhs,
        },
        CoreAlt::Lit { lit, .. } => CoreAlt::Lit { lit: *lit, rhs },
        CoreAlt::Tuple { binders, .. } => CoreAlt::Tuple {
            binders: named(binders),
            rhs,
        },
        CoreAlt::Default { binder, .. } => CoreAlt::Default {
            binder: binder.as_ref().map(|(_, t)| (names[0], t.clone())),
            rhs,
        },
    }
}

/// Is `alt` the tuple-η shape `(# x… #) -> (# x… #)`?
fn is_eta(alt: &CoreAlt) -> bool {
    let CoreAlt::Tuple {
        binders,
        rhs: CoreExpr::Tuple(es),
    } = alt
    else {
        return false;
    };
    es.len() == binders.len()
        && es
            .iter()
            .zip(binders)
            .all(|(e, (b, _))| matches!(e, CoreExpr::Var(v) if v == b))
}

/// The alternative a known scrutinee selects.
enum Selected<'a> {
    /// A constructor alternative, whose binders take the fields.
    Fields(&'a [(Symbol, Type)], &'a CoreExpr),
    /// A literal or default alternative, with the default's binder
    /// naming the scrutinee.
    Rhs(Option<&'a (Symbol, Type)>, &'a CoreExpr),
}

/// Selects the alternative for a known constructor `cname`: its own,
/// or the default when re-materializing the scrutinee is effect-free.
fn select_con<'a>(cname: Symbol, fields: &[CoreExpr], alts: &'a [CoreAlt]) -> Option<Selected<'a>> {
    for alt in alts {
        if let CoreAlt::Con { con, binders, rhs } = alt {
            if con.name == cname {
                return Some(Selected::Fields(binders, rhs));
            }
        }
    }
    alts.iter().find_map(|alt| match alt {
        CoreAlt::Default { binder, rhs } if fields.iter().all(is_value_atom) => {
            Some(Selected::Rhs(binder.as_ref(), rhs))
        }
        _ => None,
    })
}

fn select_lit(l: Literal, alts: &[CoreAlt]) -> Option<Selected<'_>> {
    for alt in alts {
        if let CoreAlt::Lit { lit, rhs } = alt {
            if *lit == l {
                return Some(Selected::Rhs(None, rhs));
            }
        }
    }
    alts.iter().find_map(|alt| match alt {
        CoreAlt::Default { binder, rhs } => Some(Selected::Rhs(binder.as_ref(), rhs)),
        _ => None,
    })
}

/// `let`s binding `binders` to `fields` around `rhs`, first field
/// outermost (constructor arguments evaluate left to right). Walked,
/// the value-atom lets substitute away.
fn field_binds(binders: &[(Symbol, Type)], fields: Vec<CoreExpr>, rhs: CoreExpr) -> CoreExpr {
    binders
        .iter()
        .zip(fields)
        .rev()
        .fold(rhs, |body, ((x, t), f)| {
            CoreExpr::let_(*x, t.clone(), f, body)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let mut report = OptReport::default();
            let out = simplify(&env, prog, &entries, &HashSet::new(), &mut report);
            (out, report.inlined, report.simplified)
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
