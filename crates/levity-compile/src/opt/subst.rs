//! Capture-avoiding substitution over Core expressions.
//!
//! Every optimizer pass that moves code into a new scope funnels through
//! [`substitute`], which renames **every** term binder it walks under to
//! a name fresh in the whole compilation (via [`levity_ir::freshen`]).
//! Freshening everything is mildly wasteful but makes capture impossible by
//! construction: an inlined body's binders can never collide with the
//! call site's free variables, and a case alternative's binders can
//! never shadow a field expression being pushed inward. Binder names do
//! not survive lowering (the lowerer runs its own supply), so the churn
//! is invisible at runtime.

use std::collections::HashMap;
use std::sync::Arc;

use levity_core::rep::RepTy;
use levity_core::symbol::Symbol;

use levity_ir::freshen;
use levity_ir::terms::{CoreAlt, CoreExpr, TyArg};
use levity_ir::types::Type;

/// Is this expression an atom — a variable, literal, or global
/// reference, with no term structure of its own? Type and
/// representation applications are erased by lowering, so an atom
/// wrapped in them is still an atom.
///
/// Note that an atom is not necessarily a *value*: evaluating a
/// `Global` runs its top-level body (the machine has no CAF
/// memoization), which for an unboxed-typed global may abort. Rules
/// that move or drop an evaluation must use [`is_value_atom`].
pub fn is_atom(e: &CoreExpr) -> bool {
    match e {
        CoreExpr::Var(_) | CoreExpr::Global(_) | CoreExpr::Lit(_) => true,
        CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) => is_atom(f),
        _ => false,
    }
}

/// Strips erased type/representation applications down to the head —
/// lowering erases them, so two expressions equal up to `strip_erased`
/// compile to the same machine code. Used by the specialisation passes
/// to see a `Global` through its instantiating `@ρ`/`@τ` wrappers.
pub fn strip_erased(e: &CoreExpr) -> &CoreExpr {
    match e {
        CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) => strip_erased(f),
        other => other,
    }
}

/// Is this expression already a value wherever it sits — a variable
/// (strict contexts only ever bind evaluated variables) or a literal?
/// Unlike [`is_atom`], excludes `Global`: substituting or discarding a
/// global moves or loses the evaluation of its body.
pub fn is_value_atom(e: &CoreExpr) -> bool {
    match e {
        CoreExpr::Var(_) | CoreExpr::Lit(_) => true,
        CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) => is_value_atom(f),
        _ => false,
    }
}

/// Counts free occurrences of `x` in `e` (stopping under shadowing
/// binders).
pub fn count_uses(e: &CoreExpr, x: Symbol) -> usize {
    match e {
        CoreExpr::Var(v) => usize::from(*v == x),
        CoreExpr::Global(_) | CoreExpr::Lit(_) | CoreExpr::Error(..) => 0,
        CoreExpr::App(f, a) => count_uses(f, x) + count_uses(a, x),
        CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) => count_uses(f, x),
        CoreExpr::Lam(b, _, body) => {
            if *b == x {
                0
            } else {
                count_uses(body, x)
            }
        }
        CoreExpr::TyLam(_, _, body) | CoreExpr::RepLam(_, body) => count_uses(body, x),
        CoreExpr::Let(kind, b, _, rhs, body) => {
            let in_rhs = if *b == x && *kind == levity_ir::terms::LetKind::Rec {
                0
            } else {
                count_uses(rhs, x)
            };
            let in_body = if *b == x { 0 } else { count_uses(body, x) };
            in_rhs + in_body
        }
        CoreExpr::Case(scrut, alts) => {
            let mut n = count_uses(scrut, x);
            for alt in alts {
                let shadowed = match alt {
                    CoreAlt::Con { binders, .. } | CoreAlt::Tuple { binders, .. } => {
                        binders.iter().any(|(b, _)| *b == x)
                    }
                    CoreAlt::Default { binder, .. } => {
                        matches!(binder, Some((b, _)) if *b == x)
                    }
                    CoreAlt::Lit { .. } => false,
                };
                if !shadowed {
                    n += count_uses(alt.rhs(), x);
                }
            }
            n
        }
        CoreExpr::Con(_, _, fields) => fields.iter().map(|f| count_uses(f, x)).sum(),
        CoreExpr::Prim(_, args) | CoreExpr::Tuple(args) => {
            args.iter().map(|a| count_uses(a, x)).sum()
        }
    }
}

/// Free term variables of `e`, in first-occurrence order.
pub fn free_term_vars(e: &CoreExpr) -> Vec<Symbol> {
    fn walk(e: &CoreExpr, bound: &mut Vec<Symbol>, out: &mut Vec<Symbol>) {
        match e {
            CoreExpr::Var(v) => {
                if !bound.contains(v) && !out.contains(v) {
                    out.push(*v);
                }
            }
            CoreExpr::Global(_) | CoreExpr::Lit(_) | CoreExpr::Error(..) => {}
            CoreExpr::App(f, a) => {
                walk(f, bound, out);
                walk(a, bound, out);
            }
            CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) => walk(f, bound, out),
            CoreExpr::Lam(x, _, body) => {
                bound.push(*x);
                walk(body, bound, out);
                bound.pop();
            }
            CoreExpr::TyLam(_, _, body) | CoreExpr::RepLam(_, body) => walk(body, bound, out),
            CoreExpr::Let(kind, x, _, rhs, body) => {
                if *kind == levity_ir::terms::LetKind::Rec {
                    bound.push(*x);
                    walk(rhs, bound, out);
                    walk(body, bound, out);
                    bound.pop();
                } else {
                    walk(rhs, bound, out);
                    bound.push(*x);
                    walk(body, bound, out);
                    bound.pop();
                }
            }
            CoreExpr::Case(scrut, alts) => {
                walk(scrut, bound, out);
                for alt in alts {
                    match alt {
                        CoreAlt::Con { binders, rhs, .. } | CoreAlt::Tuple { binders, rhs } => {
                            for (b, _) in binders {
                                bound.push(*b);
                            }
                            walk(rhs, bound, out);
                            for _ in binders {
                                bound.pop();
                            }
                        }
                        CoreAlt::Lit { rhs, .. } => walk(rhs, bound, out),
                        CoreAlt::Default { binder, rhs } => match binder {
                            Some((b, _)) => {
                                bound.push(*b);
                                walk(rhs, bound, out);
                                bound.pop();
                            }
                            None => walk(rhs, bound, out),
                        },
                    }
                }
            }
            CoreExpr::Con(_, _, fields) => fields.iter().for_each(|f| walk(f, bound, out)),
            CoreExpr::Prim(_, args) | CoreExpr::Tuple(args) => {
                args.iter().for_each(|a| walk(a, bound, out))
            }
        }
    }
    let mut out = Vec::new();
    walk(e, &mut Vec::new(), &mut out);
    out
}

/// Does `e` mention the global `g` anywhere?
pub fn mentions_global(e: &CoreExpr, g: Symbol) -> bool {
    let mut found = matches!(e, CoreExpr::Global(name) if *name == g);
    e.for_each_child(|c| found = found || mentions_global(c, g));
    found
}

/// All globals mentioned by `e`, in first-occurrence order.
pub fn globals_of(e: &CoreExpr, out: &mut Vec<Symbol>) {
    if let CoreExpr::Global(name) = e {
        if !out.contains(name) {
            out.push(*name);
        }
    }
    e.for_each_child(|c| globals_of(c, out));
}

/// Simultaneous, capture-avoiding substitution of expressions for term
/// variables. Every binder in `e` is renamed to a fresh name on the way
/// down, so nothing in the replacement expressions can be captured.
pub fn substitute(e: &CoreExpr, map: &HashMap<Symbol, CoreExpr>) -> CoreExpr {
    let mut frames: Vec<(Symbol, CoreExpr)> = map.iter().map(|(k, v)| (*k, v.clone())).collect();
    go(e, &mut frames)
}

/// Renames every term binder in `e` to a fresh name (α-conversion).
/// Used before β-reducing an inlined body into a foreign scope.
pub fn refresh_binders(e: &CoreExpr) -> CoreExpr {
    substitute(e, &HashMap::new())
}

fn go(e: &CoreExpr, frames: &mut Vec<(Symbol, CoreExpr)>) -> CoreExpr {
    match e {
        CoreExpr::Var(x) => frames
            .iter()
            .rev()
            .find(|(n, _)| n == x)
            .map(|(_, r)| r.clone())
            .unwrap_or_else(|| e.clone()),
        CoreExpr::Global(_) | CoreExpr::Lit(_) | CoreExpr::Error(..) => e.clone(),
        CoreExpr::App(f, a) => CoreExpr::app(go(f, frames), go(a, frames)),
        CoreExpr::TyApp(f, t) => CoreExpr::ty_app(go(f, frames), t.clone()),
        CoreExpr::RepApp(f, r) => CoreExpr::rep_app(go(f, frames), r.clone()),
        CoreExpr::Lam(x, ty, body) => {
            let fresh = freshen(*x);
            frames.push((*x, CoreExpr::Var(fresh)));
            let body = go(body, frames);
            frames.pop();
            CoreExpr::lam(fresh, ty.clone(), body)
        }
        CoreExpr::TyLam(a, k, body) => CoreExpr::ty_lam(*a, k.clone(), go(body, frames)),
        CoreExpr::RepLam(r, body) => CoreExpr::rep_lam(*r, go(body, frames)),
        CoreExpr::Let(kind, x, ty, rhs, body) => {
            let fresh = freshen(*x);
            // A recursive rhs sees its own (renamed) binder.
            let rhs = if *kind == levity_ir::terms::LetKind::Rec {
                frames.push((*x, CoreExpr::Var(fresh)));
                let r = go(rhs, frames);
                frames.pop();
                r
            } else {
                go(rhs, frames)
            };
            frames.push((*x, CoreExpr::Var(fresh)));
            let body = go(body, frames);
            frames.pop();
            CoreExpr::Let(*kind, fresh, ty.clone(), Box::new(rhs), Box::new(body))
        }
        CoreExpr::Case(scrut, alts) => {
            let scrut = go(scrut, frames);
            let alts = alts
                .iter()
                .map(|alt| match alt {
                    CoreAlt::Con { con, binders, rhs } => {
                        let (binders, rhs) = rename_binders(binders, rhs, frames);
                        CoreAlt::Con {
                            con: Arc::clone(con),
                            binders,
                            rhs,
                        }
                    }
                    CoreAlt::Lit { lit, rhs } => CoreAlt::Lit {
                        lit: *lit,
                        rhs: go(rhs, frames),
                    },
                    CoreAlt::Tuple { binders, rhs } => {
                        let (binders, rhs) = rename_binders(binders, rhs, frames);
                        CoreAlt::Tuple { binders, rhs }
                    }
                    CoreAlt::Default { binder, rhs } => match binder {
                        Some((x, t)) => {
                            let fresh = freshen(*x);
                            frames.push((*x, CoreExpr::Var(fresh)));
                            let rhs = go(rhs, frames);
                            frames.pop();
                            CoreAlt::Default {
                                binder: Some((fresh, t.clone())),
                                rhs,
                            }
                        }
                        None => CoreAlt::Default {
                            binder: None,
                            rhs: go(rhs, frames),
                        },
                    },
                })
                .collect();
            CoreExpr::Case(Box::new(scrut), alts)
        }
        CoreExpr::Con(con, ty_args, fields) => CoreExpr::Con(
            Arc::clone(con),
            ty_args.clone(),
            fields.iter().map(|f| go(f, frames)).collect(),
        ),
        CoreExpr::Prim(op, args) => {
            CoreExpr::Prim(*op, args.iter().map(|a| go(a, frames)).collect())
        }
        CoreExpr::Tuple(args) => CoreExpr::Tuple(args.iter().map(|a| go(a, frames)).collect()),
    }
}

fn rename_binders(
    binders: &[(Symbol, Type)],
    rhs: &CoreExpr,
    frames: &mut Vec<(Symbol, CoreExpr)>,
) -> (Vec<(Symbol, Type)>, CoreExpr) {
    let mut renamed = Vec::with_capacity(binders.len());
    for (x, t) in binders {
        let fresh = freshen(*x);
        frames.push((*x, CoreExpr::Var(fresh)));
        renamed.push((fresh, t.clone()));
    }
    let rhs = go(rhs, frames);
    for _ in binders {
        frames.pop();
    }
    (renamed, rhs)
}

/// Substitutes a type for a type variable throughout an expression's
/// embedded types (binder annotations, type applications, constructor
/// type arguments, `error` result types).
pub fn subst_ty_expr(e: &CoreExpr, var: Symbol, payload: &Type) -> CoreExpr {
    TySubst::Ty(var, payload).expr(e)
}

/// Substitutes a representation for a representation variable throughout
/// an expression's embedded types and kinds.
pub fn subst_rep_expr(e: &CoreExpr, var: Symbol, payload: &RepTy) -> CoreExpr {
    TySubst::Rep(var, payload).expr(e)
}

/// One substitution for a type-level variable: a type for a type
/// variable, or a representation for a rep variable. Each renames the
/// quantifiers of its own sort that would capture the payload.
#[derive(Clone, Copy)]
enum TySubst<'a> {
    Ty(Symbol, &'a Type),
    Rep(Symbol, &'a RepTy),
}

impl TySubst<'_> {
    fn ty(self, t: &Type) -> Type {
        match self {
            TySubst::Ty(var, payload) => t.subst_ty(var, payload),
            TySubst::Rep(var, payload) => t.subst_rep(var, payload),
        }
    }

    fn rep(self, r: &RepTy) -> RepTy {
        match self {
            TySubst::Ty(..) => r.clone(),
            TySubst::Rep(var, payload) => r.substitute(var, payload),
        }
    }

    /// `e`, a quantifier of the substituted sort binding `b` over `body`,
    /// substituted and rebuilt by `rebuild`: left alone when `b` shadows
    /// the variable, and with `b` renamed first when the quantifier would
    /// capture the payload.
    fn under(
        self,
        e: &CoreExpr,
        b: Symbol,
        body: &CoreExpr,
        rebuild: impl FnOnce(Symbol, CoreExpr) -> CoreExpr,
    ) -> CoreExpr {
        let (var, captures) = match self {
            TySubst::Ty(var, payload) => (var, payload.free_ty_vars().contains(&b)),
            TySubst::Rep(var, payload) => (var, matches!(payload, RepTy::Var(v) if *v == b)),
        };
        if b == var {
            return e.clone();
        }
        if !captures {
            return rebuild(b, self.expr(body));
        }
        let fresh = freshen(b);
        let renamed = match self {
            TySubst::Ty(..) => subst_ty_expr(body, b, &Type::Var(fresh)),
            TySubst::Rep(..) => subst_rep_expr(body, b, &RepTy::Var(fresh)),
        };
        rebuild(fresh, self.expr(&renamed))
    }

    fn expr(self, e: &CoreExpr) -> CoreExpr {
        match e {
            CoreExpr::Var(_) | CoreExpr::Global(_) | CoreExpr::Lit(_) => e.clone(),
            CoreExpr::Error(t, msg) => CoreExpr::Error(self.ty(t), msg.clone()),
            CoreExpr::App(f, a) => CoreExpr::app(self.expr(f), self.expr(a)),
            CoreExpr::TyApp(f, t) => CoreExpr::ty_app(self.expr(f), self.ty(t)),
            CoreExpr::RepApp(f, r) => CoreExpr::rep_app(self.expr(f), self.rep(r)),
            CoreExpr::Lam(x, t, body) => CoreExpr::lam(*x, self.ty(t), self.expr(body)),
            CoreExpr::TyLam(a, k, body) => match self {
                TySubst::Ty(..) => {
                    self.under(e, *a, body, |a, body| CoreExpr::ty_lam(a, k.clone(), body))
                }
                TySubst::Rep(var, payload) => {
                    CoreExpr::ty_lam(*a, k.substitute_rep(var, payload), self.expr(body))
                }
            },
            CoreExpr::RepLam(r, body) => match self {
                TySubst::Ty(..) => CoreExpr::rep_lam(*r, self.expr(body)),
                TySubst::Rep(..) => self.under(e, *r, body, CoreExpr::rep_lam),
            },
            CoreExpr::Let(kind, x, t, rhs, body) => CoreExpr::Let(
                *kind,
                *x,
                self.ty(t),
                Box::new(self.expr(rhs)),
                Box::new(self.expr(body)),
            ),
            CoreExpr::Case(scrut, alts) => CoreExpr::Case(
                Box::new(self.expr(scrut)),
                alts.iter()
                    .map(|alt| map_alt(alt, &|t| self.ty(t), &|e| self.expr(e)))
                    .collect(),
            ),
            CoreExpr::Con(con, ty_args, fields) => CoreExpr::Con(
                Arc::clone(con),
                ty_args
                    .iter()
                    .map(|a| match a {
                        TyArg::Ty(t) => TyArg::Ty(self.ty(t)),
                        TyArg::Rep(r) => TyArg::Rep(self.rep(r)),
                    })
                    .collect(),
                fields.iter().map(|f| self.expr(f)).collect(),
            ),
            CoreExpr::Prim(op, args) => {
                CoreExpr::Prim(*op, args.iter().map(|a| self.expr(a)).collect())
            }
            CoreExpr::Tuple(args) => CoreExpr::Tuple(args.iter().map(|a| self.expr(a)).collect()),
        }
    }
}

fn map_alt(
    alt: &CoreAlt,
    on_ty: &dyn Fn(&Type) -> Type,
    on_expr: &dyn Fn(&CoreExpr) -> CoreExpr,
) -> CoreAlt {
    match alt {
        CoreAlt::Con { con, binders, rhs } => CoreAlt::Con {
            con: Arc::clone(con),
            binders: binders.iter().map(|(x, t)| (*x, on_ty(t))).collect(),
            rhs: on_expr(rhs),
        },
        CoreAlt::Lit { lit, rhs } => CoreAlt::Lit {
            lit: *lit,
            rhs: on_expr(rhs),
        },
        CoreAlt::Tuple { binders, rhs } => CoreAlt::Tuple {
            binders: binders.iter().map(|(x, t)| (*x, on_ty(t))).collect(),
            rhs: on_expr(rhs),
        },
        CoreAlt::Default { binder, rhs } => CoreAlt::Default {
            binder: binder.as_ref().map(|(x, t)| (*x, on_ty(t))),
            rhs: on_expr(rhs),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use levity_ir::builtin::builtins;
    use levity_m::syntax::PrimOp;

    #[test]
    fn substitution_renames_binders_and_avoids_capture() {
        let b = builtins();
        let ih = Type::con0(&b.int_hash);
        // \(y :: Int#) -> x +# y, substituting x := y must not capture.
        let e = CoreExpr::lam(
            "y",
            ih,
            CoreExpr::Prim(
                PrimOp::AddI,
                vec![CoreExpr::Var("x".into()), CoreExpr::Var("y".into())],
            ),
        );
        let mut map = HashMap::new();
        map.insert("x".into(), CoreExpr::Var("y".into()));
        let out = substitute(&e, &map);
        let CoreExpr::Lam(fresh, _, body) = &out else {
            panic!("expected a lambda, got {out}");
        };
        assert_ne!(*fresh, Symbol::intern("y"), "binder must be renamed");
        let CoreExpr::Prim(_, args) = &**body else {
            panic!("expected a primop body");
        };
        // The free `y` stays `y`; the bound occurrence follows the rename.
        assert_eq!(args[0], CoreExpr::Var("y".into()));
        assert_eq!(args[1], CoreExpr::Var(*fresh));
    }

    #[test]
    fn count_uses_respects_shadowing() {
        let b = builtins();
        let ih = Type::con0(&b.int_hash);
        let e = CoreExpr::app(
            CoreExpr::lam("x", ih.clone(), CoreExpr::Var("x".into())),
            CoreExpr::Var("x".into()),
        );
        assert_eq!(count_uses(&e, "x".into()), 1);
        let _ = ih;
    }

    #[test]
    fn atoms_see_through_erased_wrappers() {
        assert!(is_atom(&CoreExpr::Var("x".into())));
        assert!(is_atom(&CoreExpr::ty_app(
            CoreExpr::Global("g".into()),
            Type::Var("a".into())
        )));
        assert!(!is_atom(&CoreExpr::app(
            CoreExpr::Var("f".into()),
            CoreExpr::int(1)
        )));
    }
}
