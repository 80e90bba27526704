//! The levity-polymorphism checks of §5.1, run after type checking.
//!
//! GHC "can only check for bad levity polymorphism after type checking is
//! complete … we thus do the levity polymorphism checks in the desugarer"
//! (§8.2). This module is that pass. It enforces:
//!
//! 1. **No levity-polymorphic binders** — every λ-, `let`- and
//!    case-pattern binder must have a type whose kind is fixed and free
//!    of representation variables.
//! 2. **No levity-polymorphic function arguments** — every application
//!    argument's type must likewise have a concrete kind, because
//!    arguments are passed in registers of a known class.
//!
//! Types that merely *mention* levity polymorphism (like `error`'s result
//! or `($)`'s return type) are fine; only *moving or storing* a value at
//! an abstract representation is rejected (§5.1's fundamental
//! requirement (*)).

use std::sync::Arc;

use levity_core::diag::{Diagnostic, Diagnostics, ErrorCode, Span};
use levity_core::kind::Kind;
use levity_core::symbol::Symbol;

use crate::terms::{CoreAlt, CoreExpr, Program, TopBind};
use crate::typecheck::{kind_of, type_of, Scope, ScopeEntry, TypeEnv};
use crate::types::Type;

/// Checks one binder type; returns a diagnostic when its kind mentions a
/// representation variable.
fn check_binder(env: &TypeEnv, scope: &mut Scope, who: Symbol, ty: &Type, diags: &mut Diagnostics) {
    match kind_of(env, scope, ty) {
        Ok(kind) => {
            if kind.is_levity_polymorphic() {
                diags.push(levity_binder_error(who, ty, &kind));
            }
        }
        Err(_) => {
            // Type errors are the type checker's to report.
        }
    }
}

fn levity_binder_error(who: Symbol, ty: &Type, kind: &Kind) -> Diagnostic {
    Diagnostic::error(
        ErrorCode::LevityPolymorphicBinder,
        format!("the binder `{who}` has a levity-polymorphic type `{ty}` (of kind `{kind}`)"),
        Span::SYNTHETIC,
    )
    .with_note(
        "a bound variable must have a fixed runtime representation (section 5.1, restriction 1)",
    )
}

fn levity_argument_error(ty: &Type, kind: &Kind) -> Diagnostic {
    Diagnostic::error(
        ErrorCode::LevityPolymorphicArgument,
        format!("a function argument has levity-polymorphic type `{ty}` (of kind `{kind}`)"),
        Span::SYNTHETIC,
    )
    .with_note(
        "arguments are passed in registers, whose class must be known (section 5.1, restriction 2)",
    )
}

/// Walks an expression, reporting every §5.1 violation.
pub fn check_expr(env: &TypeEnv, scope: &mut Scope, e: &CoreExpr, diags: &mut Diagnostics) {
    match e {
        CoreExpr::Var(_) | CoreExpr::Global(_) | CoreExpr::Lit(_) | CoreExpr::Error(..) => {}
        CoreExpr::App(f, a) => {
            check_expr(env, scope, f, diags);
            check_expr(env, scope, a, diags);
            // Restriction 2: the argument's representation must be known.
            if let Ok(arg_ty) = type_of(env, scope, a) {
                if let Ok(kind) = kind_of(env, scope, &arg_ty) {
                    if kind.is_levity_polymorphic() {
                        diags.push(levity_argument_error(&arg_ty, &kind));
                    }
                }
            }
        }
        CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) => check_expr(env, scope, f, diags),
        CoreExpr::Lam(x, ty, body) => {
            // Restriction 1 at λ.
            check_binder(env, scope, *x, ty, diags);
            scope.push(*x, ScopeEntry::Term(ty.clone()));
            check_expr(env, scope, body, diags);
            scope.pop();
        }
        CoreExpr::TyLam(a, k, body) => {
            scope.push(*a, ScopeEntry::TyVar(k.clone()));
            check_expr(env, scope, body, diags);
            scope.pop();
        }
        CoreExpr::RepLam(r, body) => {
            scope.push(*r, ScopeEntry::RepVar);
            check_expr(env, scope, body, diags);
            scope.pop();
        }
        CoreExpr::Let(_, x, ty, rhs, body) => {
            // Restriction 1 at let.
            check_binder(env, scope, *x, ty, diags);
            scope.push(*x, ScopeEntry::Term(ty.clone()));
            check_expr(env, scope, rhs, diags);
            check_expr(env, scope, body, diags);
            scope.pop();
        }
        CoreExpr::Case(scrut, alts) => {
            check_expr(env, scope, scrut, diags);
            // The scrutinee itself is evaluated into a register: its
            // representation must be known too.
            if let Ok(scrut_ty) = type_of(env, scope, scrut) {
                if let Ok(kind) = kind_of(env, scope, &scrut_ty) {
                    if kind.is_levity_polymorphic() {
                        diags.push(levity_argument_error(&scrut_ty, &kind));
                    }
                }
            }
            for alt in alts {
                match alt {
                    CoreAlt::Con { binders, rhs, .. } | CoreAlt::Tuple { binders, rhs } => {
                        for (x, t) in binders {
                            // Restriction 1 at case patterns.
                            check_binder(env, scope, *x, t, diags);
                            scope.push(*x, ScopeEntry::Term(t.clone()));
                        }
                        check_expr(env, scope, rhs, diags);
                        for _ in binders {
                            scope.pop();
                        }
                    }
                    CoreAlt::Lit { rhs, .. } => check_expr(env, scope, rhs, diags),
                    CoreAlt::Default { binder, rhs } => {
                        if let Some((x, t)) = binder {
                            // Restriction 1 at the default binder too.
                            check_binder(env, scope, *x, t, diags);
                            scope.push(*x, ScopeEntry::Term(t.clone()));
                            check_expr(env, scope, rhs, diags);
                            scope.pop();
                        } else {
                            check_expr(env, scope, rhs, diags);
                        }
                    }
                }
            }
        }
        CoreExpr::Con(_, _, fields) => {
            for field in fields {
                check_expr(env, scope, field, diags);
                // Constructor fields are stored in the heap: restriction
                // on storing applies just as to arguments.
                if let Ok(ty) = type_of(env, scope, field) {
                    if let Ok(kind) = kind_of(env, scope, &ty) {
                        if kind.is_levity_polymorphic() {
                            diags.push(levity_argument_error(&ty, &kind));
                        }
                    }
                }
            }
        }
        CoreExpr::Prim(_, args) | CoreExpr::Tuple(args) => {
            for a in args {
                check_expr(env, scope, a, diags);
                if let Ok(ty) = type_of(env, scope, a) {
                    if let Ok(kind) = kind_of(env, scope, &ty) {
                        if kind.is_levity_polymorphic() {
                            diags.push(levity_argument_error(&ty, &kind));
                        }
                    }
                }
            }
        }
    }
}

/// Checks one top-level binding.
pub fn check_binding(env: &TypeEnv, bind: &TopBind, diags: &mut Diagnostics) {
    let mut scope = Scope::new();
    check_expr(env, &mut scope, &bind.expr, diags);
}

/// Checks a whole (already type-checked) program; returns all levity
/// diagnostics.
pub fn check_program_levity(env: &TypeEnv, prog: &Program) -> Diagnostics {
    check_module_levity(env, &prog.bindings)
}

/// Checks one module's (already type-checked) bindings against `env`,
/// which covers them and everything they refer to; returns all levity
/// diagnostics. Each binding is judged on its own, so checking a
/// program module by module gives [`check_program_levity`]'s verdict.
pub fn check_module_levity(env: &TypeEnv, bindings: &[Arc<TopBind>]) -> Diagnostics {
    let mut diags = Diagnostics::new();
    for bind in bindings {
        check_binding(env, bind, &mut diags);
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use levity_core::kind::Kind;

    fn env() -> TypeEnv {
        TypeEnv::new()
    }

    /// `abs1 = abs` vs `abs2 x = abs x` (§7.3): the η-expanded version
    /// binds a levity-polymorphic `x` and must be rejected, while the
    /// direct alias is fine. Here `abs` is modeled as a global with the
    /// levity-polymorphic type `forall (r :: Rep) (a :: TYPE r). Dict a -> a -> a`
    /// simplified to `forall r (a :: TYPE r). a -> a` for the check.
    fn abs_type() -> Type {
        let r: Symbol = "r".into();
        let a: Symbol = "a".into();
        Type::forall_rep(
            r,
            Type::forall_ty(
                a,
                Kind::of_rep_var(r),
                Type::fun(Type::Var(a), Type::Var(a)),
            ),
        )
    }

    #[test]
    fn eta_contracted_alias_is_accepted() {
        // abs1 = /\r a. abs @r @a — no term binders at all.
        let mut env = env();
        env.define_global("abs", abs_type());
        let r: Symbol = "r".into();
        let a: Symbol = "a".into();
        let abs1 = CoreExpr::rep_lam(
            r,
            CoreExpr::ty_lam(
                a,
                Kind::of_rep_var(r),
                CoreExpr::ty_app(
                    CoreExpr::rep_app(
                        CoreExpr::Global("abs".into()),
                        levity_core::rep::RepTy::Var(r),
                    ),
                    Type::Var(a),
                ),
            ),
        );
        let mut diags = Diagnostics::new();
        check_expr(&env, &mut Scope::new(), &abs1, &mut diags);
        assert!(!diags.has_errors(), "{diags:?}");
    }

    #[test]
    fn eta_expanded_version_is_rejected() {
        // abs2 = /\r a. \(x :: a) -> abs @r @a x — binds levity-poly x.
        let mut env = env();
        env.define_global("abs", abs_type());
        let r: Symbol = "r".into();
        let a: Symbol = "a".into();
        let abs2 = CoreExpr::rep_lam(
            r,
            CoreExpr::ty_lam(
                a,
                Kind::of_rep_var(r),
                CoreExpr::lam(
                    "x",
                    Type::Var(a),
                    CoreExpr::app(
                        CoreExpr::ty_app(
                            CoreExpr::rep_app(
                                CoreExpr::Global("abs".into()),
                                levity_core::rep::RepTy::Var(r),
                            ),
                            Type::Var(a),
                        ),
                        CoreExpr::Var("x".into()),
                    ),
                ),
            ),
        );
        let mut diags = Diagnostics::new();
        check_expr(&env, &mut Scope::new(), &abs2, &mut diags);
        assert!(diags.has_errors());
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(
            codes.contains(&ErrorCode::LevityPolymorphicBinder),
            "{codes:?}"
        );
        assert!(
            codes.contains(&ErrorCode::LevityPolymorphicArgument),
            "{codes:?}"
        );
    }

    #[test]
    fn my_error_is_accepted() {
        // myError: binds only the lifted message; result is levity-poly.
        let env = env();
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
                    CoreExpr::Error(Type::Var(a), "boom".to_owned()),
                ),
            ),
        );
        let mut diags = Diagnostics::new();
        check_expr(&env, &mut Scope::new(), &e, &mut diags);
        assert!(!diags.has_errors(), "{diags:?}");
    }

    #[test]
    fn levity_polymorphic_let_is_rejected() {
        let env = env();
        let r: Symbol = "r".into();
        let a: Symbol = "a".into();
        let e = CoreExpr::rep_lam(
            r,
            CoreExpr::ty_lam(
                a,
                Kind::of_rep_var(r),
                CoreExpr::let_(
                    "x",
                    Type::Var(a),
                    CoreExpr::Error(Type::Var(a), "never".to_owned()),
                    CoreExpr::Var("x".into()),
                ),
            ),
        );
        let mut diags = Diagnostics::new();
        check_expr(&env, &mut Scope::new(), &e, &mut diags);
        assert!(diags
            .iter()
            .any(|d| d.code == ErrorCode::LevityPolymorphicBinder));
    }

    #[test]
    fn concrete_unboxed_binders_are_fine() {
        // \(x :: Int#) -> x — unboxed but concrete: always allowed.
        let env = env();
        let e = CoreExpr::lam(
            "x",
            Type::con0(&env.builtins.int_hash),
            CoreExpr::Var("x".into()),
        );
        let mut diags = Diagnostics::new();
        check_expr(&env, &mut Scope::new(), &e, &mut diags);
        assert!(!diags.has_errors());
    }
}
