//! The levity-polymorphism checks of §5.1, run after type checking.
//!
//! GHC "can only check for bad levity polymorphism after type checking is
//! complete … we thus do the levity polymorphism checks in the desugarer"
//! (§8.2). This module holds the two rules and their diagnostics:
//!
//! 1. **No levity-polymorphic binders** — every λ-, `let`- and
//!    case-pattern binder must have a type whose kind is fixed and free
//!    of representation variables.
//! 2. **No levity-polymorphic function arguments** — every application
//!    argument's type must likewise have a concrete kind, because
//!    arguments are passed in registers of a known class; so must every
//!    scrutinee, constructor field, primop argument and tuple component.
//!
//! Types that merely *mention* levity polymorphism (like `error`'s result
//! or `($)`'s return type) are fine; only *moving or storing* a value at
//! an abstract representation is rejected (§5.1's fundamental
//! requirement (*)). The rules run in the Core check's walk, which has
//! each binder's kind and each moved value's type in hand
//! ([`check_binding`] handed a sink), and report apart from type errors.

use levity_core::diag::{Diagnostic, Diagnostics, ErrorCode, Span};
use levity_core::kind::Kind;
use levity_core::symbol::Symbol;

use crate::terms::Program;
use crate::typecheck::{check_binding, TypeEnv};
use crate::types::Type;

/// Restriction 1, at the binder `who` of type `ty` and kind `kind`.
pub(crate) fn check_binder(diags: &mut Diagnostics, who: Symbol, ty: &Type, kind: &Kind) {
    if kind.is_levity_polymorphic() {
        diags.push(
            Diagnostic::error(
                ErrorCode::LevityPolymorphicBinder,
                format!(
                    "the binder `{who}` has a levity-polymorphic type `{ty}` (of kind `{kind}`)"
                ),
                Span::SYNTHETIC,
            )
            .with_note(
                "a bound variable must have a fixed runtime representation (section 5.1, restriction 1)",
            ),
        );
    }
}

/// Restriction 2, at a value of type `ty` and kind `kind` moved into a
/// register or the heap.
pub(crate) fn check_moved(diags: &mut Diagnostics, ty: &Type, kind: &Kind) {
    if kind.is_levity_polymorphic() {
        diags.push(
            Diagnostic::error(
                ErrorCode::LevityPolymorphicArgument,
                format!(
                    "a function argument has levity-polymorphic type `{ty}` (of kind `{kind}`)"
                ),
                Span::SYNTHETIC,
            )
            .with_note(
                "arguments are passed in registers, whose class must be known (section 5.1, restriction 2)",
            ),
        );
    }
}

/// Checks a whole (already type-checked) program against `env`, its
/// Core check's environment; returns all levity diagnostics, in program
/// order. Each binding is walked once, by the Core check handed a sink
/// ([`check_binding`]).
pub fn check_program_levity(env: &TypeEnv, prog: &Program) -> Diagnostics {
    let mut diags = Diagnostics::new();
    for bind in &prog.bindings {
        // Type errors are the type checker's to report.
        let _ = check_binding(env, bind, Some(&mut diags));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terms::CoreExpr;
    use crate::typecheck::{synth, Scope};

    /// The §5.1 violations in `e`: the Core check's walk handed a sink.
    fn check_expr(env: &TypeEnv, scope: &mut Scope, e: &CoreExpr, diags: &mut Diagnostics) {
        let _ = synth(env, scope, e, &mut Some(diags));
    }

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
