//! E5 — the §5.1 acceptance table, end to end.
//!
//! Each of the paper's worked examples is fed through the *full*
//! pipeline (parse → infer → Core and levity checks → lower); the paper's
//! verdicts must be reproduced, with rejections arriving specifically
//! from the levity checks (not as generic type errors).

use levity::driver::{compile_with_prelude, PipelineError};

/// §5: a levity-polymorphic `bTwice`.
const B_TWICE: &str = "bTwice :: forall (r :: Rep) (a :: TYPE r). Bool -> a -> (a -> a) -> a\n\
                       bTwice b x f = if b then f (f x) else x\n";
/// §5.2: a levity-polymorphic identity.
const IDENTITY: &str = "f :: forall (r :: Rep) (a :: TYPE r). a -> a\n\
                        f x = x\n";
/// §7.2: `($)` generalized in its argument too.
const APPLY: &str =
    "apply :: forall (r1 :: Rep) (r2 :: Rep) (a :: TYPE r1) (b :: TYPE r2). (a -> b) -> a -> b\n\
     apply f x = f x\n";
/// §7.2: `(.)` generalized in its middle type.
const COMPOSE: &str = "comp :: forall (r1 :: Rep) (r2 :: Rep) (a :: Type) (b :: TYPE r2) (c :: TYPE r1). (b -> c) -> (a -> b) -> a -> c\n\
                       comp f g x = f (g x)\n";
/// §7.3: the η-expanded `abs2`.
const ABS2: &str = "abs2 :: forall (r :: Rep) (a :: TYPE r). Num a => a -> a\n\
                    abs2 x = abs x\n";
/// A levity-polymorphic local `let`.
const LOCAL_LET: &str = "g :: forall (r :: Rep) (a :: TYPE r). Bool -> a\n\
                         g b = let x = myError b in x\n";
/// A levity-polymorphic scrutinee and `case` binder.
const CASE_BINDER: &str = "k :: forall (r :: Rep) (a :: TYPE r). a -> Int#\n\
                           k y = case y of { x -> 0# }\n";
/// Violations in two bindings, with a clean one between them.
const TWO_BINDINGS: &str = "f :: forall (r :: Rep) (a :: TYPE r). a -> a\n\
                            f x = x\n\
                            h :: Int#\n\
                            h = 1#\n\
                            g :: forall (r :: Rep) (a :: TYPE r). Bool -> a\n\
                            g b = let y = myError b in y\n";

fn accepts(src: &str) {
    match compile_with_prelude(src) {
        Ok(_) => {}
        Err(e) => panic!("expected acceptance, got:\n{e}\nsource:\n{src}"),
    }
}

fn rejects_for_levity(src: &str) {
    match compile_with_prelude(src) {
        Ok(_) => panic!("expected a levity rejection for:\n{src}"),
        Err(e) => assert!(
            e.is_levity_rejection(),
            "expected a section-5.1 rejection, got a different error:\n{e}"
        ),
    }
}

#[test]
fn b_twice_at_lifted_types_is_accepted() {
    // The ordinary bTwice of §1: a :: Type.
    accepts(
        "bTwice :: Bool -> a -> (a -> a) -> a\n\
         bTwice b x f = if b then f (f x) else x\n",
    );
}

#[test]
fn levity_polymorphic_b_twice_is_rejected() {
    // §5: "we cannot compile a levity-polymorphic bTwice into concrete
    // machine code, because its calling convention depends on r."
    rejects_for_levity(B_TWICE);
}

#[test]
fn my_error_with_declared_signature_is_accepted() {
    // §5.2: "we can write myError … to get a levity-polymorphic myError."
    accepts(
        "myError2 :: forall (r :: Rep) (a :: TYPE r). Bool -> a\n\
         myError2 s = error \"Program error\"\n",
    );
}

#[test]
fn levity_polymorphic_identity_is_rejected() {
    // §5.2: "any attempt to declare the above levity-polymorphic type
    // signature for f will fail the check."
    rejects_for_levity(IDENTITY);
}

#[test]
fn dollar_generalizes_in_its_result_only() {
    // §7.2: ($) with a levity-polymorphic *result* is accepted...
    accepts(
        "apply :: forall (r :: Rep) (a :: Type) (b :: TYPE r). (a -> b) -> a -> b\n\
         apply f x = f x\n\
         useIt :: Int#\n\
         useIt = apply (\\(n :: Int) -> case n of { I# k -> k }) 3\n",
    );
    // ... but generalizing the *argument* too is rejected.
    rejects_for_levity(APPLY);
}

#[test]
fn compose_cannot_generalize_the_middle_type() {
    // §7.2: "we cannot generalize the kind of b."
    accepts(
        "comp :: forall (r :: Rep) (a :: Type) (b :: Type) (c :: TYPE r). (b -> c) -> (a -> b) -> a -> c\n\
         comp f g x = f (g x)\n",
    );
    rejects_for_levity(COMPOSE);
}

#[test]
fn abs1_is_accepted_but_abs2_is_rejected() {
    // §7.3: abs1 = abs is fine; abs2 x = abs x binds a levity-polymorphic
    // x. "When compiling, η-equivalent definitions are not equivalent!"
    accepts(
        "abs1 :: forall (r :: Rep) (a :: TYPE r). Num a => a -> a\n\
         abs1 = abs\n",
    );
    rejects_for_levity(ABS2);
}

#[test]
fn concrete_unboxed_code_is_always_accepted() {
    // Unboxed ≠ levity-polymorphic: Int# binders are fine (§3.1's kinds
    // distinguish, they don't forbid).
    accepts(
        "f :: Int# -> Int#\n\
         f n = if intToBool (n <# 0#) then error \"negative\" else n *# 2#\n",
    );
}

#[test]
fn levity_polymorphic_local_let_is_rejected() {
    rejects_for_levity(LOCAL_LET);
}

#[test]
fn instantiating_levity_polymorphism_is_fine_at_each_concrete_rep() {
    // The whole point: one definition, many calling conventions — chosen
    // at instantiation.
    accepts(
        "useBoxed :: Int\n\
         useBoxed = id $ 5\n\
         useUnboxed :: Int#\n\
         useUnboxed = (\\(n :: Int) -> case n of { I# k -> k }) $ 5\n",
    );
}

#[test]
fn rejection_quality_names_the_binder() {
    let err = compile_with_prelude(IDENTITY).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains('x'), "error should name the binder: {msg}");
    assert!(msg.contains("TYPE r"), "error should show the kind: {msg}");
}

#[test]
fn ill_typed_programs_are_not_levity_rejections() {
    let err = compile_with_prelude("f :: Int#\nf = 3\n").unwrap_err();
    assert!(
        matches!(err, PipelineError::Elaborate(_)),
        "a plain type error must come from elaboration: {err}"
    );
}

/// Restriction 1's diagnostic, as a rejection renders it.
fn binder(x: &str, ty: &str, kind: &str) -> String {
    format!(
        "\n  error[E-levity-binder]: the binder `{x}` has a levity-polymorphic type `{ty}` (of kind `{kind}`)\
         \n  note: a bound variable must have a fixed runtime representation (section 5.1, restriction 1)"
    )
}

/// Restriction 2's diagnostic, as a rejection renders it.
fn argument(ty: &str, kind: &str) -> String {
    format!(
        "\n  error[E-levity-argument]: a function argument has levity-polymorphic type `{ty}` (of kind `{kind}`)\
         \n  note: arguments are passed in registers, whose class must be known (section 5.1, restriction 2)"
    )
}

#[test]
fn rejections_render_every_diagnostic_in_order() {
    // Negative space for the checks' wording and order: every code,
    // message and note of each rejection above, in the order the
    // binding's walk meets them, and the bindings in program order.
    let cases = [
        (
            B_TWICE,
            vec![
                binder("x", "a", "TYPE r"),
                argument("a", "TYPE r"),
                argument("a", "TYPE r"),
            ],
        ),
        (IDENTITY, vec![binder("x", "a", "TYPE r")]),
        (
            APPLY,
            vec![binder("x", "a", "TYPE r1"), argument("a", "TYPE r1")],
        ),
        (COMPOSE, vec![argument("b", "TYPE r2")]),
        (
            ABS2,
            vec![binder("x", "a", "TYPE r"), argument("a", "TYPE r")],
        ),
        (LOCAL_LET, vec![binder("x", "a", "TYPE r")]),
        (
            CASE_BINDER,
            vec![
                binder("y", "a", "TYPE r"),
                argument("a", "TYPE r"),
                binder("x", "a", "TYPE r"),
            ],
        ),
        (
            TWO_BINDINGS,
            vec![binder("x", "a", "TYPE r"), binder("y", "a", "TYPE r")],
        ),
    ];
    for (src, diags) in cases {
        let err = compile_with_prelude(src).expect_err(src);
        assert!(err.is_levity_rejection(), "{err}");
        let expected = format!(
            "levity restrictions violated (section 5.1):{}",
            diags.concat()
        );
        assert_eq!(err.to_string(), expected, "source:\n{src}");
    }
}
