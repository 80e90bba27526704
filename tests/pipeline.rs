//! End-to-end pipeline tests: surface source through inference,
//! dictionary elaboration, levity checks, lowering, and the machine.

use levity::driver::{compile_with_prelude, PipelineError};
use levity::m::machine::RunOutcome;

const FUEL: u64 = 50_000_000;

fn run_int(src: &str) -> i64 {
    let compiled = compile_with_prelude(src).unwrap_or_else(|e| panic!("{e}"));
    let (out, _) = compiled.run("main", FUEL).unwrap();
    match out.value() {
        Some(v) => v
            .as_int()
            .or_else(|| v.as_boxed_int())
            .unwrap_or_else(|| panic!("non-integer result: {v}")),
        None => panic!("program aborted: {out:?}"),
    }
}

#[test]
fn sum_to_unboxed_runs_with_zero_allocation() {
    // §2.1's sumTo#, the unboxed loop: "no memory traffic whatsoever."
    let src = "sumTo# :: Int# -> Int# -> Int#\n\
               sumTo# acc n = case n of { 0# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }\n\
               main :: Int#\n\
               main = sumTo# 0# 1000#\n";
    let compiled = compile_with_prelude(src).unwrap();
    let (out, stats) = compiled.run("main", FUEL).unwrap();
    assert_eq!(out.value().and_then(|v| v.as_int()), Some(500500));
    assert_eq!(stats.allocated_words, 0);
    assert_eq!(stats.thunk_forces, 0);
}

#[test]
fn sum_to_boxed_allocates_linearly() {
    // §2.1's boxed sumTo: thunks and boxes per iteration. This is a
    // claim about the *unoptimized* compilation scheme, so it pins the
    // `O0` baseline — the optimizer's whole job is to destroy it (see
    // `optimizer_unboxes_the_boxed_loop` below).
    let src = "sumTo :: Int -> Int -> Int\n\
               sumTo acc n = case n of { I# k -> case k of { 0# -> acc; _ -> sumTo (acc + n) (n - 1) } }\n\
               main :: Int\n\
               main = sumTo 0 1000\n";
    let compiled =
        levity::driver::compile_with_prelude_opt(src, levity::driver::OptLevel::O0).unwrap();
    let (out, stats) = compiled.run("main", FUEL).unwrap();
    assert_eq!(out.value().and_then(|v| v.as_boxed_int()), Some(500500));
    // At least one allocation per iteration: boxes and thunks.
    assert!(
        stats.allocated_words >= 1000,
        "boxed loop should allocate heavily, got {} words",
        stats.allocated_words
    );
    assert!(stats.thunk_forces >= 1000);
}

#[test]
fn optimizer_unboxes_the_boxed_loop() {
    // The same program at the default level: specialisation +
    // worker/wrapper turn the boxed class-dispatch loop into an unboxed
    // register loop — only the final result is boxed.
    let src = "sumTo :: Int -> Int -> Int\n\
               sumTo acc n = case n of { I# k -> case k of { 0# -> acc; _ -> sumTo (acc + n) (n - 1) } }\n\
               main :: Int\n\
               main = sumTo 0 1000\n";
    let compiled = compile_with_prelude(src).unwrap();
    assert!(
        compiled.opt_report.workers >= 1,
        "{:?}",
        compiled.opt_report
    );
    let (out, stats) = compiled.run("main", FUEL).unwrap();
    assert_eq!(out.value().and_then(|v| v.as_boxed_int()), Some(500500));
    assert!(
        stats.allocated_words <= 8,
        "optimized boxed loop should allocate O(1) words, got {}",
        stats.allocated_words
    );
    assert_eq!(stats.thunk_forces, 0);
}

#[test]
fn fresh_names_restart_with_every_compilation() {
    // The interner never frees a name, so a long-running server must not
    // mint new binder names for every program it compiles: recompiling a
    // source after another compilation yields the same raw Core.
    let src = "sumTo :: Int -> Int -> Int\n\
               sumTo acc n = case n of { I# k -> case k of { 0# -> acc; _ -> sumTo (acc + n) (n - 1) } }\n\
               main :: Int\n\
               main = sumTo 0 1000\n";
    let first = compile_with_prelude(src).unwrap().program.bindings;
    assert!(
        format!("{first:?}").contains('\''),
        "the optimizer should have freshened some binders"
    );
    compile_with_prelude("f :: Int -> Int\nf x = x * x\nmain :: Int\nmain = f 7\n").unwrap();
    let again = compile_with_prelude(src).unwrap().program.bindings;
    assert!(
        first == again,
        "freshened names depend on earlier compilations"
    );
}

#[test]
fn unreachable_bindings_are_pruned_before_the_optimizer_runs() {
    // Nothing `main` cannot reach may cost optimizer work: the prelude's
    // bindings are dropped before the passes, so a constant program
    // inlines, simplifies and splits nothing.
    let compiled = compile_with_prelude("main :: Int#\nmain = 3#\n").unwrap();
    let report = compiled.opt_report;
    assert_eq!(
        (report.inlined, report.simplified, report.workers),
        (0, 0, 0),
        "{report:?}"
    );
    assert_eq!(
        report.dead_globals,
        compiled.elaborated.program.bindings.len() - 1,
        "every binding but main is dropped"
    );
}

#[test]
fn pruning_does_not_skip_the_levity_checks() {
    // `bad` binds a levity-polymorphic argument (§5.1); main never
    // reaches it, but the module is still rejected.
    let err = compile_with_prelude(
        "bad :: forall (r :: Rep) (a :: TYPE r). a -> a\n\
         bad x = x\n\
         main :: Int#\n\
         main = 3#\n",
    )
    .unwrap_err();
    assert!(matches!(err, PipelineError::Levity(_)), "{err}");
}

#[test]
fn pruning_does_not_skip_type_checking() {
    let err = compile_with_prelude(
        "bad :: Int#\n\
         bad = True\n\
         main :: Int#\n\
         main = 3#\n",
    )
    .unwrap_err();
    assert!(matches!(err, PipelineError::Elaborate(_)), "{err}");
}

#[test]
fn class_dispatch_at_unboxed_types() {
    // §7.3: 3# + 4# via the Num Int# instance.
    assert_eq!(run_int("main :: Int#\nmain = 3# + 4#\n"), 7);
    // And at boxed types through the same class.
    assert_eq!(run_int("main :: Int\nmain = 3 + 4\n"), 7);
}

#[test]
fn class_methods_work_across_instances() {
    assert_eq!(run_int("main :: Int#\nmain = abs (negate 5#)\n"), 5);
    assert_eq!(run_int("main :: Int\nmain = abs (0 - 42)\n"), 42);
    // Double# arithmetic through the class, observed via conversion.
    assert_eq!(
        run_int("main :: Int#\nmain = double2Int# (2.5## + 1.5##)\n"),
        4
    );
}

#[test]
fn comparison_classes_dispatch_at_both_reps() {
    assert_eq!(
        run_int("main :: Int#\nmain = if 3# < 4# then 1# else 0#\n"),
        1
    );
    assert_eq!(
        run_int("main :: Int#\nmain = if 3 == 4 then 1# else 0#\n"),
        0
    );
    assert_eq!(
        run_int("main :: Int#\nmain = if 2.0## <= 2.0## then 1# else 0#\n"),
        1
    );
}

#[test]
fn dollar_applies_at_unboxed_result_type() {
    // §7.2: the generalized ($) at b :: TYPE IntRep.
    assert_eq!(
        run_int(
            "unbox :: Int -> Int#\n\
             unbox n = case n of { I# k -> k }\n\
             main :: Int#\n\
             main = unbox $ 7\n"
        ),
        7
    );
}

#[test]
fn compose_applies_at_unboxed_final_result() {
    assert_eq!(
        run_int(
            "unbox :: Int -> Int#\n\
             unbox n = case n of { I# k -> k }\n\
             inc :: Int -> Int\n\
             inc n = n + 1\n\
             main :: Int#\n\
             main = (.) unbox inc 41\n"
        ),
        42
    );
}

#[test]
fn laziness_is_observable() {
    // A bound error that is never demanded does not fire.
    assert_eq!(
        run_int(
            "ignore :: Int -> Int#\n\
             ignore x = 9#\n\
             main :: Int#\n\
             main = ignore (error \"not demanded\")\n"
        ),
        9
    );
    // But a strict (unboxed) argument is demanded.
    let compiled = compile_with_prelude(
        "strict :: Int# -> Int#\n\
         strict x = 9#\n\
         main :: Int#\n\
         main = strict (error \"demanded\")\n",
    )
    .unwrap();
    let (out, _) = compiled.run("main", FUEL).unwrap();
    assert_eq!(out, RunOutcome::Error("demanded".to_owned()));
}

#[test]
fn user_data_types_and_matching() {
    assert_eq!(
        run_int(
            "data Shape = Circle Double | Rect Double Double\n\
             area2 :: Shape -> Int#\n\
             area2 s = case s of { Circle r -> 1#; Rect w h -> 2# }\n\
             main :: Int#\n\
             main = area2 (Rect 1.0 2.0)\n"
        ),
        2
    );
}

#[test]
fn polymorphic_data_types_work() {
    assert_eq!(
        run_int(
            "main :: Int\n\
             main = fromMaybe 0 (Just 42)\n"
        ),
        42
    );
    assert_eq!(run_int("main :: Int\nmain = fromMaybe 7 Nothing\n"), 7);
}

#[test]
fn lists_and_higher_order_functions() {
    assert_eq!(
        run_int("main :: Int\nmain = sum (enumFromTo 1 100)\n"),
        5050
    );
    assert_eq!(
        run_int("main :: Int\nmain = sum (map (\\x -> x * 2) (enumFromTo 1 10))\n"),
        110
    );
    assert_eq!(
        run_int("main :: Int\nmain = length (replicate 5 True)\n"),
        5
    );
}

#[test]
fn local_lets_and_recursion() {
    assert_eq!(
        run_int(
            "main :: Int#\n\
             main = let go = \\(n :: Int#) -> case n of { 0# -> 0#; _ -> 1# + go (n -# 1#) } in go 10#\n"
        ),
        10
    );
}

#[test]
fn unsigned_bindings_generalize_with_lifted_defaults() {
    // §5.2: f = \x -> x infers forall (a :: Type). a -> a, *not* the
    // un-compilable levity-polymorphic type.
    let compiled = compile_with_prelude("myId x = x\nmain :: Int\nmain = myId 3\n").unwrap();
    let sig = compiled
        .signature("myId", &levity::core::pretty::PrintOptions::explicit())
        .unwrap();
    assert!(
        !sig.contains("Rep"),
        "inferred type must not be levity-polymorphic: {sig}"
    );
    let (out, _) = compiled.run("main", FUEL).unwrap();
    assert_eq!(out.value().and_then(|v| v.as_boxed_int()), Some(3));
}

#[test]
fn inferred_identity_rejects_unboxed_arguments() {
    // Because myId defaulted to Type, using it at Int# must fail to
    // unify (kind mismatch surfaces as an elaboration error).
    let err = compile_with_prelude("myId x = x\nmain :: Int#\nmain = myId 3#\n").unwrap_err();
    assert!(
        matches!(err, levity::driver::PipelineError::Elaborate(_)),
        "{err}"
    );
}

#[test]
fn char_primops_run() {
    assert_eq!(run_int("main :: Int#\nmain = ord# 'A'#\n"), 65);
    assert_eq!(
        run_int("main :: Int#\nmain = if 'x'# == 'x'# then 1# else 0#\n"),
        1
    );
}

#[test]
fn mutual_recursion_between_signed_bindings() {
    assert_eq!(
        run_int(
            "isEven :: Int# -> Int#\n\
             isEven n = case n of { 0# -> 1#; _ -> isOdd (n -# 1#) }\n\
             isOdd :: Int# -> Int#\n\
             isOdd n = case n of { 0# -> 0#; _ -> isEven (n -# 1#) }\n\
             main :: Int#\n\
             main = isEven 100#\n"
        ),
        1
    );
}

#[test]
fn deep_polymorphic_recursion_with_signature() {
    // Signatures allow polymorphic recursion (§9.2 notes Haskell has it).
    assert_eq!(
        run_int(
            "depth :: Maybe a -> Int -> Int\n\
             depth m n = case m of { Nothing -> n; Just x -> depth (Just (Just x)) (n + 1) }\n\
             shallow :: Maybe Int\n\
             shallow = Nothing\n\
             main :: Int\n\
             main = depth shallow 0\n"
        ),
        0
    );
}

// ---------------------------------------------------------------------
// Optimizer boundaries: what the passes must *not* touch, and opt-level
// coverage of the pipeline's own corner programs.
// ---------------------------------------------------------------------

mod optimizer_boundaries {
    use levity::driver::{
        compile_prelude, compile_with_prelude, compile_with_prelude_opt, OptLevel,
    };

    /// Programs must behave identically at `O0` and the default level,
    /// through the full pipeline entry points (the differential suite
    /// covers the corpus; this pins the pipeline API itself).
    #[test]
    fn every_opt_level_produces_the_same_values() {
        for src in [
            "main :: Int#\nmain = 3# + 4#\n",
            "main :: Int\nmain = sum (enumFromTo 1 20)\n",
            "main :: Int#\nmain = abs (negate 5#)\n",
        ] {
            let o0 = compile_with_prelude_opt(src, OptLevel::O0).unwrap();
            let o2 = compile_with_prelude_opt(src, OptLevel::O2).unwrap();
            let (v0, _) = o0.run("main", super::FUEL).unwrap();
            let (v2, _) = o2.run("main", super::FUEL).unwrap();
            assert_eq!(
                v0.value().map(ToString::to_string),
                v2.value().map(ToString::to_string),
                "{src}"
            );
        }
    }

    /// The specialisation passes act exactly when a dictionary is
    /// statically known. A constrained function *never called with a
    /// concrete dictionary* keeps its dictionary λ untouched; the
    /// moment call sites supply one, the function specialiser clones it
    /// and the clone's projections discharge.
    #[test]
    fn specialiser_leaves_unknown_dictionaries_alone() {
        let prelude_only = compile_prelude().unwrap();
        assert_eq!(prelude_only.opt_report.specialised, 0);
        assert_eq!(prelude_only.opt_report.fn_specialised, 0);
        // No `main`, so every binding is an entry point and `square`
        // survives with its abstract dictionary intact: there is no
        // call site to read a concrete dictionary from.
        let abstract_only = compile_with_prelude(
            "square :: Num a => a -> a\n\
             square x = x * x\n",
        )
        .unwrap();
        assert_eq!(abstract_only.opt_report.specialised, 0);
        assert_eq!(abstract_only.opt_report.fn_specialised, 0);
        let square = abstract_only.program.binding("square".into()).unwrap();
        fn keeps_dict_lambda(mut e: &levity::ir::terms::CoreExpr) -> bool {
            use levity::ir::terms::CoreExpr;
            use levity::ir::types::Type;
            while let CoreExpr::RepLam(_, b) | CoreExpr::TyLam(_, _, b) = e {
                e = b;
            }
            matches!(e, CoreExpr::Lam(_, Type::Dict(..), _))
        }
        assert!(
            keeps_dict_lambda(&square.expr),
            "an abstract dictionary must keep its λ: {}",
            square.expr
        );
        // …and the moment the dictionary *is* known at a call site, the
        // function specialiser clones `square`, the clone's projection
        // discharges, and the constrained original is eliminated.
        let known = compile_with_prelude(
            "square :: Num a => a -> a\n\
             square x = x * x\n\
             main :: Int\n\
             main = square 7\n",
        )
        .unwrap();
        assert!(
            known.opt_report.fn_specialised >= 1,
            "{:?}",
            known.opt_report
        );
        assert!(known.opt_report.specialised >= 1, "{:?}", known.opt_report);
        let (out, _) = known.run("main", super::FUEL).unwrap();
        assert_eq!(out.value().and_then(|v| v.as_boxed_int()), Some(49));
        // Selector projections fire directly too, as before.
        let sel = compile_with_prelude("main :: Int#\nmain = 3# + 4#\n").unwrap();
        assert!(sel.opt_report.specialised >= 1, "{:?}", sel.opt_report);
    }

    /// Truly levity-polymorphic bindings — the class selectors (whose
    /// types quantify `r :: Rep`) and the prelude's `myError` — must
    /// come through the optimizer byte-for-byte unchanged: there is no
    /// representation information to act on. (No `main` here, so every
    /// binding is an entry point and dead-global elimination keeps the
    /// whole prelude inspectable.)
    #[test]
    fn levity_polymorphic_bindings_are_untouched() {
        let compiled = compile_with_prelude("keepAlive :: Int#\nkeepAlive = 1#\n").unwrap();
        for name in ["+", "abs", "==", "myError"] {
            let before = compiled
                .elaborated
                .program
                .binding(name.into())
                .unwrap_or_else(|| panic!("{name} missing from elaborated program"));
            let after = compiled
                .program
                .binding(name.into())
                .unwrap_or_else(|| panic!("{name} missing from optimized program"));
            assert_eq!(
                before.expr, after.expr,
                "optimizer must not rewrite the levity-polymorphic `{name}`"
            );
            assert_eq!(before.ty, after.ty);
        }
    }

    /// A constrained function called only at `Int#` (through the
    /// `forall (a :: TYPE IntRep)` shape §5.1 admits — the binder's rep
    /// is concrete) is cloned without its dictionary argument, and the
    /// dictionary-threading original is eliminated from the lowered
    /// program.
    #[test]
    fn constrained_function_at_int_hash_loses_its_dictionary_argument() {
        use levity::ir::types::Type;
        let compiled = compile_with_prelude(
            "stepU :: forall (a :: TYPE IntRep). Num a => a -> a\n\
             stepU x = (x * x) + x\n\
             main :: Int#\n\
             main = stepU 4#\n",
        )
        .unwrap();
        assert!(
            compiled.opt_report.fn_specialised >= 1,
            "{:?}",
            compiled.opt_report
        );
        assert!(
            compiled.opt_report.dead_globals >= 1,
            "{:?}",
            compiled.opt_report
        );
        // The original — the only binding with a dictionary argument —
        // is gone from the lowered program…
        assert!(
            compiled.program.binding("stepU".into()).is_none(),
            "the dictionary-threading original must be eliminated"
        );
        // …and nothing that survived takes a dictionary.
        for b in &compiled.program.bindings {
            let (args, _) = b.ty.split_funs();
            assert!(
                !args.iter().any(|t| matches!(t, Type::Dict(..))),
                "`{}` still threads a dictionary: {}",
                b.name,
                b.ty
            );
        }
        let (out, _) = compiled.run("main", super::FUEL).unwrap();
        assert_eq!(out.value().and_then(|v| v.as_int()), Some(20));
    }

    /// The PR-4 acceptance criterion, pinned in tier-1: a
    /// `Num a => a -> a` helper driving the §7.3 loop reaches ≤1.1x
    /// the step count of the direct primop loop at O2, at `Int` and at
    /// `Int#` alike.
    #[test]
    fn specialised_helper_loops_match_direct_primop_step_counts() {
        let direct = compile_with_prelude(
            "loop :: Int# -> Int# -> Int#\n\
             loop acc n = case n of { 0# -> acc; _ -> loop (acc +# (n +# n)) (n -# 1#) }\n\
             main :: Int#\n\
             main = loop 0# 1000#\n",
        )
        .unwrap();
        let unboxed = compile_with_prelude(
            "step :: forall (a :: TYPE IntRep). Num a => a -> a\n\
             step x = x + x\n\
             loop :: Int# -> Int# -> Int#\n\
             loop acc n = case n of { 0# -> acc; _ -> loop (acc + step n) (n - 1#) }\n\
             main :: Int#\n\
             main = loop 0# 1000#\n",
        )
        .unwrap();
        let boxed = compile_with_prelude(
            "step :: Num a => a -> a\n\
             step x = x + x\n\
             loop :: Int -> Int -> Int\n\
             loop acc n = case n of { I# k -> case k of { 0# -> acc; _ -> loop (acc + step n) (n - 1) } }\n\
             main :: Int\n\
             main = loop 0 1000\n",
        )
        .unwrap();
        let (dv, ds) = direct.run("main", super::FUEL).unwrap();
        let (uv, us) = unboxed.run("main", super::FUEL).unwrap();
        let (bv, bs) = boxed.run("main", super::FUEL).unwrap();
        assert_eq!(
            dv.value().and_then(|v| v.as_int()),
            uv.value().and_then(|v| v.as_int())
        );
        assert_eq!(
            dv.value().and_then(|v| v.as_int()),
            bv.value().and_then(|v| v.as_boxed_int())
        );
        let unboxed_ratio = us.steps as f64 / ds.steps as f64;
        let boxed_ratio = bs.steps as f64 / ds.steps as f64;
        assert!(
            unboxed_ratio <= 1.1,
            "Int# helper loop: {} steps vs {} direct ({unboxed_ratio:.3}x)",
            us.steps,
            ds.steps
        );
        assert!(
            boxed_ratio <= 1.1,
            "Int helper loop: {} steps vs {} direct ({boxed_ratio:.3}x)",
            bs.steps,
            ds.steps
        );
        // And the loops run register-clean: no thunks, O(1) allocation.
        assert_eq!(us.thunk_forces, 0);
        assert!(bs.allocated_words <= 8, "{}", bs.allocated_words);
    }

    /// An exported-but-unused global survives dead-global elimination
    /// exactly when it is listed as an entry point; unlisted, it is
    /// dropped.
    #[test]
    fn entry_points_protect_exported_but_unused_globals() {
        use levity::driver::{compile_with_prelude_entries, OptLevel};
        let src = "exportedHelper :: Int# -> Int#\n\
                   exportedHelper n = n +# 100#\n\
                   main :: Int#\n\
                   main = 1#\n";
        // Default policy: `main` is the only entry; the helper dies.
        let default = compile_with_prelude(src).unwrap();
        assert_eq!(default.entry_points, vec!["main".into()]);
        assert!(default.program.binding("exportedHelper".into()).is_none());
        // Listed as an entry point: it survives, and is runnable.
        let exported =
            compile_with_prelude_entries(src, OptLevel::O2, Some(&["main", "exportedHelper"]))
                .unwrap();
        assert!(exported.program.binding("exportedHelper".into()).is_some());
        let (out, _) = exported.run("main", super::FUEL).unwrap();
        assert_eq!(out.value().and_then(|v| v.as_int()), Some(1));
        let term = levity::m::syntax::MExpr::apps(
            levity::m::syntax::MExpr::global("exportedHelper"),
            [levity::m::syntax::Atom::Lit(
                levity::m::syntax::Literal::Int(5),
            )],
        );
        let (out, _) = exported.run_term(term, super::FUEL).unwrap();
        assert_eq!(out.value().and_then(|v| v.as_int()), Some(105));
    }

    /// The PR-5 acceptance criterion, pinned in tier-1: the boxed
    /// sum_to loop at O2 runs within 1.1x of the direct primop loop's
    /// step count and allocates ~0 words per iteration, and the same
    /// holds for a CPR'd recursive divMod loop against its hand-written
    /// unboxed-tuple equivalent.
    #[test]
    fn boxed_and_cpr_loops_match_direct_primop_step_counts() {
        // sum_to/boxed vs the direct unboxed loop.
        let boxed = compile_with_prelude(
            "sumTo :: Int -> Int -> Int\n\
             sumTo acc n = case n of { I# k -> case k of { 0# -> acc; _ -> sumTo (acc + n) (n - 1) } }\n\
             main :: Int\n\
             main = sumTo 0 5000\n",
        )
        .unwrap();
        let direct = compile_with_prelude(
            "sumTo# :: Int# -> Int# -> Int#\n\
             sumTo# acc n = case n of { 0# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }\n\
             main :: Int#\n\
             main = sumTo# 0# 5000#\n",
        )
        .unwrap();
        let (bv, bs) = boxed.run("main", super::FUEL).unwrap();
        let (dv, ds) = direct.run("main", super::FUEL).unwrap();
        assert_eq!(
            bv.value().and_then(|v| v.as_boxed_int()),
            dv.value().and_then(|v| v.as_int())
        );
        let ratio = bs.steps as f64 / ds.steps as f64;
        assert!(
            ratio <= 1.1,
            "sum_to/boxed at O2: {} steps vs {} direct ({ratio:.3}x)",
            bs.steps,
            ds.steps
        );
        assert!(
            bs.allocated_words <= 8,
            "sum_to/boxed at O2 should allocate ~0 words/iteration, got {}",
            bs.allocated_words
        );

        // The accumulating divMod-style loop: CPR + tuple-η must bring
        // the product-returning version to the hand-written
        // unboxed-tuple loop's step count, with zero allocation.
        let cpr = compile_with_prelude(
            "data QR = QR Int# Int#\n\
             divMod# :: Int# -> Int# -> QR\n\
             divMod# n d = case n <# d of { 1# -> QR 0# n; _ -> case divMod# (n -# d) d of { QR q r -> QR (q +# 1#) r } }\n\
             loop :: Int# -> Int# -> Int#\n\
             loop acc n = case n of { 0# -> acc; _ -> case divMod# n 3# of { QR q r -> loop (acc +# q +# r) (n -# 1#) } }\n\
             main :: Int#\n\
             main = loop 0# 1000#\n",
        )
        .unwrap();
        assert!(cpr.opt_report.cpr_workers >= 1, "{:?}", cpr.opt_report);
        let tuple = compile_with_prelude(
            "divModU :: Int# -> Int# -> (# Int#, Int# #)\n\
             divModU n d = case n <# d of { 1# -> (# 0#, n #); _ -> case divModU (n -# d) d of { (# q, r #) -> (# q +# 1#, r #) } }\n\
             loop :: Int# -> Int# -> Int#\n\
             loop acc n = case n of { 0# -> acc; _ -> case divModU n 3# of { (# q, r #) -> loop (acc +# q +# r) (n -# 1#) } }\n\
             main :: Int#\n\
             main = loop 0# 1000#\n",
        )
        .unwrap();
        let (cv, cs) = cpr.run("main", super::FUEL).unwrap();
        let (tv, ts) = tuple.run("main", super::FUEL).unwrap();
        assert_eq!(
            cv.value().and_then(|v| v.as_int()),
            tv.value().and_then(|v| v.as_int())
        );
        let cpr_ratio = cs.steps as f64 / ts.steps as f64;
        assert!(
            cpr_ratio <= 1.1,
            "CPR divMod loop: {} steps vs {} hand-written tuples ({cpr_ratio:.3}x)",
            cs.steps,
            ts.steps
        );
        assert_eq!(
            cs.allocated_words, 0,
            "the CPR'd loop must not allocate at all"
        );
        assert_eq!(cs.con_allocs, 0);
    }

    /// Negative space for CPR, one: a worker whose result escapes
    /// unscrutinised (here: returned straight out of `main`) keeps its
    /// box — no CPR worker is created.
    #[test]
    fn cpr_keeps_the_box_when_the_result_escapes() {
        let compiled = compile_with_prelude(
            "data QR = QR Int# Int#\n\
             mk :: Int# -> QR\n\
             mk n = case n <# 0# of { 1# -> QR 0# n; _ -> case mk (n -# 1#) of { QR a b -> QR (a +# n) b } }\n\
             main :: QR\n\
             main = mk 3#\n",
        )
        .unwrap();
        assert_eq!(
            compiled.opt_report.cpr_workers, 0,
            "an escaping result must keep its box: {:?}",
            compiled.opt_report
        );
        // And no surviving binding returns an unboxed tuple.
        for b in &compiled.program.bindings {
            let (_, result) = b.ty.split_funs();
            assert!(
                !matches!(result, levity::ir::types::Type::UnboxedTuple(_)),
                "`{}` was CPR'd despite the escape: {}",
                b.name,
                b.ty
            );
        }
        let (out, _) = compiled.run("main", super::FUEL).unwrap();
        let v = out.value().expect("mk terminates").to_string();
        assert_eq!(v, "QR[6#, -1#]");
    }

    /// Negative space for CPR, two: a levity-polymorphic result (the
    /// §6.2 restriction — `a :: TYPE IntRep` has a concrete rep but is
    /// no product) is never CPR'd, neither as the original nor as a
    /// specialised clone; scalar results are simply not products.
    #[test]
    fn levity_polymorphic_results_are_never_cprd() {
        let compiled = compile_with_prelude(
            "stepU :: forall (a :: TYPE IntRep). Num a => a -> a\n\
             stepU x = (x * x) + x\n\
             main :: Int#\n\
             main = case stepU 4# of { 0# -> 1#; _ -> 2# }\n",
        )
        .unwrap();
        assert!(
            compiled.opt_report.fn_specialised >= 1,
            "{:?}",
            compiled.opt_report
        );
        assert_eq!(
            compiled.opt_report.cpr_workers, 0,
            "a levity-polymorphic result must never be CPR'd: {:?}",
            compiled.opt_report
        );
        let (out, _) = compiled.run("main", super::FUEL).unwrap();
        assert_eq!(out.value().and_then(|v| v.as_int()), Some(2));
    }

    /// Negative space for join points: a continuation-shaped `let` that
    /// appears in *argument position* (escapes into a higher-order
    /// call) is not a join point — it lowers as an ordinary closure and
    /// the machine records zero jumps; the genuine diamond on the same
    /// machinery records at least one.
    #[test]
    fn join_points_never_appear_in_argument_position() {
        // At O0 the λ reaches lowering exactly as written: its use is
        // the argument of `applyTo`, so the escape analysis must refuse
        // the join and lower a closure (zero jumps). (At O2 the inliner
        // may legitimately rewrite the call into a direct tail call
        // first — that is a different program.)
        let escaping = compile_with_prelude_opt(
            "applyTo :: (Int -> Int) -> Int -> Int\n\
             applyTo f x = f x\n\
             main :: Int\n\
             main = let g = \\(y :: Int) -> y + 1 in applyTo g 41\n",
            OptLevel::O0,
        )
        .unwrap();
        let (out, stats) = escaping.run("main", super::FUEL).unwrap();
        assert_eq!(out.value().and_then(|v| v.as_boxed_int()), Some(42));
        assert_eq!(
            stats.jumps, 0,
            "an argument-position λ must stay a closure, not a join point"
        );
        // And a λ that stays in argument position even at O2 — handed
        // to the (recursive, never-inlined) `map` — still jumps nowhere.
        let escaping_o2 = compile_with_prelude(
            "main :: Int\n\
             main = let g = \\(y :: Int) -> y + 1 in sum (map g (enumFromTo 1 3))\n",
        )
        .unwrap();
        let (out, stats) = escaping_o2.run("main", super::FUEL).unwrap();
        assert_eq!(out.value().and_then(|v| v.as_boxed_int()), Some(9));
        assert_eq!(
            stats.jumps, 0,
            "a λ passed to map escapes; it must never become a join point"
        );
        let diamond = compile_with_prelude(
            "data QR = QR Int# Int#\n\
             pick :: Int# -> Int# -> QR\n\
             pick a b = case (case a <# b of { 1# -> QR a b; _ -> QR b a }) of { QR x y -> QR (x +# 100#) y }\n\
             main :: Int#\n\
             main = case pick 3# 5# of { QR u v -> u +# (v *# 2#) +# (u -# v) +# (u *# v) }\n",
        )
        .unwrap();
        assert!(
            diamond.opt_report.join_points >= 1,
            "{:?}",
            diamond.opt_report
        );
        let (out, stats) = diamond.run("main", super::FUEL).unwrap();
        // pick 3# 5# → QR 103# 5#; 103 + 10 + 98 + 515 = 726.
        assert_eq!(out.value().and_then(|v| v.as_int()), Some(726));
        assert!(
            stats.jumps >= 1,
            "the diamond's shared continuation must run as a jump"
        );
        assert_eq!(stats.allocated_words, 0, "joins allocate nothing");
    }

    /// The worker/wrapper split must not touch a function whose argument
    /// is not demanded on every path — unboxing it would force a thunk
    /// the program never evaluates.
    #[test]
    fn lazy_arguments_are_not_unboxed() {
        let compiled = compile_with_prelude(
            "pick :: Int -> Int -> Int\n\
             pick a b = case a of { I# k -> case k of { 0# -> b; _ -> a } }\n\
             main :: Int\n\
             main = pick 3 (error \"must stay lazy\")\n",
        )
        .unwrap();
        let (out, _) = compiled.run("main", super::FUEL).unwrap();
        // `b` is only demanded on the 0# path; with a = 3 the error is
        // never forced, at any optimization level.
        assert_eq!(out.value().and_then(|v| v.as_boxed_int()), Some(3));
    }
}

// ---------------------------------------------------------------------
// Stage separation: every `PipelineError` variant is reachable, so the
// parse / elaborate / lint / levity / lower stages stay distinct.
// ---------------------------------------------------------------------

mod pipeline_error_reachability {
    use levity::driver::{compile_with_prelude, PipelineError};

    #[test]
    fn parse_stage_rejects_malformed_source() {
        let err = compile_with_prelude("main = (1#\n").unwrap_err();
        assert!(matches!(err, PipelineError::Parse(_)), "{err}");
        assert!(err.to_string().contains("parse error"), "{err}");
    }

    #[test]
    fn elaborate_stage_rejects_unbound_variables() {
        let err = compile_with_prelude("main :: Int\nmain = notInScope\n").unwrap_err();
        assert!(matches!(err, PipelineError::Elaborate(_)), "{err}");
        assert!(!err.is_levity_rejection());
    }

    #[test]
    fn levity_stage_rejects_polymorphic_binders_after_elaboration() {
        // §5.1 restriction 1: a levity-polymorphic binder. The program
        // parses and elaborates (the signature is declared, so checking
        // skolemizes `r`); only the separate levity pass rejects it.
        let err = compile_with_prelude(
            "ident :: forall (r :: Rep) (a :: TYPE r). a -> a\n\
             ident x = x\n\
             main :: Int#\n\
             main = 1#\n",
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::Levity(_)), "{err}");
        assert!(err.is_levity_rejection());
        assert!(err.to_string().contains("section 5.1"), "{err}");
    }

    #[test]
    fn lower_stage_rejects_unsupported_constructs() {
        // An unboxed tuple stored in a constructor field has a concrete
        // representation — the levity checks pass — but the lowering
        // fragment does not cover it yet, so the error must come from
        // the lowering stage, not earlier.
        let err = compile_with_prelude(
            "data P = MkP (# Int#, Int# #)\n\
             main :: P\n\
             main = MkP (# 1#, 2# #)\n",
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::Lower(_)), "{err}");
        assert!(err.to_string().contains("lowering failed"), "{err}");
    }

    #[test]
    fn core_lint_stage_rejects_ill_typed_core() {
        // `CoreLint` is unreachable from surface source by design (the
        // elaborator must emit well-typed Core), so drive the lint stage
        // directly with an ill-typed program and check the error plumbs
        // into the pipeline's variant.
        use levity::ir::terms::{CoreExpr, Program, TopBind};
        use levity::ir::typecheck::{check_program, TypeEnv};
        use levity::ir::types::Type;
        use levity_core::symbol::Symbol;

        let env = TypeEnv::new();
        let int_hash = Type::con0(&env.builtins.int_hash);
        let program = Program {
            data_decls: vec![],
            bindings: vec![TopBind {
                name: Symbol::intern("bad"),
                // Claimed type Int# -> Int#, actual type Int#.
                ty: Type::fun(int_hash.clone(), int_hash),
                expr: CoreExpr::int(3),
            }],
        };
        let (name, core_err) = check_program(&program).unwrap_err();
        assert_eq!(name, Symbol::intern("bad"));
        let err = PipelineError::CoreLint(name, core_err);
        assert!(matches!(err, PipelineError::CoreLint(..)));
        assert!(
            err.to_string().contains("core lint failed in `bad`"),
            "{err}"
        );
    }
}

// ---------------------------------------------------------------------
// Engine 3 negative space: what the register machine must *not* do —
// mix representation classes across operand stacks, skip the §6.2 width
// checks, or run malformed flat code.
// ---------------------------------------------------------------------

mod bytecode_negative_space {
    use std::sync::Arc;

    use levity::driver::{compile_with_prelude, compile_with_prelude_opt, OptLevel};
    use levity::m::bytecode::{BcEntry, Chunk, Instr};
    use levity::m::machine::MachineError;
    use levity::m::regmachine::BcMachine;
    use levity::m::syntax::{Atom, Binder, Literal, MExpr};
    use levity::m::verify::VerifyErrorKind;
    use levity::m::Engine;

    /// Runs `main` of a compiled pipeline program on a fresh
    /// [`BcMachine`] and reports the per-class stack high-water marks
    /// (`[ptr, word, float, double]`).
    fn high_water(src: &str) -> [usize; 4] {
        let compiled = compile_with_prelude(src).unwrap();
        let entry = compiled
            .bytecode
            .compile_entry(&compiled.code.compile_entry(&MExpr::global("main")));
        let ventry = compiled.verified.verify_entry(&entry).unwrap();
        let mut machine = BcMachine::new(Arc::clone(&compiled.bytecode));
        machine.set_fuel(super::FUEL);
        machine.run(&ventry).unwrap();
        machine.stack_high_water()
    }

    /// The paper's point made physical: representation classes live on
    /// *disjoint* operand stacks. A `DoubleRep` value never occupies a
    /// word slot, and an `IntRep` loop never touches the double stack —
    /// pinned via the high-water marks, so even a transient spill would
    /// be caught.
    #[test]
    fn operand_stacks_separate_representation_classes() {
        let word_loop = high_water(
            "sumTo# :: Int# -> Int# -> Int#\n\
             sumTo# acc n = case n of { 0# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }\n\
             main :: Int#\n\
             main = sumTo# 0# 500#\n",
        );
        assert!(word_loop[1] > 0, "the word stack did the work");
        assert_eq!(word_loop[2], 0, "no float slots in a word program");
        assert_eq!(word_loop[3], 0, "no double slots in a word program");

        // Comparison-free: `abs` would compare, and comparisons return
        // `Int#` booleans — word-class work that belongs on the word
        // stack.
        let double_work = high_water(
            "main :: Double#\n\
             main = (0.0## - 2.25##) * 4.0##\n",
        );
        assert!(double_work[3] > 0, "the double stack did the work");
        assert_eq!(double_work[1], 0, "no word slots in a double program");
    }

    /// §6.2's width checks survive on the flat engine at `O0`: an
    /// ill-classed β-redex produces the same structured
    /// `ClassMismatch` (not a misread register) as the reference
    /// engines, with the same payload.
    #[test]
    fn o0_width_checks_hold_on_the_bytecode_engine() {
        let compiled = compile_with_prelude_opt("main :: Int#\nmain = 0#\n", OptLevel::O0).unwrap();
        // (λp:ptr. p) 1# — a word literal fed to a pointer binder.
        let t = MExpr::app(
            MExpr::lam(Binder::ptr("p"), MExpr::var("p")),
            Atom::Lit(Literal::Int(1)),
        );
        let bc = compiled
            .run_term_with_engine(Arc::clone(&t), super::FUEL, Engine::Bytecode)
            .unwrap_err();
        assert!(matches!(bc, MachineError::ClassMismatch { .. }), "{bc}");
        let subst = compiled
            .run_term_with_engine(t, super::FUEL, Engine::Subst)
            .unwrap_err();
        assert_eq!(bc, subst, "width-check payloads must match");
    }

    /// A jump to an undefined join point is a *structured* error on the
    /// flat engine — identical to the reference engines' — not a bad
    /// chunk id or a panic.
    #[test]
    fn unknown_join_is_a_structured_error() {
        let compiled = compile_with_prelude("main :: Int#\nmain = 0#\n").unwrap();
        let t = MExpr::jump("nowhere", vec![Atom::Lit(Literal::Int(1))]);
        for engine in [Engine::Subst, Engine::Env, Engine::Bytecode] {
            assert_eq!(
                compiled
                    .run_term_with_engine(Arc::clone(&t), super::FUEL, engine)
                    .unwrap_err(),
                MachineError::UnknownJoin("nowhere".into()),
                "{engine:?}"
            );
        }
    }

    /// Hand-built malformed entry code: a jump past the end of the
    /// chunk and a call to a chunk id that does not exist are both
    /// rejected by entry verification — with the structured kind — so
    /// the interpreter never runs them.
    #[test]
    fn wild_pc_and_unknown_chunk_entries_are_rejected_before_running() {
        let compiled = compile_with_prelude("main :: Int#\nmain = 0#\n").unwrap();
        let rogue = |label: &str, code: Vec<Instr>| BcEntry {
            chunks: vec![Arc::new(Chunk {
                label: label.to_owned(),
                code: code.into(),
                frame: [0; 4],
                caps: Arc::from([] as [levity::core::rep::Slot; 0]),
                caps_counts: [0; 4],
                params: Arc::from([] as [Binder; 0]),
                lam_body: None,
            })],
            root: compiled.bytecode.chunks.len() as u32,
        };
        let rejected = |entry: &BcEntry| compiled.verified.verify_entry(entry).unwrap_err().kind;
        assert_eq!(
            rejected(&rogue("wild-pc", vec![Instr::Goto(99)])),
            VerifyErrorKind::BadJumpTarget { target: 99, len: 1 }
        );
        let bad_chunk = rogue(
            "bad-chunk",
            vec![Instr::CallF {
                chunk: 9999,
                args: Arc::from([] as [levity::m::bytecode::Src; 0]),
                tail: true,
            }],
        );
        assert_eq!(
            rejected(&bad_chunk),
            VerifyErrorKind::BadChunkRef { id: 9999 }
        );
    }
}
