//! Differential testing along two independent axes:
//!
//! **subst vs env** — the substitution machine
//! (`levity::m::machine::Machine`) is the executable reference
//! semantics, Figure 6 transcribed literally; the environment engine
//! (`levity::m::env::EnvMachine`) is the fast evaluator the benchmarks
//! run on. On every corpus program, every hand-written machine term,
//! and a property-based sample of generated well-typed `L` terms, the
//! two engines must agree on
//!
//! * the [`RunOutcome`] (values — functions included, via readback —
//!   and `error`/⊥ aborts),
//! * the [`MachineError`] on failing terms (`<<loop>>` blackholing,
//!   §6.2 `ClassMismatch` width-check failures, fuel exhaustion, …),
//! * **every** [`MachineStats`] counter: the engines take structurally
//!   identical transitions, so not only the allocation-shaped counters
//!   (`thunk_allocs`, `con_allocs`, `allocated_words`, `updates`) but
//!   also `steps`, `thunk_forces`, `var_lookups`, `prim_ops` and
//!   `max_stack` must coincide exactly.
//!
//! **opt vs no-opt** — the levity-directed Core optimizer must preserve
//! outcomes and final values (its entire point is to change the
//! *counters*): every corpus program and a property-based sample of
//! generated surface programs compile at `O0` and at the default level
//! and must produce identical [`RunOutcome`]s, on both engines.
//!
//! Every bytecode leg — raw terms and pipeline programs, hand-written
//! and generated — runs through the verifier (the register machine's
//! only way in), once at the default nursery and once at
//! [`TINY_NURSERY`], where allocating programs collect constantly: the
//! collector must be observationally invisible everywhere.
//!
//! Both proptest blocks honour `LEVITY_PROPTEST_CASES` (the nightly CI
//! job raises it to 2048).

mod support;

use std::sync::Arc;

use proptest::prelude::*;

use levity::compile::figure7::compile_closed;
use levity::driver::pipeline::{
    compile_with_prelude, compile_with_prelude_opt, Compiled, RunLimits,
};
use levity::driver::OptLevel;
use levity::l::gen::{GenConfig, Generator};
use levity::m::bytecode::BcProgram;
use levity::m::compile::CodeProgram;
use levity::m::env::EnvMachine;
use levity::m::gc::DEFAULT_NURSERY_CELLS;
use levity::m::machine::{Globals, Machine, MachineError, MachineStats, RunOutcome};
use levity::m::regmachine::BcMachine;
use levity::m::syntax::{Alt, Atom, Binder, DataCon, Literal, MExpr, PrimOp};
use levity::m::verify::verify;
use levity::m::Engine;

use support::surface::{gen_program, CORPUS};

const FUEL: u64 = 200_000_000;

/// A nursery small enough that every allocating program collects,
/// repeatedly.
const TINY_NURSERY: usize = 32;

/// The nurseries every bytecode leg runs at.
const NURSERIES: [usize; 2] = [DEFAULT_NURSERY_CELLS, TINY_NURSERY];

/// Property-test case count, overridable via `LEVITY_PROPTEST_CASES`
/// (the scheduled nightly CI job runs with 2048).
fn proptest_cases(default: u32) -> u32 {
    std::env::var("LEVITY_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Outcome and counters of one run. The stats ride *outside* the
/// `Result` so that failing terms still pin every counter — an engine
/// that took extra transitions before erroring must not slip through.
type MachineResult = (Result<RunOutcome, MachineError>, MachineStats);

/// Runs a raw machine term on the substitution engine.
fn run_subst(globals: &Globals, t: &Arc<MExpr>, fuel: u64) -> MachineResult {
    let mut machine = Machine::with_globals(globals.clone());
    machine.set_fuel(fuel);
    let result = machine.run(Arc::clone(t));
    (result, *machine.stats())
}

/// Runs the same term on the environment engine.
fn run_env(globals: &Globals, t: &Arc<MExpr>, fuel: u64) -> MachineResult {
    let program = CodeProgram::compile(globals);
    let entry = program.compile_entry(t);
    let mut machine = EnvMachine::new(&program);
    machine.set_fuel(fuel);
    let result = machine.run(&entry);
    (result, *machine.stats())
}

/// Runs the same term on the flat-bytecode register machine, verified
/// first, with the collector's nursery at `nursery` cells. An entry the
/// verifier rejects reports `MachineError::Unverified`, like the
/// pipeline.
fn run_bytecode(globals: &Globals, t: &Arc<MExpr>, fuel: u64, nursery: usize) -> MachineResult {
    let program = CodeProgram::compile(globals);
    let bc = Arc::new(BcProgram::compile(&program));
    let entry = bc.compile_entry(&program.compile_entry(t));
    let verified = verify(&bc).expect("compiled programs verify");
    let mut machine = BcMachine::new(bc);
    machine.set_fuel(fuel);
    machine.set_gc_nursery(nursery);
    let result = verified
        .verify_entry(&entry)
        .map_err(MachineError::from)
        .and_then(|entry| machine.run(&entry));
    (result, *machine.stats())
}

/// Runs `main` of a pipeline program on the bytecode engine with the
/// collector's nursery at `nursery` cells.
fn run_bytecode_main(compiled: &Compiled, nursery: usize) -> MachineResult {
    let limits = RunLimits {
        gc_nursery: Some(nursery),
        ..RunLimits::fuel(FUEL)
    };
    split(compiled.run_with_limits("main", Engine::Bytecode, limits))
}

/// Pins the bytecode engine against a tree-walking reference result.
///
/// Outcome (values, `error`/⊥ aborts, `MachineError`s) and the
/// allocation-shaped counters must match exactly — the flat engine
/// executes the same heap semantics. `steps` is *designed* to differ
/// (superinstructions collapse several tree transitions into one
/// dispatch), so instead of equality the step counts must stay within a
/// constant factor of each other, in both directions: neither engine
/// may quietly start doing asymptotically more work.
fn assert_bytecode_agrees(reference: &MachineResult, bc: &MachineResult, what: &str) {
    let (r_out, r_stats) = reference;
    let (b_out, b_stats) = bc;
    // Address-blind outcome comparison: the bytecode engine's copying
    // collector moves heap cells, so outcomes that mention heap
    // addresses (constructor fields, readback captures, addresses
    // rendered into error payloads) may differ from the non-collecting
    // tree engines *in the addresses only*. Renumbering each side's
    // addresses in first-appearance order makes the comparison exact
    // up to that relocation; everything else must still match
    // verbatim. The tree engines never collect, so subst-vs-env stays
    // full structural equality elsewhere.
    assert_eq!(
        addr_blind(&format!("{r_out:?}")),
        addr_blind(&format!("{b_out:?}")),
        "bytecode outcome differs on {what}: {r_out:?} vs {b_out:?}"
    );
    // Fuel exhaustion stops the engines mid-program at *different*
    // program points (they count transitions differently), so the
    // counters are only comparable on every other outcome.
    if matches!(r_out, Err(MachineError::OutOfFuel { .. })) {
        return;
    }
    assert_eq!(
        (
            r_stats.thunk_allocs,
            r_stats.con_allocs,
            r_stats.allocated_words,
            r_stats.updates
        ),
        (
            b_stats.thunk_allocs,
            b_stats.con_allocs,
            b_stats.allocated_words,
            b_stats.updates
        ),
        "bytecode allocation counters differ on {what}"
    );
    assert!(
        b_stats.steps <= 8 * r_stats.steps + 64 && r_stats.steps <= 8 * b_stats.steps + 64,
        "step counts drifted apart on {what}: reference {} vs bytecode {}",
        r_stats.steps,
        b_stats.steps
    );
}

/// Asserts all three engines produce identical results on a raw term,
/// the bytecode engine at every nursery in [`NURSERIES`].
fn assert_engines_agree(globals: &Globals, t: &Arc<MExpr>, fuel: u64, what: &str) {
    let subst = run_subst(globals, t, fuel);
    let env = run_env(globals, t, fuel);
    assert_eq!(subst, env, "engines disagree on {what}: {t}");
    for nursery in NURSERIES {
        let bc = run_bytecode(globals, t, fuel, nursery);
        assert_bytecode_agrees(&env, &bc, &format!("{what} (nursery {nursery})"));
    }
}

/// Asserts both engines produce identical results through the full
/// pipeline (surface source, prelude included), at *both* optimization
/// levels — four runs, with **every** [`MachineStats`] counter equal
/// between the engines at each level (the optimizer may change the
/// counters between levels; the engines may not disagree within one).
fn assert_pipeline_agrees(source: &str, what: &str) {
    for level in [OptLevel::O0, OptLevel::O2] {
        let compiled = compile_with_prelude_opt(source, level)
            .unwrap_or_else(|e| panic!("{what} ({level}): {e}"));
        let subst = compiled.run_with_engine("main", FUEL, Engine::Subst);
        let env = compiled.run_with_engine("main", FUEL, Engine::Env);
        assert_eq!(
            subst, env,
            "engines disagree on {what} at {level} (outcome or stats)"
        );
        assert_bytecode_agrees_at_every_nursery(
            &compiled,
            &split(env),
            &format!("{what} at {level}"),
        );
        assert_lints_clean(&compiled, &format!("{what} at {level}"));
    }
}

/// Third engine, looser stats contract — the 6-way grid: outcome and
/// allocation counters pinned against `reference`, steps bounded, at
/// every nursery in [`NURSERIES`].
fn assert_bytecode_agrees_at_every_nursery(
    compiled: &Compiled,
    reference: &MachineResult,
    what: &str,
) {
    for nursery in NURSERIES {
        let bc = run_bytecode_main(compiled, nursery);
        assert_bytecode_agrees(reference, &bc, &format!("{what} (nursery {nursery})"));
    }
}

/// The lowered program passes every Core lint rule with zero errors.
fn assert_lints_clean(compiled: &Compiled, what: &str) {
    let tenv = levity::ir::typecheck::check_program(&compiled.program)
        .unwrap_or_else(|(b, e)| panic!("{what}: `{b}` fails re-typecheck: {e}"));
    let lints = levity::compile::lint_program(&tenv, &compiled.program);
    assert!(lints.is_clean(), "{what} fails Core lint:\n{lints}");
}

/// Adapts a pipeline run result to the raw-term [`MachineResult`]
/// shape (stats outside the `Result`; failing runs report empty stats
/// on every engine, so the default is comparable).
fn split(r: Result<(RunOutcome, MachineStats), MachineError>) -> MachineResult {
    match r {
        Ok((out, stats)) => (Ok(out), stats),
        Err(e) => (Err(e), MachineStats::default()),
    }
}

/// Renders a debug-formatted outcome with every heap address replaced
/// by its first-appearance index, so two runs that agree up to heap
/// relocation render identically. Addresses appear in two spellings:
/// the `Debug` form `Addr(N)` (atoms inside values) and the `Display`
/// form `#N` (values rendered into `MachineError` string payloads).
/// `#`-then-digits is unambiguous — literals render digits-then-`#`
/// (`42#`) and unboxed tuples as `(# … #)`, neither of which matches.
/// Both spellings share one renumbering map, so an address cited in an
/// error payload and again in a value stays consistent.
fn addr_blind(rendered: &str) -> String {
    let bytes = rendered.as_bytes();
    let mut seen: Vec<u64> = Vec::new();
    let mut intern = |n: u64| -> usize {
        match seen.iter().position(|&k| k == n) {
            Some(i) => i,
            None => {
                seen.push(n);
                seen.len() - 1
            }
        }
    };
    let digits_end = |start: usize| {
        let mut k = start;
        while k < bytes.len() && bytes[k].is_ascii_digit() {
            k += 1;
        }
        k
    };
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i..].starts_with(b"Addr(") {
            let j = i + 5;
            let k = digits_end(j);
            if k > j && bytes.get(k) == Some(&b')') {
                let id = intern(rendered[j..k].parse().unwrap());
                out.extend_from_slice(format!("Addr(a{id})").as_bytes());
                i = k + 1;
                continue;
            }
        }
        if bytes[i] == b'#' {
            let k = digits_end(i + 1);
            if k > i + 1 {
                let id = intern(rendered[i + 1..k].parse().unwrap());
                out.extend_from_slice(format!("#a{id}").as_bytes());
                i = k;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    // Only ASCII spans were rewritten, so UTF-8 validity is preserved.
    String::from_utf8(out).expect("addr_blind preserves UTF-8")
}

#[test]
fn engines_agree_on_the_whole_corpus() {
    for (what, source) in CORPUS {
        assert_pipeline_agrees(source, what);
    }
}

#[test]
fn gc_is_observationally_invisible_across_the_corpus() {
    // The whole grid again, but with the bytecode engine's nursery
    // forced tiny so every allocating program collects — repeatedly.
    // Outcomes (up to heap relocation) and every non-GC counter must
    // be identical to the never-collecting tree reference: a collector
    // that perturbed semantics or allocation accounting fails here.
    // Summed across the corpus the collector must also actually run,
    // or this test would pass vacuously.
    let mut collections = 0;
    for (what, source) in CORPUS {
        for level in [OptLevel::O0, OptLevel::O2] {
            let compiled = compile_with_prelude_opt(source, level)
                .unwrap_or_else(|e| panic!("{what} ({level}): {e}"));
            let env = compiled.run_with_engine("main", FUEL, Engine::Env);
            let bc = run_bytecode_main(&compiled, TINY_NURSERY);
            collections += bc.1.collections;
            let what = format!("{what} at {level} under forced gc");
            assert_bytecode_agrees(&split(env), &bc, &what);
        }
    }
    assert!(collections > 0, "forced-tiny nursery never collected");
}

#[test]
fn engines_agree_on_fuel_exhaustion_through_the_pipeline() {
    // OutOfFuel carries the limit; equality also certifies the engines
    // count the same number of transitions before giving up.
    let compiled = compile_with_prelude(
        "spin :: Int# -> Int#\nspin n = spin n\nmain :: Int#\nmain = spin 0#\n",
    )
    .unwrap();
    let subst = compiled.run_with_engine("main", 12_345, Engine::Subst);
    let env = compiled.run_with_engine("main", 12_345, Engine::Env);
    assert_eq!(subst, env);
    assert!(matches!(
        subst,
        Err(MachineError::OutOfFuel { limit: 12_345 })
    ));
    // The bytecode engine honours the same limit (it burns fuel per
    // dispatched instruction, so it gives up at the same count).
    assert!(matches!(
        compiled.run_with_engine("main", 12_345, Engine::Bytecode),
        Err(MachineError::OutOfFuel { limit: 12_345 })
    ));
}

// ---------------------------------------------------------------------
// Hand-written machine terms: failure modes and dark corners
// ---------------------------------------------------------------------

fn int_atom(n: i64) -> Atom {
    Atom::Lit(Literal::Int(n))
}

#[test]
fn engines_agree_on_blackhole_loops() {
    // let p = case p of I#[i] -> I#[i] in case p of I#[i] -> i — the
    // cyclic thunk demands itself: <<loop>> on both engines.
    let body = MExpr::case_int_hash(
        MExpr::var("p"),
        "i",
        MExpr::con_int_hash(Atom::Var("i".into())),
    );
    let t = MExpr::let_lazy(
        "p",
        body,
        MExpr::case_int_hash(MExpr::var("p"), "i", MExpr::var("i")),
    );
    let globals = Globals::new();
    assert_eq!(run_subst(&globals, &t, FUEL).0, Err(MachineError::Loop));
    assert_engines_agree(&globals, &t, FUEL, "blackhole self-demand");
}

#[test]
fn engines_agree_on_width_check_failures() {
    // (λp:ptr. p) 1# — §6.2 register-class mismatch, same error payload
    // (binder name, expected class, actual class) from both engines.
    let t = MExpr::app(MExpr::lam(Binder::ptr("p"), MExpr::var("p")), int_atom(1));
    let globals = Globals::new();
    let err = run_subst(&globals, &t, FUEL).0.unwrap_err();
    assert!(matches!(err, MachineError::ClassMismatch { .. }));
    assert_engines_agree(&globals, &t, FUEL, "class mismatch");

    // Mismatch through a case field binder.
    let bad_case = Arc::new(MExpr::Case(
        MExpr::con_int_hash(int_atom(3)),
        [Alt::Con(
            DataCon::int_hash(),
            vec![Binder::ptr("p")],
            MExpr::var("p"),
        )]
        .into(),
        None,
    ));
    assert_engines_agree(&globals, &bad_case, FUEL, "case-field class mismatch");
}

#[test]
fn engines_agree_on_machine_failures() {
    let globals = Globals::new();
    for (what, t) in [
        (
            "applied non-function",
            MExpr::app(MExpr::int(3), int_atom(4)),
        ),
        ("unknown global", MExpr::global("nope")),
        ("unbound variable", MExpr::var("ghost")),
        (
            "no matching alternative",
            Arc::new(MExpr::Case(
                MExpr::int(7),
                [Alt::Lit(Literal::Int(0), MExpr::int(1))].into(),
                None,
            )),
        ),
        (
            "case on a multi-value",
            Arc::new(MExpr::Case(
                Arc::new(MExpr::MultiVal(vec![int_atom(1), int_atom(2)])),
                [Alt::Lit(Literal::Int(0), MExpr::int(1))].into(),
                None,
            )),
        ),
        (
            "let! of a multi-value",
            MExpr::let_strict(
                Binder::int("x"),
                Arc::new(MExpr::MultiVal(vec![int_atom(1)])),
                MExpr::var("x"),
            ),
        ),
        (
            "division by zero",
            MExpr::prim(PrimOp::QuotI, vec![int_atom(1), int_atom(0)]),
        ),
        (
            "oversaturated primop",
            MExpr::prim(PrimOp::AddI, vec![int_atom(1), int_atom(2), int_atom(3)]),
        ),
    ] {
        assert!(
            run_subst(&globals, &t, FUEL).0.is_err(),
            "{what} should fail"
        );
        assert_engines_agree(&globals, &t, FUEL, what);
    }
}

#[test]
fn engines_count_prim_ops_identically_even_on_failure() {
    // A 3-argument primop errors in apply_prim on both engines — after
    // the op was counted. The run helpers only compare stats on Ok, so
    // read the counters off the machines directly here.
    let t = MExpr::prim(PrimOp::AddI, vec![int_atom(1), int_atom(2), int_atom(3)]);
    let mut subst = Machine::new();
    let subst_err = subst.run(Arc::clone(&t)).unwrap_err();
    let program = CodeProgram::compile(&Globals::new());
    let entry = program.compile_entry(&t);
    let mut env = EnvMachine::new(&program);
    let env_err = env.run(&entry).unwrap_err();
    assert_eq!(subst_err, env_err);
    assert_eq!(subst.stats(), env.stats());
    assert_eq!(subst.stats().prim_ops, 1);
}

#[test]
fn engines_agree_on_shared_thunks_and_stats() {
    // Shared thunk demanded twice: thunk_forces/updates/var_lookups
    // must match, not just the outcome.
    let t = MExpr::let_lazy(
        "p",
        MExpr::con_int_hash(int_atom(7)),
        MExpr::case_int_hash(
            MExpr::var("p"),
            "a",
            MExpr::case_int_hash(
                MExpr::var("p"),
                "b",
                MExpr::prim(
                    PrimOp::AddI,
                    vec![Atom::Var("a".into()), Atom::Var("b".into())],
                ),
            ),
        ),
    );
    let globals = Globals::new();
    let (result, stats) = run_subst(&globals, &t, FUEL);
    result.unwrap();
    assert_eq!(stats.thunk_forces, 1);
    assert_eq!(stats.var_lookups, 1);
    assert_engines_agree(&globals, &t, FUEL, "thunk sharing");
}

#[test]
fn engines_agree_on_function_results_with_captured_bindings() {
    // let! a = 5# in λb. +# a b — the subst machine substitutes a into
    // the lambda body; the env engine must read the closure back to the
    // same term.
    let t = MExpr::let_strict(
        Binder::int("a"),
        MExpr::int(5),
        MExpr::lam(
            Binder::int("b"),
            MExpr::prim(
                PrimOp::AddI,
                vec![Atom::Var("a".into()), Atom::Var("b".into())],
            ),
        ),
    );
    let globals = Globals::new();
    let out = run_subst(&globals, &t, FUEL).0.unwrap();
    assert_eq!(
        out.value().map(ToString::to_string),
        Some("<function \\b:word>".to_owned())
    );
    assert_engines_agree(&globals, &t, FUEL, "closure readback");
}

#[test]
fn engines_agree_on_shadowed_case_fields() {
    // case T[1#, 2#] of T x x -> x — the innermost (last) binder wins
    // on both engines.
    let two_field = DataCon {
        name: "T".into(),
        tag: 0,
        fields: [levity::core::rep::Slot::Word, levity::core::rep::Slot::Word].into(),
    };
    let t = Arc::new(MExpr::Case(
        Arc::new(MExpr::Con(
            two_field.clone(),
            vec![int_atom(1), int_atom(2)],
        )),
        [Alt::Con(
            two_field,
            vec![Binder::int("x"), Binder::int("x")],
            MExpr::var("x"),
        )]
        .into(),
        None,
    ));
    let globals = Globals::new();
    let out = run_subst(&globals, &t, FUEL).0.unwrap();
    assert_eq!(
        out,
        RunOutcome::Value(levity::m::Value::Lit(Literal::Int(2)))
    );
    assert_engines_agree(&globals, &t, FUEL, "shadowed case fields");
}

// ---------------------------------------------------------------------
// Property-based differential testing over generated well-typed terms
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(96)))]
    #[test]
    fn engines_agree_on_generated_well_typed_programs(seed in 0u64..25_000) {
        // Type-directed generation (levity-l) through the Figure 7
        // compiler exercises β-redexes, closures, case, `error`/⊥ and
        // rep-polymorphic instantiations — closed terms, so both
        // engines must agree on outcome, error and every counter.
        let mut generator = Generator::new(seed, GenConfig::default());
        let (e, _ty) = generator.generate();
        let t = compile_closed(&e).expect("well-typed terms compile");
        let globals = Globals::new();
        let subst = run_subst(&globals, &t, 2_000_000);
        let env = run_env(&globals, &t, 2_000_000);
        prop_assert_eq!(&subst, &env, "engines disagree on generated term {}", e);
        for nursery in NURSERIES {
            let bc = run_bytecode(&globals, &t, 2_000_000, nursery);
            assert_bytecode_agrees(&env, &bc, &format!("generated term {e} (nursery {nursery})"));
        }
    }
}

// ---------------------------------------------------------------------
// Optimized vs unoptimized: outcomes and final values must be identical
// ---------------------------------------------------------------------

/// A run result with function values made opaque: the optimizer is free
/// to compile a λ differently (that is its job), so two closures count
/// as the same *final value*; data values, literals and aborts must
/// match exactly.
#[derive(Debug, PartialEq)]
enum Observed {
    Value(String),
    Closure,
    Abort(String),
    Failed(MachineError),
}

fn observe(r: Result<RunOutcome, MachineError>) -> Observed {
    match r {
        Ok(RunOutcome::Value(levity::m::Value::Lam(..))) => Observed::Closure,
        Ok(RunOutcome::Value(v)) => Observed::Value(v.to_string()),
        Ok(RunOutcome::Error(msg)) => Observed::Abort(msg),
        Err(e) => Observed::Failed(e),
    }
}

/// Compiles at both levels and asserts identical run results on every
/// engine, the bytecode engine at every nursery in [`NURSERIES`].
/// Stats are deliberately *not* compared: changing the counters while
/// preserving the outcome is the optimizer's job.
fn assert_opt_noopt_agree(source: &str, what: &str) {
    let o0 = compile_with_prelude_opt(source, OptLevel::O0)
        .unwrap_or_else(|e| panic!("{what} (O0): {e}"));
    let o2 = compile_with_prelude_opt(source, OptLevel::O2)
        .unwrap_or_else(|e| panic!("{what} (O2): {e}"));
    for engine in [Engine::Subst, Engine::Env] {
        let r0 = observe(o0.run_with_engine("main", FUEL, engine).map(|(out, _)| out));
        let r2 = observe(o2.run_with_engine("main", FUEL, engine).map(|(out, _)| out));
        assert_eq!(r0, r2, "O0 and O2 disagree on {what} ({engine:?} engine)");
    }
    for nursery in NURSERIES {
        let r0 = observe(run_bytecode_main(&o0, nursery).0);
        let r2 = observe(run_bytecode_main(&o2, nursery).0);
        assert_eq!(
            r0, r2,
            "O0 and O2 disagree on {what} (Bytecode engine, nursery {nursery})"
        );
    }
}

#[test]
fn optimizer_preserves_outcomes_on_the_whole_corpus() {
    for (what, source) in CORPUS {
        assert_opt_noopt_agree(source, what);
    }
}

#[test]
fn worker_wrapper_never_forces_a_lazily_bound_argument() {
    // Two regression shapes for the demand analysis. `pad` keeps the
    // functions above the inline threshold so worker/wrapper (not
    // inlining) decides their fate.
    //
    // (a) `x` flows into a *lazy* let whose thunk the taken branch never
    // forces: unboxing `x` would turn `I# 81#` into an abort.
    let lazy_rhs = "pad :: Int# -> Int#\n\
         pad v = ((((v +# 1#) *# 2#) -# 3#) +# ((v *# v) -# (v +# 7#)))\n\
         f :: Int -> Int -> Int\n\
         f x b = let y = (case x of { I# k -> I# (k +# 1#) }) in \
                 case b of { I# j -> case j of { 0# -> y; _ -> I# (pad (j +# 80#)) } }\n\
         main :: Int\n\
         main = f (error \"boom\") 1\n";
    assert_opt_noopt_agree(lazy_rhs, "lazy let rhs must contribute no demand");
    // (b) the scrutinee is itself a lazy binding of ⊥: the alternatives'
    // demand on `x` must not count, or the wrapper reorders which error
    // surfaces (O0 says \"E\", a bad O2 would say \"X\").
    let lazy_scrutinee = "pad :: Int# -> Int#\n\
         pad v = ((((v +# 1#) *# 2#) -# 3#) +# ((v *# v) -# (v +# 7#)))\n\
         g :: Int -> Int\n\
         g x = let y = (error \"E\") in \
               case y of { I# k -> case x of { I# j -> I# (pad (k +# j)) } }\n\
         main :: Int\n\
         main = g (error \"X\")\n";
    assert_opt_noopt_agree(
        lazy_scrutinee,
        "lazy scrutinee must not license branch demand",
    );
}

#[test]
fn join_scopes_survive_recursive_reentry() {
    // Regression: a join point whose body closes over an enclosing
    // argument, jumped to *after* a recursive call in a case scrutinee
    // returns. The recursive activation re-executes the same static
    // `join`; with a flat machine-global join map the inner definition
    // would clobber the outer one and the outer jump would add the
    // innermost `a` (yielding 1#). Frames must capture the join scope
    // of their own activation. Spelled out: f 0# = k 0# = 0+0 = 0;
    // f 1#: f 0# = 0, so k 1# = 1+1 = 2; f 2#: f 1# = 2 ≠ 0, so
    // k 1# = 1+2 = 3.
    let src = "f :: Int# -> Int#\n\
               f a = let k = \\(y :: Int#) -> y +# a in \
                     case a of { 0# -> k 0#; _ -> case f (a -# 1#) of { 0# -> k 1#; _ -> k 1# } }\n\
               main :: Int#\n\
               main = f 2#\n";
    for level in [OptLevel::O0, OptLevel::O2] {
        let compiled = compile_with_prelude_opt(src, level).unwrap();
        // All three engines: the bytecode engine keeps join frames as
        // plain jump targets inside the activation's chunk, so the
        // recursive activation must not be able to clobber them either.
        for engine in [Engine::Subst, Engine::Env, Engine::Bytecode] {
            let (out, stats) = compiled.run_with_engine("main", FUEL, engine).unwrap();
            assert_eq!(
                out.value().and_then(|v| v.as_int()),
                Some(3),
                "join scope clobbered by recursive re-entry ({level}, {engine:?})"
            );
            assert!(stats.jumps >= 1, "k must still lower as a join point");
        }
    }
    assert_pipeline_agrees(src, "join scope across recursive re-entry");
}

#[test]
fn inliner_alpha_refresh_survives_shadowing() {
    // Regression shapes for the inliner's α-refresh: a β-redex whose
    // let-bound argument shares its name with a free variable of the
    // inlined body, with the collision routed across `Case` binders.
    // A capture bug would surface as a wrong value, an unbound
    // variable (caught by the post-pass typecheck), or a `<<loop>>`
    // from a let binder capturing its own right-hand side.
    for (what, src, expected) in [
        (
            // λ binder `m` shadows the enclosing function's `m`; the
            // argument mentions the *outer* `m`, and the body reads the
            // λ-bound `m` through a Case binder. let m = plusInt m m
            // (unfreshened) would be self-referential.
            "λ binder shadows the outer variable it is fed from",
            "shadow :: Int -> Int\n\
             shadow m = case m of { I# k -> (\\(m :: Int) -> case m of { I# q -> I# (q +# k) }) (plusInt m m) }\n\
             main :: Int\n\
             main = shadow 5\n",
            15,
        ),
        (
            // A top-level callee whose λ and Case binders reuse the
            // caller's variable name: inlining `callee` at arguments
            // that mention the caller's `a` must not capture it under
            // the body's own `I# a` Case binder.
            "callee Case binders collide with the caller's free variable",
            "callee :: Int -> Int -> Int\n\
             callee x y = case x of { I# a -> case y of { I# b -> I# (a +# b) } }\n\
             caller :: Int# -> Int\n\
             caller a = callee (I# (a +# 1#)) (I# (a *# 2#))\n\
             main :: Int\n\
             main = caller 4#\n",
            13,
        ),
        (
            // Two pending (non-atomic) arguments whose rhss mention an
            // outer binder named like the callee's second λ binder: the
            // let-nest for argument 1 must not shadow argument 2's rhs.
            "let-nest ordering with colliding names",
            "both :: Int -> Int -> Int\n\
             both x y = case y of { I# j -> case x of { I# i -> I# (i -# j) } }\n\
             use :: Int -> Int\n\
             use y = both (plusInt y y) (timesInt y y)\n\
             main :: Int\n\
             main = use 3\n",
            -3,
        ),
    ] {
        assert_opt_noopt_agree(src, what);
        let compiled = compile_with_prelude(src).unwrap();
        let (out, _) = compiled.run("main", FUEL).unwrap();
        assert_eq!(
            out.value().and_then(|v| v.as_boxed_int()),
            Some(expected),
            "{what}"
        );
    }
}

#[test]
fn optimizer_preserves_failure_modes() {
    // Aborts must carry the same message, laziness must stay observable,
    // and a diverging program must diverge at both levels.
    for (what, source) in [
        (
            "error reached through an optimized call chain",
            "f :: Int -> Int\nf n = case n of { I# k -> I# (k +# 1#) }\n\
             main :: Int\nmain = f (error \"kept message\")\n",
        ),
        (
            "error in a dead lazy binding stays dead",
            "main :: Int\nmain = fst (MkPair 3 (error \"never forced\"))\n",
        ),
        (
            "error selected by class dispatch",
            "main :: Int#\nmain = abs (error \"strict position\")\n",
        ),
        (
            "division by zero after specialisation",
            "main :: Int#\nmain = quotInt# 1# (0# * 1#)\n",
        ),
        (
            "aborting unboxed global passed to a function that ignores it",
            // `bad` is a Global of unboxed type: a strict argument, so
            // its body runs at the call even though `f` drops it. The
            // inliner must not substitute the global away.
            "bad :: Int#\nbad = quotInt# 1# 0#\n\
             f :: Int# -> Int#\nf x = 42#\n\
             main :: Int#\nmain = f bad\n",
        ),
        (
            "aborting unboxed global in a dead strict let",
            "bad :: Int#\nbad = quotInt# 1# 0#\n\
             main :: Int#\nmain = let v = bad in 42#\n",
        ),
    ] {
        assert_opt_noopt_agree(source, what);
    }
    // Fuel exhaustion: an infinite loop must stay infinite (the error
    // payload is the limit, which both levels share).
    let src = "spin :: Int# -> Int#\nspin n = spin n\nmain :: Int#\nmain = spin 0#\n";
    let o0 = compile_with_prelude_opt(src, OptLevel::O0).unwrap();
    let o2 = compile_with_prelude_opt(src, OptLevel::O2).unwrap();
    let r0 = o0.run("main", 50_000).map(|(out, _)| out);
    let r2 = o2.run("main", 50_000).map(|(out, _)| out);
    assert_eq!(r0, r2);
    assert!(matches!(r0, Err(MachineError::OutOfFuel { limit: 50_000 })));
    // `f x = f x` with a ⊥ argument: the demand analysis must not let
    // the optimistic self-call rule (with no direct-demand witness)
    // unbox x, or O2 would abort where O0 spins.
    let src = "f :: Int -> Int\nf x = f x\nmain :: Int\nmain = f (error \"boom\")\n";
    let o0 = compile_with_prelude_opt(src, OptLevel::O0).unwrap();
    let o2 = compile_with_prelude_opt(src, OptLevel::O2).unwrap();
    let r0 = o0.run("main", 50_000).map(|(out, _)| out);
    let r2 = o2.run("main", 50_000).map(|(out, _)| out);
    assert_eq!(r0, r2);
    assert!(matches!(r0, Err(MachineError::OutOfFuel { .. })));
}

// ---------------------------------------------------------------------
// Property-based opt-vs-noopt over generated surface programs
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(64)))]
    #[test]
    fn optimizer_preserves_outcomes_on_generated_surface_programs(seed in 0u64..1_000_000) {
        let source = gen_program(seed);
        let o0 = compile_with_prelude_opt(&source, OptLevel::O0)
            .unwrap_or_else(|e| panic!("generated program must compile (O0): {e}\n{source}"));
        let o2 = compile_with_prelude_opt(&source, OptLevel::O2)
            .unwrap_or_else(|e| panic!("generated program must compile (O2): {e}\n{source}"));
        let r0 = o0.run("main", FUEL).map(|(out, _)| out);
        let r2 = o2.run("main", FUEL).map(|(out, _)| out);
        prop_assert_eq!(r0, r2, "O0 and O2 disagree on seed {}:\n{}", seed, source);
        // And the program must stay engine-independent at *both*
        // levels, full MachineStats included for the tree-walking pair
        // and the looser bytecode contract on top — the six-way grid
        // O0/O2 × subst/env/bytecode.
        for (level, compiled) in [(OptLevel::O0, &o0), (OptLevel::O2, &o2)] {
            let subst = compiled.run_with_engine("main", FUEL, Engine::Subst);
            let env = compiled.run_with_engine("main", FUEL, Engine::Env);
            prop_assert_eq!(
                &subst,
                &env,
                "engines disagree on seed {} at {}",
                seed,
                level
            );
            let what = format!("seed {seed} at {level}");
            assert_bytecode_agrees_at_every_nursery(compiled, &split(env), &what);
            // ... and the generated axis lints the lowered Core too.
            assert_lints_clean(compiled, &what);
        }
    }
}
