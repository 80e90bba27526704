//! The levity-directed Core-to-Core optimizer.
//!
//! §6.2's thesis is that kinding types by representation lets the
//! compiler *act* on representation information. The pipeline's acting
//! layer is this module: a short sequence of passes run between the
//! Core and §5.1 checks ([`check_module`](levity_ir::typecheck::check_module))
//! and [`lower_program`](crate::lower::lower_program), each justified by
//! facts the kinds already state:
//!
//! 0. [`eliminate_dead_globals`](usage::eliminate_dead_globals), when
//!    the caller names entry points — every binding the entries cannot
//!    reach is dropped before any pass runs, so the passes and the
//!    check after each see only the module's live code, not the whole
//!    prelude in front of it (GHC likewise drops dead bindings before
//!    each simplifier run);
//! 1. [`specialise_functions`](spec_fun::specialise_functions) — a
//!    constrained function called with statically known dictionaries is
//!    cloned per distinct dictionary tuple, the dictionary λ dropped
//!    and the call sites redirected (GHC's `SPECIALISE`, automatic);
//!    iterated with the next two passes to a bounded fixed point so
//!    specialisation propagates through polymorphic call graphs;
//! 2. [`specialise`](specialise::specialise) — class-method projections
//!    out of statically known dictionaries become direct calls to the
//!    instance methods (§7.3's cost, refunded);
//! 3. [`simplify`](simplify::simplify) — small non-recursive calls are
//!    grafted ([`inline`]) and β-reduce as the walk meets them,
//!    case-of-known-constructor and friends clean up; a
//!    multi-alternative case-of-case binds its outer alternatives as
//!    **join points** ([`join`]) so continuations flow inward without
//!    duplication (iterated to a bounded fixpoint, one pass and one
//!    check a round; a pass that changed no binding ends the loop).
//!    Each of a body's rounds is one walk linear in the body: it counts
//!    occurrences as it emits them, substitutes through an environment,
//!    carries a `let`'s strict pure-total floats out of its right-hand
//!    side in one step, and hands back untouched subtrees unrebuilt. The
//!    pass rewrites only what the entry points reach *after* its
//!    rewrites ([`usage::rewrite_reachable`]), so it drops what it
//!    empties in the same pass: a chain of definitions collapses into
//!    `main` once, and the passes after it see `main` alone;
//! 4. [`worker_wrapper`](ww::worker_wrapper) — strictly-demanded boxed
//!    arguments split into an unboxed worker plus an inline wrapper,
//!    with each binder's §6.2 register class read off its kind; a
//!    single-constructor **result** scrutinised at every call site is
//!    returned as an unboxed tuple (CPR), the wrapper reboxing;
//! 5. simplify again, so wrappers vanish at call sites, workers
//!    tail-call themselves on raw registers, and CPR reboxes cancel
//!    against call-site scrutinies. Its last pass leaves nothing the
//!    entries cannot reach, so no sweep follows it. The entry-point set
//!    is the caller's ([`optimise_program`]'s `entry_points`; `None`
//!    skips the sweep of step 0 and makes every binding an entry of the
//!    simplifier, so every binding is kept).
//!
//! The worked §7.3 example, end to end. The elaborated
//!
//! ```text
//! square :: ∀ a. Num a -> a -> a
//! square = Λa. λ(d :: Num a). λx. ((*) @LiftedRep @a d) x x
//! main   = square @Int $dNum_Int n
//! ```
//!
//! carries its dictionary through every call. After the pipeline:
//!
//! ```text
//! $ssquare@Int :: Int -> Int               -- clone: dict λ gone (pass 1)
//! $ssquare@Int = λx. case x of I# a ->     -- (*) projection → timesInt
//!                  I# (a *# a)             --   (pass 2), inlined + known-
//! main = $ssquare@Int n                    --   case cleaned (pass 3)
//! ```
//!
//! (then worker/wrapper splits `$ssquare@Int` when its argument is
//! demanded, and `square` itself — now unreachable — is eliminated,
//! `specialised`/`dead_globals` counts land in the [`OptReport`]).
//!
//! **The pipeline is representation-preserving by construction and by
//! check:** after every pass the program is typechecked again (the pass
//! returns an error — surfaced as a compiler bug — if it broke typing),
//! and the full Core lint, §5.1 levity checks included (a walk of the
//! Core check with a sink), runs after every pass in debug builds and
//! once at the end in release. The check costs what the pass changed, not
//! the whole program: every pass hands back the same `Arc` for each
//! binding it did not rewrite, and [`Checker`] re-checks only new
//! bindings and those that mention a global whose type changed or
//! vanished (debug builds also check the whole program and assert the
//! same verdict). `tests/differential.rs` additionally pins optimized
//! and unoptimized programs to identical outcomes over the corpus and a
//! property-based sample.

pub mod inline;
pub mod join;
pub mod simplify;
pub mod spec_fun;
pub mod specialise;
pub mod subst;
pub mod usage;
pub mod ww;

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use levity_core::symbol::Symbol;
use levity_ir::terms::{CoreExpr, DataDecl, Program, TopBind};
use levity_ir::typecheck::{check_binding, check_program, CoreError, TypeEnv};

use subst::globals_of;

/// How hard the optimizer works.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OptLevel {
    /// No Core-to-Core optimization: lower the elaborated program
    /// verbatim. The differential baseline.
    O0,
    /// The full pass pipeline (the default everywhere).
    #[default]
    O2,
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptLevel::O0 => f.write_str("O0"),
            OptLevel::O2 => f.write_str("O2"),
        }
    }
}

/// What the optimizer did, for reporting and tests.
///
/// The pipeline iterates several passes to a bounded fixed point, and a
/// later round re-runs a pass over the *previous round's output* —
/// summing its counts across rounds would double-count work the pass
/// merely re-discovers (and make the numbers grow with the round bound
/// rather than with the program). Counters for iterated passes
/// therefore record the **busiest single round** ([`fold_round`]);
/// worker/wrapper reports a plain total, and dead-global elimination
/// the sum of everything dropped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptReport {
    /// Monomorphised clones of constrained functions created (per-round
    /// maximum).
    pub fn_specialised: usize,
    /// Call sites redirected to specialised clones (per-round maximum).
    pub spec_calls: usize,
    /// Dictionary projections replaced by instance methods (per-round
    /// maximum).
    pub specialised: usize,
    /// Call sites grafted by the simplifier (per-round maximum).
    pub inlined: usize,
    /// Simplifier rewrites applied (per-round maximum).
    pub simplified: usize,
    /// Join points bound by the case-of-case rule (per-round maximum).
    pub join_points: usize,
    /// Nodes the simplifier's walks visited, summed over every pass:
    /// its own walk (which counts occurrences and applies its
    /// substitution as it goes), the walks that count discarded output
    /// back out, and the known-constructor replacement's.
    pub simplify_nodes: usize,
    /// Worker/wrapper splits performed.
    pub workers: usize,
    /// Workers whose *result* was unboxed to `(# … #)` (constructed
    /// product result); a subset of [`OptReport::workers`].
    pub cpr_workers: usize,
    /// Unreachable top-level bindings eliminated, summed over the sweep
    /// and the simplifier passes: the sweep before the passes drops what
    /// the entries never reached; each simplifier pass drops what its
    /// grafts and rewrites emptied (chain definitions,
    /// specialised-away originals, inlined clones and wrappers, globals
    /// only a discarded branch mentioned).
    pub dead_globals: usize,
    /// Bindings re-typechecked after the passes, summed over every
    /// check ([`Checker`]): the first check takes every binding, each
    /// later one only the bindings a pass rebuilt and those that
    /// mention a global whose type changed or vanished.
    pub rechecked: usize,
    /// Core-lint runs performed ([`crate::lint`]): after every pass
    /// under `debug_assertions`, once per optimise in release.
    pub lint_runs: usize,
    /// Lint errors found across those runs (a compiler bug when
    /// nonzero — debug builds assert on it immediately).
    pub lint_errors: usize,
    /// Lint warnings found across those runs (advisory).
    pub lint_warnings: usize,
}

/// Folds one round's pass count into an iterated counter: the report
/// keeps the busiest round, not the sum, so re-running a pass over its
/// own output can never inflate the number.
fn fold_round(counter: &mut usize, this_round: usize) {
    *counter = (*counter).max(this_round);
}

/// Simplifier rounds on each side of the worker/wrapper split.
const ROUNDS: usize = 2;

/// Bound on the spec-fun ▸ specialise ▸ simplify fixed-point
/// loop: a later round only finds work when the previous one exposed a
/// new statically known dictionary (e.g. a `let d = $dNum_Int in f … d`
/// that let-of-atom collapsed), so two extra rounds cover everything
/// the test corpus produces and the loop exits early when a round
/// changes nothing.
const SPEC_ROUNDS: usize = 3;

/// Runs the full pass pipeline over a checked program. Returns the
/// optimized program, a report of what fired, and the final
/// [`TypeEnv`] — already covering any worker globals the split added,
/// so the caller can lower without re-checking.
///
/// `entry_points` drives dead-global elimination, before the passes
/// and in every simplifier pass: bindings unreachable from the set are
/// dropped. `None` makes every binding an entry, so every binding is
/// kept.
///
/// # Errors
///
/// An error means a pass produced ill-typed Core — a bug in the
/// optimizer, never in the input program (which the caller has already
/// checked). Every pass's output is checked before the next pass runs,
/// so the error surfaces immediately next to its cause.
pub fn optimise_program(
    prog: &Program,
    entry_points: Option<&HashSet<Symbol>>,
) -> Result<(Program, OptReport, TypeEnv), (Symbol, CoreError)> {
    let mut report = OptReport::default();
    // Prune first: the passes below, and the check after each, then see
    // only what the entries reach, not a whole prelude.
    let mut cur = match entry_points {
        Some(entries) => {
            let (pruned, dropped) = usage::eliminate_dead_globals(prog, entries);
            report.dead_globals = dropped;
            pruned
        }
        None => prog.clone(),
    };
    let mut checker = Checker::new(&cur);
    let mut env_opt: Option<TypeEnv> = None;

    let no_force: HashSet<Symbol> = HashSet::new();
    // The persistent (function, dictionary-tuple) → clone-name map: a
    // later round that re-exposes an already-specialised tuple
    // redirects to the existing clone instead of minting a duplicate
    // (or mints it again, if the simplifier has since dropped it).
    let mut spec_cache: HashMap<String, Symbol> = HashMap::new();
    for round in 0..SPEC_ROUNDS {
        let (next, clones, calls) = spec_fun::specialise_functions(&cur, &mut spec_cache);
        if round > 0 && clones == 0 && calls == 0 {
            // Nothing new became specialisable: `next` is structurally
            // identical to the program the last round already validated
            // and cleaned up, so drop it and stop here.
            break;
        }
        fold_round(&mut report.fn_specialised, clones);
        fold_round(&mut report.spec_calls, calls);
        cur = next;
        checker.validate(&cur, "spec_fun", &mut report)?;
        let (next, n) = specialise::specialise(&cur);
        fold_round(&mut report.specialised, n);
        cur = next;
        let env = checker.validate(&cur, "specialise", &mut report)?;
        let (next, env) =
            simplify_rounds(cur, env, entry_points, &no_force, &mut checker, &mut report)?;
        cur = next;
        env_opt = Some(env);
    }
    let env = env_opt.expect("the first spec round always runs");

    let (next, wrappers, n, cpr) = ww::worker_wrapper(&env, &cur);
    report.workers = n;
    report.cpr_workers = cpr;
    cur = next;
    let env = checker.validate(&cur, "worker/wrapper", &mut report)?;
    let (cur, env) = simplify_rounds(cur, env, entry_points, &wrappers, &mut checker, &mut report)?;
    if !cfg!(debug_assertions) {
        // Debug builds linted after every pass inside `validate`;
        // release pays for one run over the final program.
        lint_after(&cur, "final", &env, &mut report);
    }
    Ok((cur, report, env))
}

/// Up to [`ROUNDS`] simplifier passes, each validated. A pass walks
/// from `entry_points` — from every binding when there are none, so a
/// library keeps all of them — grafting inlineable callees as it meets
/// their calls, and the bindings its simplified bodies leave unreached
/// are dropped on the spot, counted as dead globals. A pass that changed
/// no binding ends the loop: the next would see the same program and
/// change nothing either.
fn simplify_rounds(
    mut cur: Program,
    mut env: TypeEnv,
    entry_points: Option<&HashSet<Symbol>>,
    force_inline: &HashSet<Symbol>,
    checker: &mut Checker,
    report: &mut OptReport,
) -> Result<(Program, TypeEnv), (Symbol, CoreError)> {
    for _ in 0..ROUNDS {
        let every_binding: HashSet<Symbol>;
        let entries = match entry_points {
            Some(entries) => entries,
            None => {
                every_binding = cur.bindings.iter().map(|b| b.name).collect();
                &every_binding
            }
        };
        let next = simplify::simplify(&env, &cur, entries, force_inline, report);
        report.dead_globals += cur.bindings.len() - next.bindings.len();
        let unchanged = same_arcs(&cur.bindings, &next.bindings);
        cur = next;
        env = checker.validate(&cur, "simplify", report)?;
        if unchanged {
            break;
        }
    }
    Ok((cur, env))
}

/// Do `a` and `b` hold the same `Arc`s, in the same order?
fn same_arcs<T>(a: &[Arc<T>], b: &[Arc<T>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y))
}

/// `bind` with its body replaced by `expr`, the body a pass rebuilt
/// with `rewrites` rewrites, or `bind` itself when that count is zero:
/// a pass hands back the same `Arc` for every binding it leaves alone,
/// and [`Checker`] re-checks only new ones. Debug builds assert that a
/// body with no rewrite was rebuilt unchanged.
fn rebuilt(bind: &Arc<TopBind>, rewrites: usize, expr: CoreExpr) -> Arc<TopBind> {
    if rewrites == 0 {
        debug_assert!(
            expr == bind.expr,
            "`{}` changed with no rewrite counted",
            bind.name
        );
        return Arc::clone(bind);
    }
    Arc::new(TopBind {
        name: bind.name,
        ty: bind.ty.clone(),
        expr,
    })
}

/// The check after every pass, for one [`optimise_program`] call.
///
/// [`check_binding`]'s verdict on a binding depends only on its type
/// and body, the types of the globals the body mentions, and the
/// built-ins: constructors travel inside the terms, and no pass changes
/// the datatype declarations. So a binding whose `Arc` passed the last
/// check passes again when every global it mentions still has the type
/// it had then. Every other binding is re-checked: those a pass
/// rebuilt, and those that mention a global whose type changed or
/// vanished. The first check has no last one to lean on, so it checks
/// every binding: the optimizer trusts its input no more than a
/// whole-program check would.
struct Checker {
    /// The datatype declarations of the program the checker started
    /// from, and an environment registering them, built once.
    data_decls: Vec<Arc<DataDecl>>,
    decls: Arc<TypeEnv>,
    /// The last checked program's bindings by name, each with the
    /// globals its body mentions. Holding the `Arc`s, not their
    /// addresses, keeps a freed binding's address from passing for a
    /// kept one.
    last: HashMap<Symbol, Checked>,
}

/// A binding that passed the last check.
struct Checked {
    bind: Arc<TopBind>,
    globals: Vec<Symbol>,
}

impl Checker {
    fn new(prog: &Program) -> Checker {
        let mut decls = TypeEnv::new();
        for decl in &prog.data_decls {
            decls.add_data_decl(Arc::clone(decl));
        }
        Checker {
            data_decls: prog.data_decls.clone(),
            decls: Arc::new(decls),
            last: HashMap::new(),
        }
    }

    /// Typechecks the program a pass returned, and — under
    /// `debug_assertions` — runs the full Core lint ([`crate::lint`],
    /// which subsumes the §5.1 levity re-check as its first rule): the
    /// optimizer must be representation- and discipline-preserving, and
    /// a pass that is not should fail here, next to its name, rather
    /// than at lowering or — worse — at runtime. Release builds lint
    /// once per [`optimise_program`] call instead (the last `validate`
    /// in the pipeline would find the same errors a step later). The
    /// bindings re-checked and the lint counters accumulate into
    /// `report`.
    fn validate(
        &mut self,
        prog: &Program,
        pass: &str,
        report: &mut OptReport,
    ) -> Result<TypeEnv, (Symbol, CoreError)> {
        let (env, rechecked) = self.check(prog).map_err(|(name, e)| {
            // Attach the pass name for the panic message in debug builds;
            // release callers surface the CoreError through the pipeline.
            debug_assert!(
                false,
                "optimizer pass `{pass}` broke typing of `{name}`: {e}"
            );
            (name, e)
        })?;
        report.rechecked += rechecked;
        if cfg!(debug_assertions) {
            lint_after(prog, pass, &env, report);
        }
        Ok(env)
    }

    /// Checks `prog`, re-checking only the bindings the last check does
    /// not vouch for, in program order. Returns the program's
    /// environment and the number of bindings re-checked. Debug builds
    /// also check the whole program from scratch and assert that it
    /// fails at the same binding, or not at all.
    fn check(&mut self, prog: &Program) -> Result<(TypeEnv, usize), (Symbol, CoreError)> {
        debug_assert!(
            same_arcs(&prog.data_decls, &self.data_decls),
            "an optimizer pass changed the datatype declarations"
        );
        let verdict = self.check_changed(prog);
        if cfg!(debug_assertions) {
            let whole = check_program(prog).map(|_| ()).map_err(|(name, _)| name);
            let incremental = verdict.as_ref().map(|_| ()).map_err(|(name, _)| *name);
            assert_eq!(
                incremental, whole,
                "the incremental check disagrees with the whole-program check"
            );
        }
        verdict
    }

    fn check_changed(&mut self, prog: &Program) -> Result<(TypeEnv, usize), (Symbol, CoreError)> {
        let mut env = TypeEnv::over(Arc::clone(&self.decls));
        for b in &prog.bindings {
            env.define_global(b.name, b.ty.clone());
        }
        // An error leaves `last` empty, so a later check checks all.
        let mut last = std::mem::take(&mut self.last);
        let retyped: HashSet<Symbol> = last
            .iter()
            .filter(|(name, was)| env.global(**name) != Some(&was.bind.ty))
            .map(|(name, _)| *name)
            .collect();
        let mut checked = HashMap::with_capacity(prog.bindings.len());
        let mut rechecked = 0;
        for b in &prog.bindings {
            let vouched = last.remove(&b.name).filter(|was| {
                Arc::ptr_eq(&was.bind, b) && !was.globals.iter().any(|g| retyped.contains(g))
            });
            let entry = match vouched {
                Some(was) => was,
                None => {
                    check_binding(&env, b, None)?;
                    rechecked += 1;
                    let mut globals = Vec::new();
                    globals_of(&b.expr, &mut globals);
                    Checked {
                        bind: Arc::clone(b),
                        globals,
                    }
                }
            };
            checked.insert(b.name, entry);
        }
        self.last = checked;
        Ok((env, rechecked))
    }
}

/// Runs the Core lint and folds its counts into the report; debug
/// builds assert the program lints clean (errors mean a pass broke a
/// discipline the later stages rely on).
fn lint_after(prog: &Program, pass: &str, env: &TypeEnv, report: &mut OptReport) {
    let lints = crate::lint::lint_program(env, prog);
    report.lint_runs += 1;
    report.lint_errors += lints.errors.len();
    report.lint_warnings += lints.warnings.len();
    debug_assert!(
        lints.is_clean(),
        "optimizer pass `{pass}` broke a Core-lint discipline:\n{lints}"
    );
    let _ = pass;
}

#[cfg(test)]
mod tests {
    use super::*;
    use levity_ir::terms::{CoreExpr, TopBind};
    use levity_ir::types::Type;

    /// A minimal program: the optimizer must be the identity on code
    /// with nothing to do, and the result must stay well-typed.
    #[test]
    fn optimizing_a_trivial_program_is_sound() {
        let env = TypeEnv::new();
        let ih = Type::con0(&env.builtins.int_hash);
        let prog = Program {
            data_decls: env.builtins.data_decls.clone(),
            bindings: vec![TopBind {
                name: "main".into(),
                ty: ih,
                expr: CoreExpr::int(42),
            }
            .into()],
        };
        let (out, report, _env) =
            optimise_program(&prog, None).expect("optimizer broke a trivial program");
        assert_eq!(out.bindings.len(), 1);
        assert_eq!(out.bindings[0].expr, CoreExpr::int(42));
        assert_eq!(report.specialised, 0);
        assert_eq!(report.fn_specialised, 0);
        assert_eq!(report.workers, 0);
        assert_eq!(report.dead_globals, 0);
    }

    /// Iterated-pass counters fold rounds by maximum: a later round
    /// that merely re-discovers (or re-does less of) the same work can
    /// never inflate the report.
    #[test]
    fn fold_round_keeps_the_busiest_round_not_the_sum() {
        let mut counter = 0usize;
        for round in [5, 3, 0, 7, 7] {
            fold_round(&mut counter, round);
        }
        assert_eq!(counter, 7, "the report is a maximum, not a running sum");
    }

    /// Re-optimising the optimizer's own output must not re-report the
    /// first run's work: the program is already in normal form, so
    /// every counter is bounded by (and in practice far below) the
    /// first report — the observable symptom the per-round-maximum fix
    /// exists to prevent is counters that grow on every rerun.
    #[test]
    fn reoptimising_optimized_output_does_not_inflate_counters() {
        let env = TypeEnv::new();
        let ih = Type::con0(&env.builtins.int_hash);
        let int = Type::con0(&env.builtins.int);
        // inc n = case n of I# k -> I# (k +# 1#); main = inc (I# 1#) —
        // enough surface for the simplifier and worker/wrapper to act.
        let inc_body = CoreExpr::lam(
            "n",
            int.clone(),
            CoreExpr::case(
                CoreExpr::Var("n".into()),
                vec![levity_ir::terms::CoreAlt::Con {
                    con: std::sync::Arc::clone(&env.builtins.i_hash),
                    binders: vec![("k".into(), ih.clone())],
                    rhs: CoreExpr::Con(
                        std::sync::Arc::clone(&env.builtins.i_hash),
                        vec![],
                        vec![CoreExpr::Prim(
                            levity_m::syntax::PrimOp::AddI,
                            vec![CoreExpr::Var("k".into()), CoreExpr::int(1)],
                        )],
                    ),
                }],
            ),
        );
        let prog = Program {
            data_decls: env.builtins.data_decls.clone(),
            bindings: vec![
                TopBind {
                    name: "inc".into(),
                    ty: Type::fun(int.clone(), int.clone()),
                    expr: inc_body,
                }
                .into(),
                TopBind {
                    name: "main".into(),
                    ty: int.clone(),
                    expr: CoreExpr::app(
                        CoreExpr::Global("inc".into()),
                        CoreExpr::Con(
                            std::sync::Arc::clone(&env.builtins.i_hash),
                            vec![],
                            vec![CoreExpr::int(1)],
                        ),
                    ),
                }
                .into(),
            ],
        };
        let (out1, first, _) = optimise_program(&prog, None).unwrap();
        let (_, second, _) = optimise_program(&out1, None).unwrap();
        assert!(
            second.inlined <= first.inlined.max(1)
                && second.simplified <= first.simplified.max(1)
                && second.specialised <= first.specialised
                && second.fn_specialised <= first.fn_specialised,
            "re-optimising normal-form output inflated the report: first {first:?}, second {second:?}"
        );
    }

    /// `g :: Int# -> Int# = λx. x` and `f :: Int# = g 1#`.
    fn caller_and_callee() -> Program {
        let env = TypeEnv::new();
        let ih = Type::con0(&env.builtins.int_hash);
        Program {
            data_decls: env.builtins.data_decls.clone(),
            bindings: vec![
                TopBind {
                    name: "g".into(),
                    ty: Type::fun(ih.clone(), ih.clone()),
                    expr: CoreExpr::lam("x", ih.clone(), CoreExpr::Var("x".into())),
                }
                .into(),
                TopBind {
                    name: "f".into(),
                    ty: ih,
                    expr: CoreExpr::app(CoreExpr::Global("g".into()), CoreExpr::int(1)),
                }
                .into(),
            ],
        }
    }

    /// `prog` with its bindings replaced by `bindings`.
    fn with_bindings(prog: &Program, bindings: Vec<Arc<TopBind>>) -> Program {
        Program {
            data_decls: prog.data_decls.clone(),
            bindings,
        }
    }

    /// Negative space: a "pass" re-types `g` — a new binding, well-typed
    /// alone — while `f` keeps its `Arc` and still applies `g` at the old
    /// type. A checker that trusted `f`'s unchanged `Arc` would pass the
    /// program; `f` must be re-checked, and fail.
    #[test]
    fn checker_rechecks_a_kept_caller_of_a_retyped_global() {
        let prog = caller_and_callee();
        let mut checker = Checker::new(&prog);
        assert_eq!(
            checker.check(&prog).unwrap().1,
            2,
            "the first check takes all"
        );
        let int = Type::con0(&TypeEnv::new().builtins.int);
        let retyped = TopBind {
            name: "g".into(),
            ty: Type::fun(int.clone(), int.clone()),
            expr: CoreExpr::lam("x", int, CoreExpr::Var("x".into())),
        };
        let next = with_bindings(&prog, vec![retyped.into(), Arc::clone(&prog.bindings[1])]);
        let (name, err) = checker.check(&next).unwrap_err();
        assert_eq!(name, Symbol::intern("f"));
        assert!(matches!(err, CoreError::Mismatch { .. }), "{err}");
    }

    /// Negative space: a "pass" drops `g` while `f` keeps its `Arc` and
    /// still calls it.
    #[test]
    fn checker_rechecks_a_kept_caller_of_a_dropped_global() {
        let prog = caller_and_callee();
        let mut checker = Checker::new(&prog);
        checker.check(&prog).unwrap();
        let next = with_bindings(&prog, vec![Arc::clone(&prog.bindings[1])]);
        assert_eq!(
            checker.check(&next).unwrap_err(),
            ("f".into(), CoreError::UnboundGlobal("g".into()))
        );
    }

    /// A pointer-identical program re-checks nothing — neither a copy of
    /// the last one nor what a dead-global sweep that drops nothing
    /// returns.
    #[test]
    fn checker_rechecks_nothing_in_a_pointer_identical_program() {
        let prog = caller_and_callee();
        let mut checker = Checker::new(&prog);
        checker.check(&prog).unwrap();
        assert_eq!(checker.check(&prog.clone()).unwrap().1, 0);
        let entries: HashSet<Symbol> = ["f".into()].into();
        let (swept, dropped) = usage::eliminate_dead_globals(&prog, &entries);
        assert_eq!(dropped, 0);
        assert_eq!(checker.check(&swept).unwrap().1, 0);
    }

    /// A rebuilt binding whose type is unchanged is re-checked alone: its
    /// callers keep their verdict.
    #[test]
    fn checker_rechecks_a_rebuilt_binding_alone() {
        let prog = caller_and_callee();
        let mut checker = Checker::new(&prog);
        checker.check(&prog).unwrap();
        let g = &prog.bindings[0];
        let rebuilt = TopBind {
            name: g.name,
            ty: g.ty.clone(),
            expr: g.expr.clone(),
        };
        let next = with_bindings(&prog, vec![rebuilt.into(), Arc::clone(&prog.bindings[1])]);
        let (env, rechecked) = checker.check(&next).unwrap();
        assert_eq!(rechecked, 1);
        assert_eq!(env.global("f".into()), Some(&prog.bindings[1].ty));
    }

    /// With an entry set, unreachable bindings disappear even when no
    /// other pass had anything to do.
    #[test]
    fn entry_points_drive_dead_global_elimination() {
        let env = TypeEnv::new();
        let ih = Type::con0(&env.builtins.int_hash);
        let prog = Program {
            data_decls: env.builtins.data_decls.clone(),
            bindings: vec![
                TopBind {
                    name: "main".into(),
                    ty: ih.clone(),
                    expr: CoreExpr::int(42),
                }
                .into(),
                TopBind {
                    name: "unused".into(),
                    ty: ih,
                    expr: CoreExpr::int(7),
                }
                .into(),
            ],
        };
        let entries: HashSet<Symbol> = ["main".into()].into();
        let (out, report, _env) = optimise_program(&prog, Some(&entries)).unwrap();
        assert_eq!(report.dead_globals, 1);
        assert!(out.binding("main".into()).is_some());
        assert!(out.binding("unused".into()).is_none());
    }
}
