//! The levity-directed Core-to-Core optimizer.
//!
//! §6.2's thesis is that kinding types by representation lets the
//! compiler *act* on representation information. The pipeline's acting
//! layer is this module: a short sequence of passes run between
//! [`check_program_levity`](levity_ir::levity::check_program_levity) and
//! [`lower_program`](crate::lower::lower_program), each justified by
//! facts the kinds already state:
//!
//! 0. [`eliminate_dead_globals`](usage::eliminate_dead_globals), when
//!    the caller names entry points — every binding the entries cannot
//!    reach is dropped before any pass runs, so the passes and the
//!    re-typecheck after each see only the module's live code, not the
//!    whole prelude in front of it (GHC likewise drops dead bindings
//!    before each simplifier run);
//! 1. [`specialise_functions`](spec_fun::specialise_functions) — a
//!    constrained function called with statically known dictionaries is
//!    cloned per distinct dictionary tuple, the dictionary λ dropped
//!    and the call sites redirected (GHC's `SPECIALISE`, automatic);
//!    iterated with the next two passes to a bounded fixed point so
//!    specialisation propagates through polymorphic call graphs;
//! 2. [`specialise`](specialise::specialise) — class-method projections
//!    out of statically known dictionaries become direct calls to the
//!    instance methods (§7.3's cost, refunded);
//! 3. [`inline`](inline::inline) + [`simplify`](simplify::simplify) —
//!    small non-recursive calls β-reduce, case-of-known-constructor and
//!    friends clean up; a multi-alternative case-of-case binds its
//!    outer alternatives as **join points** ([`join`]) so continuations
//!    flow inward without duplication (iterated to a bounded fixpoint);
//! 4. [`worker_wrapper`](ww::worker_wrapper) — strictly-demanded boxed
//!    arguments split into an unboxed worker plus an inline wrapper,
//!    with each binder's §6.2 register class read off its kind; a
//!    single-constructor **result** scrutinised at every call site is
//!    returned as an unboxed tuple (CPR), the wrapper reboxing;
//! 5. inline + simplify again, so wrappers vanish at call sites,
//!    workers tail-call themselves on raw registers, and CPR reboxes
//!    cancel against call-site scrutinies;
//! 6. [`eliminate_dead_globals`](usage::eliminate_dead_globals) again —
//!    the specialised-away originals, orphaned selectors and stale
//!    wrappers left behind by 1–5 are dropped: nothing reachable from
//!    the entry points mentions them, so they would only cost lowering
//!    and code size. The entry-point set is the caller's
//!    ([`optimise_program`]'s `entry_points`; `None` skips both sweeps
//!    and keeps every binding).
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
//! check:** after every pass the whole program is re-typechecked (the
//! pass returns an error — surfaced as a compiler bug — if it broke
//! typing), and under `debug_assertions` the §5.1 levity checks are
//! re-run too. `tests/differential.rs` additionally pins optimized and
//! unoptimized programs to identical outcomes over the corpus and a
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

use levity_core::symbol::Symbol;
use levity_ir::terms::Program;
use levity_ir::typecheck::{check_program, CoreError, TypeEnv};

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
/// the sum of its two sweeps.
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
    /// Call sites inlined (per-round maximum).
    pub inlined: usize,
    /// Simplifier rewrites applied (per-round maximum).
    pub simplified: usize,
    /// Join points bound by the case-of-case rule (per-round maximum).
    pub join_points: usize,
    /// Worker/wrapper splits performed.
    pub workers: usize,
    /// Workers whose *result* was unboxed to `(# … #)` (constructed
    /// product result); a subset of [`OptReport::workers`].
    pub cpr_workers: usize,
    /// Unreachable top-level bindings eliminated, summed over both
    /// sweeps: the one before the passes (bindings the entries never
    /// reached) and the one after them (originals, selectors and
    /// wrappers the passes left unreachable).
    pub dead_globals: usize,
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

/// Inline/simplify rounds on each side of the worker/wrapper split.
const ROUNDS: usize = 2;

/// Bound on the spec-fun ▸ specialise ▸ inline+simplify fixed-point
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
/// and after them: bindings unreachable from the set are dropped. `None`
/// disables elimination (every binding is kept, as before the pass
/// existed).
///
/// # Errors
///
/// An error means a pass produced ill-typed Core — a bug in the
/// optimizer, never in the input program (which the caller has already
/// checked). The offending pass is re-validated after every step, so
/// the error surfaces immediately next to its cause.
pub fn optimise_program(
    prog: &Program,
    entry_points: Option<&HashSet<Symbol>>,
) -> Result<(Program, OptReport, TypeEnv), (Symbol, CoreError)> {
    let mut report = OptReport::default();
    // Prune first: the passes below, and the re-typecheck after each,
    // then see only what the entries reach, not a whole prelude.
    let mut cur = match entry_points {
        Some(entries) => {
            let (pruned, dropped) = usage::eliminate_dead_globals(prog, entries);
            report.dead_globals = dropped;
            pruned
        }
        None => prog.clone(),
    };
    let mut env_opt: Option<TypeEnv> = None;

    let no_force: HashSet<Symbol> = HashSet::new();
    // The persistent (function, dictionary-tuple) → clone-name map: a
    // later round that re-exposes an already-specialised tuple
    // redirects to the existing clone instead of minting a duplicate.
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
        validate(&cur, "spec_fun", &mut report)?;
        let (next, n) = specialise::specialise(&cur);
        fold_round(&mut report.specialised, n);
        cur = next;
        let mut env = validate(&cur, "specialise", &mut report)?;
        for _ in 0..ROUNDS {
            let (next, n) = inline::inline(&cur, &no_force);
            fold_round(&mut report.inlined, n);
            cur = next;
            env = validate(&cur, "inline", &mut report)?;
            let (next, n, joins) = simplify::simplify(&env, &cur);
            fold_round(&mut report.simplified, n);
            fold_round(&mut report.join_points, joins);
            cur = next;
            env = validate(&cur, "simplify", &mut report)?;
        }
        env_opt = Some(env);
    }
    let mut env = env_opt.expect("the first spec round always runs");

    let (next, wrappers, n, cpr) = ww::worker_wrapper(&env, &cur);
    report.workers = n;
    report.cpr_workers = cpr;
    cur = next;
    env = validate(&cur, "worker/wrapper", &mut report)?;

    for _ in 0..ROUNDS {
        let (next, n) = inline::inline(&cur, &wrappers);
        fold_round(&mut report.inlined, n);
        cur = next;
        env = validate(&cur, "inline", &mut report)?;
        let (next, n, joins) = simplify::simplify(&env, &cur);
        fold_round(&mut report.simplified, n);
        fold_round(&mut report.join_points, joins);
        cur = next;
        env = validate(&cur, "simplify", &mut report)?;
    }

    if let Some(entries) = entry_points {
        let (next, dropped) = usage::eliminate_dead_globals(&cur, entries);
        report.dead_globals += dropped;
        cur = next;
        env = validate(&cur, "dead-globals", &mut report)?;
    }
    if !cfg!(debug_assertions) {
        // Debug builds linted after every pass inside `validate`;
        // release pays for one run over the final program.
        lint_after(&cur, "final", &env, &mut report);
    }
    Ok((cur, report, env))
}

/// Re-typechecks the program after a pass (always), and — under
/// `debug_assertions` — runs the full Core lint ([`crate::lint`],
/// which subsumes the §5.1 levity re-check as its first rule): the
/// optimizer must be representation- and discipline-preserving, and a
/// pass that is not should fail here, next to its name, rather than at
/// lowering or — worse — at runtime. Release builds lint once per
/// [`optimise_program`] call instead (the last `validate` in the
/// pipeline would find the same errors a step later). Lint counters
/// accumulate into `report`.
fn validate(
    prog: &Program,
    pass: &str,
    report: &mut OptReport,
) -> Result<TypeEnv, (Symbol, CoreError)> {
    let env = check_program(prog).map_err(|(name, e)| {
        // Attach the pass name for the panic message in debug builds;
        // release callers surface the CoreError through the pipeline.
        debug_assert!(
            false,
            "optimizer pass `{pass}` broke typing of `{name}`: {e}"
        );
        (name, e)
    })?;
    if cfg!(debug_assertions) {
        lint_after(prog, pass, &env, report);
    }
    let _ = pass;
    Ok(env)
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
            }],
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
        // enough surface for inline + simplify + worker/wrapper to act.
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
                },
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
                },
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
                },
                TopBind {
                    name: "unused".into(),
                    ty: ih,
                    expr: CoreExpr::int(7),
                },
            ],
        };
        let entries: HashSet<Symbol> = ["main".into()].into();
        let (out, report, _env) = optimise_program(&prog, Some(&entries)).unwrap();
        assert_eq!(report.dead_globals, 1);
        assert!(out.binding("main".into()).is_some());
        assert!(out.binding("unused".into()).is_none());
    }
}
