//! Core Lint: a pluggable rule runner over optimized [`Program`]s, in
//! the spirit of GHC's `-dcore-lint`.
//!
//! The optimizer already typechecks every pass's output ([`crate::opt`]
//! re-checks what the pass changed); this module checks the
//! *disciplines* the type system does not state but every later stage
//! relies on:
//!
//! | rule | checks | broken invariant would surface as |
//! |------|--------|-----------------------------------|
//! | [`LintRule::Levity`] | the §5.1 levity restrictions, re-applied by a walk of the Core check | abstract-representation failure at lowering |
//! | [`LintRule::JoinDiscipline`] | `$j` join points called saturated, in tail position only | a join compiled as a closure — allocation the case-of-case pass promised to avoid |
//! | [`LintRule::CprWorkerTails`] | `$w` workers with `(# … #)` results never tail-return a boxed constructor or a λ | a CPR rebox the wrapper cannot cancel |
//! | [`LintRule::Shadowing`] | no duplicate binders in one binder list (error), no cross-scope shadowing (warning) | capture bugs in substitution-based passes |
//! | [`LintRule::UnreachableAlt`] | no alternatives after a default, no duplicate patterns | dead branches the bytecode compiler still pays for |
//! | [`LintRule::StrictLetWidth`] | tuple binders have a fixed width: no recursive multi-value lets, no rep-variable tuple types | unarisation with no register layout — lowering failure or a width mismatch at runtime |
//!
//! [`lint_program`] runs every rule and returns a [`LintReport`];
//! "lints clean" means **zero errors** (warnings are advisory). The
//! optimizer runs it after every pass under `debug_assertions` and
//! once per `optimise_program` call in release ([`crate::opt`]'s
//! `validate`), accumulating counters into
//! [`OptReport`](crate::opt::OptReport).

use std::collections::HashMap;
use std::fmt;

use levity_core::diag::Severity;
use levity_core::symbol::Symbol;
use levity_ir::levity::check_program_levity;
use levity_ir::terms::{CoreAlt, CoreExpr, LetKind, Program};
use levity_ir::typecheck::TypeEnv;
use levity_ir::types::Type;

/// Which lint rule fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LintRule {
    /// The §5.1 levity restrictions, re-checked.
    Levity,
    /// Join points (`$j…` let-bound λs) must be called saturated and
    /// only in tail position — never captured under a λ, passed as an
    /// argument, or partially applied.
    JoinDiscipline,
    /// CPR workers (`$w…` with an unboxed-tuple result) must not have
    /// a boxed constructor or a λ in tail position.
    CprWorkerTails,
    /// Duplicate binders in one binder list (error); a binder hiding
    /// another in scope (warning).
    Shadowing,
    /// Case alternatives after a default, or duplicate patterns.
    UnreachableAlt,
    /// A multi-value binder without a fixed width: a recursive let of
    /// unboxed-tuple type (a multi-value cannot be a cyclic thunk), or
    /// a tuple-typed binder whose type mentions rep variables (no
    /// register layout to unarise into).
    StrictLetWidth,
}

impl fmt::Display for LintRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LintRule::Levity => "levity",
            LintRule::JoinDiscipline => "join-discipline",
            LintRule::CprWorkerTails => "cpr-worker-tails",
            LintRule::Shadowing => "shadowing",
            LintRule::UnreachableAlt => "unreachable-alt",
            LintRule::StrictLetWidth => "strict-let-width",
        })
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lint {
    /// The rule that fired.
    pub rule: LintRule,
    /// The top-level binding it fired in.
    pub binding: Symbol,
    /// What was found.
    pub message: String,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] in `{}`: {}", self.rule, self.binding, self.message)
    }
}

/// Everything a lint run found, split by severity. A program "lints
/// clean" when `errors` is empty; warnings are advisory.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintReport {
    /// Discipline violations — compiler bugs if the optimizer
    /// produced them.
    pub errors: Vec<Lint>,
    /// Advisory findings (cross-scope shadowing).
    pub warnings: Vec<Lint>,
}

impl LintReport {
    /// No errors (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    fn error(&mut self, rule: LintRule, binding: Symbol, message: impl Into<String>) {
        self.errors.push(Lint {
            rule,
            binding,
            message: message.into(),
        });
    }

    fn warn(&mut self, rule: LintRule, binding: Symbol, message: impl Into<String>) {
        self.warnings.push(Lint {
            rule,
            binding,
            message: message.into(),
        });
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for l in &self.errors {
            writeln!(f, "error: {l}")?;
        }
        for l in &self.warnings {
            writeln!(f, "warning: {l}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s)",
            self.errors.len(),
            self.warnings.len()
        )
    }
}

/// A lint rule: a named check over the whole program. The runner is a
/// plain list, so adding a rule is adding a row.
type RuleFn = fn(&TypeEnv, &Program, &mut LintReport);

/// Every rule, in the order they run and report.
const RULES: &[(LintRule, RuleFn)] = &[
    (LintRule::Levity, rule_levity),
    (LintRule::JoinDiscipline, rule_join_discipline),
    (LintRule::CprWorkerTails, rule_cpr_worker_tails),
    (LintRule::Shadowing, rule_shadowing),
    (LintRule::UnreachableAlt, rule_unreachable_alt),
    (LintRule::StrictLetWidth, rule_strict_let_width),
];

/// Runs every lint rule over the program.
pub fn lint_program(env: &TypeEnv, prog: &Program) -> LintReport {
    let mut report = LintReport::default();
    for (_, rule) in RULES {
        rule(env, prog, &mut report);
    }
    report
}

/// The stem of a possibly-freshened name: `$j'3` → `$j`, `go` → `go`.
fn stem(name: Symbol) -> &'static str {
    let s = name.as_str();
    s.split_once('\'').map_or(s, |(stem, _)| stem)
}

fn is_join_name(name: Symbol) -> bool {
    stem(name).starts_with("$j")
}

fn is_worker_name(name: Symbol) -> bool {
    stem(name).starts_with("$w")
}

// --- levity ----------------------------------------------------------

fn rule_levity(env: &TypeEnv, prog: &Program, report: &mut LintReport) {
    let diags = check_program_levity(env, prog);
    for d in diags.iter() {
        let program = Symbol::intern("<program>");
        match d.severity {
            Severity::Error => report.error(LintRule::Levity, program, d.message.clone()),
            Severity::Warning => report.warn(LintRule::Levity, program, d.message.clone()),
        }
    }
}

// --- join discipline -------------------------------------------------

fn rule_join_discipline(_env: &TypeEnv, prog: &Program, report: &mut LintReport) {
    for bind in &prog.bindings {
        check_joins(&bind.expr, bind.name, report);
    }
}

/// Finds every `$j` let and asks *lowering's own* predicate
/// ([`crate::lower::is_join_let`]) whether it satisfies the jump
/// discipline — join uses saturated, in tail position only, never
/// captured. A let that fails the predicate is still legal Core:
/// lowering demotes it to an ordinary closure, trading the goto for a
/// heap allocation. So the finding is a warning (a missed jump), not
/// an error, and lint agrees with the code generator by construction.
fn check_joins(e: &CoreExpr, binding: Symbol, report: &mut LintReport) {
    if let CoreExpr::Let(_, x, _, rhs, body) = e {
        if is_join_name(*x) {
            if let Some(arity) = crate::lower::lam_chain_arity(rhs) {
                if !crate::lower::is_join_let(*x, arity, body) {
                    report.warn(
                        LintRule::JoinDiscipline,
                        binding,
                        format!(
                            "join point `{x}` does not satisfy the jump \
                             discipline; it lowers as a closure"
                        ),
                    );
                }
            }
        }
    }
    e.for_each_child(|c| check_joins(c, binding, report));
}

// --- CPR worker tails ------------------------------------------------

/// The result type at the end of a binding's λ/∀ spine.
fn result_type(mut ty: &Type) -> &Type {
    loop {
        match ty {
            Type::Fun(_, r) => ty = r,
            Type::ForallTy(_, _, r) | Type::ForallRep(_, r) => ty = r,
            _ => return ty,
        }
    }
}

fn rule_cpr_worker_tails(_env: &TypeEnv, prog: &Program, report: &mut LintReport) {
    for bind in &prog.bindings {
        if !is_worker_name(bind.name) {
            continue;
        }
        if !matches!(result_type(&bind.ty), Type::UnboxedTuple(_)) {
            continue;
        }
        // Peel the worker's λ preamble, then walk its tails.
        let mut body = &bind.expr;
        while let CoreExpr::Lam(_, _, b) | CoreExpr::TyLam(_, _, b) | CoreExpr::RepLam(_, b) = body
        {
            body = b;
        }
        check_cpr_tails(body, bind.name, report);
    }
}

/// Tail positions of a CPR worker body must produce the unboxed tuple
/// directly — a boxed constructor there is the allocation CPR exists
/// to remove, and a λ there means the arity analysis lied.
fn check_cpr_tails(e: &CoreExpr, binding: Symbol, report: &mut LintReport) {
    match e {
        CoreExpr::Con(con, _, _) => {
            report.error(
                LintRule::CprWorkerTails,
                binding,
                format!("CPR worker tail-allocates boxed constructor `{}`", con.name),
            );
        }
        CoreExpr::Lam(..) => {
            report.error(
                LintRule::CprWorkerTails,
                binding,
                "CPR worker returns a λ from a tail position".to_owned(),
            );
        }
        CoreExpr::Let(_, _, _, _, body) => check_cpr_tails(body, binding, report),
        CoreExpr::Case(_, alts) => {
            for alt in alts {
                check_cpr_tails(alt.rhs(), binding, report);
            }
        }
        CoreExpr::TyLam(_, _, body) | CoreExpr::RepLam(_, body) => {
            check_cpr_tails(body, binding, report);
        }
        // Tuples, jumps, calls, literals, errors: all legitimate tails.
        _ => {}
    }
}

// --- shadowing -------------------------------------------------------

fn alt_binders(alt: &CoreAlt) -> &[(Symbol, Type)] {
    match alt {
        CoreAlt::Con { binders, .. } | CoreAlt::Tuple { binders, .. } => binders,
        CoreAlt::Default {
            binder: Some(b), ..
        } => std::slice::from_ref(b),
        CoreAlt::Lit { .. } | CoreAlt::Default { binder: None, .. } => &[],
    }
}

fn rule_shadowing(_env: &TypeEnv, prog: &Program, report: &mut LintReport) {
    for bind in &prog.bindings {
        let mut scope: HashMap<Symbol, usize> = HashMap::new();
        check_shadowing(&bind.expr, &mut scope, bind.name, report);
    }
}

/// One binder list (λ-chain params arrive one at a time; alternative
/// binders arrive as a group): duplicates within the group are errors,
/// hiding an outer binder is a warning.
fn enter_binders(
    group: &[Symbol],
    scope: &mut HashMap<Symbol, usize>,
    binding: Symbol,
    report: &mut LintReport,
) {
    for (i, x) in group.iter().enumerate() {
        if group[..i].contains(x) {
            report.error(
                LintRule::Shadowing,
                binding,
                format!("binder `{x}` appears twice in one binder list"),
            );
        }
        if scope.contains_key(x) {
            report.warn(
                LintRule::Shadowing,
                binding,
                format!("binder `{x}` shadows an outer binder"),
            );
        }
        *scope.entry(*x).or_insert(0) += 1;
    }
}

fn exit_binders(group: &[Symbol], scope: &mut HashMap<Symbol, usize>) {
    for x in group {
        match scope.get_mut(x) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                scope.remove(x);
            }
        }
    }
}

fn check_shadowing(
    e: &CoreExpr,
    scope: &mut HashMap<Symbol, usize>,
    binding: Symbol,
    report: &mut LintReport,
) {
    match e {
        CoreExpr::Lam(x, _, body) => {
            enter_binders(&[*x], scope, binding, report);
            check_shadowing(body, scope, binding, report);
            exit_binders(&[*x], scope);
        }
        CoreExpr::Let(kind, x, _, rhs, body) => {
            let recursive = matches!(kind, levity_ir::terms::LetKind::Rec);
            if recursive {
                enter_binders(&[*x], scope, binding, report);
            }
            check_shadowing(rhs, scope, binding, report);
            if !recursive {
                enter_binders(&[*x], scope, binding, report);
            }
            check_shadowing(body, scope, binding, report);
            exit_binders(&[*x], scope);
        }
        CoreExpr::Case(scrut, alts) => {
            check_shadowing(scrut, scope, binding, report);
            for alt in alts {
                let group: Vec<Symbol> = alt_binders(alt).iter().map(|(x, _)| *x).collect();
                enter_binders(&group, scope, binding, report);
                check_shadowing(alt.rhs(), scope, binding, report);
                exit_binders(&group, scope);
            }
        }
        CoreExpr::App(f, a) => {
            check_shadowing(f, scope, binding, report);
            check_shadowing(a, scope, binding, report);
        }
        CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) => {
            check_shadowing(f, scope, binding, report);
        }
        CoreExpr::TyLam(_, _, body) | CoreExpr::RepLam(_, body) => {
            check_shadowing(body, scope, binding, report);
        }
        CoreExpr::Con(_, _, args) | CoreExpr::Prim(_, args) | CoreExpr::Tuple(args) => {
            for a in args {
                check_shadowing(a, scope, binding, report);
            }
        }
        CoreExpr::Var(_) | CoreExpr::Global(_) | CoreExpr::Lit(_) | CoreExpr::Error(..) => {}
    }
}

// --- unreachable alternatives ----------------------------------------

fn rule_unreachable_alt(_env: &TypeEnv, prog: &Program, report: &mut LintReport) {
    for bind in &prog.bindings {
        check_alts(&bind.expr, bind.name, report);
    }
}

fn check_alts(e: &CoreExpr, binding: Symbol, report: &mut LintReport) {
    if let CoreExpr::Case(_, alts) = e {
        let mut seen_default = false;
        let mut seen_cons: Vec<Symbol> = Vec::new();
        let mut seen_lits = Vec::new();
        for alt in alts {
            if seen_default {
                report.error(
                    LintRule::UnreachableAlt,
                    binding,
                    "alternative after a default can never match".to_owned(),
                );
            }
            match alt {
                CoreAlt::Con { con, .. } => {
                    if seen_cons.contains(&con.name) {
                        report.error(
                            LintRule::UnreachableAlt,
                            binding,
                            format!("duplicate alternative for constructor `{}`", con.name),
                        );
                    }
                    seen_cons.push(con.name);
                }
                CoreAlt::Lit { lit, .. } => {
                    if seen_lits.contains(lit) {
                        report.error(
                            LintRule::UnreachableAlt,
                            binding,
                            format!("duplicate alternative for literal `{lit}`"),
                        );
                    }
                    seen_lits.push(*lit);
                }
                CoreAlt::Tuple { .. } => {}
                CoreAlt::Default { .. } => seen_default = true,
            }
        }
    }
    e.for_each_child(|c| check_alts(c, binding, report));
}

// --- strict-let width ------------------------------------------------

fn rule_strict_let_width(_env: &TypeEnv, prog: &Program, report: &mut LintReport) {
    for bind in &prog.bindings {
        check_let_width(&bind.expr, bind.name, report);
    }
}

/// Multi-value binders are legal — lowering *unarises* a tuple-typed
/// `let`/λ into one machine binder per register slot (§2.3 made
/// executable) — but only when the width is statically known. This
/// rule rejects the two shapes unarisation cannot give a register
/// layout:
///
/// * a **recursive** let of unboxed-tuple type: `let rec` becomes a
///   cyclic heap thunk, and a multi-value cannot be thunked (the
///   typechecker rejects this as `RecBinderNotLifted`; re-checked here
///   because optimizer passes rebuild lets wholesale);
/// * a tuple binder whose type still mentions **rep variables**: its
///   per-class width is unknown, so there is no frame shape to assign.
fn check_let_width(e: &CoreExpr, binding: Symbol, report: &mut LintReport) {
    match e {
        CoreExpr::Let(LetKind::Rec, x, Type::UnboxedTuple(_), _, _) => {
            report.error(
                LintRule::StrictLetWidth,
                binding,
                format!(
                    "`{x}` binds an unboxed tuple recursively; \
                     a multi-value cannot be a cyclic thunk"
                ),
            );
        }
        CoreExpr::Let(_, x, ty @ Type::UnboxedTuple(_), _, _)
        | CoreExpr::Lam(x, ty @ Type::UnboxedTuple(_), _)
            if !ty.free_rep_vars().is_empty() =>
        {
            report.error(
                LintRule::StrictLetWidth,
                binding,
                format!(
                    "`{x}`'s unboxed-tuple type `{ty}` has no fixed width \
                     (free rep variables)"
                ),
            );
        }
        _ => {}
    }
    e.for_each_child(|c| check_let_width(c, binding, report));
}

#[cfg(test)]
mod tests {
    use super::*;
    use levity_core::kind::Kind;
    use levity_ir::terms::{LetKind, TopBind};

    fn env() -> TypeEnv {
        TypeEnv::new()
    }

    fn program_with(name: &str, ty: Type, expr: CoreExpr) -> Program {
        let e = env();
        Program {
            data_decls: e.builtins.data_decls.clone(),
            bindings: vec![TopBind {
                name: name.into(),
                ty,
                expr,
            }
            .into()],
        }
    }

    fn int_hash() -> Type {
        Type::con0(&env().builtins.int_hash)
    }

    #[test]
    fn a_clean_program_lints_clean() {
        let prog = program_with("main", int_hash(), CoreExpr::int(42));
        let report = lint_program(&env(), &prog);
        assert!(report.is_clean(), "{report}");
        assert!(report.warnings.is_empty(), "{report}");
    }

    #[test]
    fn a_levity_polymorphic_binder_is_a_levity_error() {
        // f = Λr (a :: TYPE r). λ(x :: a). x — well-typed Core whose
        // binder has no register class (§5.1, restriction 1).
        let r: Symbol = "r".into();
        let a = Type::Var("a".into());
        let ty = Type::forall_rep(
            r,
            Type::forall_ty("a", Kind::of_rep_var(r), Type::fun(a.clone(), a.clone())),
        );
        let expr = CoreExpr::rep_lam(
            r,
            CoreExpr::ty_lam(
                "a",
                Kind::of_rep_var(r),
                CoreExpr::lam("x", a, CoreExpr::Var("x".into())),
            ),
        );
        let report = lint_program(&env(), &program_with("f", ty, expr));
        assert!(
            report
                .errors
                .iter()
                .any(|l| l.rule == LintRule::Levity && l.message.contains("binder `x`")),
            "{report}"
        );
    }

    #[test]
    fn join_escaping_into_an_argument_is_flagged() {
        // let $j = λx. x in f $j — the join is passed, not jumped.
        let ih = int_hash();
        let body = CoreExpr::app(CoreExpr::Global("f".into()), CoreExpr::Var("$j".into()));
        let expr = CoreExpr::Let(
            LetKind::NonRec,
            "$j".into(),
            Type::fun(ih.clone(), ih.clone()),
            Box::new(CoreExpr::lam("x", ih.clone(), CoreExpr::Var("x".into()))),
            Box::new(body),
        );
        let prog = program_with("main", ih, expr);
        let report = lint_program(&env(), &prog);
        assert!(report.is_clean(), "a demoted join is legal Core: {report}");
        assert!(report
            .warnings
            .iter()
            .any(|l| l.rule == LintRule::JoinDiscipline));
    }

    #[test]
    fn unsaturated_tail_jump_is_flagged() {
        // let $j = λx. x in $j — a tail occurrence, but 0 of 1 args.
        let ih = int_hash();
        let expr = CoreExpr::Let(
            LetKind::NonRec,
            "$j".into(),
            Type::fun(ih.clone(), ih.clone()),
            Box::new(CoreExpr::lam("x", ih.clone(), CoreExpr::Var("x".into()))),
            Box::new(CoreExpr::Var("$j".into())),
        );
        let prog = program_with("main", Type::fun(ih.clone(), ih), expr);
        let report = lint_program(&env(), &prog);
        assert!(report
            .warnings
            .iter()
            .any(|l| l.rule == LintRule::JoinDiscipline));
    }

    #[test]
    fn saturated_tail_jump_is_clean() {
        // let $j = λx. x in case v of 0# -> $j 1#; _ -> $j 2#
        let ih = int_hash();
        let expr = CoreExpr::Let(
            LetKind::NonRec,
            "$j".into(),
            Type::fun(ih.clone(), ih.clone()),
            Box::new(CoreExpr::lam("x", ih.clone(), CoreExpr::Var("x".into()))),
            Box::new(CoreExpr::case(
                CoreExpr::int(0),
                vec![
                    CoreAlt::Lit {
                        lit: levity_m::syntax::Literal::Int(0),
                        rhs: CoreExpr::app(CoreExpr::Var("$j".into()), CoreExpr::int(1)),
                    },
                    CoreAlt::Default {
                        binder: None,
                        rhs: CoreExpr::app(CoreExpr::Var("$j".into()), CoreExpr::int(2)),
                    },
                ],
            )),
        );
        let prog = program_with("main", ih, expr);
        let report = lint_program(&env(), &prog);
        assert!(report.is_clean(), "{report}");
        assert!(report.warnings.is_empty(), "{report}");
    }

    #[test]
    fn cpr_worker_tail_allocating_a_box_is_flagged() {
        // $wf :: Int# -> (# Int# #) returning I# 1# in a tail.
        let e = env();
        let ih = int_hash();
        let expr = CoreExpr::lam(
            "x",
            ih.clone(),
            CoreExpr::Con(
                std::sync::Arc::clone(&e.builtins.i_hash),
                vec![],
                vec![CoreExpr::int(1)],
            ),
        );
        let prog = program_with(
            "$wf",
            Type::fun(ih.clone(), Type::UnboxedTuple(vec![ih])),
            expr,
        );
        let report = lint_program(&env(), &prog);
        assert!(report
            .errors
            .iter()
            .any(|l| l.rule == LintRule::CprWorkerTails));
    }

    #[test]
    fn duplicate_alt_binders_are_an_error_and_shadowing_a_warning() {
        let e = env();
        let int = Type::con0(&e.builtins.int);
        let ih = int_hash();
        // λn. case n of I# n' -> case n of I# n' -> 0#   (warning)
        // plus a duplicate binder list via Con binders [k, k] (error).
        let expr = CoreExpr::lam(
            "n",
            int.clone(),
            CoreExpr::case(
                CoreExpr::Var("n".into()),
                vec![CoreAlt::Con {
                    con: std::sync::Arc::clone(&e.builtins.i_hash),
                    binders: vec![("k".into(), ih.clone()), ("k".into(), ih.clone())],
                    rhs: CoreExpr::int(0),
                }],
            ),
        );
        let prog = program_with("f", Type::fun(int, ih), expr);
        let report = lint_program(&env(), &prog);
        assert!(report.errors.iter().any(|l| l.rule == LintRule::Shadowing));
    }

    #[test]
    fn alternatives_after_a_default_are_unreachable() {
        let ih = int_hash();
        let expr = CoreExpr::case(
            CoreExpr::int(0),
            vec![
                CoreAlt::Default {
                    binder: None,
                    rhs: CoreExpr::int(1),
                },
                CoreAlt::Lit {
                    lit: levity_m::syntax::Literal::Int(0),
                    rhs: CoreExpr::int(2),
                },
            ],
        );
        let prog = program_with("main", ih, expr);
        let report = lint_program(&env(), &prog);
        assert!(report
            .errors
            .iter()
            .any(|l| l.rule == LintRule::UnreachableAlt));
    }

    #[test]
    fn a_recursive_let_of_an_unboxed_tuple_is_flagged() {
        let ih = int_hash();
        let tup = Type::UnboxedTuple(vec![ih.clone(), ih.clone()]);
        let expr = CoreExpr::Let(
            LetKind::Rec,
            "t".into(),
            tup,
            Box::new(CoreExpr::Tuple(vec![CoreExpr::int(1), CoreExpr::int(2)])),
            Box::new(CoreExpr::int(0)),
        );
        let prog = program_with("main", ih, expr);
        let report = lint_program(&env(), &prog);
        assert!(report
            .errors
            .iter()
            .any(|l| l.rule == LintRule::StrictLetWidth));
    }

    #[test]
    fn an_ordinary_tuple_binder_is_legal() {
        // §2.3: functions take unboxed tuples by value (unarised into
        // registers), and a non-recursive tuple let unpacks via
        // case-of-multi. Neither is a width violation.
        let ih = int_hash();
        let tup = Type::UnboxedTuple(vec![ih.clone(), ih.clone()]);
        let expr = CoreExpr::Let(
            LetKind::NonRec,
            "t".into(),
            tup.clone(),
            Box::new(CoreExpr::Tuple(vec![CoreExpr::int(1), CoreExpr::int(2)])),
            Box::new(CoreExpr::lam("u", tup, CoreExpr::int(0))),
        );
        let prog = program_with("main", ih, expr);
        let report = lint_program(&env(), &prog);
        assert!(
            !report
                .errors
                .iter()
                .any(|l| l.rule == LintRule::StrictLetWidth),
            "{report}"
        );
    }
}
