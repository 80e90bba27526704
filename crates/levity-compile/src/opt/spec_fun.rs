//! Call-site specialisation of constrained *functions* — GHC's
//! `SPECIALISE`, driven automatically from call sites.
//!
//! [`specialise`](super::specialise) refunds the §7.3 dictionary cost
//! only where a selector is applied to a statically known dictionary
//! *directly*. A constrained function such as
//!
//! ```text
//! square :: Num a => a -> a          -- Core: Λa. λ(d :: Num a). λx. …
//! ```
//!
//! re-abstracts the dictionary: every call `square @Int $dNum_Int x`
//! pays the full dictionary walk inside `square`'s body, where `d` is a
//! λ-bound variable and nothing is statically known. This pass closes
//! that gap. For each top-level binding whose type has the elaborated
//! constrained shape
//!
//! ```text
//! ∀ r*. ∀ a*. C₁ τ₁ -> … -> Cₘ τₘ -> rest        (m ≥ 1)
//! ```
//!
//! it collects, from every call site in the program, the *statically
//! known dictionary tuples* flowing in — spines
//! `f @ρ… @τ… $d₁ … $dₘ …` whose representation arguments are concrete,
//! whose type arguments are closed, and whose dictionary arguments are
//! top-level dictionary globals — and emits one monomorphised clone per
//! distinct tuple:
//!
//! ```text
//! $ssquare@Int :: Int -> Int = λx. (*) @Int $dNum_Int x x
//! ```
//!
//! with the type/rep arguments substituted and the dictionary λs
//! dropped (each dictionary variable replaced by its global). Call
//! sites are rewritten to the clones. Discovery iterates: a clone's
//! body may itself contain newly concrete constrained calls (`square`
//! calling a constrained helper, mutually recursive constrained
//! functions calling each other), so each discovery round re-scans the
//! clones made by the last one, up to a bounded depth.
//!
//! The clone bodies then flow through the ordinary pipeline —
//! dictionary specialisation turns their projections into direct
//! instance-method calls, the simplifier inlines and cleans up, and
//! worker/wrapper unboxes their arguments — so a specialised clone ends
//! up exactly as fast as a hand-monomorphised function. The originals
//! are left in place; the simplifier's walk from the entry points (see
//! [`usage`](super::usage)) drops the unreachable ones afterwards.
//!
//! Dropping a dictionary λ is outcome-exact: a dictionary is a lifted
//! record whose evaluation builds a constructor of instance-method
//! globals, so replacing the lazily bound variable with the global
//! itself preserves every observable (the same projection forces the
//! same fields in the same order; only sharing of the dictionary
//! closure differs, and dictionary construction cannot abort before
//! its strict fields — which evaluate identically at either binding).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use levity_core::rep::RepTy;
use levity_core::symbol::Symbol;
use levity_ir::terms::{CoreAlt, CoreExpr, Program, TopBind};
use levity_ir::types::Type;

use super::inline::{flatten_spine, SpinePart};
use super::specialise::recognize_selector;
use super::subst::{strip_erased, subst_rep_expr, subst_ty_expr, substitute};

/// Bound on discovery rounds: each round may only specialise calls
/// found inside clones created by the previous one, so this caps the
/// depth of constrained call *chains* that propagate (and cuts off
/// constrained polymorphic recursion at ever-growing types).
const DISCOVERY_ROUNDS: usize = 5;

/// Hard cap on clones per pass invocation — a backstop far above any
/// realistic program, so a pathological call graph cannot blow up the
/// binding list.
const MAX_CLONES: usize = 256;

/// One quantifier of a candidate's prefix, with the binder names used
/// on the type side and on the expression side (elaboration keeps them
/// equal, but the pass only relies on the *sorts* lining up).
enum Quant {
    Rep { ty_name: Symbol, expr_name: Symbol },
    Ty { ty_name: Symbol, expr_name: Symbol },
}

/// A specialisable binding: `∀ r*. ∀ a*. C₁ τ₁ -> … -> Cₘ τₘ -> rest`,
/// whose expression mirrors the prefix with Λ/λ binders.
struct Candidate {
    quants: Vec<Quant>,
    /// The expression-side dictionary binder names, in order.
    dict_binders: Vec<Symbol>,
}

/// The type/rep/dictionary arguments of one specialisable call site.
struct SpecArgs {
    reps: Vec<(Symbol, RepTy)>,
    tys: Vec<(Symbol, Type)>,
    dicts: Vec<Symbol>,
}

impl SpecArgs {
    /// A stable identity for the tuple (types render deterministically).
    fn key(&self, target: Symbol) -> String {
        use std::fmt::Write;
        let mut k = format!("{target}");
        for (_, r) in &self.reps {
            let _ = write!(k, "|{r}");
        }
        for (_, t) in &self.tys {
            let _ = write!(k, "|{t}");
        }
        for d in &self.dicts {
            let _ = write!(k, "|{d}");
        }
        k
    }
}

/// A clone being built this invocation (the persistent key → name map
/// lives in the caller's cache; see [`specialise_functions`]).
struct CloneSpec {
    name: Symbol,
    args: SpecArgs,
}

/// Recognizes a specialisable binding. Selectors are excluded — they
/// have the constrained shape too, but the dictionary-projection pass
/// already rewrites their applications in place, and cloning them would
/// only churn names.
fn recognize_candidate(bind: &TopBind) -> Option<Candidate> {
    if recognize_selector(&bind.expr).is_some() {
        return None;
    }
    let mut quant_tys: Vec<(bool, Symbol)> = Vec::new(); // (is_rep, name)
    let mut ty = &bind.ty;
    loop {
        match ty {
            Type::ForallRep(r, body) => {
                quant_tys.push((true, *r));
                ty = body;
            }
            Type::ForallTy(a, _, body) => {
                quant_tys.push((false, *a));
                ty = body;
            }
            _ => break,
        }
    }
    let mut dict_count = 0usize;
    while let Type::Fun(dom, cod) = ty {
        if !matches!(**dom, Type::Dict(..)) {
            break;
        }
        dict_count += 1;
        ty = cod;
    }
    if dict_count == 0 {
        return None;
    }
    // The expression must mirror the prefix binder-for-binder.
    let mut quants = Vec::with_capacity(quant_tys.len());
    let mut expr = &bind.expr;
    for (is_rep, ty_name) in &quant_tys {
        match (is_rep, expr) {
            (true, CoreExpr::RepLam(r, body)) => {
                quants.push(Quant::Rep {
                    ty_name: *ty_name,
                    expr_name: *r,
                });
                expr = body;
            }
            (false, CoreExpr::TyLam(a, _, body)) => {
                quants.push(Quant::Ty {
                    ty_name: *ty_name,
                    expr_name: *a,
                });
                expr = body;
            }
            _ => return None,
        }
    }
    let mut dict_binders = Vec::with_capacity(dict_count);
    for _ in 0..dict_count {
        let CoreExpr::Lam(d, Type::Dict(..), body) = expr else {
            return None;
        };
        dict_binders.push(*d);
        expr = body;
    }
    Some(Candidate {
        quants,
        dict_binders,
    })
}

/// Tries to read a specialisable prefix off a call spine: one concrete
/// rep / closed type argument per quantifier, then one top-level
/// dictionary global per dictionary binder.
fn match_prefix(
    cand: &Candidate,
    parts: &[SpinePart],
    dict_globals: &HashSet<Symbol>,
) -> Option<SpecArgs> {
    let prefix_len = cand.quants.len() + cand.dict_binders.len();
    if parts.len() < prefix_len {
        return None;
    }
    let mut reps = Vec::new();
    let mut tys = Vec::new();
    let mut it = parts.iter();
    for q in &cand.quants {
        match (q, it.next()?) {
            (Quant::Rep { expr_name, .. }, SpinePart::Rep(r)) => {
                if !r.free_vars().is_empty() {
                    return None;
                }
                reps.push((*expr_name, r.clone()));
            }
            (Quant::Ty { expr_name, .. }, SpinePart::Ty(t)) => {
                if !t.free_ty_vars().is_empty() || !t.free_rep_vars().is_empty() {
                    return None;
                }
                tys.push((*expr_name, t.clone()));
            }
            _ => return None,
        }
    }
    let mut dicts = Vec::new();
    for _ in &cand.dict_binders {
        let SpinePart::Term(e) = it.next()? else {
            return None;
        };
        let CoreExpr::Global(g) = strip_erased(e) else {
            return None;
        };
        if !dict_globals.contains(g) {
            return None;
        }
        dicts.push(*g);
    }
    Some(SpecArgs { reps, tys, dicts })
}

/// Builds the monomorphised clone of `bind` at the given arguments.
fn build_clone(bind: &TopBind, cand: &Candidate, spec: &CloneSpec) -> TopBind {
    // Type: peel the quantifiers and dictionary domains, substitute.
    let mut ty = &bind.ty;
    let mut ty_substs: Vec<(Symbol, Result<&Type, &RepTy>)> = Vec::new();
    {
        let mut rep_it = spec.args.reps.iter();
        let mut ty_it = spec.args.tys.iter();
        for q in &cand.quants {
            match (q, ty) {
                (Quant::Rep { ty_name, .. }, Type::ForallRep(_, body)) => {
                    let (_, r) = rep_it.next().expect("rep arity checked");
                    ty_substs.push((*ty_name, Err(r)));
                    ty = body;
                }
                (Quant::Ty { ty_name, .. }, Type::ForallTy(_, _, body)) => {
                    let (_, t) = ty_it.next().expect("ty arity checked");
                    ty_substs.push((*ty_name, Ok(t)));
                    ty = body;
                }
                _ => unreachable!("candidate shape re-checked this pass"),
            }
        }
    }
    for _ in &cand.dict_binders {
        let Type::Fun(_, cod) = ty else {
            unreachable!("candidate shape re-checked this pass")
        };
        ty = cod;
    }
    let mut clone_ty = ty.clone();
    for (name, arg) in &ty_substs {
        clone_ty = match arg {
            Ok(t) => clone_ty.subst_ty(*name, t),
            Err(r) => clone_ty.subst_rep(*name, r),
        };
    }

    // Expression: peel the Λ/λ prefix, substitute reps and types into
    // the remaining body, then replace each dictionary variable with
    // its global (capture-avoiding; the body is α-refreshed).
    let mut expr = &bind.expr;
    for q in &cand.quants {
        expr = match (q, expr) {
            (Quant::Rep { .. }, CoreExpr::RepLam(_, body))
            | (Quant::Ty { .. }, CoreExpr::TyLam(_, _, body)) => body,
            _ => unreachable!("candidate shape re-checked this pass"),
        };
    }
    for _ in &cand.dict_binders {
        let CoreExpr::Lam(_, _, body) = expr else {
            unreachable!("candidate shape re-checked this pass")
        };
        expr = body;
    }
    let mut body = expr.clone();
    for (name, r) in &spec.args.reps {
        body = subst_rep_expr(&body, *name, r);
    }
    for (name, t) in &spec.args.tys {
        body = subst_ty_expr(&body, *name, t);
    }
    let dict_map: HashMap<Symbol, CoreExpr> = cand
        .dict_binders
        .iter()
        .zip(&spec.args.dicts)
        .map(|(d, g)| (*d, CoreExpr::Global(*g)))
        .collect();
    body = substitute(&body, &dict_map);

    TopBind {
        name: spec.name,
        ty: clone_ty,
        expr: body,
    }
}

/// Derives a readable, unique clone name: `$s<fn>@<ty>…`, suffixed with
/// a counter on collision.
fn clone_name(target: Symbol, args: &SpecArgs, taken: &HashSet<Symbol>) -> Symbol {
    use std::fmt::Write;
    let mut base = format!("$s{target}");
    for (_, r) in &args.reps {
        let _ = write!(base, "@{r}");
    }
    for (_, t) in &args.tys {
        let _ = write!(base, "@{t}");
    }
    let mut name = Symbol::intern(&base);
    let mut n = 1usize;
    while taken.contains(&name) {
        name = Symbol::intern(&format!("{base}_{n}"));
        n += 1;
    }
    name
}

/// Collects the keys of every specialisable call site in `e` that is
/// not yet scheduled.
fn scan(
    e: &CoreExpr,
    candidates: &HashMap<Symbol, Candidate>,
    dict_globals: &HashSet<Symbol>,
    clones: &HashMap<String, Symbol>,
    found: &mut Vec<(Symbol, SpecArgs)>,
) {
    if matches!(
        e,
        CoreExpr::App(..) | CoreExpr::TyApp(..) | CoreExpr::RepApp(..)
    ) {
        let (head, parts) = flatten_spine(e);
        if let CoreExpr::Global(f) = head {
            if let Some(cand) = candidates.get(f) {
                if let Some(args) = match_prefix(cand, &parts, dict_globals) {
                    let key = args.key(*f);
                    if !clones.contains_key(&key) && !found.iter().any(|(g, a)| a.key(*g) == key) {
                        found.push((*f, args));
                    }
                }
            }
        }
    }
    match e {
        CoreExpr::Var(_) | CoreExpr::Global(_) | CoreExpr::Lit(_) | CoreExpr::Error(..) => {}
        CoreExpr::App(f, a) => {
            scan(f, candidates, dict_globals, clones, found);
            scan(a, candidates, dict_globals, clones, found);
        }
        CoreExpr::TyApp(f, _) | CoreExpr::RepApp(f, _) => {
            scan(f, candidates, dict_globals, clones, found);
        }
        CoreExpr::Lam(_, _, b) | CoreExpr::TyLam(_, _, b) | CoreExpr::RepLam(_, b) => {
            scan(b, candidates, dict_globals, clones, found);
        }
        CoreExpr::Let(_, _, _, rhs, body) => {
            scan(rhs, candidates, dict_globals, clones, found);
            scan(body, candidates, dict_globals, clones, found);
        }
        CoreExpr::Case(scrut, alts) => {
            scan(scrut, candidates, dict_globals, clones, found);
            for alt in alts {
                scan(alt.rhs(), candidates, dict_globals, clones, found);
            }
        }
        CoreExpr::Con(_, _, fields) => fields
            .iter()
            .for_each(|f| scan(f, candidates, dict_globals, clones, found)),
        CoreExpr::Prim(_, args) | CoreExpr::Tuple(args) => args
            .iter()
            .for_each(|a| scan(a, candidates, dict_globals, clones, found)),
    }
}

/// Rewrites every specialisable call site to its clone.
fn redirect(
    e: &CoreExpr,
    candidates: &HashMap<Symbol, Candidate>,
    dict_globals: &HashSet<Symbol>,
    clones: &HashMap<String, Symbol>,
    count: &mut usize,
) -> CoreExpr {
    let again =
        |e: &CoreExpr, count: &mut usize| redirect(e, candidates, dict_globals, clones, count);
    if matches!(
        e,
        CoreExpr::App(..) | CoreExpr::TyApp(..) | CoreExpr::RepApp(..)
    ) {
        let (head, parts) = flatten_spine(e);
        if let CoreExpr::Global(f) = head {
            if let Some(cand) = candidates.get(f) {
                if let Some(args) = match_prefix(cand, &parts, dict_globals) {
                    if let Some(clone) = clones.get(&args.key(*f)) {
                        *count += 1;
                        let prefix_len = cand.quants.len() + cand.dict_binders.len();
                        let mut out = CoreExpr::Global(*clone);
                        for part in &parts[prefix_len..] {
                            out = match part {
                                SpinePart::Term(a) => CoreExpr::app(out, again(a, count)),
                                SpinePart::Ty(t) => CoreExpr::ty_app(out, t.clone()),
                                SpinePart::Rep(r) => CoreExpr::rep_app(out, r.clone()),
                            };
                        }
                        return out;
                    }
                }
            }
        }
    }
    match e {
        CoreExpr::Var(_) | CoreExpr::Global(_) | CoreExpr::Lit(_) | CoreExpr::Error(..) => {
            e.clone()
        }
        CoreExpr::App(f, a) => CoreExpr::app(again(f, count), again(a, count)),
        CoreExpr::TyApp(f, t) => CoreExpr::ty_app(again(f, count), t.clone()),
        CoreExpr::RepApp(f, r) => CoreExpr::rep_app(again(f, count), r.clone()),
        CoreExpr::Lam(x, t, b) => CoreExpr::lam(*x, t.clone(), again(b, count)),
        CoreExpr::TyLam(a, k, b) => CoreExpr::ty_lam(*a, k.clone(), again(b, count)),
        CoreExpr::RepLam(r, b) => CoreExpr::rep_lam(*r, again(b, count)),
        CoreExpr::Let(kind, x, t, rhs, body) => CoreExpr::Let(
            *kind,
            *x,
            t.clone(),
            Box::new(again(rhs, count)),
            Box::new(again(body, count)),
        ),
        CoreExpr::Case(scrut, alts) => CoreExpr::Case(
            Box::new(again(scrut, count)),
            alts.iter()
                .map(|alt| match alt {
                    CoreAlt::Con { con, binders, rhs } => CoreAlt::Con {
                        con: std::sync::Arc::clone(con),
                        binders: binders.clone(),
                        rhs: again(rhs, count),
                    },
                    CoreAlt::Lit { lit, rhs } => CoreAlt::Lit {
                        lit: *lit,
                        rhs: again(rhs, count),
                    },
                    CoreAlt::Tuple { binders, rhs } => CoreAlt::Tuple {
                        binders: binders.clone(),
                        rhs: again(rhs, count),
                    },
                    CoreAlt::Default { binder, rhs } => CoreAlt::Default {
                        binder: binder.clone(),
                        rhs: again(rhs, count),
                    },
                })
                .collect(),
        ),
        CoreExpr::Con(con, ty_args, fields) => CoreExpr::Con(
            std::sync::Arc::clone(con),
            ty_args.clone(),
            fields.iter().map(|f| again(f, count)).collect(),
        ),
        CoreExpr::Prim(op, args) => {
            CoreExpr::Prim(*op, args.iter().map(|a| again(a, count)).collect())
        }
        CoreExpr::Tuple(args) => CoreExpr::Tuple(args.iter().map(|a| again(a, count)).collect()),
    }
}

/// Runs function specialisation over a whole program. Returns the
/// rewritten program (clones appended after their originals, and each
/// binding with no redirect kept as the same `Arc`), the number of
/// **new** clones created, and the number of call sites redirected.
///
/// `cache` is the persistent key → clone-name map, threaded across the
/// caller's fixed-point rounds: a later round that exposes another
/// call site with an already-specialised tuple (say, after
/// let-of-atom collapsed `let d = $dNum_Int in f @Int d`) redirects it
/// to the *existing* clone instead of minting a duplicate. Entries
/// whose clone `prog` no longer binds are dropped first.
pub fn specialise_functions(
    prog: &Program,
    cache: &mut HashMap<String, Symbol>,
) -> (Program, usize, usize) {
    let mut candidates: HashMap<Symbol, Candidate> = HashMap::new();
    let mut dict_globals: HashSet<Symbol> = HashSet::new();
    let mut taken: HashSet<Symbol> = HashSet::new();
    for b in &prog.bindings {
        taken.insert(b.name);
        if matches!(b.ty, Type::Dict(..)) {
            dict_globals.insert(b.name);
        }
        if let Some(c) = recognize_candidate(b) {
            candidates.insert(b.name, c);
        }
    }
    // The simplifier drops a clone once it has grafted every call: forget
    // it, so a call site that exposes its tuple again mints the clone
    // afresh (under the same name) instead of redirecting to a name the
    // program no longer binds.
    cache.retain(|_, clone| taken.contains(clone));
    if candidates.is_empty() {
        return (prog.clone(), 0, 0);
    }

    let mut bindings = prog.bindings.clone();
    let cached = cache.len();
    // Discovery: round 0 scans the original program; each later round
    // need only scan the clones the previous round appended, since
    // nothing else changed.
    let mut scan_from = 0usize;
    for _ in 0..DISCOVERY_ROUNDS {
        let mut found: Vec<(Symbol, SpecArgs)> = Vec::new();
        for b in &bindings[scan_from..] {
            scan(&b.expr, &candidates, &dict_globals, cache, &mut found);
        }
        scan_from = bindings.len();
        if found.is_empty() || cache.len() >= MAX_CLONES {
            break;
        }
        for (target, args) in found {
            if cache.len() >= MAX_CLONES {
                break;
            }
            let name = clone_name(target, &args, &taken);
            taken.insert(name);
            let spec = CloneSpec { name, args };
            let bind = prog
                .bindings
                .iter()
                .find(|b| b.name == target)
                .expect("candidate came from the program");
            let cand = &candidates[&target];
            bindings.push(Arc::new(build_clone(bind, cand, &spec)));
            cache.insert(spec.args.key(target), spec.name);
        }
    }
    let new_clones = cache.len() - cached;
    if cache.is_empty() {
        return (prog.clone(), 0, 0);
    }

    // Redirection: every matching call site — in originals and clones
    // alike, so recursive and mutually recursive constrained functions
    // call their own clones directly.
    let mut redirected = 0usize;
    let bindings = bindings
        .iter()
        .map(|b| {
            let before = redirected;
            let expr = redirect(&b.expr, &candidates, &dict_globals, cache, &mut redirected);
            super::rebuilt(b, redirected - before, expr)
        })
        .collect();
    (
        Program {
            data_decls: prog.data_decls.clone(),
            bindings,
        },
        new_clones,
        redirected,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use levity_core::kind::Kind;
    use levity_core::rep::Rep;
    use levity_ir::terms::{DataConInfo, TyArg, TyParam};
    use levity_ir::typecheck::{check_program, TypeEnv};

    /// `f :: ∀ (a :: TYPE IntRep). Pick a -> a -> a` (a constrained
    /// identity), the dictionary `$dPick_Int#`, and `use = f @Int#
    /// $dPick_Int# 5#`; with the key of `use`'s call.
    fn constrained_call() -> (Program, String) {
        let env = TypeEnv::new();
        let ih = Type::con0(&env.builtins.int_hash);
        let a: Symbol = "a".into();
        let dict_ty = |t: Type| Type::Dict("Pick".into(), Box::new(t));
        let int_rep = || Kind::of_rep(Rep::Int);

        // data Pick (a :: TYPE IntRep) = MkPick (a -> a)
        let dict_con = Arc::new(DataConInfo {
            name: "MkPick".into(),
            tag: 0,
            params: vec![TyParam::Ty(a, int_rep())],
            field_types: vec![Type::fun(Type::Var(a), Type::Var(a))],
            result: dict_ty(Type::Var(a)),
        });
        let id_int = TopBind {
            name: "idInt".into(),
            ty: Type::fun(ih.clone(), ih.clone()),
            expr: CoreExpr::lam("y", ih.clone(), CoreExpr::Var("y".into())),
        };
        let dict = TopBind {
            name: "$dPick_Int#".into(),
            ty: dict_ty(ih.clone()),
            expr: CoreExpr::Con(
                dict_con,
                vec![TyArg::Ty(ih.clone())],
                vec![CoreExpr::Global("idInt".into())],
            ),
        };
        let f = TopBind {
            name: "f".into(),
            ty: Type::forall_ty(
                a,
                int_rep(),
                Type::fun(dict_ty(Type::Var(a)), Type::fun(Type::Var(a), Type::Var(a))),
            ),
            expr: CoreExpr::ty_lam(
                a,
                int_rep(),
                CoreExpr::lam(
                    "d",
                    dict_ty(Type::Var(a)),
                    CoreExpr::lam("x", Type::Var(a), CoreExpr::Var("x".into())),
                ),
            ),
        };
        let call = CoreExpr::app(
            CoreExpr::app(
                CoreExpr::ty_app(CoreExpr::Global("f".into()), ih.clone()),
                CoreExpr::Global("$dPick_Int#".into()),
            ),
            CoreExpr::int(5),
        );
        let user = TopBind {
            name: "use".into(),
            ty: ih.clone(),
            expr: call,
        };
        let prog = Program {
            data_decls: env.builtins.data_decls.clone(),
            bindings: vec![id_int.into(), dict.into(), f.into(), user.into()],
        };
        check_program(&prog).expect("the input program is well-typed");
        let key = SpecArgs {
            reps: vec![],
            tys: vec![(a, ih)],
            dicts: vec!["$dPick_Int#".into()],
        }
        .key("f".into());
        (prog, key)
    }

    /// A call whose tuple the cache already maps to a bound clone is
    /// redirected to it, and no duplicate is minted.
    #[test]
    fn a_cached_clone_the_program_binds_is_reused() {
        let (prog, key) = constrained_call();
        let mut cache = HashMap::new();
        let (first, clones, calls) = specialise_functions(&prog, &mut cache);
        assert_eq!((clones, calls), (1, 1));
        let clone = cache[&key];
        let (again, clones, _) = specialise_functions(&first, &mut cache);
        assert_eq!(clones, 0, "the bound clone is reused");
        assert_eq!(cache[&key], clone);
        assert_eq!(again.bindings.len(), first.bindings.len());
        check_program(&again).expect("the redirect stays well-typed");
    }

    /// Negative space: once the simplifier has dropped a clone, a cache
    /// entry naming it must not redirect a call to a name the program
    /// no longer binds. The clone is minted again, under that name.
    #[test]
    fn a_cached_clone_the_program_no_longer_binds_is_minted_again() {
        let (prog, key) = constrained_call();
        let dropped: Symbol = "$sf@Int#".into();
        assert!(prog.binding(dropped).is_none());
        let mut cache = HashMap::from([(key.clone(), dropped)]);
        let (out, clones, calls) = specialise_functions(&prog, &mut cache);
        check_program(&out).expect("every redirect names a bound clone");
        assert!(out.binding(dropped).is_some(), "the clone is bound again");
        assert_eq!(cache[&key], dropped, "under the same name");
        assert_eq!((clones, calls), (1, 1));
    }
}
