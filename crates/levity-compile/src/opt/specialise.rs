//! Dictionary specialisation: the §6.2 payoff of knowing every
//! representation statically.
//!
//! Elaboration (§7.3) turns `acc + n` at `Int#` into
//!
//! ```text
//! ((+) @IntRep @Int# $dNum_Int#) acc n
//! ```
//!
//! — a levity-polymorphic *selector* applied to a statically known
//! top-level dictionary. At runtime that costs a dictionary allocation
//! walk and a `case` per call. This pass recognizes both halves purely
//! structurally — no class environment needed, so user-defined classes
//! specialise exactly like the prelude's — and rewrites the projection
//! to the instance method it would select:
//!
//! ```text
//! ($fNum_Int#_+) acc n
//! ```
//!
//! A dictionary that is *not* statically known (a `Num a => …` function
//! receives its dictionary as a λ-bound variable) is left untouched:
//! specialisation is exactly as partial as the information the types
//! provide.

use std::collections::HashMap;
use std::sync::Arc;

use levity_core::symbol::Symbol;
use levity_ir::terms::{CoreAlt, CoreExpr, Program, TopBind};
use levity_ir::types::Type;

use super::subst::{is_atom, strip_erased};

/// A recognized method selector: projects field `index` out of a
/// dictionary built by constructor `con`.
pub(super) struct Selector {
    con: Symbol,
    index: usize,
}

/// A recognized dictionary CAF: `$dC_τ = MkC @… m₁ … mₙ` with every
/// field an atom (instance method globals, by construction — possibly
/// wrapped in erased `@ρ`/`@τ` instantiations when a polymorphic
/// function serves as an instance method directly).
struct DictCaf {
    con: Symbol,
    fields: Vec<CoreExpr>,
}

/// Recognizes `Λr*. Λa. λ(d :: C a). case d of { MkC f₁ … fₙ -> fᵢ }`.
pub(super) fn recognize_selector(expr: &CoreExpr) -> Option<Selector> {
    let mut body = expr;
    while let CoreExpr::RepLam(_, inner) | CoreExpr::TyLam(_, _, inner) = body {
        body = inner;
    }
    let CoreExpr::Lam(d, Type::Dict(..), lam_body) = body else {
        return None;
    };
    let CoreExpr::Case(scrut, alts) = &**lam_body else {
        return None;
    };
    if !matches!(&**scrut, CoreExpr::Var(v) if v == d) || alts.len() != 1 {
        return None;
    }
    let CoreAlt::Con { con, binders, rhs } = &alts[0] else {
        return None;
    };
    let CoreExpr::Var(out) = rhs else {
        return None;
    };
    let index = binders.iter().position(|(b, _)| b == out)?;
    Some(Selector {
        con: con.name,
        index,
    })
}

/// Recognizes `$dC_τ :: C τ = MkC @… f₁ … fₙ` with atomic fields. A
/// field must be an atom *under* its erased type/rep applications —
/// [`is_atom`] sees through them exactly as [`strip_erased`] does for
/// scrutinees, so an instance whose method slot is a rep-applied
/// polymorphic global (`MkC (poly @IntRep @Int#)`) specialises the
/// same as one built from bare method globals. The field is stored
/// *with* its wrappers: the replacement must keep the instantiation to
/// stay well-typed (the wrappers erase at lowering, so the machine
/// code is identical either way).
fn recognize_dict_caf(bind: &TopBind) -> Option<DictCaf> {
    if !matches!(bind.ty, Type::Dict(..)) {
        return None;
    }
    let CoreExpr::Con(con, _, fields) = &bind.expr else {
        return None;
    };
    if !fields.iter().all(|f| is_atom(strip_erased(f))) {
        return None;
    }
    Some(DictCaf {
        con: con.name,
        fields: fields.clone(),
    })
}

/// Runs dictionary specialisation over a whole program. Returns the
/// rewritten program, each binding with no projection kept as the same
/// `Arc`, and the number of projections specialised.
pub fn specialise(prog: &Program) -> (Program, usize) {
    let mut selectors: HashMap<Symbol, Selector> = HashMap::new();
    let mut dicts: HashMap<Symbol, DictCaf> = HashMap::new();
    for bind in &prog.bindings {
        if let Some(sel) = recognize_selector(&bind.expr) {
            selectors.insert(bind.name, sel);
        }
        if let Some(caf) = recognize_dict_caf(bind) {
            dicts.insert(bind.name, caf);
        }
    }
    let mut count = 0usize;
    let bindings = prog
        .bindings
        .iter()
        .map(|b| {
            let before = count;
            let expr = rewrite(&b.expr, &selectors, &dicts, &mut count);
            super::rebuilt(b, count - before, expr)
        })
        .collect();
    (
        Program {
            data_decls: prog.data_decls.clone(),
            bindings,
        },
        count,
    )
}

fn rewrite(
    e: &CoreExpr,
    selectors: &HashMap<Symbol, Selector>,
    dicts: &HashMap<Symbol, DictCaf>,
    count: &mut usize,
) -> CoreExpr {
    let again = |e: &CoreExpr, count: &mut usize| rewrite(e, selectors, dicts, count);
    match e {
        CoreExpr::App(f, a) => {
            // The pattern: (selector @ρ… @τ…) dict-global.
            if let (CoreExpr::Global(s), CoreExpr::Global(d)) = (strip_erased(f), strip_erased(a)) {
                if let (Some(sel), Some(caf)) = (selectors.get(s), dicts.get(d)) {
                    if sel.con == caf.con {
                        *count += 1;
                        return caf.fields[sel.index].clone();
                    }
                }
            }
            CoreExpr::app(again(f, count), again(a, count))
        }
        CoreExpr::Var(_) | CoreExpr::Global(_) | CoreExpr::Lit(_) | CoreExpr::Error(..) => {
            e.clone()
        }
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
                        con: Arc::clone(con),
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
            Arc::clone(con),
            ty_args.clone(),
            fields.iter().map(|f| again(f, count)).collect(),
        ),
        CoreExpr::Prim(op, args) => {
            CoreExpr::Prim(*op, args.iter().map(|a| again(a, count)).collect())
        }
        CoreExpr::Tuple(args) => CoreExpr::Tuple(args.iter().map(|a| again(a, count)).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use levity_core::kind::Kind;
    use levity_core::rep::{Rep, RepTy};
    use levity_ir::terms::{CoreAlt, DataConInfo, Program, TopBind, TyArg, TyParam};
    use levity_ir::typecheck::{check_program, TypeEnv};

    /// A user-defined class whose instance slot is a *rep-applied*
    /// polymorphic global (`MkPick @IntRep @Int# (polyId @Int#)`):
    /// the CAF's fields are atoms only under their erased wrappers, the
    /// projection must still specialise, and the replacement must keep
    /// the wrapper so the rewritten program stays well-typed.
    #[test]
    fn rep_applied_dictionary_fields_specialise() {
        let env = TypeEnv::new();
        let ih = levity_ir::types::Type::con0(&env.builtins.int_hash);
        let r: Symbol = "r".into();
        let a: Symbol = "a".into();
        let b: Symbol = "b".into();
        let class: Symbol = "Pick".into();
        let dict_ty = |t: Type| Type::Dict(class, Box::new(t));

        // polyId :: forall (b :: TYPE IntRep). b -> b
        let poly_ty = Type::forall_ty(
            b,
            Kind::of_rep(Rep::Int),
            Type::fun(Type::Var(b), Type::Var(b)),
        );
        let poly_id = TopBind {
            name: "polyId".into(),
            ty: poly_ty,
            expr: CoreExpr::ty_lam(
                b,
                Kind::of_rep(Rep::Int),
                CoreExpr::lam("x", Type::Var(b), CoreExpr::Var("x".into())),
            ),
        };

        // data Pick (a :: TYPE r) = MkPick (a -> a)
        let dict_con = Arc::new(DataConInfo {
            name: "MkPick".into(),
            tag: 0,
            params: vec![TyParam::Rep(r), TyParam::Ty(a, Kind::of_rep_var(r))],
            field_types: vec![Type::fun(Type::Var(a), Type::Var(a))],
            result: dict_ty(Type::Var(a)),
        });

        // pick0 :: forall (r :: Rep) (a :: TYPE r). Pick a -> a -> a
        let sel_ty = Type::forall_rep(
            r,
            Type::forall_ty(
                a,
                Kind::of_rep_var(r),
                Type::fun(dict_ty(Type::Var(a)), Type::fun(Type::Var(a), Type::Var(a))),
            ),
        );
        let selector = TopBind {
            name: "pick0".into(),
            ty: sel_ty,
            expr: CoreExpr::rep_lam(
                r,
                CoreExpr::ty_lam(
                    a,
                    Kind::of_rep_var(r),
                    CoreExpr::lam(
                        "d",
                        dict_ty(Type::Var(a)),
                        CoreExpr::case(
                            CoreExpr::Var("d".into()),
                            vec![CoreAlt::Con {
                                con: Arc::clone(&dict_con),
                                binders: vec![("f".into(), Type::fun(Type::Var(a), Type::Var(a)))],
                                rhs: CoreExpr::Var("f".into()),
                            }],
                        ),
                    ),
                ),
            ),
        };

        // $dPick_Int# = MkPick @IntRep @Int# (polyId @Int#) — the field
        // is an erased-wrapped atom, not a bare one.
        let field = CoreExpr::ty_app(CoreExpr::Global("polyId".into()), ih.clone());
        let caf = TopBind {
            name: "$dPick_Int#".into(),
            ty: dict_ty(ih.clone()),
            expr: CoreExpr::Con(
                Arc::clone(&dict_con),
                vec![TyArg::Rep(RepTy::Concrete(Rep::Int)), TyArg::Ty(ih.clone())],
                vec![field.clone()],
            ),
        };

        // use = (pick0 @IntRep @Int# $dPick_Int#) 5#
        let projection = CoreExpr::app(
            CoreExpr::ty_app(
                CoreExpr::rep_app(CoreExpr::Global("pick0".into()), RepTy::Concrete(Rep::Int)),
                ih.clone(),
            ),
            CoreExpr::Global("$dPick_Int#".into()),
        );
        let user = TopBind {
            name: "use".into(),
            ty: ih.clone(),
            expr: CoreExpr::app(projection, CoreExpr::int(5)),
        };

        let prog = Program {
            data_decls: env.builtins.data_decls.clone(),
            bindings: vec![poly_id.into(), selector.into(), caf.into(), user.into()],
        };
        check_program(&prog).expect("the input program is well-typed");

        let (out, n) = specialise(&prog);
        assert_eq!(n, 1, "the wrapped-field projection must specialise");
        check_program(&out).expect("specialisation must preserve typing");
        let rewritten = out.binding("use".into()).unwrap();
        assert_eq!(
            rewritten.expr,
            CoreExpr::app(field, CoreExpr::int(5)),
            "the replacement must keep the field's erased instantiation"
        );

        // And the full pipeline stays sound on the same program.
        let (final_prog, _report, _env) =
            super::super::optimise_program(&prog, None).expect("pipeline stays well-typed");
        assert!(final_prog.binding("use".into()).is_some());
    }
}
