//! Unification with *representation* unification variables (§5.2).
//!
//! The paper's key inference move: when checking `λx -> e`, invent a
//! type unification variable `α` — and, because the kind of `α` is no
//! longer forced to be `Type`, also invent a *representation* variable
//! `ρ` and set `α :: TYPE ρ`. If `x` is used at a lifted type, `ρ`
//! unifies with `LiftedRep` through the ordinary machinery.
//!
//! Metavariables are represented as specially-named [`Symbol`]s
//! (`?t0`, `?r0`) resolved through side tables, and *zonking* (§8.2's
//! term) replaces solved metavariables by their contents.
//!
//! Following §5.2, solved-ness is never required of a `ρ` at
//! generalization time: [`Unifier::default_rep_metas`] sets every
//! unsolved representation metavariable to `LiftedRep` — "we never infer
//! levity polymorphism."

use std::collections::HashMap;

use levity_core::kind::Kind;
use levity_core::rep::{normalize_sum, normalize_tuple, Rep, RepTy};
use levity_core::symbol::Symbol;

use levity_ir::types::Type;

/// A unification failure.
#[derive(Clone, Debug, PartialEq)]
pub enum UnifyError {
    /// The two types cannot be made equal.
    Mismatch(Type, Type),
    /// The two representations cannot be made equal.
    RepMismatch(RepTy, RepTy),
    /// The two kinds cannot be made equal.
    KindMismatch(Kind, Kind),
    /// A metavariable occurs in the type it would be bound to.
    Occurs(Symbol, Type),
    /// A rep metavariable occurs in the representation it would bind to.
    RepOccurs(Symbol, RepTy),
}

impl std::fmt::Display for UnifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnifyError::Mismatch(a, b) => write!(f, "cannot match `{a}` with `{b}`"),
            UnifyError::RepMismatch(a, b) => {
                write!(f, "cannot match representation `{a}` with `{b}`")
            }
            UnifyError::KindMismatch(a, b) => write!(f, "cannot match kind `{a}` with `{b}`"),
            UnifyError::Occurs(v, t) => write!(f, "occurs check: `{v}` in `{t}`"),
            UnifyError::RepOccurs(v, r) => write!(f, "occurs check: `{v}` in `{r}`"),
        }
    }
}

impl std::error::Error for UnifyError {}

/// The unifier state: metavariable tables and a name supply.
#[derive(Clone, Debug, Default)]
pub struct Unifier {
    ty_solutions: HashMap<Symbol, Type>,
    rep_solutions: HashMap<Symbol, RepTy>,
    /// The kind of each type metavariable (always `TYPE ρ`).
    ty_kinds: HashMap<Symbol, RepTy>,
    /// Kind-representations of *rigid* (skolem) type variables, declared
    /// when a signature is skolemized, so that solving `α := a` can also
    /// solve `α`'s rep against `a`'s.
    rigid_kinds: HashMap<Symbol, RepTy>,
    next_ty: u64,
    next_rep: u64,
}

impl Unifier {
    /// A fresh unifier.
    pub fn new() -> Unifier {
        Unifier::default()
    }

    /// The numbers the next type and representation metavariables get.
    pub(crate) fn meta_counters(&self) -> (u64, u64) {
        (self.next_ty, self.next_rep)
    }

    /// Is this symbol a type metavariable?
    pub fn is_ty_meta(name: Symbol) -> bool {
        name.as_str().starts_with("?t")
    }

    /// Is this symbol a representation metavariable?
    pub fn is_rep_meta(name: Symbol) -> bool {
        name.as_str().starts_with("?r")
    }

    /// A fresh representation metavariable `ρ`.
    pub fn fresh_rep_meta(&mut self) -> RepTy {
        let n = self.next_rep;
        self.next_rep += 1;
        RepTy::Var(Symbol::intern(&format!("?r{n}")))
    }

    /// A fresh type metavariable `α :: TYPE ρ` with `ρ` itself fresh —
    /// the §5.2 recipe.
    pub fn fresh_ty_meta(&mut self) -> Type {
        let rep = self.fresh_rep_meta();
        self.fresh_ty_meta_of(rep)
    }

    /// A fresh type metavariable of kind `TYPE rep`.
    pub fn fresh_ty_meta_of(&mut self, rep: RepTy) -> Type {
        let n = self.next_ty;
        self.next_ty += 1;
        let name = Symbol::intern(&format!("?t{n}"));
        self.ty_kinds.insert(name, rep);
        Type::Var(name)
    }

    /// The kind-representation of a type metavariable.
    pub fn meta_kind_rep(&self, name: Symbol) -> Option<RepTy> {
        self.ty_kinds.get(&name).map(|r| self.zonk_rep(r))
    }

    /// Declares the kind-representation of a rigid (skolem) type
    /// variable, so unification can propagate representation equalities
    /// through it.
    pub fn declare_rigid(&mut self, name: Symbol, rep: RepTy) {
        self.rigid_kinds.insert(name, rep);
    }

    // -----------------------------------------------------------------
    // Zonking
    // -----------------------------------------------------------------

    /// Replaces solved metavariables in a representation.
    pub fn zonk_rep(&self, rep: &RepTy) -> RepTy {
        match rep {
            RepTy::Var(v) => match self.rep_solutions.get(v) {
                Some(r) => self.zonk_rep(r),
                None => rep.clone(),
            },
            RepTy::Concrete(_) => rep.clone(),
            RepTy::Tuple(parts) => {
                normalize_tuple(parts.iter().map(|p| self.zonk_rep(p)).collect())
            }
            RepTy::Sum(parts) => normalize_sum(parts.iter().map(|p| self.zonk_rep(p)).collect()),
        }
    }

    /// Replaces solved metavariables in a kind.
    pub fn zonk_kind(&self, kind: &Kind) -> Kind {
        match kind {
            Kind::Type(rep) => Kind::Type(self.zonk_rep(rep)),
            Kind::Arrow(a, b) => Kind::arrow(self.zonk_kind(a), self.zonk_kind(b)),
            Kind::Rep => Kind::Rep,
        }
    }

    /// Replaces solved metavariables in a type. "We must update types …
    /// before checking a type's levity (GHC calls this process zonking)"
    /// (§8.2).
    pub fn zonk(&self, ty: &Type) -> Type {
        match ty {
            Type::Var(v) => match self.ty_solutions.get(v) {
                Some(t) => self.zonk(t),
                None => ty.clone(),
            },
            Type::Con(tc, args) => {
                Type::Con(tc.clone(), args.iter().map(|a| self.zonk(a)).collect())
            }
            Type::Fun(a, b) => Type::fun(self.zonk(a), self.zonk(b)),
            Type::ForallTy(v, k, body) => Type::forall_ty(*v, self.zonk_kind(k), self.zonk(body)),
            Type::ForallRep(r, body) => Type::forall_rep(*r, self.zonk(body)),
            Type::UnboxedTuple(ts) => Type::UnboxedTuple(ts.iter().map(|t| self.zonk(t)).collect()),
            Type::Dict(c, t) => Type::Dict(*c, Box::new(self.zonk(t))),
        }
    }

    // -----------------------------------------------------------------
    // Unification
    // -----------------------------------------------------------------

    /// Unifies two representations.
    ///
    /// # Errors
    ///
    /// [`UnifyError::RepMismatch`] / [`UnifyError::RepOccurs`].
    pub fn unify_rep(&mut self, r1: &RepTy, r2: &RepTy) -> Result<(), UnifyError> {
        let r1 = self.zonk_rep(r1);
        let r2 = self.zonk_rep(r2);
        match (&r1, &r2) {
            (RepTy::Var(v1), RepTy::Var(v2)) if v1 == v2 => Ok(()),
            (RepTy::Var(v), other) if Self::is_rep_meta(*v) => {
                if other.free_vars().contains(v) {
                    return Err(UnifyError::RepOccurs(*v, other.clone()));
                }
                self.rep_solutions.insert(*v, other.clone());
                Ok(())
            }
            (other, RepTy::Var(v)) if Self::is_rep_meta(*v) => {
                if other.free_vars().contains(v) {
                    return Err(UnifyError::RepOccurs(*v, other.clone()));
                }
                self.rep_solutions.insert(*v, other.clone());
                Ok(())
            }
            (RepTy::Concrete(a), RepTy::Concrete(b)) if a == b => Ok(()),
            (RepTy::Tuple(a), RepTy::Tuple(b)) | (RepTy::Sum(a), RepTy::Sum(b))
                if a.len() == b.len() =>
            {
                for (x, y) in a.clone().iter().zip(b.clone().iter()) {
                    self.unify_rep(x, y)?;
                }
                Ok(())
            }
            // A concrete tuple rep can unify with a TupleRep expression.
            (RepTy::Concrete(Rep::Tuple(parts)), RepTy::Tuple(exprs))
            | (RepTy::Tuple(exprs), RepTy::Concrete(Rep::Tuple(parts)))
                if parts.len() == exprs.len() =>
            {
                for (p, e) in parts.clone().iter().zip(exprs.clone().iter()) {
                    self.unify_rep(&RepTy::Concrete(p.clone()), e)?;
                }
                Ok(())
            }
            _ => Err(UnifyError::RepMismatch(r1, r2)),
        }
    }

    /// Unifies two kinds.
    ///
    /// # Errors
    ///
    /// [`UnifyError::KindMismatch`] and the rep errors.
    pub fn unify_kind(&mut self, k1: &Kind, k2: &Kind) -> Result<(), UnifyError> {
        match (k1, k2) {
            (Kind::Type(r1), Kind::Type(r2)) => self.unify_rep(r1, r2),
            (Kind::Rep, Kind::Rep) => Ok(()),
            (Kind::Arrow(a1, b1), Kind::Arrow(a2, b2)) => {
                self.unify_kind(a1, a2)?;
                self.unify_kind(b1, b2)
            }
            _ => Err(UnifyError::KindMismatch(k1.clone(), k2.clone())),
        }
    }

    /// The kind-representation of a zonked type, as far as it is known
    /// structurally (metavariables report their assigned kinds; rigid
    /// variables are resolved by the caller's scope, so `None` here).
    fn head_kind_rep(&self, ty: &Type) -> Option<RepTy> {
        match ty {
            Type::Var(v) if Self::is_ty_meta(*v) => self.meta_kind_rep(*v),
            Type::Var(v) => self.rigid_kinds.get(v).map(|r| self.zonk_rep(r)),
            Type::Con(tc, args) => {
                let mut k = tc.kind.clone();
                for _ in args {
                    k = k.apply_one()?.clone();
                }
                match k {
                    Kind::Type(rep) => Some(rep),
                    _ => None,
                }
            }
            Type::Fun(..) | Type::Dict(..) => Some(RepTy::LIFTED),
            Type::ForallTy(_, _, body) | Type::ForallRep(_, body) => self.head_kind_rep(body),
            Type::UnboxedTuple(ts) => {
                let parts = ts
                    .iter()
                    .map(|t| self.head_kind_rep(t))
                    .collect::<Option<Vec<_>>>()?;
                Some(normalize_tuple(parts))
            }
        }
    }

    /// Unifies two types (rank-1, predicative: `forall` types only unify
    /// with α-equivalent `forall` types).
    ///
    /// # Errors
    ///
    /// See [`UnifyError`].
    pub fn unify(&mut self, t1: &Type, t2: &Type) -> Result<(), UnifyError> {
        let t1 = self.zonk(t1);
        let t2 = self.zonk(t2);
        match (&t1, &t2) {
            (Type::Var(v1), Type::Var(v2)) if v1 == v2 => Ok(()),
            (Type::Var(v), other) if Self::is_ty_meta(*v) => self.bind_meta(*v, other),
            (other, Type::Var(v)) if Self::is_ty_meta(*v) => self.bind_meta(*v, other),
            (Type::Con(c1, a1), Type::Con(c2, a2))
                if c1.name == c2.name && a1.len() == a2.len() =>
            {
                for (x, y) in a1.clone().iter().zip(a2.clone().iter()) {
                    self.unify(x, y)?;
                }
                Ok(())
            }
            (Type::Fun(a1, b1), Type::Fun(a2, b2)) => {
                self.unify(a1, a2)?;
                self.unify(b1, b2)
            }
            (Type::UnboxedTuple(x), Type::UnboxedTuple(y)) if x.len() == y.len() => {
                for (a, b) in x.clone().iter().zip(y.clone().iter()) {
                    self.unify(a, b)?;
                }
                Ok(())
            }
            (Type::Dict(c1, x), Type::Dict(c2, y)) if c1 == c2 => self.unify(x, y),
            (Type::ForallTy(..), Type::ForallTy(..))
            | (Type::ForallRep(..), Type::ForallRep(..))
                if t1.alpha_eq(&t2) =>
            {
                Ok(())
            }
            _ => Err(UnifyError::Mismatch(t1, t2)),
        }
    }

    fn bind_meta(&mut self, v: Symbol, ty: &Type) -> Result<(), UnifyError> {
        if occurs_in(v, ty) {
            return Err(UnifyError::Occurs(v, ty.clone()));
        }
        // Kind preservation: the solution's rep must match the meta's.
        if let (Some(meta_rep), Some(ty_rep)) = (self.meta_kind_rep(v), self.head_kind_rep(ty)) {
            self.unify_rep(&meta_rep, &ty_rep)?;
        }
        self.ty_solutions.insert(v, ty.clone());
        Ok(())
    }

    // -----------------------------------------------------------------
    // Defaulting and generalization support (§5.2)
    // -----------------------------------------------------------------

    /// Defaults every *unsolved* representation metavariable occurring in
    /// `ty` to `LiftedRep` — "any levity variable that in principle could
    /// be generalized is instead defaulted to `Type`" (§5.2). Returns the
    /// number defaulted.
    pub fn default_rep_metas(&mut self, ty: &Type) -> usize {
        let ty = self.zonk(ty);
        let mut count = 0;
        // Rep metas appear through the kinds of unsolved ty metas and in
        // the kind annotations of quantifiers.
        let mut reps = Vec::new();
        collect_rep_metas_in_type(self, &ty, &mut reps);
        for r in reps {
            if self.zonk_rep(&RepTy::Var(r)) == RepTy::Var(r) {
                self.rep_solutions.insert(r, RepTy::LIFTED);
                count += 1;
            }
        }
        count
    }

    /// Unsolved type metavariables occurring in a zonked type, in order.
    pub fn free_ty_metas(&self, ty: &Type) -> Vec<Symbol> {
        let ty = self.zonk(ty);
        let mut out = Vec::new();
        fn go(t: &Type, out: &mut Vec<Symbol>) {
            match t {
                Type::Var(v) if Unifier::is_ty_meta(*v) && !out.contains(v) => out.push(*v),
                Type::Var(_) => {}
                Type::Con(_, args) => args.iter().for_each(|a| go(a, out)),
                Type::Fun(a, b) => {
                    go(a, out);
                    go(b, out);
                }
                Type::ForallTy(_, _, b) | Type::ForallRep(_, b) => go(b, out),
                Type::UnboxedTuple(ts) => ts.iter().for_each(|t| go(t, out)),
                Type::Dict(_, t) => go(t, out),
            }
        }
        go(&ty, &mut out);
        out
    }

    /// Solves a type metavariable directly (used by generalization to
    /// replace metas with fresh rigid variables).
    pub fn solve_ty_meta(&mut self, name: Symbol, ty: Type) {
        self.ty_solutions.insert(name, ty);
    }
}

fn occurs_in(v: Symbol, ty: &Type) -> bool {
    match ty {
        Type::Var(w) => *w == v,
        Type::Con(_, args) => args.iter().any(|a| occurs_in(v, a)),
        Type::Fun(a, b) => occurs_in(v, a) || occurs_in(v, b),
        Type::ForallTy(_, _, b) | Type::ForallRep(_, b) => occurs_in(v, b),
        Type::UnboxedTuple(ts) => ts.iter().any(|t| occurs_in(v, t)),
        Type::Dict(_, t) => occurs_in(v, t),
    }
}

fn collect_rep_metas_in_type(u: &Unifier, ty: &Type, out: &mut Vec<Symbol>) {
    let push_rep = |rep: &RepTy, out: &mut Vec<Symbol>| {
        for v in u.zonk_rep(rep).free_vars() {
            if Unifier::is_rep_meta(v) && !out.contains(&v) {
                out.push(v);
            }
        }
    };
    match ty {
        Type::Var(v) if Unifier::is_ty_meta(*v) => {
            if let Some(rep) = u.meta_kind_rep(*v) {
                push_rep(&rep, out);
            }
        }
        Type::Var(_) => {}
        Type::Con(_, args) => args
            .iter()
            .for_each(|a| collect_rep_metas_in_type(u, a, out)),
        Type::Fun(a, b) => {
            collect_rep_metas_in_type(u, a, out);
            collect_rep_metas_in_type(u, b, out);
        }
        Type::ForallTy(_, k, b) => {
            for rep_var in k.free_rep_vars() {
                push_rep(&RepTy::Var(rep_var), out);
            }
            collect_rep_metas_in_type(u, b, out);
        }
        Type::ForallRep(_, b) => collect_rep_metas_in_type(u, b, out),
        Type::UnboxedTuple(ts) => ts.iter().for_each(|t| collect_rep_metas_in_type(u, t, out)),
        Type::Dict(_, t) => collect_rep_metas_in_type(u, t, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use levity_ir::builtin::builtins;

    #[test]
    fn fresh_metas_carry_rep_kinds() {
        let mut u = Unifier::new();
        let t = u.fresh_ty_meta();
        let Type::Var(v) = t else { panic!() };
        let rep = u.meta_kind_rep(v).unwrap();
        assert!(matches!(rep, RepTy::Var(r) if Unifier::is_rep_meta(r)));
    }

    #[test]
    fn unifying_with_lifted_type_solves_the_rep() {
        // The §5.2 story: α :: TYPE ρ; use at Int forces ρ := LiftedRep.
        let b = builtins();
        let mut u = Unifier::new();
        let alpha = u.fresh_ty_meta();
        u.unify(&alpha, &Type::con0(&b.int)).unwrap();
        let Type::Var(v) = alpha else { panic!() };
        // The meta's kind rep must now be LiftedRep.
        assert_eq!(u.meta_kind_rep(v), Some(RepTy::LIFTED));
    }

    #[test]
    fn unifying_with_unboxed_type_solves_the_rep_to_int_rep() {
        let b = builtins();
        let mut u = Unifier::new();
        let alpha = u.fresh_ty_meta();
        u.unify(&alpha, &Type::con0(&b.int_hash)).unwrap();
        let Type::Var(v) = alpha else { panic!() };
        assert_eq!(u.meta_kind_rep(v), Some(RepTy::Concrete(Rep::Int)));
    }

    #[test]
    fn occurs_check_fires() {
        let mut u = Unifier::new();
        let alpha = u.fresh_ty_meta();
        let t = Type::fun(alpha.clone(), alpha.clone());
        assert!(matches!(u.unify(&alpha, &t), Err(UnifyError::Occurs(..))));
    }

    #[test]
    fn rep_metas_default_to_lifted() {
        let mut u = Unifier::new();
        let alpha = u.fresh_ty_meta();
        // Nothing constrains α's rep; defaulting sets it to LiftedRep.
        let defaulted = u.default_rep_metas(&alpha);
        assert_eq!(defaulted, 1);
        let Type::Var(v) = alpha else { panic!() };
        assert_eq!(u.meta_kind_rep(v), Some(RepTy::LIFTED));
    }

    #[test]
    fn kind_mismatch_between_solved_reps_is_an_error() {
        let b = builtins();
        let mut u = Unifier::new();
        let alpha = u.fresh_ty_meta();
        u.unify(&alpha, &Type::con0(&b.int_hash)).unwrap();
        // α is solved at Int#; unifying α with Int must fail (kinds).
        assert!(u.unify(&alpha, &Type::con0(&b.int)).is_err());
    }

    #[test]
    fn fun_types_unify_componentwise() {
        let b = builtins();
        let mut u = Unifier::new();
        let a1 = u.fresh_ty_meta();
        let t1 = Type::fun(a1.clone(), Type::con0(&b.int));
        let t2 = Type::fun(Type::con0(&b.int_hash), Type::con0(&b.int));
        u.unify(&t1, &t2).unwrap();
        assert_eq!(u.zonk(&a1).to_string(), "Int#");
    }

    #[test]
    fn zonking_is_deep() {
        let b = builtins();
        let mut u = Unifier::new();
        let a1 = u.fresh_ty_meta();
        let a2 = u.fresh_ty_meta();
        u.unify(
            &a1,
            &Type::Con(std::sync::Arc::clone(&b.maybe), vec![a2.clone()]),
        )
        .unwrap();
        u.unify(&a2, &Type::con0(&b.bool)).unwrap();
        assert_eq!(u.zonk(&a1).to_string(), "Maybe Bool");
    }

    #[test]
    fn unboxed_tuple_unification() {
        let b = builtins();
        let mut u = Unifier::new();
        let a = u.fresh_ty_meta();
        let t1 = Type::UnboxedTuple(vec![a.clone(), Type::con0(&b.bool)]);
        let t2 = Type::UnboxedTuple(vec![Type::con0(&b.int_hash), Type::con0(&b.bool)]);
        u.unify(&t1, &t2).unwrap();
        assert_eq!(u.zonk(&a).to_string(), "Int#");
    }

    #[test]
    fn alpha_equivalent_foralls_unify() {
        let t1 = Type::forall_ty(
            "a",
            Kind::TYPE,
            Type::fun(Type::Var("a".into()), Type::Var("a".into())),
        );
        let t2 = Type::forall_ty(
            "b",
            Kind::TYPE,
            Type::fun(Type::Var("b".into()), Type::Var("b".into())),
        );
        let mut u = Unifier::new();
        u.unify(&t1, &t2).unwrap();
        let t3 = Type::forall_ty(
            "b",
            Kind::TYPE,
            Type::fun(Type::Var("b".into()), Type::con0(&builtins().int)),
        );
        assert!(u.unify(&t1, &t3).is_err());
    }
}
