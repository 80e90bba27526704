//! Typing contexts `Γ ::= ∅ | Γ, x:τ | Γ, α:κ | Γ, r` (Figure 2).

use std::fmt;

use levity_core::symbol::Symbol;

use crate::syntax::{LKind, Ty};

/// A single context entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Binding {
    /// A term variable `x : τ`.
    Term(Symbol, Ty),
    /// A type variable `α : κ`.
    TyVar(Symbol, LKind),
    /// A representation variable `r`.
    RepVar(Symbol),
}

/// An ordered typing context. Later bindings shadow earlier ones.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ctx {
    bindings: Vec<Binding>,
}

impl Ctx {
    /// The empty context `∅`.
    pub fn new() -> Ctx {
        Ctx::default()
    }

    /// Pushes `x : τ`.
    pub fn push_term(&mut self, x: Symbol, ty: Ty) {
        self.bindings.push(Binding::Term(x, ty));
    }

    /// Pushes `α : κ`.
    pub fn push_ty_var(&mut self, alpha: Symbol, kind: LKind) {
        self.bindings.push(Binding::TyVar(alpha, kind));
    }

    /// Pushes `r`.
    pub fn push_rep_var(&mut self, r: Symbol) {
        self.bindings.push(Binding::RepVar(r));
    }

    /// Pops the most recent binding.
    ///
    /// # Panics
    ///
    /// Panics if the context is empty — that is a checker bug, not a user
    /// error.
    pub fn pop(&mut self) {
        self.bindings.pop().expect("popped an empty context");
    }

    /// The type of term variable `x`, if bound.
    pub fn lookup_term(&self, x: Symbol) -> Option<&Ty> {
        self.bindings.iter().rev().find_map(|b| match b {
            Binding::Term(y, ty) if *y == x => Some(ty),
            _ => None,
        })
    }

    /// The kind of type variable `α`, if bound.
    pub fn lookup_ty_var(&self, alpha: Symbol) -> Option<LKind> {
        self.bindings.iter().rev().find_map(|b| match b {
            Binding::TyVar(beta, k) if *beta == alpha => Some(*k),
            _ => None,
        })
    }

    /// Is representation variable `r` in scope? (Premise of K_VAR.)
    pub fn has_rep_var(&self, r: Symbol) -> bool {
        self.bindings
            .iter()
            .rev()
            .any(|b| matches!(b, Binding::RepVar(s) if *s == r))
    }

    /// Does the context contain *no term bindings*? Both Progress and
    /// Simulation (§6) are stated under this condition.
    pub fn has_no_term_bindings(&self) -> bool {
        !self.bindings.iter().any(|b| matches!(b, Binding::Term(..)))
    }

    /// Number of bindings; used by the checker to truncate on exit.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Is the context empty?
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }
}

impl fmt::Display for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bindings.is_empty() {
            return f.write_str("∅");
        }
        for (i, b) in self.bindings.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match b {
                Binding::Term(x, ty) => write!(f, "{x} : {ty}")?,
                Binding::TyVar(a, k) => write!(f, "{a} :: {k}")?,
                Binding::RepVar(r) => write!(f, "{r}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn lookup_respects_shadowing() {
        let mut ctx = Ctx::new();
        ctx.push_term(sym("x"), Ty::Int);
        ctx.push_term(sym("x"), Ty::IntHash);
        assert_eq!(ctx.lookup_term(sym("x")), Some(&Ty::IntHash));
        ctx.pop();
        assert_eq!(ctx.lookup_term(sym("x")), Some(&Ty::Int));
    }

    #[test]
    fn rep_vars_are_tracked() {
        let mut ctx = Ctx::new();
        assert!(!ctx.has_rep_var(sym("r")));
        ctx.push_rep_var(sym("r"));
        assert!(ctx.has_rep_var(sym("r")));
    }

    #[test]
    fn no_term_bindings_predicate() {
        let mut ctx = Ctx::new();
        ctx.push_rep_var(sym("r"));
        ctx.push_ty_var(sym("a"), LKind::var(sym("r")));
        assert!(ctx.has_no_term_bindings());
        ctx.push_term(sym("x"), Ty::Var(sym("a")));
        assert!(!ctx.has_no_term_bindings());
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Ctx::new().to_string(), "∅");
        let mut ctx = Ctx::new();
        ctx.push_term(sym("x"), Ty::Int);
        assert_eq!(ctx.to_string(), "x : Int");
    }
}
