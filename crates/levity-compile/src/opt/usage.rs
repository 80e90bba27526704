//! Global usage analysis: one reachability walk over the top-level
//! call graph, shared by dead-global elimination and the simplifier.
//!
//! Function specialisation leaves the constrained originals behind with
//! no remaining callers, the dictionary pass orphans selectors whose
//! every projection became a direct instance-method call, the
//! simplifier empties every small callee it grafts into all its callers
//! (and strands a global only a discarded branch mentioned), and the
//! worker/wrapper split strands wrappers once every call site has
//! inlined them. Kept, all of them would still be walked by every
//! pass, lowered, compiled into the environment engine's
//! [`CodeProgram`], and carried through every run — paying compile
//! time and code size for bindings no execution can reach.
//!
//! [`rewrite_reachable`] walks the call graph ([`globals_of`] collects
//! each body's referenced globals) from an explicit *entry-point set*,
//! rewrites every binding it reaches, follows the globals of the
//! *rewritten* body, and drops everything else. The driver chooses the
//! set: `main` when the program defines it, every global otherwise —
//! and callers can name their own (see `levity-driver`'s
//! `compile_*_entries`). A binding outside the reachable set cannot
//! influence any run from the entries, so dropping it is outcome-exact
//! by construction; the check after the pass certifies no reachable
//! binding lost a callee (a kept binding that mentions a dropped global
//! is re-checked, and fails). Two passes use the walk:
//!
//! * [`eliminate_dead_globals`] rewrites nothing (each kept binding
//!   keeps its `Arc`);
//! * [`simplify`](super::simplify::simplify) rewrites each reached
//!   binding by grafting its callees and simplifying, so a callee whose
//!   every call was grafted or discarded is not reached and is dropped
//!   in the same pass (GHC drops a binding in the pass that inlines its
//!   last use).
//!
//! The visit order is fixed: the entries in program order, then each
//! rewritten body's callees in [`globals_of`]'s first-occurrence order,
//! first in, first out — never a hash set's order. The simplifier mints
//! fresh binder names in visit order, so a fixed order keeps them the
//! same on every run; with every binding an entry, the order is the
//! program's own.
//!
//! [`CodeProgram`]: levity_m::compile::CodeProgram

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use levity_core::symbol::Symbol;
use levity_ir::terms::{Program, TopBind};

use super::subst::globals_of;

/// Rewrites every binding reachable from `entries` with `rewrite`,
/// following the globals of each *rewritten* body, and returns the
/// program of exactly the rewritten bindings, in `prog`'s binding
/// order. Entries that name no binding contribute nothing. Datatype
/// declarations are kept — they carry no code.
pub fn rewrite_reachable(
    prog: &Program,
    entries: &HashSet<Symbol>,
    mut rewrite: impl FnMut(&Arc<TopBind>) -> Arc<TopBind>,
) -> Program {
    let mut position: HashMap<Symbol, usize> = HashMap::with_capacity(prog.bindings.len());
    let mut queued = vec![false; prog.bindings.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, b) in prog.bindings.iter().enumerate() {
        position.entry(b.name).or_insert(i);
        if entries.contains(&b.name) {
            queued[i] = true;
            queue.push_back(i);
        }
    }
    let mut reached: Vec<Option<Arc<TopBind>>> = vec![None; prog.bindings.len()];
    let mut callees = Vec::new();
    while let Some(i) = queue.pop_front() {
        let bind = rewrite(&prog.bindings[i]);
        callees.clear();
        globals_of(&bind.expr, &mut callees);
        for callee in &callees {
            if let Some(&j) = position.get(callee) {
                if !queued[j] {
                    queued[j] = true;
                    queue.push_back(j);
                }
            }
        }
        reached[i] = Some(bind);
    }
    Program {
        data_decls: prog.data_decls.clone(),
        bindings: reached.into_iter().flatten().collect(),
    }
}

/// Drops every binding not reachable from `entries`. Returns the
/// pruned program and the number of bindings eliminated.
pub fn eliminate_dead_globals(prog: &Program, entries: &HashSet<Symbol>) -> (Program, usize) {
    let pruned = rewrite_reachable(prog, entries, Arc::clone);
    let dropped = prog.bindings.len() - pruned.bindings.len();
    (pruned, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use levity_ir::terms::{CoreExpr, TopBind};
    use levity_ir::typecheck::TypeEnv;
    use levity_ir::types::Type;

    fn prog() -> Program {
        let env = TypeEnv::new();
        let ih = Type::con0(&env.builtins.int_hash);
        let bind = |name: &str, expr: CoreExpr| {
            TopBind {
                name: name.into(),
                ty: ih.clone(),
                expr,
            }
            .into()
        };
        Program {
            data_decls: env.builtins.data_decls.clone(),
            bindings: vec![
                bind("main", CoreExpr::Global("helper".into())),
                bind("helper", CoreExpr::int(1)),
                bind("orphan", CoreExpr::Global("orphanHelper".into())),
                bind("orphanHelper", CoreExpr::int(2)),
            ],
        }
    }

    fn names(p: &Program) -> Vec<&str> {
        p.bindings.iter().map(|b| b.name.as_str()).collect()
    }

    #[test]
    fn reachability_follows_the_call_graph() {
        let p = prog();
        let entries: HashSet<Symbol> = ["main".into()].into();
        let (out, _) = eliminate_dead_globals(&p, &entries);
        assert_eq!(names(&out), ["main", "helper"]);
    }

    /// The walk follows the *rewritten* bodies: a rewrite that moves
    /// `main`'s call from `helper` to `orphan` reaches `orphan` and its
    /// callee, and `helper` — reached by no rewritten body — is gone.
    /// Bindings are visited entries first, in program order, then
    /// callees first in, first out, and come back in program order.
    #[test]
    fn the_walk_follows_rewritten_bodies_in_a_fixed_order() {
        let p = prog();
        let entries: HashSet<Symbol> = ["orphanHelper".into(), "main".into()].into();
        let mut visited = Vec::new();
        let out = rewrite_reachable(&p, &entries, |b| {
            visited.push(b.name.as_str());
            if b.name == Symbol::intern("main") {
                Arc::new(TopBind {
                    name: b.name,
                    ty: b.ty.clone(),
                    expr: CoreExpr::Global("orphan".into()),
                })
            } else {
                Arc::clone(b)
            }
        });
        assert_eq!(visited, ["main", "orphanHelper", "orphan"]);
        assert_eq!(names(&out), ["main", "orphan", "orphanHelper"]);
    }

    #[test]
    fn elimination_drops_exactly_the_unreachable() {
        let p = prog();
        let entries: HashSet<Symbol> = ["main".into()].into();
        let (out, dropped) = eliminate_dead_globals(&p, &entries);
        assert_eq!(dropped, 2);
        assert_eq!(out.bindings.len(), 2);
        assert!(out.binding("main".into()).is_some());
        assert!(out.binding("orphan".into()).is_none());
    }

    #[test]
    fn an_entry_point_keeps_an_otherwise_dead_global() {
        let p = prog();
        let entries: HashSet<Symbol> = ["main".into(), "orphan".into()].into();
        let (out, dropped) = eliminate_dead_globals(&p, &entries);
        assert_eq!(dropped, 0);
        assert_eq!(out.bindings.len(), 4, "orphan pulls in orphanHelper");
    }

    #[test]
    fn unknown_entries_are_ignored() {
        let p = prog();
        let entries: HashSet<Symbol> = ["main".into(), "noSuchGlobal".into()].into();
        let (out, dropped) = eliminate_dead_globals(&p, &entries);
        assert_eq!(dropped, 2);
        assert_eq!(out.bindings.len(), 2);
    }
}
