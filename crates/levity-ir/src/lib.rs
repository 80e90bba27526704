//! Core: the explicitly-typed intermediate representation of the
//! levity-polymorphism pipeline.
//!
//! Where the formal `L` calculus (crate `levity-l`) has exactly the
//! constructs of Figure 2, Core scales the same ideas to a realistic
//! surface language: the full `Rep` grammar (§4.1–4.2), algebraic
//! datatypes (including `data Int = I# Int#`, which is *not* special,
//! §2.1), unboxed tuples, primops, `let`/`letrec`, and class
//! dictionaries (§7.3).
//!
//! The split of checking mirrors GHC (§8.2):
//!
//! * [`typecheck`] — kinding and type checking ("lint"); levity-
//!   polymorphic *types* are allowed everywhere here;
//! * [`levity`] — the §5.1 restrictions (no levity-polymorphic binders or
//!   arguments), run as a separate later pass, "in the desugarer".
//!
//! # Example
//!
//! ```
//! use levity_ir::typecheck::{kind_of, Scope, TypeEnv};
//! use levity_ir::types::Type;
//!
//! let env = TypeEnv::new();
//! // Int# -> Int# is well-kinded — no sub-kinding needed (§3.2 solved).
//! let t = Type::fun(
//!     Type::con0(&env.builtins.int_hash),
//!     Type::con0(&env.builtins.int_hash),
//! );
//! let k = kind_of(&env, &mut Scope::new(), &t).unwrap();
//! assert_eq!(k.to_string(), "Type");
//! ```

#![warn(missing_docs)]

use std::cell::Cell;

use levity_core::symbol::Symbol;

pub mod builtin;
pub mod levity;
pub mod terms;
pub mod typecheck;
pub mod types;

pub use builtin::{builtins, prim_signature, Builtins};
pub use terms::{
    CoreAlt, CoreExpr, DataConInfo, DataDecl, LetKind, Program, TopBind, TyArg, TyParam,
};
pub use typecheck::{
    check_module, check_program, kind_of, type_of, CoreError, Scope, ScopeEntry, TypeEnv,
};
pub use types::{TyCon, Type};

thread_local! {
    /// This thread's [`freshen`] counter.
    static FRESH: Cell<u64> = const { Cell::new(0) };
}

/// A fresh symbol derived from `base`, for capture-avoiding substitution.
///
/// Names are fresh within one compilation: the counter is per thread,
/// and [`restart_fresh_names`] resets it. The interner never frees a
/// name, so a process-wide counter would intern hundreds of new names
/// for every program a server compiles.
pub fn freshen(base: Symbol) -> Symbol {
    let n = FRESH.with(|c| c.replace(c.get() + 1));
    let stem = base.as_str().split('\'').next().unwrap_or("v");
    Symbol::intern(&format!("{stem}'{n}"))
}

/// Restarts this thread's [`freshen`] counter at zero.
///
/// Names handed out before the restart are handed out again, so no Core
/// term built on this thread before it may be transformed after it. The
/// driver restarts once per compilation, before parsing the source.
pub fn restart_fresh_names() {
    restart_fresh_names_at(0);
}

/// This thread's [`freshen`] counter: the number the next fresh name
/// gets. Read after building Core that later compilations reuse, it is
/// the mark they must restart at ([`restart_fresh_names_at`]).
pub fn fresh_names_mark() -> u64 {
    FRESH.with(Cell::get)
}

/// Restarts this thread's [`freshen`] counter at `mark`.
///
/// The same hazard as [`restart_fresh_names`], bounded: names numbered
/// below `mark` are never handed out again. The driver elaborates the
/// prelude once per process and records the mark after it; every
/// compilation that reuses the prelude's Core restarts here, not at
/// zero, so no name freshened inside that Core is minted twice.
pub fn restart_fresh_names_at(mark: u64) {
    FRESH.with(|c| c.set(mark));
}
