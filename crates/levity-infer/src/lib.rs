//! Type inference and elaboration for the levity-polymorphism pipeline.
//!
//! This crate reproduces the inference story of §5.2 and the class story
//! of §7.3:
//!
//! * [`unify`] — unification with *representation* metavariables: a
//!   λ-binder gets `α :: TYPE ρ` with `ρ` itself a unification variable,
//!   solved "using GHC's existing unification machinery";
//! * [`elaborate`] — surface-to-Core elaboration: declared
//!   levity-polymorphic signatures are *checked* (skolemized), inferred
//!   rep variables are *defaulted* to `LiftedRep` (never generalized),
//!   and classes/instances undergo dictionary translation;
//! * [`convert`] — surface types to Core types, with implicit
//!   quantification at kind `Type`;
//! * [`families`] — closed type families and the §7.1 representation-
//!   homogeneity check;
//! * [`legacy`] — the pre-levity-polymorphism `OpenKind` sub-kinding
//!   system (§3.2–3.3), kept as an executable baseline: it shows
//!   `error`'s magic working and `myError` silently losing it.
//!
//! # Example
//!
//! ```
//! use levity_infer::elaborate::elaborate_module;
//! use levity_surface::parser::parse_module;
//!
//! // myError keeps its levity polymorphism because it is *declared*:
//! let m = parse_module(
//!     "myError :: forall (r :: Rep) (a :: TYPE r). Int -> a\n\
//!      myError s = error \"program error\"\n",
//! ).unwrap();
//! let out = elaborate_module(&m).expect("elaboration succeeds");
//! let ty = out.env.global("myError".into()).unwrap();
//! assert_eq!(ty.to_string(), "forall (r :: Rep) (a :: TYPE r). Int -> a");
//! ```

#![warn(missing_docs)]

pub mod convert;
pub mod elaborate;
pub mod families;
pub mod legacy;
pub mod unify;

pub use elaborate::{elaborate_module, ClassEnv, ClassInfo, Elaborated, InstanceInfo, ModuleSeed};
pub use families::FamilyInfo;
pub use unify::{Unifier, UnifyError};
