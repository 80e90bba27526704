//! The surface language of the levity-polymorphism pipeline.
//!
//! A small GHC-flavoured functional language with exactly the features
//! the paper's examples exercise:
//!
//! * `#`-suffixed names and literals (`sumTo#`, `3#`, `2.5##`) — §2.1;
//! * unboxed tuples `(# … #)` in types, expressions and patterns — §2.3;
//! * `forall (r :: Rep) (a :: TYPE r).` signatures — §4.3;
//! * `data`, `class`/`instance` (§7.3) and closed `type family` (§7.1)
//!   declarations;
//! * explicit braces/semicolons for blocks, with a single layout rule:
//!   a token at column 0 starts a new top-level declaration.
//!
//! # Example
//!
//! ```
//! use levity_surface::parser::parse_module;
//!
//! let src = r#"
//! myError :: forall (r :: Rep) (a :: TYPE r). Int -> a
//! myError s = error "program error"
//! "#;
//! let module = parse_module(src)?;
//! assert_eq!(module.decls.len(), 2);
//! # Ok::<(), levity_core::diag::Diagnostic>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod parser;

pub use ast::{Module, SDecl, SExpr, SExprNode, SKind, SLit, SPat, SRep, SType};
pub use parser::{parse_expr, parse_module, parse_module_continuing, parse_type};
