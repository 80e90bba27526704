//! Conversion from surface types/kinds to Core types/kinds.
//!
//! Surface signatures default as the paper prescribes: implicitly-bound
//! type variables get kind `Type` (§5.2's "never infer levity
//! polymorphism" applied to signatures — levity polymorphism must be
//! *declared* with an explicit `forall (r :: Rep) (a :: TYPE r)`).

use levity_core::diag::{Diagnostic, ErrorCode, Span};
use levity_core::kind::Kind;
use levity_core::rep::{Rep, RepTy};
use levity_core::symbol::Symbol;

use levity_ir::typecheck::TypeEnv;
use levity_ir::types::Type;
use levity_surface::ast::{SKind, SRep, SType};

/// Binders in scope during conversion.
#[derive(Clone, Debug, Default)]
pub struct ConvScope {
    /// Type variables with their kinds.
    pub ty_vars: Vec<(Symbol, Kind)>,
    /// Representation variables.
    pub rep_vars: Vec<Symbol>,
}

impl ConvScope {
    /// An empty scope.
    pub fn new() -> ConvScope {
        ConvScope::default()
    }

    fn has_ty(&self, v: Symbol) -> bool {
        self.ty_vars.iter().any(|(n, _)| *n == v)
    }

    fn has_rep(&self, v: Symbol) -> bool {
        self.rep_vars.contains(&v)
    }
}

fn rep_con(name: Symbol) -> Option<Rep> {
    Some(match name.as_str() {
        "LiftedRep" => Rep::Lifted,
        "UnliftedRep" => Rep::Unlifted,
        "IntRep" => Rep::Int,
        "Int8Rep" => Rep::Int8,
        "Int16Rep" => Rep::Int16,
        "Int32Rep" => Rep::Int32,
        "Int64Rep" => Rep::Int64,
        "WordRep" => Rep::Word,
        "Word8Rep" => Rep::Word8,
        "Word64Rep" => Rep::Word64,
        "CharRep" => Rep::Char,
        "FloatRep" => Rep::Float,
        "DoubleRep" => Rep::Double,
        "AddrRep" => Rep::Addr,
        _ => return None,
    })
}

/// Converts a surface representation.
///
/// Unknown lowercase names are *free* rep variables; the caller decides
/// whether they are in scope (`scope`) or implicitly bound (collected in
/// `implicit_reps`, used by class heads like `class Num (a :: TYPE r)`).
pub fn convert_rep(
    srep: &SRep,
    scope: &ConvScope,
    implicit_reps: &mut Vec<Symbol>,
    span: Span,
) -> Result<RepTy, Diagnostic> {
    match srep {
        SRep::Con(name) => match rep_con(*name) {
            Some(r) => Ok(RepTy::Concrete(r)),
            None => Err(Diagnostic::error(
                ErrorCode::Scope,
                format!("unknown runtime representation `{name}`"),
                span,
            )),
        },
        SRep::Var(v) => {
            if !scope.has_rep(*v) && !implicit_reps.contains(v) {
                implicit_reps.push(*v);
            }
            Ok(RepTy::Var(*v))
        }
        SRep::Tuple(parts) => {
            let parts = parts
                .iter()
                .map(|p| convert_rep(p, scope, implicit_reps, span))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(levity_core::rep::normalize_tuple(parts))
        }
    }
}

/// Converts a surface kind.
pub fn convert_kind(
    skind: &SKind,
    scope: &ConvScope,
    implicit_reps: &mut Vec<Symbol>,
    span: Span,
) -> Result<Kind, Diagnostic> {
    match skind {
        SKind::Type => Ok(Kind::TYPE),
        SKind::Rep => Ok(Kind::Rep),
        SKind::Type_(rep) => Ok(Kind::Type(convert_rep(rep, scope, implicit_reps, span)?)),
        SKind::Arrow(a, b) => Ok(Kind::arrow(
            convert_kind(a, scope, implicit_reps, span)?,
            convert_kind(b, scope, implicit_reps, span)?,
        )),
    }
}

/// Options for type conversion.
#[derive(Clone, Copy, Debug)]
pub struct ConvertOptions {
    /// Implicitly quantify free type variables at kind `Type` (top-level
    /// signatures do; annotations inside expressions do not).
    pub implicit_quantify: bool,
    /// Source span for diagnostics.
    pub span: Span,
}

/// Converts a surface type to a Core type.
///
/// # Errors
///
/// Unknown constructors, unknown classes in contexts, arity errors.
pub fn convert_type(
    env: &TypeEnv,
    classes: &dyn Fn(Symbol) -> bool,
    sty: &SType,
    scope: &mut ConvScope,
    opts: ConvertOptions,
) -> Result<Type, Diagnostic> {
    if opts.implicit_quantify {
        // Collect free type variables not bound by explicit foralls and
        // quantify them at kind Type (§5.2: no inferred levity
        // polymorphism).
        let mut free = Vec::new();
        collect_free_ty_vars(sty, &mut scope.clone(), &mut free);
        let inner_opts = ConvertOptions {
            implicit_quantify: false,
            ..opts
        };
        for v in &free {
            scope.ty_vars.push((*v, Kind::TYPE));
        }
        let body = convert_type(env, classes, sty, scope, inner_opts)?;
        for _ in &free {
            scope.ty_vars.pop();
        }
        let mut out = body;
        for v in free.into_iter().rev() {
            out = Type::forall_ty(v, Kind::TYPE, out);
        }
        return Ok(out);
    }
    convert(env, classes, sty, scope, opts.span)
}

fn convert(
    env: &TypeEnv,
    classes: &dyn Fn(Symbol) -> bool,
    sty: &SType,
    scope: &mut ConvScope,
    span: Span,
) -> Result<Type, Diagnostic> {
    match sty {
        SType::Con(name) => match env.tycon(*name) {
            Some(tc) => Ok(Type::Con(tc.clone(), Vec::new())),
            None => Err(Diagnostic::error(
                ErrorCode::Scope,
                format!("unknown type constructor `{name}`"),
                span,
            )),
        },
        SType::Var(v) => {
            if scope.has_ty(*v) {
                Ok(Type::Var(*v))
            } else {
                Err(Diagnostic::error(
                    ErrorCode::Scope,
                    format!("type variable `{v}` is not in scope (bind it with forall)"),
                    span,
                ))
            }
        }
        SType::App(f, a) => {
            let fun = convert(env, classes, f, scope, span)?;
            let arg = convert(env, classes, a, scope, span)?;
            match fun {
                Type::Con(tc, mut args) => {
                    if args.len() >= tc.kind.arity() {
                        return Err(Diagnostic::error(
                            ErrorCode::KindMismatch,
                            format!(
                                "type constructor `{}` applied to too many arguments",
                                tc.name
                            ),
                            span,
                        ));
                    }
                    args.push(arg);
                    Ok(Type::Con(tc, args))
                }
                other => Err(Diagnostic::error(
                    ErrorCode::KindMismatch,
                    format!(
                        "cannot apply type `{other}` (higher-kinded variables are not supported)"
                    ),
                    span,
                )),
            }
        }
        SType::Fun(a, b) => Ok(Type::fun(
            convert(env, classes, a, scope, span)?,
            convert(env, classes, b, scope, span)?,
        )),
        SType::Forall(binders, body) => {
            let mut converted = Vec::new();
            let mut implicit = Vec::new();
            for (v, k) in binders {
                let kind = match k {
                    None => Kind::TYPE,
                    Some(sk) => convert_kind(sk, scope, &mut implicit, span)?,
                };
                converted.push((*v, kind));
            }
            if let Some(r) = implicit
                .iter()
                .find(|r| !converted.iter().any(|(v, k)| v == *r && *k == Kind::Rep))
            {
                return Err(Diagnostic::error(
                    ErrorCode::Scope,
                    format!(
                        "representation variable `{r}` must be bound with `forall ({r} :: Rep)`"
                    ),
                    span,
                ));
            }
            let mut pushed_reps = 0;
            let mut pushed_tys = 0;
            for (v, kind) in &converted {
                if *kind == Kind::Rep {
                    scope.rep_vars.push(*v);
                    pushed_reps += 1;
                } else {
                    scope.ty_vars.push((*v, kind.clone()));
                    pushed_tys += 1;
                }
            }
            let inner = convert(env, classes, body, scope, span);
            for _ in 0..pushed_reps {
                scope.rep_vars.pop();
            }
            for _ in 0..pushed_tys {
                scope.ty_vars.pop();
            }
            let mut out = inner?;
            for (v, kind) in converted.into_iter().rev() {
                out = if kind == Kind::Rep {
                    Type::forall_rep(v, out)
                } else {
                    Type::forall_ty(v, kind, out)
                };
            }
            Ok(out)
        }
        SType::UnboxedTuple(parts) => Ok(Type::UnboxedTuple(
            parts
                .iter()
                .map(|p| convert(env, classes, p, scope, span))
                .collect::<Result<Vec<_>, _>>()?,
        )),
        SType::Qual(ctx, body) => {
            // `C τ => σ` becomes `Dict C τ -> σ`: constraints are
            // dictionary arguments (§7.3).
            let mut out = convert(env, classes, body, scope, span)?;
            for (cls, arg) in ctx.iter().rev() {
                if !classes(*cls) {
                    return Err(Diagnostic::error(
                        ErrorCode::ClassResolution,
                        format!("unknown class `{cls}` in constraint"),
                        span,
                    ));
                }
                let arg_ty = convert(env, classes, arg, scope, span)?;
                out = Type::fun(Type::Dict(*cls, Box::new(arg_ty)), out);
            }
            Ok(out)
        }
    }
}

/// Free type variables of a surface type (for implicit quantification).
fn collect_free_ty_vars(sty: &SType, scope: &mut ConvScope, out: &mut Vec<Symbol>) {
    match sty {
        SType::Con(_) => {}
        SType::Var(v) => {
            if !scope.has_ty(*v) && !out.contains(v) {
                out.push(*v);
            }
        }
        SType::App(a, b) | SType::Fun(a, b) => {
            collect_free_ty_vars(a, scope, out);
            collect_free_ty_vars(b, scope, out);
        }
        SType::Forall(binders, body) => {
            let mut pushed = 0;
            for (v, k) in binders {
                if matches!(k, Some(SKind::Rep)) {
                    scope.rep_vars.push(*v);
                } else {
                    scope.ty_vars.push((*v, Kind::TYPE));
                    pushed += 1;
                }
            }
            collect_free_ty_vars(body, scope, out);
            for _ in 0..pushed {
                scope.ty_vars.pop();
            }
            for (v, k) in binders {
                if matches!(k, Some(SKind::Rep)) {
                    let _ = v;
                    scope.rep_vars.pop();
                }
            }
        }
        SType::UnboxedTuple(parts) => parts
            .iter()
            .for_each(|p| collect_free_ty_vars(p, scope, out)),
        SType::Qual(ctx, body) => {
            for (_, t) in ctx {
                collect_free_ty_vars(t, scope, out);
            }
            collect_free_ty_vars(body, scope, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use levity_surface::parser::parse_type;

    fn conv(src: &str) -> Result<Type, Diagnostic> {
        let env = TypeEnv::new();
        let sty = parse_type(src).unwrap();
        let mut scope = ConvScope::new();
        convert_type(
            &env,
            &|c: Symbol| c.as_str() == "Num",
            &sty,
            &mut scope,
            ConvertOptions {
                implicit_quantify: true,
                span: Span::SYNTHETIC,
            },
        )
    }

    #[test]
    fn simple_types() {
        assert_eq!(conv("Int# -> Int#").unwrap().to_string(), "Int# -> Int#");
        assert_eq!(conv("Maybe Int").unwrap().to_string(), "Maybe Int");
    }

    #[test]
    fn implicit_quantification_defaults_to_type() {
        // `a -> a` means `forall (a :: Type). a -> a` (§5.2).
        assert_eq!(conv("a -> a").unwrap().to_string(), "forall a. a -> a");
    }

    #[test]
    fn explicit_levity_polymorphism() {
        let t = conv("forall (r :: Rep) (a :: TYPE r). Int -> a").unwrap();
        assert_eq!(t.to_string(), "forall (r :: Rep) (a :: TYPE r). Int -> a");
    }

    #[test]
    fn unbound_rep_var_is_rejected() {
        let err = conv("forall (a :: TYPE r). a -> a").unwrap_err();
        assert_eq!(err.code, ErrorCode::Scope);
    }

    #[test]
    fn constraints_become_dictionary_arguments() {
        let t = conv("Num a => a -> a").unwrap();
        assert_eq!(t.to_string(), "forall a. Num a -> a -> a");
    }

    #[test]
    fn unknown_class_is_rejected() {
        assert!(conv("Eqq a => a").is_err());
    }

    #[test]
    fn unknown_tycon_is_rejected() {
        assert!(conv("Nope -> Int").is_err());
    }

    #[test]
    fn unboxed_tuples_convert() {
        assert_eq!(
            conv("(# Int#, Bool #) -> Int#").unwrap().to_string(),
            "(# Int#, Bool #) -> Int#"
        );
    }

    #[test]
    fn over_applied_tycon_is_rejected() {
        assert!(conv("Maybe Int Bool").is_err());
    }
}
