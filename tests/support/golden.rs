//! The golden corpus and the α-normalizing Core printer the golden-Core
//! snapshots are written with.
//!
//! The printer α-normalizes term binders (`x0`, `x1`, … in traversal
//! order): every optimizer pass freshens binders through a counter
//! (`levity_ir::freshen`), so raw names depend on the counter's state
//! while the *structure* does not. Global names (workers `$w…`,
//! specialised clones `$s…`) are minted deterministically and print
//! as-is.

use std::fmt::Write as _;

use levity::ir::terms::{CoreAlt, CoreExpr, LetKind, Program};
use levity_core::symbol::Symbol;

/// The snapshot corpus: the §7.3 ladder, the CPR loops, the join-point
/// diamonds, and the worked specialisation example. The golden-Core and
/// golden-bytecode suites both pin every program here.
pub const GOLDEN: &[(&str, &str)] = &[
    (
        "sum_to_boxed",
        "sumTo :: Int -> Int -> Int\n\
         sumTo acc n = case n of { I# k -> case k of { 0# -> acc; _ -> sumTo (acc + n) (n - 1) } }\n\
         main :: Int\n\
         main = sumTo 0 5000\n",
    ),
    (
        "sum_to_unboxed",
        "sumTo# :: Int# -> Int# -> Int#\n\
         sumTo# acc n = case n of { 0# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }\n\
         main :: Int#\n\
         main = sumTo# 0# 5000#\n",
    ),
    (
        "dict_unboxed",
        "loop :: Int# -> Int# -> Int#\n\
         loop acc n = case n of { 0# -> acc; _ -> loop (acc + n) (n - 1#) }\n\
         main :: Int#\n\
         main = loop 0# 2000#\n",
    ),
    (
        "dict_boxed",
        "loop :: Int -> Int -> Int\n\
         loop acc n = case n of { I# k -> case k of { 0# -> acc; _ -> loop (acc + n) (n - 1) } }\n\
         main :: Int\n\
         main = loop 0 2000\n",
    ),
    (
        "dict_poly_fn",
        "step :: forall (a :: TYPE IntRep). Num a => a -> a\n\
         step x = x + x\n\
         loop :: Int# -> Int# -> Int#\n\
         loop acc n = case n of { 0# -> acc; _ -> loop (acc + step n) (n - 1#) }\n\
         main :: Int#\n\
         main = loop 0# 2000#\n",
    ),
    (
        "dict_poly_fn_boxed",
        "step :: Num a => a -> a\n\
         step x = x + x\n\
         loop :: Int -> Int -> Int\n\
         loop acc n = case n of { I# k -> case k of { 0# -> acc; _ -> loop (acc + step n) (n - 1) } }\n\
         main :: Int\n\
         main = loop 0 2000\n",
    ),
    (
        "spec_square",
        "square :: Num a => a -> a\n\
         square x = x * x\n\
         main :: Int\n\
         main = square 7\n",
    ),
    (
        // The tentpole CPR shape: a recursive divMod returning a
        // two-field product, scrutinised at every call site. The
        // worker must return (# Int#, Int# #) and recurse directly.
        "cpr_divmod",
        "data QR = QR Int# Int#\n\
         divMod# :: Int# -> Int# -> QR\n\
         divMod# n d = case n <# d of { 1# -> QR 0# n; _ -> case divMod# (n -# d) d of { QR q r -> QR (q +# 1#) r } }\n\
         loop :: Int# -> Int# -> Int#\n\
         loop acc n = case n of { 0# -> acc; _ -> case divMod# n 3# of { QR q r -> loop (acc +# q +# r) (n -# 1#) } }\n\
         main :: Int#\n\
         main = loop 0# 5000#\n",
    ),
    (
        // A CPR-shaped accumulator whose worker's tail self-call must
        // collapse through tuple-η to a direct call.
        "cpr_accumulator",
        "data QR = QR Int# Int#\n\
         spin :: Int# -> Int# -> QR\n\
         spin acc n = case n of { 0# -> QR acc n; _ -> spin (acc +# n) (n -# 1#) }\n\
         main :: Int#\n\
         main = case spin 0# 5000# of { QR s z -> s +# z }\n",
    ),
    (
        // The result escapes from main unscrutinised: the negative
        // space — no CPR worker may appear in this snapshot.
        "cpr_escape",
        "data QR = QR Int# Int#\n\
         mk :: Int# -> QR\n\
         mk n = case n <# 0# of { 1# -> QR 0# n; _ -> case mk (n -# 1#) of { QR a b -> QR (a +# n) b } }\n\
         main :: QR\n\
         main = mk 3#\n",
    ),
    (
        // A join-point diamond: multi-alternative case-of-case, the
        // shared continuation bound once and jumped to from both arms.
        "join_diamond",
        "data QR = QR Int# Int#\n\
         pick :: Int# -> Int# -> QR\n\
         pick a b = case (case a <# b of { 1# -> QR a b; _ -> QR b a }) of { QR x y -> QR (x +# 100#) y }\n\
         use :: Int# -> Int#\n\
         use n = case pick n 5# of { QR u v -> u +# (v *# 2#) +# (u -# v) +# (u *# v) }\n\
         main :: Int#\n\
         main = use 3#\n",
    ),
    (
        // Hand-written unboxed-tuple returns: the shape CPR workers
        // compile down to, kept as the reference point.
        "tuple_divmod",
        "divMod# :: Int# -> Int# -> (# Int#, Int# #)\n\
         divMod# n k = (# quotInt# n k, remInt# n k #)\n\
         useBoth :: Int# -> Int# -> Int#\n\
         useBoth n k = case divMod# n k of { (# q, r #) -> q +# r }\n\
         main :: Int#\n\
         main = useBoth 17# 5#\n",
    ),
    (
        // Mutually recursive constrained helpers, specialised and
        // worker/wrapped: the widest slice of the pipeline in one file.
        "spec_mutual",
        "bounce :: Num a => a -> Int# -> a\n\
         bounce x n = case n of { 0# -> x; _ -> rebound (x + x) (n -# 1#) }\n\
         rebound :: Num a => a -> Int# -> a\n\
         rebound x n = case n of { 0# -> x; _ -> bounce (x * x) (n -# 1#) }\n\
         main :: Int\n\
         main = bounce 2 3#\n",
    ),
    (
        // An 8-level chain (`levity_serve::corpus::chain_module(8)`):
        // each definition calls the one below through a primop, a `Num`
        // method at `Int#` or a branch, and inlining collapses the whole
        // chain into `main`.
        "chain8",
        "c0 :: Int# -> Int#\n\
         c0 x = x +# 7#\n\
         c1 :: Int# -> Int#\n\
         c1 x = c0 (x - 8#) + 13#\n\
         c2 :: Int# -> Int#\n\
         c2 x = c1 (case x <# 74# of { 0# -> x -# 15#; _ -> x +# 15# }) +# 26#\n\
         c3 :: Int# -> Int#\n\
         c3 x = c2 (x +# 22#) -# 39#\n\
         c4 :: Int# -> Int#\n\
         c4 x = c3 (x - 29#) + 2#\n\
         c5 :: Int# -> Int#\n\
         c5 x = c4 (case x <# 185# of { 0# -> x -# 36#; _ -> x +# 36# }) +# 15#\n\
         c6 :: Int# -> Int#\n\
         c6 x = c5 (x +# 43#) -# 28#\n\
         c7 :: Int# -> Int#\n\
         c7 x = c6 (x - 50#) + 41#\n\
         main :: Int#\n\
         main = c7 5#\n",
    ),
];

// ---------------------------------------------------------------------
// The α-normalizing pretty-printer
// ---------------------------------------------------------------------

#[derive(Default)]
struct Norm {
    /// Term-binder renames in scope, innermost last.
    stack: Vec<(Symbol, String)>,
    next: usize,
}

impl Norm {
    fn bind(&mut self, s: Symbol) -> String {
        let fresh = format!("x{}", self.next);
        self.next += 1;
        self.stack.push((s, fresh.clone()));
        fresh
    }

    fn mark(&self) -> usize {
        self.stack.len()
    }

    fn release(&mut self, mark: usize) {
        self.stack.truncate(mark);
    }

    fn var(&self, s: Symbol) -> String {
        self.stack
            .iter()
            .rev()
            .find(|(orig, _)| *orig == s)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| s.to_string())
    }
}

/// Single-line rendering with normalized binders (used for scrutinees,
/// arguments, and small right-hand sides).
fn inline_expr(e: &CoreExpr, n: &mut Norm) -> String {
    match e {
        CoreExpr::Var(x) => n.var(*x),
        CoreExpr::Global(g) => g.to_string(),
        CoreExpr::Lit(l) => l.to_string(),
        CoreExpr::Error(t, msg) => format!("error @({t}) \"{msg}\""),
        CoreExpr::App(f, a) => format!("({} {})", inline_expr(f, n), inline_expr(a, n)),
        CoreExpr::TyApp(f, t) => format!("({} @{t})", inline_expr(f, n)),
        CoreExpr::RepApp(f, r) => format!("({} @{r})", inline_expr(f, n)),
        CoreExpr::Lam(x, t, b) => {
            let mark = n.mark();
            let x = n.bind(*x);
            let body = inline_expr(b, n);
            n.release(mark);
            format!("\\({x} :: {t}) -> {body}")
        }
        CoreExpr::TyLam(a, k, b) => format!("/\\({a} :: {k}) -> {}", inline_expr(b, n)),
        CoreExpr::RepLam(r, b) => format!("/\\({r} :: Rep) -> {}", inline_expr(b, n)),
        CoreExpr::Let(kind, x, t, rhs, body) => {
            let kw = match kind {
                LetKind::NonRec => "let",
                LetKind::Rec => "letrec",
            };
            let mark = n.mark();
            let (rhs_s, x_s) = if *kind == LetKind::Rec {
                let x_s = n.bind(*x);
                (inline_expr(rhs, n), x_s)
            } else {
                let rhs_s = inline_expr(rhs, n);
                (rhs_s, n.bind(*x))
            };
            let body_s = inline_expr(body, n);
            n.release(mark);
            format!("{kw} {x_s} :: {t} = {rhs_s} in {body_s}")
        }
        CoreExpr::Case(scrut, alts) => {
            let scrut_s = inline_expr(scrut, n);
            let alts_s: Vec<String> = alts.iter().map(|a| inline_alt(a, n)).collect();
            format!("case {scrut_s} of {{ {} }}", alts_s.join("; "))
        }
        CoreExpr::Con(con, _, fields) => {
            let mut out = con.name.to_string();
            for f in fields {
                let _ = write!(out, " ({})", inline_expr(f, n));
            }
            out
        }
        CoreExpr::Prim(op, args) => {
            let mut out = format!("({op}");
            for a in args {
                let _ = write!(out, " {}", inline_expr(a, n));
            }
            out.push(')');
            out
        }
        CoreExpr::Tuple(es) => {
            let parts: Vec<String> = es.iter().map(|e| inline_expr(e, n)).collect();
            format!("(# {} #)", parts.join(", "))
        }
    }
}

fn inline_alt(alt: &CoreAlt, n: &mut Norm) -> String {
    let mark = n.mark();
    let out = match alt {
        CoreAlt::Con { con, binders, rhs } => {
            let mut pat = con.name.to_string();
            for (b, _) in binders {
                let _ = write!(pat, " {}", n.bind(*b));
            }
            format!("{pat} -> {}", inline_expr(rhs, n))
        }
        CoreAlt::Lit { lit, rhs } => format!("{lit} -> {}", inline_expr(rhs, n)),
        CoreAlt::Tuple { binders, rhs } => {
            let names: Vec<String> = binders.iter().map(|(b, _)| n.bind(*b)).collect();
            format!("(# {} #) -> {}", names.join(", "), inline_expr(rhs, n))
        }
        CoreAlt::Default { binder, rhs } => match binder {
            Some((b, _)) => format!("{} -> {}", n.bind(*b), inline_expr(rhs, n)),
            None => format!("_ -> {}", inline_expr(rhs, n)),
        },
    };
    n.release(mark);
    out
}

/// Multi-line rendering: λ-chains, lets and cases get structure; leaves
/// fall back to the inline form.
fn pp(e: &CoreExpr, n: &mut Norm, indent: usize, out: &mut String) {
    let pad = " ".repeat(indent);
    match e {
        CoreExpr::Lam(..) | CoreExpr::TyLam(..) | CoreExpr::RepLam(..) => {
            let mark = n.mark();
            let mut heads: Vec<String> = Vec::new();
            let mut cur = e;
            loop {
                match cur {
                    CoreExpr::Lam(x, t, b) => {
                        heads.push(format!("\\({} :: {t})", n.bind(*x)));
                        cur = b;
                    }
                    CoreExpr::TyLam(a, k, b) => {
                        heads.push(format!("/\\({a} :: {k})"));
                        cur = b;
                    }
                    CoreExpr::RepLam(r, b) => {
                        heads.push(format!("/\\({r} :: Rep)"));
                        cur = b;
                    }
                    _ => break,
                }
            }
            let _ = writeln!(out, "{pad}{} ->", heads.join(" "));
            pp(cur, n, indent + 2, out);
            n.release(mark);
        }
        CoreExpr::Let(kind, x, t, rhs, body) => {
            let kw = match kind {
                LetKind::NonRec => "let",
                LetKind::Rec => "letrec",
            };
            let mark = n.mark();
            let (rhs_s, x_s) = if *kind == LetKind::Rec {
                let x_s = n.bind(*x);
                (inline_expr(rhs, n), x_s)
            } else {
                let rhs_s = inline_expr(rhs, n);
                (rhs_s, n.bind(*x))
            };
            let _ = writeln!(out, "{pad}{kw} {x_s} :: {t} = {rhs_s} in");
            pp(body, n, indent, out);
            n.release(mark);
        }
        CoreExpr::Case(scrut, alts) => {
            let scrut_s = inline_expr(scrut, n);
            let _ = writeln!(out, "{pad}case {scrut_s} of {{");
            for alt in alts {
                let mark = n.mark();
                let (pat, rhs) = match alt {
                    CoreAlt::Con { con, binders, rhs } => {
                        let mut pat = con.name.to_string();
                        for (b, _) in binders {
                            let _ = write!(pat, " {}", n.bind(*b));
                        }
                        (pat, rhs)
                    }
                    CoreAlt::Lit { lit, rhs } => (lit.to_string(), rhs),
                    CoreAlt::Tuple { binders, rhs } => {
                        let names: Vec<String> = binders.iter().map(|(b, _)| n.bind(*b)).collect();
                        (format!("(# {} #)", names.join(", ")), rhs)
                    }
                    CoreAlt::Default { binder, rhs } => match binder {
                        Some((b, _)) => (n.bind(*b), rhs),
                        None => ("_".to_string(), rhs),
                    },
                };
                let _ = writeln!(out, "{pad}  {pat} ->");
                pp(rhs, n, indent + 4, out);
                n.release(mark);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        other => {
            let _ = writeln!(out, "{pad}{}", inline_expr(other, n));
        }
    }
}

/// Renders a whole optimized program in binding order.
pub fn render(program: &Program) -> String {
    let mut out = String::new();
    for b in &program.bindings {
        let _ = writeln!(out, "{} :: {}", b.name, b.ty);
        let _ = writeln!(out, "{} =", b.name);
        let mut n = Norm::default();
        pp(&b.expr, &mut n, 2, &mut out);
        out.push('\n');
    }
    out
}
