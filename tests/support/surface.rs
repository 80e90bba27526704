//! Surface programs shared by the differential and prelude-seed suites:
//! the compiled corpus and a generator of random programs over helpers
//! that exercise every optimizer pass.

// ---------------------------------------------------------------------
// The compiled corpus: every benchmark program plus §2.1/§7.3 shapes
// ---------------------------------------------------------------------

/// The surface programs the benchmarks time, at reduced sizes, plus
/// representative prelude workloads. Outcomes *and* allocation counters
/// must be engine-independent, or the benchmark story would be
/// comparing different semantics.
pub const CORPUS: &[(&str, &str)] = &[
    (
        "sum_to boxed (section 2.1)",
        "sumTo :: Int -> Int -> Int\n\
         sumTo acc n = case n of { I# k -> case k of { 0# -> acc; _ -> sumTo (acc + n) (n - 1) } }\n\
         main :: Int\n\
         main = sumTo 0 300\n",
    ),
    (
        "sum_to unboxed (section 2.1)",
        "sumTo# :: Int# -> Int# -> Int#\n\
         sumTo# acc n = case n of { 0# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }\n\
         main :: Int#\n\
         main = sumTo# 0# 300#\n",
    ),
    (
        "dictionary dispatch at Int# (section 7.3)",
        "loop :: Int# -> Int# -> Int#\n\
         loop acc n = case n of { 0# -> acc; _ -> loop (acc + n) (n - 1#) }\n\
         main :: Int#\n\
         main = loop 0# 200#\n",
    ),
    (
        "dictionary dispatch at Int (section 7.3)",
        "loop :: Int -> Int -> Int\n\
         loop acc n = case n of { I# k -> case k of { 0# -> acc; _ -> loop (acc + n) (n - 1) } }\n\
         main :: Int\n\
         main = loop 0 200\n",
    ),
    (
        "prelude combinators",
        "main :: Int\nmain = sum (map (\\(x :: Int) -> x * x) (enumFromTo 1 15))\n",
    ),
    (
        "levity-polymorphic ($) at Int# (section 7.2)",
        "unbox :: Int -> Int#\nunbox n = case n of { I# k -> k }\n\
         main :: Int#\nmain = unbox $ 41 + 1\n",
    ),
    (
        "pairs and projections",
        "main :: Int\nmain = fst (MkPair 3 True) + snd (MkPair 1 4)\n",
    ),
    (
        "double class instances",
        "main :: Int#\nmain = double2Int# (abs (0.0## - 2.25##) * 4.0##)\n",
    ),
    (
        "runtime error carries its message (rule ERR)",
        "main :: Int#\nmain = error \"differential boom\"\n",
    ),
    (
        "lazy bottom is never demanded",
        "main :: Int\nmain = fst (MkPair 7 (error \"unforced\"))\n",
    ),
    (
        "levity-polymorphic user class",
        "class Default (a :: TYPE r) where { deflt :: Bool -> a }\n\
         instance Default Int# where { deflt b = 0# }\n\
         instance Default Int where { deflt b = 0 }\n\
         main :: Int#\n\
         main = deflt True +# 1#\n",
    ),
    (
        "function-valued main (closure readback)",
        "main :: Int -> Int\nmain = \\(x :: Int) -> x + 1\n",
    ),
    (
        "self-recursive constrained function (spec_fun clones the loop)",
        "powAcc :: Num a => a -> a -> Int# -> a\n\
         powAcc acc x n = case n of { 0# -> acc; _ -> powAcc (acc * x) x (n -# 1#) }\n\
         main :: Int\n\
         main = powAcc 1 2 10#\n",
    ),
    (
        "mutually recursive constrained helpers",
        "bounce :: Num a => a -> Int# -> a\n\
         bounce x n = case n of { 0# -> x; _ -> rebound (x + x) (n -# 1#) }\n\
         rebound :: Num a => a -> Int# -> a\n\
         rebound x n = case n of { 0# -> x; _ -> bounce (x * x) (n -# 1#) }\n\
         main :: Int\n\
         main = bounce 2 3#\n",
    ),
    (
        "constrained function at Int# (forall (a :: TYPE IntRep))",
        "stepU :: forall (a :: TYPE IntRep). Num a => a -> a\n\
         stepU x = (x * x) + x\n\
         main :: Int#\n\
         main = stepU 4# + stepU 2#\n",
    ),
    (
        "CPR: recursive divMod product scrutinised at every call site",
        "data QR = QR Int# Int#\n\
         divMod# :: Int# -> Int# -> QR\n\
         divMod# n d = case n <# d of { 1# -> QR 0# n; _ -> case divMod# (n -# d) d of { QR q r -> QR (q +# 1#) r } }\n\
         main :: Int#\n\
         main = case divMod# 173# 7# of { QR q r -> q *# 100# +# r }\n",
    ),
    (
        "CPR: accumulator whose tail self-call collapses through tuple-eta",
        "data QR = QR Int# Int#\n\
         spin :: Int# -> Int# -> QR\n\
         spin acc n = case n of { 0# -> QR acc n; _ -> spin (acc +# n) (n -# 1#) }\n\
         main :: Int#\n\
         main = case spin 0# 50# of { QR s z -> s +# z }\n",
    ),
    (
        "join points: multi-alternative case-of-case diamond",
        "data QR = QR Int# Int#\n\
         pick :: Int# -> Int# -> QR\n\
         pick a b = case (case a <# b of { 1# -> QR a b; _ -> QR b a }) of { QR x y -> QR (x +# 100#) y }\n\
         main :: Int#\n\
         main = case pick 3# 5# of { QR u v -> u +# (v *# 2#) +# (u -# v) +# (u *# v) }\n",
    ),
    (
        "CPR result escaping unscrutinised keeps its box",
        "data QR = QR Int# Int#\n\
         mk :: Int# -> QR\n\
         mk n = case n <# 0# of { 1# -> QR 0# n; _ -> case mk (n -# 1#) of { QR a b -> QR (a +# n) b } }\n\
         main :: QR\n\
         main = mk 3#\n",
    ),
];

// ---------------------------------------------------------------------
// Generated surface programs
// ---------------------------------------------------------------------

/// SplitMix64; tiny, deterministic, and dependency-free.
struct SurfaceGen {
    state: u64,
}

impl SurfaceGen {
    fn new(seed: u64) -> SurfaceGen {
        SurfaceGen {
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Helper definitions exercising every optimizer pass: `inc`/`addB` are
/// worker/wrapper fodder (head-scrutinised boxed arguments), `stepDown`
/// is the §2.1 accumulator loop (branch-demanded argument), `sq` is a
/// constrained function — its implicit `a` defaults to `Type` (§5.2),
/// and every generated call site supplies `$dNum_Int`, so the function
/// specialiser clones it — `sqU` is the same shape pinned to
/// `TYPE IntRep` (so its clones run at `Int#`), `gsum` is called at
/// *two* instance types (`Int` and `Double`, both lifted), `chain2`
/// routes one constrained function through another (specialisation must
/// propagate), `h1` is a plain unboxed helper, and `unboxI` rides
/// `($)`'s levity-polymorphic result type. `qrStep`/`useQr` exercise
/// the CPR split (a recursive product-returning accumulator scrutinised
/// at its only call site — the worker must return `(# Int#, Int# #)`
/// and tail-call itself through tuple-η), and `branchy` is a join-point
/// diamond (multi-alternative case-of-case with a continuation too big
/// to duplicate).
const GEN_PRELUDE: &str = "\
data QR = QR Int# Int#\n\
qrStep :: Int# -> Int# -> QR\n\
qrStep acc n = case n of { 0# -> QR acc n; _ -> qrStep (acc +# n) (n -# 1#) }\n\
useQr :: Int# -> Int# -> Int#\n\
useQr a n = case qrStep a n of { QR s z -> s +# z }\n\
branchy :: Int# -> Int# -> Int#\n\
branchy a b = case (case a <# b of { 1# -> QR a b; _ -> QR b a }) of { QR x y -> x +# (y *# 2#) +# (x -# y) +# (x *# y) }\n\
inc :: Int -> Int\n\
inc n = case n of { I# k -> I# (k +# 1#) }\n\
addB :: Int -> Int -> Int\n\
addB a b = case a of { I# x -> case b of { I# y -> I# (x +# y) } }\n\
stepDown :: Int -> Int -> Int\n\
stepDown acc n = case n of { I# k -> case k of { 0# -> acc; _ -> stepDown (acc + n) (n - 1) } }\n\
sq :: Num a => a -> a\n\
sq x = x * x\n\
sqU :: forall (a :: TYPE IntRep). Num a => a -> a\n\
sqU x = x * x\n\
gsum :: Num a => a -> a -> a\n\
gsum x y = x + y\n\
chain2 :: Num a => a -> a\n\
chain2 x = gsum (sq x) x\n\
h1 :: Int# -> Int#\n\
h1 x = x +# 10#\n\
unboxI :: Int -> Int#\n\
unboxI n = case n of { I# k -> k }\n";

/// A random `Int#`-typed expression.
fn gen_unboxed(g: &mut SurfaceGen, depth: u32, binders: &mut u32) -> String {
    if depth == 0 {
        return format!("{}#", g.below(10));
    }
    let d = depth - 1;
    match g.below(16) {
        0 => format!("{}#", g.below(10)),
        // The CPR accumulator: the iteration count stays a small
        // literal so the loop always terminates.
        14 => format!("(useQr {} {}#)", gen_unboxed(g, d, binders), g.below(9)),
        // The join diamond, at arbitrary unboxed arguments.
        15 => format!(
            "(branchy {} {})",
            gen_unboxed(g, d, binders),
            gen_unboxed(g, d, binders)
        ),
        12 => format!("(sqU {})", gen_unboxed(g, d, binders)),
        13 => {
            // `gsum` at its second instance type (Num Double), so one
            // constrained function is specialised at two types in the
            // same program.
            *binders += 1;
            format!(
                "(case gsum {}.5 {}.25 of {{ D# d{} -> double2Int# d{} }})",
                g.below(5),
                g.below(5),
                binders,
                binders
            )
        }
        1 => format!(
            "({} +# {})",
            gen_unboxed(g, d, binders),
            gen_unboxed(g, d, binders)
        ),
        2 => format!(
            "({} + {})",
            gen_unboxed(g, d, binders),
            gen_unboxed(g, d, binders)
        ),
        3 => format!(
            "({} - {})",
            gen_unboxed(g, d, binders),
            gen_unboxed(g, d, binders)
        ),
        4 => format!("(abs {})", gen_unboxed(g, d, binders)),
        5 => format!("(negate {})", gen_unboxed(g, d, binders)),
        6 => format!("(h1 {})", gen_unboxed(g, d, binders)),
        7 => format!("(unboxI {})", gen_boxed(g, d, binders)),
        8 => format!("(unboxI $ {})", gen_boxed(g, d, binders)),
        9 => format!(
            "(if {} < {} then {} else {})",
            gen_unboxed(g, d, binders),
            gen_unboxed(g, d, binders),
            gen_unboxed(g, d, binders),
            gen_unboxed(g, d, binders)
        ),
        10 => {
            *binders += 1;
            let v = format!("v{binders}");
            format!(
                "(let {v} = {} in ({v} +# {}))",
                gen_unboxed(g, d, binders),
                gen_unboxed(g, d, binders)
            )
        }
        _ => format!(
            "(case {} of {{ 0# -> {}; _ -> {} }})",
            gen_unboxed(g, d, binders),
            gen_unboxed(g, d, binders),
            // An abort in a branch that may or may not be taken: the
            // optimizer must neither lose nor invent it.
            if g.below(6) == 0 {
                format!("error \"alt{}\"", g.below(100))
            } else {
                gen_unboxed(g, d, binders)
            }
        ),
    }
}

/// A random boxed-`Int`-typed expression.
fn gen_boxed(g: &mut SurfaceGen, depth: u32, binders: &mut u32) -> String {
    if depth == 0 {
        return format!("{}", g.below(10));
    }
    let d = depth - 1;
    match g.below(10) {
        0 => format!("{}", g.below(10)),
        1 => format!("(inc {})", gen_boxed(g, d, binders)),
        2 => format!(
            "(addB {} {})",
            gen_boxed(g, d, binders),
            gen_boxed(g, d, binders)
        ),
        3 => format!(
            "({} + {})",
            gen_boxed(g, d, binders),
            gen_boxed(g, d, binders)
        ),
        4 => format!("(sq {})", gen_boxed(g, d, binders)),
        5 => format!("(stepDown {} {})", gen_boxed(g, d, binders), g.below(9)),
        6 => format!("(I# {})", gen_unboxed(g, d, binders)),
        8 => format!(
            "(gsum {} {})",
            gen_boxed(g, d, binders),
            gen_boxed(g, d, binders)
        ),
        9 => format!("(chain2 {})", gen_boxed(g, d, binders)),
        _ => format!(
            "(if {} == {} then {} else {})",
            gen_boxed(g, d, binders),
            gen_boxed(g, d, binders),
            gen_boxed(g, d, binders),
            gen_boxed(g, d, binders)
        ),
    }
}

/// A generated surface program: [`GEN_PRELUDE`]'s helpers and a random
/// `main :: Int#` over them (sometimes an `error` call).
pub fn gen_program(seed: u64) -> String {
    let mut g = SurfaceGen::new(seed);
    let mut binders = 0u32;
    let main = if g.below(24) == 0 {
        format!("error \"main{}\"", g.below(100))
    } else {
        gen_unboxed(&mut g, 4, &mut binders)
    };
    format!("{GEN_PRELUDE}main :: Int#\nmain = {main}\n")
}
