//! A mixed corpus of surface programs for serving tests and benches.
//!
//! Each program exercises a different part of the pipeline — unboxed
//! loops, boxed loops the optimizer unboxes, class dispatch, CPR-style
//! constructor returns, allocation-heavy list churn — so a request mix
//! over the corpus looks like real multi-tenant traffic rather than N
//! copies of one workload. Expected results ship alongside the sources
//! so callers can assert correctness under concurrency, not just
//! liveness.

use levity_m::machine::RunOutcome;

/// One corpus entry: a named program and the integer `main` evaluates
/// to (boxed or unboxed — see [`expected_int`]).
#[derive(Clone, Copy, Debug)]
pub struct CorpusProgram {
    /// Short stable name (used in bench labels and logs).
    pub name: &'static str,
    /// Surface source, compiled with the prelude in scope.
    pub source: &'static str,
    /// The integer value of `main`.
    pub expected: i64,
}

/// §2.1's unboxed `sumTo#`: a register loop, zero allocation.
pub const SUM_UNBOXED: CorpusProgram = CorpusProgram {
    name: "sum-unboxed",
    source: "sumTo# :: Int# -> Int# -> Int#\n\
             sumTo# acc n = case n of { 0# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }\n\
             main :: Int#\n\
             main = sumTo# 0# 2000#\n",
    expected: 2_001_000,
};

/// §2.1's boxed `sumTo`: the optimizer's worker/wrapper split turns it
/// back into a register loop; only the result is boxed.
pub const SUM_BOXED: CorpusProgram = CorpusProgram {
    name: "sum-boxed",
    source: "sumTo :: Int -> Int -> Int\n\
             sumTo acc n = case n of { I# k -> case k of { 0# -> acc; _ -> sumTo (acc + n) (n - 1) } }\n\
             main :: Int\n\
             main = sumTo 0 2000\n",
    expected: 2_001_000,
};

/// §7.3-style class dispatch at an unboxed type: `+`/`-` resolve via
/// the `Num Int#` instance, then call-site specialisation removes the
/// dictionaries.
pub const CLASS_DISPATCH: CorpusProgram = CorpusProgram {
    name: "class-dispatch",
    source: "upto :: Int# -> Int# -> Int#\n\
             upto acc n = case n of { 0# -> acc; _ -> upto (acc + n) (n - 1#) }\n\
             main :: Int#\n\
             main = upto 0# 1500#\n",
    expected: 1_125_750,
};

/// A loop returning an unboxed-friendly product each iteration: the
/// CPR pass keeps the `QR` boxes out of the hot path.
pub const CPR_PAIR: CorpusProgram = CorpusProgram {
    name: "cpr-pair",
    source: "data QR = QR Int# Int#\n\
             step :: Int# -> QR\n\
             step n = QR (n +# 1#) (n +# n)\n\
             loop :: Int# -> Int# -> Int#\n\
             loop acc n = case n of { 0# -> acc; _ -> case step n of { QR a b -> loop (acc +# a +# b) (n -# 1#) } }\n\
             main :: Int#\n\
             main = loop 0# 500#\n",
    expected: 376_250,
};

/// Deliberate allocation churn: builds a 300-cell boxed list and walks
/// it. The corpus member that actually stresses the heap.
pub const ALLOC_HEAVY: CorpusProgram = CorpusProgram {
    name: "alloc-heavy",
    source: "data Chain = End | Link Int Chain\n\
             build :: Int# -> Chain\n\
             build n = case n of { 0# -> End; _ -> Link (I# n) (build (n -# 1#)) }\n\
             len :: Chain -> Int#\n\
             len xs = case xs of { End -> 0#; Link h t -> 1# +# len t }\n\
             main :: Int#\n\
             main = len (build 300#)\n",
    expected: 300,
};

/// Allocation churn with a tiny live set: every round builds a fresh
/// 24-cell boxed list, walks it, and drops it. Cumulative allocation
/// is large but almost nothing is reachable at any moment — the
/// workload the copying collector exists for, and the one that grows
/// a non-collecting heap without bound. Kept out of [`MIXED_CORPUS`]
/// so the existing counter-equality tests over the mix are untouched.
pub const CHURN: CorpusProgram = CorpusProgram {
    name: "churn",
    source: "data Chain = End | Link Int Chain\n\
             build :: Int# -> Chain\n\
             build n = case n of { 0# -> End; _ -> Link (I# n) (build (n -# 1#)) }\n\
             len :: Chain -> Int#\n\
             len xs = case xs of { End -> 0#; Link h t -> 1# +# len t }\n\
             churn :: Int# -> Int# -> Int#\n\
             churn acc r = case r of { 0# -> acc; _ -> churn (acc +# len (build 24#)) (r -# 1#) }\n\
             main :: Int#\n\
             main = churn 0# 200#\n",
    expected: 4_800,
};

/// A divergent program — never terminates, allocates nothing. Exists
/// to be killed by the fuel meter.
pub const SPIN: &str = "spin :: Int# -> Int#\n\
                        spin n = spin (n +# 1#)\n\
                        main :: Int#\n\
                        main = spin 0#\n";

/// The full terminating corpus, in a fixed order.
pub const MIXED_CORPUS: [CorpusProgram; 5] = [
    SUM_UNBOXED,
    SUM_BOXED,
    CLASS_DISPATCH,
    CPR_PAIR,
    ALLOC_HEAVY,
];

/// A chain module of `levels` definitions (at least one), each calling
/// the one below it once through a primop, a class method at `Int#` or
/// a branch, and a `main` calling the top one: the shape of the serving
/// benchmark's cold-compile chain requests, whose inlining dominates
/// cold-compile tails.
pub fn chain_module(levels: u64) -> String {
    let mut source = String::from("c0 :: Int# -> Int#\nc0 x = x +# 7#\n");
    for j in 1..levels {
        let (prev, a, b, t) = (j - 1, 1 + j * 7 % 50, j * 13 % 50, j * 37 % 200);
        let body = match j % 3 {
            0 => format!("c{prev} (x +# {a}#) -# {b}#"),
            1 => format!("c{prev} (x - {a}#) + {b}#"),
            _ => {
                format!("c{prev} (case x <# {t}# of {{ 0# -> x -# {a}#; _ -> x +# {a}# }}) +# {b}#")
            }
        };
        source.push_str(&format!("c{j} :: Int# -> Int#\nc{j} x = {body}\n"));
    }
    source.push_str(&format!("main :: Int#\nmain = c{} 5#\n", levels - 1));
    source
}

/// A class chain of `levels` definitions (at least one), every operator
/// a `Num` method at `Int#`: `c0 x = x + 1#`,
/// `c_j x = c_{j-1} (x - 3#) + 4#`, and `main = c_{levels-1} 5#`, which
/// is `levels + 5`. Each level's call is an argument of a method, so
/// once the chain collapses into `main` every level's strict arithmetic
/// floats out of a `let`'s right-hand side: the simplifier's let-float
/// workload.
pub fn class_chain_module(levels: u64) -> String {
    let mut source = String::from("c0 :: Int# -> Int#\nc0 x = x + 1#\n");
    for j in 1..levels {
        source.push_str(&format!(
            "c{j} :: Int# -> Int#\nc{j} x = c{} (x - 3#) + 4#\n",
            j - 1
        ));
    }
    source.push_str(&format!("main :: Int#\nmain = c{} 5#\n", levels - 1));
    source
}

/// Extracts the integer from an outcome, whether `main :: Int#`
/// returned it raw or `main :: Int` returned it boxed.
pub fn expected_int(outcome: &RunOutcome) -> Option<i64> {
    let v = outcome.value()?;
    v.as_int().or_else(|| v.as_boxed_int())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvalRequest, EvalService, ServeConfig};

    #[test]
    fn every_corpus_program_evaluates_to_its_expected_value() {
        let service = EvalService::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        for prog in MIXED_CORPUS {
            let resp = service
                .call(EvalRequest::source(prog.source))
                .unwrap_or_else(|e| panic!("{}: {e}", prog.name));
            assert_eq!(
                expected_int(&resp.outcome),
                Some(prog.expected),
                "{}",
                prog.name
            );
        }
        service.shutdown();
    }
}
