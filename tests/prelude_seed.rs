//! The prelude seed's oracle: compiling a module against the
//! once-per-process prelude seed (`compile_with_prelude_entries`) must
//! give exactly what compiling the concatenated source gives
//! (`compile_source_entries` over `PRELUDE`, a line break and the
//! module), at `O0` and at `O2`:
//!
//! * the same elaborated binding names, in the same order;
//! * the same optimised Core under the golden printer;
//! * byte-identical bytecode disassembly;
//! * an equal `OptReport`;
//! * equal outcomes and `MachineStats` on all three engines;
//! * and, for a program either path rejects, an equal `PipelineError`
//!   display.
//!
//! The programs are the golden corpus, the differential corpus, a sample
//! of generated surface programs, the serving corpus's cold-compile
//! shapes, chain modules, the modules that must take the concatenated
//! path (a redeclared prelude name, an indented first line), and one
//! program failing at each front-end stage.

mod support;

use levity::driver::pipeline::{compile_source_entries, compile_with_prelude_entries, Compiled};
use levity::driver::prelude::PreludeSeed;
use levity::driver::{OptLevel, PipelineError, PRELUDE};
use levity::m::Engine;
use levity::serve::corpus::{chain_module, CHURN, MIXED_CORPUS};

use support::golden::{render, GOLDEN};
use support::surface::{gen_program, CORPUS};

/// Enough for every terminating program here; a program that runs out
/// must run out identically on both paths.
const FUEL: u64 = 2_000_000;

/// Everything the oracle compares of a successful compilation.
#[derive(Debug, PartialEq)]
struct Observed {
    names: Vec<String>,
    core: String,
    disasm: String,
    report: String,
    runs: Vec<String>,
}

fn observe(compiled: &Compiled) -> Observed {
    let runs = if compiled.program.binding("main".into()).is_some() {
        [Engine::Subst, Engine::Env, Engine::Bytecode]
            .into_iter()
            .map(|engine| format!("{:?}", compiled.run_with_engine("main", FUEL, engine)))
            .collect()
    } else {
        Vec::new()
    };
    Observed {
        names: compiled
            .elaborated
            .program
            .bindings
            .iter()
            .map(|b| b.name.to_string())
            .collect(),
        core: render(&compiled.program),
        disasm: compiled.bytecode.disasm(),
        report: format!("{:?}", compiled.opt_report),
        runs,
    }
}

fn outcome(result: Result<Compiled, PipelineError>) -> Result<Observed, String> {
    result.map(|c| observe(&c)).map_err(|e| e.to_string())
}

/// Asserts the seeded and the concatenated compilation of `source`
/// agree at both levels; returns the seeded `O2` outcome.
fn assert_seed_agrees(what: &str, source: &str) -> Result<Observed, String> {
    let mut o2 = None;
    for level in [OptLevel::O0, OptLevel::O2] {
        let seeded = outcome(compile_with_prelude_entries(source, level, None));
        let concatenated = outcome(compile_source_entries(
            &format!("{PRELUDE}\n{source}"),
            level,
            None,
        ));
        assert!(
            seeded == concatenated,
            "{what} at {level}: the seeded compile differs from the concatenated one\n\
             seeded: {seeded:#?}\nconcatenated: {concatenated:#?}\n{source}"
        );
        o2 = Some(seeded);
    }
    o2.expect("two levels ran")
}

/// Does `source` take the seeded path? The seed declines a module
/// without an error, so a change that made it decline too much — or a
/// prelude that stopped building a seed at all — would pass the
/// equality checks alone while every compile paid for the prelude.
fn follows_the_seed(source: &str) -> bool {
    PreludeSeed::get()
        .expect("the prelude builds a seed")
        .front_end(source)
        .is_some()
}

/// Asserts every program follows the seed and compiles identically
/// both ways.
fn assert_all_agree<'a>(programs: impl IntoIterator<Item = (&'a str, &'a str)>) {
    for (what, source) in programs {
        assert!(
            follows_the_seed(source),
            "{what} must follow the prelude seed\n{source}"
        );
        assert_seed_agrees(what, source)
            .unwrap_or_else(|e| panic!("{what} must compile: {e}\n{source}"));
    }
}

#[test]
fn the_golden_corpus_compiles_identically() {
    assert_all_agree(GOLDEN.iter().copied());
}

#[test]
fn the_differential_corpus_compiles_identically() {
    assert_all_agree(CORPUS.iter().copied());
}

#[test]
fn generated_surface_programs_compile_identically() {
    for seed in 0..12 {
        let source = gen_program(seed);
        assert_all_agree([(format!("generated program {seed}").as_str(), &*source)]);
    }
}

#[test]
fn cold_compile_shapes_and_chain_modules_compile_identically() {
    assert_all_agree(
        MIXED_CORPUS
            .iter()
            .chain([&CHURN])
            .map(|p| (p.name, p.source)),
    );
    for levels in [8, 20, 32] {
        let source = chain_module(levels);
        assert_all_agree([(format!("chain/{levels}").as_str(), &*source)]);
    }
}

/// Modules the seed must decline: each redeclares something the
/// prelude binds, or starts indented and so continues the prelude's last
/// declaration. Elaborated on the seed they would diverge from the
/// concatenated compile; on the concatenated path they cannot.
#[test]
fn modules_that_cannot_follow_the_seed_compile_identically() {
    for (what, source) in [
        (
            "a user fst",
            "fst :: Int# -> Int#\nfst x = x +# 1#\nmain :: Int#\nmain = fst 41#\n",
        ),
        (
            "a user data Pair",
            "data Pair = P Int# Int#\nmain :: Int#\nmain = case P 1# 2# of { P a b -> a +# b }\n",
        ),
        (
            "a user class Num",
            "class Num a where { plus :: a -> a -> a }\n\
             instance Num Int where { plus = plusInt }\n\
             main :: Int\nmain = plus 1 2\n",
        ),
        ("an indented first line", "  main :: Int#\nmain = 3#\n"),
        (
            "an indented first line that is an application",
            "  (I# 1#)\nmain :: Int#\nmain = 3#\n",
        ),
        (
            "a user error",
            "error :: Int#\nerror = 1#\nmain :: Int#\nmain = error\n",
        ),
        (
            "a user primop name",
            "negateInt# :: Int# -> Int#\nnegateInt# x = x\nmain :: Int#\nmain = negateInt# 3#\n",
        ),
    ] {
        assert!(
            !follows_the_seed(source),
            "{what} must take the concatenated path\n{source}"
        );
        let _ = assert_seed_agrees(what, source);
    }
}

/// A new class, instance and datatype follow the seed without
/// redeclaring anything it binds.
#[test]
fn new_declarations_compile_identically() {
    assert_all_agree([
        (
            "a new class with instances",
            "class Sized a where { size :: a -> Int# }\n\
             instance Sized Int where { size x = 1# }\n\
             instance Sized Bool where { size b = if b then 2# else 3# }\n\
             main :: Int#\nmain = size (I# 4#) +# size True\n",
        ),
        (
            "an unsigned binding that generalizes",
            "twice f x = f (f x)\nmain :: Int\nmain = twice (\\n -> n + 1) 40\n",
        ),
        (
            "an instance of a prelude class at a new type",
            "data V = V Int#\n\
             instance Num V where { (+) a b = case a of { V x -> case b of { V y -> V (x +# y) } }; \
             (-) a b = a; (*) a b = a; abs a = a; negate a = a }\n\
             main :: Int#\nmain = case V 2# + V 3# of { V z -> z }\n",
        ),
        ("an empty module", ""),
        ("only a comment", "-- nothing here\n"),
    ]);
}

/// Failures at each front-end stage report the same error both ways.
#[test]
fn front_end_failures_are_identical() {
    for (what, source, stage) in [
        (
            "a parse error",
            "main :: Int#\nmain = case 1# of {\n",
            "parse error",
        ),
        (
            "a lex error",
            "main :: Int#\nmain = 1# ` 2#\n",
            "parse error",
        ),
        (
            "a type error",
            "main :: Int#\nmain = 1# +# True\n",
            "elaboration failed",
        ),
        (
            "a duplicate instance Num Int",
            "instance Num Int where { (+) = plusInt; (-) = minusInt; (*) = timesInt; \
             abs = absInt; negate = negateInt }\nmain :: Int\nmain = 1 + 2\n",
            "elaboration failed",
        ),
        (
            "an unresolved instance",
            "main :: Bool\nmain = True + False\n",
            "elaboration failed",
        ),
        (
            "a levity error",
            "bad :: forall (r :: Rep) (a :: TYPE r). a -> a\nbad x = x\nmain :: Int#\nmain = 3#\n",
            "levity restrictions violated",
        ),
    ] {
        assert!(
            follows_the_seed(source),
            "{what} must follow the prelude seed"
        );
        let err = assert_seed_agrees(what, source).expect_err(what);
        assert!(err.starts_with(stage), "{what}: {err}");
    }
}
