//! The prelude seed's oracle. A module compiled with the prelude is
//! compiled after it, on the once-per-process prelude seed
//! (`compile_with_prelude_entries`). For a module that redeclares no
//! prelude name, that must give what compiling the concatenated source
//! gives (`compile_source_entries` over `PRELUDE`, a line break and the
//! module), at `O0` and at `O2`:
//!
//! * the same elaborated datatypes and bindings, as multisets of their
//!   `Debug` renders: the same Core per binding, with names and
//!   metavariables numbered alike;
//! * the same elaborated environment: its globals' types, the class
//!   table's classes, instances and methods, and the type families, each
//!   as a multiset of `Debug` renders. The seeded compile layers these
//!   over the seed's instead of copying them;
//! * byte-identical bytecode disassembly;
//! * the same optimised Core under the golden printer, at `O2`;
//! * an equal `OptReport`;
//! * equal outcomes and `MachineStats` on all three engines;
//! * and, for a program either path rejects, an equal `PipelineError`
//!   display.
//!
//! Binding order is not compared, nor the `O0` Core render, which
//! prints the elaborated program in binding order: the seeded program
//! lists the prelude's bindings first, the concatenated one interleaves
//! them with the module's pass by pass.
//!
//! The programs are the golden corpus, the differential corpus, a sample
//! of generated surface programs, the serving corpus's cold-compile
//! shapes, chain modules, new declarations, and one program failing at
//! each front-end stage. Modules that redeclare a prelude name, or whose
//! first line is indented (which continues the prelude's last
//! declaration in the concatenation), are pinned on their own.

mod support;

use levity::core::diag::ErrorCode;
use levity::driver::pipeline::{
    compile_source_entries, compile_with_prelude, compile_with_prelude_entries, Compiled,
};
use levity::driver::{OptLevel, PipelineError, PRELUDE};
use levity::m::Engine;
use levity::serve::corpus::{chain_module, CHURN, MIXED_CORPUS};
use levity::surface::parse_module;

use support::golden::{render, GOLDEN};
use support::surface::{gen_program, CORPUS};

/// Enough for every terminating program here; a program that runs out
/// must run out identically on both paths.
const FUEL: u64 = 2_000_000;

/// Everything the oracle compares of a successful compilation.
#[derive(Debug, PartialEq)]
struct Observed {
    /// The elaborated datatypes' `Debug` renders, sorted.
    data_decls: Vec<String>,
    /// The elaborated bindings' `Debug` renders, sorted.
    bindings: Vec<String>,
    /// The elaborated environment's `(global, type)` renders, sorted.
    globals: Vec<String>,
    /// The class table's classes, instances and methods, each sorted.
    classes: [Vec<String>; 3],
    /// The type families' renders, sorted.
    families: Vec<String>,
    /// The golden render of the optimised Core; `None` at `O0`.
    core: Option<String>,
    disasm: String,
    report: String,
    runs: Vec<String>,
}

fn sorted_debug(items: impl IntoIterator<Item = impl std::fmt::Debug>) -> Vec<String> {
    let mut out: Vec<String> = items.into_iter().map(|i| format!("{i:?}")).collect();
    out.sort();
    out
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
    let elaborated = &compiled.elaborated;
    let classes = &elaborated.classes;
    Observed {
        data_decls: sorted_debug(&elaborated.program.data_decls),
        bindings: sorted_debug(&elaborated.program.bindings),
        globals: sorted_debug(elaborated.env.globals()),
        classes: [
            sorted_debug(&classes.classes),
            sorted_debug(&classes.instances),
            sorted_debug(&classes.methods),
        ],
        families: sorted_debug(elaborated.families.iter()),
        core: (compiled.opt_level == OptLevel::O2).then(|| render(&compiled.program)),
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

/// Asserts every program compiles, identically both ways.
fn assert_all_agree<'a>(programs: impl IntoIterator<Item = (&'a str, &'a str)>) {
    for (what, source) in programs {
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

/// A module may not redeclare a name the prelude binds or uses: a
/// value, a type, a data constructor, a class, a primop or `error`.
/// Each such declaration is an `E-duplicate` error naming the name.
#[test]
fn modules_that_redeclare_a_prelude_name_are_rejected() {
    for (what, source, name) in [
        (
            "a user fst",
            "fst :: Int# -> Int#\nfst x = x +# 1#\nmain :: Int#\nmain = fst 41#\n",
            "fst",
        ),
        (
            "a user data Pair",
            "data Pair = P Int# Int#\nmain :: Int#\nmain = case P 1# 2# of { P a b -> a +# b }\n",
            "Pair",
        ),
        (
            "a user class Num",
            "class Num a where { plus :: a -> a -> a }\n\
             instance Num Int where { plus = plusInt }\n\
             main :: Int\nmain = plus 1 2\n",
            "Num",
        ),
        (
            "a user error",
            "error :: Int#\nerror = 1#\nmain :: Int#\nmain = error\n",
            "error",
        ),
        (
            "a user primop name",
            "negateInt# :: Int# -> Int#\nnegateInt# x = x\nmain :: Int#\nmain = negateInt# 3#\n",
            "negateInt#",
        ),
    ] {
        for level in [OptLevel::O0, OptLevel::O2] {
            match compile_with_prelude_entries(source, level, None) {
                Err(PipelineError::Elaborate(diags)) => assert!(
                    diags.iter().all(|d| d.code == ErrorCode::Duplicate)
                        && diags
                            .iter()
                            .any(|d| d.message.contains(&format!("`{name}`"))),
                    "{what} at {level}: {diags:?}"
                ),
                Err(e) => panic!("{what} at {level}: expected E-duplicate, got {e}"),
                Ok(_) => panic!("{what} at {level}: redeclaring `{name}` compiled"),
            }
        }
    }
}

/// A module is parsed on its own, so an indented first line means what
/// it means to `parse_module` alone, not a continuation of the prelude's
/// last declaration.
#[test]
fn an_indented_first_line_parses_as_on_its_own() {
    let source = "  main :: Int#\nmain = 3#\n";
    parse_module(source).expect("parses on its own");
    let (out, _) = compile_with_prelude(source)
        .unwrap_or_else(|e| panic!("{e}"))
        .run("main", FUEL)
        .unwrap();
    assert_eq!(out.value().and_then(|v| v.as_int()), Some(3));

    let source = "  (I# 1#)\nmain :: Int#\nmain = 3#\n";
    let alone = parse_module(source).expect_err("does not parse on its own");
    match compile_with_prelude(source) {
        Err(PipelineError::Parse(d)) => assert_eq!(d, alone),
        other => panic!("expected parse_module's error {alone}, got {other:?}"),
    }
}

/// A new class, instance and datatype compile after the prelude without
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
            "an Eq instance at a new type",
            "data W = W Int#\n\
             instance Eq W where { (==) a b = case a of { W x -> case b of { W y -> x == y } }; \
             (/=) a b = not (a == b) }\n\
             main :: Int#\nmain = if W 1# == W 1# then 1# else 0#\n",
        ),
        (
            "a type family",
            "type family F a :: TYPE IntRep where { F Int = Int# }\n\
             double :: Int# -> Int#\ndouble x = x +# x\n\
             main :: Int#\nmain = double 21#\n",
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

/// A module elaborated after the seed starts from a unifier that has
/// solved none of the seed's metavariables. That is sound because
/// nothing in the seed's scope mentions one: every global's type, every
/// class method's type and every instance head is zonked.
#[test]
fn the_seeds_scope_mentions_no_metavariable() {
    let compiled = compile_with_prelude("").unwrap_or_else(|e| panic!("{e}"));
    let elaborated = &compiled.elaborated;
    let classes = &elaborated.classes;
    let types = elaborated
        .env
        .globals()
        .map(|(_, ty)| ty)
        .chain(
            classes
                .classes
                .values()
                .flat_map(|c| c.methods.iter().map(|(_, ty)| ty)),
        )
        .chain(classes.instances.iter().map(|i| &i.head));
    for ty in types {
        let metas: Vec<_> = ty
            .free_ty_vars()
            .into_iter()
            .chain(ty.free_rep_vars())
            .filter(|v| v.as_str().starts_with('?'))
            .collect();
        assert!(metas.is_empty(), "`{ty}` mentions {metas:?}");
    }
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
        let err = assert_seed_agrees(what, source).expect_err(what);
        assert!(err.starts_with(stage), "{what}: {err}");
    }
}
