//! `pipeline/` — a cold compile with the prelude, stage by stage.
//!
//! The rows follow the driver's path for a module compiled with the
//! prelude: the stages of its once-per-process prelude seed
//! (`PreludeSeed`), then the rest of the pipeline. Each stage runs over
//! six user modules: the five of `MIXED_CORPUS` and a
//! 24-definition chain module. Every stage's input is prepared by the
//! stages before it, and a row's time is the stage's total over the six
//! modules:
//!
//! * `pipeline/parse`, `pipeline/elaborate` (after the seed, sharing
//!   what it binds),
//!   `pipeline/check` (the Core check of the module's own bindings,
//!   which applies the §5.1 levity checks in the same walk);
//! * `pipeline/optimise` (from `main`, pruning first), `pipeline/lower`,
//!   `pipeline/code` (the environment engine's `Code`),
//!   `pipeline/bytecode` and `pipeline/verify`.
//!
//! `pipeline/compile_with_prelude` compiles the same six modules through
//! the driver, end to end. `pipeline/plus_chain_500` and
//! `pipeline/plus_chain_1000` each compile one module through the
//! driver, `main = 1# +# 1# +# … +# 1#` with 500 or 1000 terms, and
//! `pipeline/nested_app_500` and `pipeline/nested_app_1000` compile
//! `main = g (g (… (g 1#)))` with as many calls of a recursive `g`: a
//! term nested that deep shows any stage whose cost grows faster than
//! its input (linear stages take about twice as long for twice the
//! terms). `pipeline/class_chain_64` and `pipeline/chain_module_256`
//! time `optimise_program` alone on `class_chain_module(64)` and
//! `chain_module(256)`, the optimizer's two chain workloads.

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};

use levity_compile::lower::lower_program;
use levity_compile::opt::optimise_program;
use levity_core::symbol::Symbol;
use levity_driver::compile_with_prelude;
use levity_driver::prelude::PreludeSeed;
use levity_infer::elaborate::Elaborated;
use levity_ir::terms::Program;
use levity_ir::typecheck::TypeEnv;
use levity_m::bytecode::BcProgram;
use levity_m::compile::CodeProgram;
use levity_m::machine::Globals;
use levity_serve::corpus::{chain_module, class_chain_module, MIXED_CORPUS};
use levity_surface::ast::Module;

/// One module and every stage's output on it.
struct Stages {
    source: String,
    module: Module,
    elaborated: Elaborated,
    /// The fresh-name counter the front end left, where the driver's
    /// optimizer starts.
    fresh_mark: u64,
    optimised: (Program, TypeEnv),
    globals: Globals,
    code: CodeProgram,
    bytecode: Arc<BcProgram>,
}

fn run_stages(seed: &PreludeSeed, source: String) -> Stages {
    let entries: HashSet<Symbol> = [Symbol::intern("main")].into();
    let module = seed.parse(&source).unwrap();
    let (elaborated, _) = seed.front_end(&source).unwrap();
    let fresh_mark = levity_ir::fresh_names_mark();
    let (program, _, env) = optimise_program(&elaborated.program, Some(&entries)).unwrap();
    let globals = lower_program(&env, &program).unwrap();
    let code = CodeProgram::compile(&globals);
    let bytecode = Arc::new(BcProgram::compile(&code));
    levity_m::verify(&bytecode).unwrap();
    Stages {
        source,
        module,
        elaborated,
        fresh_mark,
        optimised: (program, env),
        globals,
        code,
        bytecode,
    }
}

fn bench_pipeline(c: &mut Criterion) {
    let seed = PreludeSeed::get().unwrap();
    let sources: Vec<String> = MIXED_CORPUS
        .iter()
        .map(|p| p.source.to_string())
        .chain([chain_module(24)])
        .collect();
    let all: Vec<Stages> = sources.into_iter().map(|s| run_stages(seed, s)).collect();
    let entries: HashSet<Symbol> = [Symbol::intern("main")].into();

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    let g = &mut group;
    row(g, &all, "parse", |s| seed.parse(&s.source));
    row(g, &all, "elaborate", |s| seed.elaborate(&s.module));
    row(g, &all, "check", |s| seed.check(&s.elaborated));
    row(g, &all, "optimise", |s| {
        levity_ir::restart_fresh_names_at(s.fresh_mark);
        optimise_program(&s.elaborated.program, Some(&entries))
    });
    row(g, &all, "lower", |s| {
        lower_program(&s.optimised.1, &s.optimised.0)
    });
    row(g, &all, "code", |s| CodeProgram::compile(&s.globals));
    row(g, &all, "bytecode", |s| BcProgram::compile(&s.code));
    row(g, &all, "verify", |s| levity_m::verify(&s.bytecode));
    row(g, &all, "compile_with_prelude", |s| {
        compile_with_prelude(&s.source)
    });
    let deep = [500, 1000].into_iter().flat_map(|n| {
        [
            ("plus_chain", n, plus_chain(n)),
            ("nested_app", n, nested_app(n)),
        ]
    });
    for (name, n, source) in deep {
        compile_with_prelude(&source).unwrap();
        group.bench_function(&format!("{name}_{n}"), |b| {
            b.iter(|| compile_with_prelude(&source))
        });
    }
    for (name, source) in [
        ("class_chain_64", class_chain_module(64)),
        ("chain_module_256", chain_module(256)),
    ] {
        let (elaborated, _) = seed.front_end(&source).unwrap();
        let fresh_mark = levity_ir::fresh_names_mark();
        group.bench_function(name, |b| {
            b.iter(|| {
                levity_ir::restart_fresh_names_at(fresh_mark);
                optimise_program(&elaborated.program, Some(&entries))
            })
        });
    }
    group.finish();
}

/// `main = 1# +# 1# +# … +# 1#` with `terms` terms: `+#` associates to
/// the left, so the body is a primop application `terms - 1` deep.
fn plus_chain(terms: usize) -> String {
    format!("main :: Int#\nmain = {}\n", vec!["1#"; terms].join(" +# "))
}

/// `main = g (g (… (g 1#)))` with `calls` calls of a recursive
/// `g :: Int# -> Int#`, which the inliner keeps: every argument is an
/// application `calls` deep at the bottom.
fn nested_app(calls: usize) -> String {
    format!(
        "g :: Int# -> Int#\n\
         g x = case x <# 0# of {{ 1# -> g (x +# 1#); _ -> x +# 1# }}\n\
         main :: Int#\nmain = {}1#{}\n",
        "g (".repeat(calls),
        ")".repeat(calls)
    )
}

/// One row: `stage` over every module, per iteration.
fn row<T>(
    group: &mut BenchmarkGroup<'_>,
    all: &[Stages],
    name: &str,
    stage: impl Fn(&Stages) -> T,
) {
    group.bench_function(name, |b| {
        b.iter(|| {
            for s in all {
                black_box(stage(s));
            }
        })
    });
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
