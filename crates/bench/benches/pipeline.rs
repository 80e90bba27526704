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
//! * `pipeline/parse`, `pipeline/elaborate` (on a clone of the seed),
//!   `pipeline/check` (the Core check of the module's own bindings),
//!   `pipeline/levity` (the §5.1 checks of the same bindings);
//! * `pipeline/optimise` (from `main`, pruning first), `pipeline/lower`,
//!   `pipeline/code` (the environment engine's `Code`),
//!   `pipeline/bytecode` and `pipeline/verify`.
//!
//! `pipeline/compile_with_prelude` compiles the same six modules through
//! the driver, end to end.

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
use levity_serve::corpus::{chain_module, MIXED_CORPUS};
use levity_surface::ast::Module;

/// One module and every stage's output on it.
struct Stages {
    source: String,
    module: Module,
    elaborated: Elaborated,
    checked: TypeEnv,
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
    let module = seed.parse(&source).expect("follows the seed").unwrap();
    let (elaborated, checked) = seed.front_end(&source).expect("follows the seed").unwrap();
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
        checked,
        fresh_mark,
        optimised: (program, env),
        globals,
        code,
        bytecode,
    }
}

fn bench_pipeline(c: &mut Criterion) {
    let seed = PreludeSeed::get().expect("the prelude compiles");
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
    row(g, &all, "levity", |s| {
        seed.check_levity(&s.checked, &s.elaborated)
    });
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
    group.finish();
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
