//! The end-to-end pipeline:
//!
//! ```text
//! source ──parse──▶ surface AST ──elaborate──▶ Core (§5.2, §7.3)
//!        ──lint──▶ checked Core ──levity-check──▶ (§5.1, "desugarer")
//!        ──opt──▶ optimized Core (specialise, inline, worker/wrapper)
//!        ──lower──▶ M globals ──run──▶ value + machine statistics
//! ```
//!
//! Each stage's failures are reported separately so tests can pinpoint
//! *where* a program is rejected — in particular, levity violations are
//! distinguishable from ordinary type errors, mirroring GHC (§8.2).
//!
//! The optimizer runs at [`OptLevel::O2`] by default and is selectable
//! like the engine: [`compile_source_opt`] / [`compile_with_prelude_opt`]
//! take an explicit level, and `O0` lowers the elaborated Core verbatim
//! (the differential-testing baseline). The optimized program is
//! re-typechecked before lowering, and the §5.1 levity checks re-run on
//! it in debug builds — the pass pipeline must be
//! representation-preserving.
//!
//! # The prelude
//!
//! [`compile_with_prelude`] and its variants compile the user's module as
//! if it followed the [`PRELUDE`] in one source, but do the front end's
//! work (parse, elaborate, Core check, levity check) for the user's
//! module only: the prelude went through it once per process, and its
//! result seeds every later compilation (see [`crate::prelude`]). The
//! result equals compiling the concatenated source, which is still what
//! a module takes when it cannot follow the seed: one that redeclares a
//! name the prelude binds, or whose first line is indented and so would
//! continue the prelude's last declaration.
//!
//! # Entry points
//!
//! At `O2` the optimizer starts and finishes with dead-global
//! elimination, driven by an explicit entry-point set recorded in
//! [`Compiled::entry_points`]. The first sweep leaves the passes only
//! the code the entries reach (of a prelude compilation, usually the
//! user's module and a handful of prelude bindings); the last drops what
//! the passes themselves left unreachable. The set is:
//!
//! * by default, `main` when the module defines it, otherwise **every**
//!   top-level binding (so a library-shaped module — the bare prelude,
//!   a module driven through [`Compiled::run_term`] — keeps everything
//!   runnable, exactly as before the pass existed);
//! * [`compile_source_entries`] / [`compile_with_prelude_entries`]
//!   accept an explicit list — name the globals you intend to run, and
//!   everything they cannot reach is dropped before optimisation and
//!   lowering. An exported-but-unused global survives elimination
//!   precisely by being listed.
//!
//! Elimination never skips a check: every binding, reachable or not,
//! has passed the Core and levity checks before the optimizer runs.
//! Running a global that elimination removed fails with the machine's
//! ordinary `UnknownGlobal` error; `O0` never eliminates anything.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use levity_core::diag::{Diagnostic, Diagnostics};
use levity_core::pretty::PrintOptions;
use levity_core::symbol::Symbol;

use levity_compile::lower::{lower_program, LowerError};
use levity_compile::opt::{optimise_program, OptLevel, OptReport};
use levity_infer::elaborate::{elaborate_module, Elaborated};
use levity_ir::levity::check_program_levity;
use levity_ir::terms::Program;
use levity_ir::typecheck::{CoreError, TypeEnv};
use levity_m::bytecode::BcProgram;
use levity_m::compile::CodeProgram;
use levity_m::env::EnvMachine;
use levity_m::machine::{Globals, Machine, MachineError, MachineStats, RunOutcome};
use levity_m::regmachine::BcMachine;
use levity_m::syntax::MExpr;
use levity_m::verify::{VerifiedProgram, VerifyError};
use levity_m::Engine;
use levity_surface::parser::parse_module;

use crate::prelude::{PreludeSeed, PRELUDE};

/// Where the pipeline rejected a program.
#[derive(Debug)]
pub enum PipelineError {
    /// Lexing/parsing failed.
    Parse(Diagnostic),
    /// Elaboration (scoping, type inference, class resolution) failed.
    Elaborate(Diagnostics),
    /// The generated Core failed the lint — a compiler bug if reached
    /// from surface source.
    CoreLint(Symbol, CoreError),
    /// The §5.1 levity checks failed.
    Levity(Diagnostics),
    /// Lowering to `M` failed (unsupported construct).
    Lower(LowerError),
    /// The generated bytecode failed static verification — a compiler
    /// bug if reached from surface source.
    Verify(VerifyError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(d) => write!(f, "parse error: {d}"),
            PipelineError::Elaborate(ds) => {
                write!(f, "elaboration failed:")?;
                for d in ds {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            PipelineError::CoreLint(name, e) => {
                write!(f, "core lint failed in `{name}`: {e}")
            }
            PipelineError::Levity(ds) => {
                write!(f, "levity restrictions violated (section 5.1):")?;
                for d in ds {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            PipelineError::Lower(e) => write!(f, "lowering failed: {e}"),
            PipelineError::Verify(e) => write!(f, "bytecode verification failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl PipelineError {
    /// Is this a §5.1 levity-restriction rejection?
    pub fn is_levity_rejection(&self) -> bool {
        matches!(self, PipelineError::Levity(_))
    }
}

/// A fully compiled program, ready to run on any of the three `M`
/// engines.
///
/// The prelude and user globals are lowered to [`Globals`] (the
/// substitution machine's input), pre-compiled once into a shared
/// [`CodeProgram`] for the environment engine, and flattened once into
/// a shared [`BcProgram`] for the register machine, so repeated runs —
/// the benchmark loops in particular — pay no per-run compilation cost.
#[derive(Debug)]
pub struct Compiled {
    /// Elaboration results (the *unoptimized* Core program,
    /// environments, classes).
    pub elaborated: Elaborated,
    /// The Core program that was actually lowered: the optimizer's
    /// output at [`OptLevel::O2`], the elaborated program verbatim at
    /// [`OptLevel::O0`].
    pub program: Program,
    /// The optimization level this program was compiled at.
    pub opt_level: OptLevel,
    /// What the optimizer did (all-zero at `O0`).
    pub opt_report: OptReport,
    /// The entry points dead-global elimination preserved code for:
    /// `main` if the module defines it, every binding otherwise, or
    /// exactly the names given to [`compile_source_entries`] /
    /// [`compile_with_prelude_entries`].
    pub entry_points: Vec<Symbol>,
    /// Machine code for every top-level binding.
    pub globals: Globals,
    /// The globals pre-compiled for the environment engine.
    pub code: Arc<CodeProgram>,
    /// The globals flattened to bytecode for the register machine.
    pub bytecode: Arc<BcProgram>,
    /// The static verifier's witness over [`Compiled::bytecode`]:
    /// proof that every chunk respects the per-class register
    /// discipline. The register machine runs only entries verified
    /// against it.
    pub verified: VerifiedProgram,
}

/// Per-run resource limits: a fuel budget (machine steps) and an
/// optional allocation cap (estimated words). The serving layer sets
/// both per request; plain `run`/`run_with_engine` calls use an
/// uncapped allocation budget.
#[derive(Clone, Copy, Debug)]
pub struct RunLimits {
    /// Maximum machine steps before the run is killed with
    /// [`MachineError::OutOfFuel`].
    pub fuel: u64,
    /// Maximum estimated words allocated before the run is killed with
    /// [`MachineError::AllocLimitExceeded`]; `None` leaves the heap
    /// unbounded.
    pub alloc_words: Option<u64>,
    /// Maximum *live* bytes after a collection before the run is
    /// killed with [`MachineError::HeapLimitExceeded`]; `None` leaves
    /// residency uncapped. Only the collecting (bytecode) engine
    /// enforces it — the tree engines never reclaim, so their
    /// residency equals cumulative allocation and is governed by
    /// `alloc_words`.
    pub heap_bytes: Option<u64>,
    /// Nursery-size override in heap cells for the bytecode engine's
    /// collector; `None` uses the built-in
    /// [`levity_m::gc::DEFAULT_NURSERY_CELLS`].
    pub gc_nursery: Option<usize>,
}

impl RunLimits {
    /// A fuel budget with no allocation or residency cap.
    pub fn fuel(fuel: u64) -> RunLimits {
        RunLimits {
            fuel,
            alloc_words: None,
            heap_bytes: None,
            gc_nursery: None,
        }
    }
}

// One compiled program is shared read-only across serving workers: the
// whole point of the Arc-spined representation. A non-Sync field
// sneaking into any layer of `Compiled` (an Rc, a RefCell) would
// silently confine programs to one thread again — fail the build
// instead.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Compiled>();
    assert_send_sync::<RunLimits>();
};

impl Compiled {
    /// Runs a zero-argument top-level binding on the default engine
    /// ([`Engine::Env`]).
    ///
    /// # Errors
    ///
    /// Machine failures (including fuel exhaustion).
    pub fn run(&self, entry: &str, fuel: u64) -> Result<(RunOutcome, MachineStats), MachineError> {
        self.run_with_engine(entry, fuel, Engine::default())
    }

    /// Runs a zero-argument top-level binding on the chosen engine
    /// under explicit [`RunLimits`].
    ///
    /// # Errors
    ///
    /// Machine failures, including fuel exhaustion and the allocation
    /// cap.
    pub fn run_with_limits(
        &self,
        entry: &str,
        engine: Engine,
        limits: RunLimits,
    ) -> Result<(RunOutcome, MachineStats), MachineError> {
        self.run_term_with_limits(MExpr::global(entry), engine, limits)
    }

    /// Runs a zero-argument top-level binding on the chosen engine.
    ///
    /// # Errors
    ///
    /// Machine failures (including fuel exhaustion).
    pub fn run_with_engine(
        &self,
        entry: &str,
        fuel: u64,
        engine: Engine,
    ) -> Result<(RunOutcome, MachineStats), MachineError> {
        self.run_term_with_engine(MExpr::global(entry), fuel, engine)
    }

    /// Runs an arbitrary `M` term against this program's globals on the
    /// default engine ([`Engine::Env`]).
    ///
    /// # Errors
    ///
    /// Machine failures (including fuel exhaustion).
    pub fn run_term(
        &self,
        term: Arc<MExpr>,
        fuel: u64,
    ) -> Result<(RunOutcome, MachineStats), MachineError> {
        self.run_term_with_engine(term, fuel, Engine::default())
    }

    /// Runs an arbitrary `M` term against this program's globals on the
    /// chosen engine. On [`Engine::Env`] only the entry term itself is
    /// compiled per call; the globals were compiled once up front.
    ///
    /// # Errors
    ///
    /// Machine failures (including fuel exhaustion).
    pub fn run_term_with_engine(
        &self,
        term: Arc<MExpr>,
        fuel: u64,
        engine: Engine,
    ) -> Result<(RunOutcome, MachineStats), MachineError> {
        self.run_term_with_limits(term, engine, RunLimits::fuel(fuel))
    }

    /// Runs an arbitrary `M` term against this program's globals on the
    /// chosen engine under explicit [`RunLimits`].
    ///
    /// # Errors
    ///
    /// Machine failures, including fuel exhaustion and the allocation
    /// cap. On [`Engine::Bytecode`], a term whose compiled entry fails
    /// verification is [`MachineError::Unverified`] and never runs.
    pub fn run_term_with_limits(
        &self,
        term: Arc<MExpr>,
        engine: Engine,
        limits: RunLimits,
    ) -> Result<(RunOutcome, MachineStats), MachineError> {
        let alloc_words = limits.alloc_words.unwrap_or(u64::MAX);
        match engine {
            Engine::Subst => {
                let mut machine = Machine::with_globals(self.globals.clone());
                machine.set_fuel(limits.fuel);
                machine.set_alloc_limit(alloc_words);
                let out = machine.run(term)?;
                Ok((out, *machine.stats()))
            }
            Engine::Env => {
                let entry = self.code.compile_entry(&term);
                let mut machine = EnvMachine::new(&self.code);
                machine.set_fuel(limits.fuel);
                machine.set_alloc_limit(alloc_words);
                let out = machine.run(&entry)?;
                Ok((out, *machine.stats()))
            }
            Engine::Bytecode => {
                let entry = self.bytecode.compile_entry(&self.code.compile_entry(&term));
                let mut machine = BcMachine::new(Arc::clone(&self.bytecode));
                machine.set_fuel(limits.fuel);
                machine.set_alloc_limit(alloc_words);
                if let Some(bytes) = limits.heap_bytes {
                    machine.set_heap_limit(bytes);
                }
                if let Some(cells) = limits.gc_nursery {
                    machine.set_gc_nursery(cells);
                }
                // The program was verified at compile time; the entry
                // term is verified here, once per run. An entry the
                // verifier rejects never runs: it is a structured
                // `MachineError::Unverified`.
                let out = machine.run(&self.verified.verify_entry(&entry)?)?;
                Ok((out, *machine.stats()))
            }
        }
    }

    /// The printed type of a global, under the §8.1 policy: rep
    /// variables are defaulted to `LiftedRep` unless
    /// `opts.explicit_runtime_reps` is set.
    pub fn signature(&self, name: &str, opts: &PrintOptions) -> Option<String> {
        self.elaborated
            .env
            .global(Symbol::intern(name))
            .map(|t| t.display_with(opts))
    }
}

/// Compiles a module from source, without the prelude, at the default
/// optimization level ([`OptLevel::O2`]).
///
/// # Errors
///
/// See [`PipelineError`].
pub fn compile_source(source: &str) -> Result<Compiled, PipelineError> {
    compile_source_opt(source, OptLevel::default())
}

/// Compiles a module from source, without the prelude, at the given
/// optimization level, with the default entry-point policy (`main` if
/// defined, every binding otherwise).
///
/// # Errors
///
/// See [`PipelineError`].
pub fn compile_source_opt(source: &str, opt_level: OptLevel) -> Result<Compiled, PipelineError> {
    compile_source_entries(source, opt_level, None)
}

/// Compiles a module from source with an explicit entry-point set.
/// `entries: None` applies the default policy; `Some(names)` keeps
/// exactly the named globals (and everything they reach) through
/// dead-global elimination — names that match no binding are ignored.
///
/// # Errors
///
/// See [`PipelineError`].
pub fn compile_source_entries(
    source: &str,
    opt_level: OptLevel,
    entries: Option<&[&str]>,
) -> Result<Compiled, PipelineError> {
    // Binder names need only be fresh within this program; restarting
    // the counter keeps a long-running process from interning new names
    // for every program it compiles.
    levity_ir::restart_fresh_names();
    let module = parse_module(source).map_err(PipelineError::Parse)?;
    let elaborated = elaborate_module(&module).map_err(PipelineError::Elaborate)?;
    // Core lint: the elaborator must produce well-typed Core.
    let env = levity_ir::typecheck::check_program(&elaborated.program)
        .map_err(|(name, e)| PipelineError::CoreLint(name, e))?;
    // The §5.1 levity checks, after type checking (§8.2).
    let levity_diags = check_program_levity(&env, &elaborated.program);
    if levity_diags.has_errors() {
        return Err(PipelineError::Levity(levity_diags));
    }
    compile_elaborated(elaborated, env, opt_level, entries)
}

/// The pipeline after the front end: an elaborated program that passed
/// the Core and levity checks, with `env` the Core check's environment,
/// optimised, lowered, compiled for every engine and verified.
fn compile_elaborated(
    elaborated: Elaborated,
    env: TypeEnv,
    opt_level: OptLevel,
    entries: Option<&[&str]>,
) -> Result<Compiled, PipelineError> {
    // Resolve the entry-point set against the elaborated program: the
    // optimizer may rename reachable code (specialised clones), but an
    // entry itself is always kept under its own name.
    let entry_points: Vec<Symbol> = match entries {
        Some(names) => names
            .iter()
            .map(|n| Symbol::intern(n))
            .filter(|n| elaborated.program.binding(*n).is_some())
            .collect(),
        None => {
            let main = Symbol::intern("main");
            if elaborated.program.binding(main).is_some() {
                vec![main]
            } else {
                elaborated.program.bindings.iter().map(|b| b.name).collect()
            }
        }
    };
    // The levity-directed optimizer, between the checks and lowering.
    // Every pass re-typechecks its output (and re-runs the levity checks
    // under debug_assertions); a failure here is an optimizer bug and
    // surfaces through the lint variant.
    let (program, opt_report, env) = match opt_level {
        OptLevel::O0 => {
            // No optimizer pass will lint-check an O0 program, so
            // debug builds lint the elaborated Core here, once.
            let mut report = OptReport::default();
            if cfg!(debug_assertions) {
                let lints = levity_compile::lint_program(&env, &elaborated.program);
                report.lint_runs = 1;
                report.lint_errors = lints.errors.len();
                report.lint_warnings = lints.warnings.len();
                debug_assert!(lints.is_clean(), "elaborated Core failed lint:\n{lints}");
            }
            (elaborated.program.clone(), report, env)
        }
        OptLevel::O2 => {
            // The returned environment already covers worker globals:
            // the optimizer re-typechecked the whole program after its
            // final pass, so lowering can proceed directly.
            let entry_set: HashSet<Symbol> = entry_points.iter().copied().collect();
            let (program, report, env) = optimise_program(&elaborated.program, Some(&entry_set))
                .map_err(|(name, e)| PipelineError::CoreLint(name, e))?;
            (program, report, env)
        }
    };
    let globals = lower_program(&env, &program).map_err(PipelineError::Lower)?;
    // Pre-resolve everything once for the environment engine: each
    // `Compiled::run` then starts from shared, already-compiled code.
    let code = Arc::new(CodeProgram::compile(&globals));
    // ... and once more into flat bytecode for the register machine.
    let bytecode = Arc::new(BcProgram::compile(&code));
    // Statically verify the bytecode once, here: the register machine
    // runs nothing else. A rejection is a bytecode-compiler bug,
    // reported like any other internal lint failure.
    let verified = levity_m::verify(&bytecode).map_err(PipelineError::Verify)?;
    Ok(Compiled {
        elaborated,
        program,
        opt_level,
        opt_report,
        entry_points,
        globals,
        code,
        bytecode,
        verified,
    })
}

/// Compiles user source together with the [`PRELUDE`]: the same
/// result as compiling the prelude, a line break and `source` as one
/// module, at the cost of the user's module (see [the module
/// docs](self#the-prelude)).
///
/// # Errors
///
/// See [`PipelineError`].
///
/// # Examples
///
/// ```
/// use levity_driver::pipeline::compile_with_prelude;
///
/// let compiled = compile_with_prelude(
///     "main :: Int#\nmain = 3# + 4#\n", // §7.3: class methods at Int#
/// )?;
/// let (out, _stats) = compiled.run("main", 1_000_000).unwrap();
/// assert_eq!(out.value().and_then(|v| v.as_int()), Some(7));
/// # Ok::<(), levity_driver::pipeline::PipelineError>(())
/// ```
pub fn compile_with_prelude(source: &str) -> Result<Compiled, PipelineError> {
    compile_with_prelude_opt(source, OptLevel::default())
}

/// Compiles user source together with the [`PRELUDE`] at the given
/// optimization level. `O0` is the differential-testing baseline: the
/// elaborated Core is lowered verbatim.
///
/// # Errors
///
/// See [`PipelineError`].
pub fn compile_with_prelude_opt(
    source: &str,
    opt_level: OptLevel,
) -> Result<Compiled, PipelineError> {
    compile_with_prelude_entries(source, opt_level, None)
}

/// Compiles user source together with the [`PRELUDE`] at the given
/// optimization level and with an explicit entry-point set (see
/// [`compile_source_entries`]).
///
/// # Errors
///
/// See [`PipelineError`].
pub fn compile_with_prelude_entries(
    source: &str,
    opt_level: OptLevel,
    entries: Option<&[&str]>,
) -> Result<Compiled, PipelineError> {
    if let Some(front) = PreludeSeed::get().and_then(|seed| seed.front_end(source)) {
        let (elaborated, env) = front?;
        return compile_elaborated(elaborated, env, opt_level, entries);
    }
    let mut combined = String::with_capacity(PRELUDE.len() + source.len() + 1);
    combined.push_str(PRELUDE);
    combined.push('\n');
    combined.push_str(source);
    compile_source_entries(&combined, opt_level, entries)
}

/// Compiles just the prelude (used by benchmarks that only need the
/// prelude's definitions).
///
/// # Errors
///
/// See [`PipelineError`]; failure here is a bug in the prelude.
pub fn compile_prelude() -> Result<Compiled, PipelineError> {
    compile_source(PRELUDE)
}
