//! The traced run: per-layer numbers from the benchmark's own spans.
//!
//! The program has no internal tracing, so the spans sit around calls
//! into each layer's public function, made from here. The compile
//! replay calls the same stage functions, in the same order, as
//! `levity_driver::pipeline::compile_source_entries`, and the benchmark
//! checks that the replayed bytecode disassembles exactly like the
//! driver's for every program (by an FNV-1a hash of each `disasm()`).
//! `optimise_program` stays one span: its pass loop is the optimizer's
//! own business.
//!
//! The traced loop mirrors the service's request path without the
//! queue: cache lookup (hot) or the replayed compile (cold), then
//! `Compiled::run_with_limits` on the default engine under the
//! service's default limits. A layer pass afterwards compiles every
//! traced program through the driver and runs it on each engine.
//!
//! Stage and driver times are per request of the traced loop: the total
//! spent in that stage on the run's programs, divided by the requests
//! served. On a cold workload that is the mean per compile; on a hot
//! one the set-up compiles are spread over the requests, so it is
//! nearly 0.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use levity_compile::lower::lower_program;
use levity_compile::opt::{optimise_program, OptLevel, OptReport};
use levity_core::symbol::Symbol;
use levity_driver::pipeline::{Compiled, PipelineError, RunLimits};
use levity_driver::PRELUDE;
use levity_infer::elaborate::elaborate_module;
use levity_ir::levity::check_program_levity;
use levity_ir::typecheck::check_program;
use levity_m::bytecode::BcProgram;
use levity_m::compile::CodeProgram;
use levity_serve::{Engine, EvalRequest, EvalService, MachineStats, ProgramCache, ServeConfig};
use levity_surface::parser::parse_module;

use crate::gen::{cold_request, fnv1a, hot_schedule, Program, Workload};
use crate::load::{closed_loop, judge, LoadResult, Outcome, Sample};

/// The replayed pipeline stages, in driver order.
const STAGES: [&str; 9] = [
    "surface.parse_us",
    "infer.elaborate_us",
    "ir.typecheck_us",
    "ir.levity_us",
    "compile.opt_us",
    "compile.lower_us",
    "m.code_compile_us",
    "m.bytecode_compile_us",
    "m.verify_us",
];

/// Which end-to-end metric each layer metric should move, and where.
pub const MAPPING: [(&str, &str); 10] = [
    (
        "surface.*, infer.*, ir.*",
        "cold-compile latency_p50_us, throughput_rps; ~0 on hot workloads",
    ),
    (
        "compile.opt_*",
        "cold-compile latency_p50_us (small programs), latency_p99_us (chains), code_size_instrs",
    ),
    (
        "compile.lower_us, m.*",
        "cold-compile latency; tracked so that growth shows",
    ),
    (
        "driver.compile_us, driver.stage_coverage",
        "cold-compile latency; coverage shows the stages account for the compile",
    ),
    (
        "env.*",
        "hot-loops/hot-alloc throughput_rps and latency while Env is the default engine",
    ),
    (
        "bc.*",
        "hot-loops/hot-alloc throughput_rps and latency once Bytecode is the default engine",
    ),
    ("heap.*", "hot-alloc throughput_rps and latency"),
    (
        "gc.*",
        "hot-alloc: 0 today; nonzero once collections happen inside requests",
    ),
    ("serve.*", "hot-loops latency_p50_us once runs get short"),
    (
        "trace.*, untraced.*",
        "none: the traced loop beside the untraced one shows the tracing overhead",
    ),
];

/// Sums over replayed compiles.
#[derive(Clone, Copy, Default)]
struct Compiles {
    /// Compiles replayed.
    count: u64,
    /// Nanoseconds per stage, as in [`STAGES`].
    stage_ns: [u64; 9],
    /// Core bindings entering and leaving the optimizer.
    bindings_in: u64,
    bindings_out: u64,
    /// [`OptReport`] counters.
    inlined: u64,
    simplified: u64,
    dead_globals: u64,
}

impl Compiles {
    fn add(&mut self, other: &Compiles) {
        self.count += other.count;
        for (a, b) in self.stage_ns.iter_mut().zip(other.stage_ns) {
            *a += b;
        }
        self.bindings_in += other.bindings_in;
        self.bindings_out += other.bindings_out;
        self.inlined += other.inlined;
        self.simplified += other.simplified;
        self.dead_globals += other.dead_globals;
    }
}

/// Compiles `source` stage by stage, exactly as the service's cache
/// would through the driver, timing each stage into `into`.
fn replay(
    source: &str,
    config: &ServeConfig,
    into: &mut Compiles,
) -> Result<Compiled, PipelineError> {
    let text = if config.with_prelude {
        format!("{PRELUDE}\n{source}")
    } else {
        source.to_string()
    };
    let mut ns = [0u64; 9];
    let mut last = Instant::now();
    let mut lap = |stage: usize| {
        let now = Instant::now();
        ns[stage] = (now - last).as_nanos() as u64;
        last = now;
    };
    let module = parse_module(&text).map_err(PipelineError::Parse)?;
    lap(0);
    let elaborated = elaborate_module(&module).map_err(PipelineError::Elaborate)?;
    lap(1);
    let env =
        check_program(&elaborated.program).map_err(|(name, e)| PipelineError::CoreLint(name, e))?;
    lap(2);
    let levity = check_program_levity(&env, &elaborated.program);
    if levity.has_errors() {
        return Err(PipelineError::Levity(levity));
    }
    lap(3);
    let main = Symbol::intern("main");
    let entry_points: Vec<Symbol> = if elaborated.program.binding(main).is_some() {
        vec![main]
    } else {
        elaborated.program.bindings.iter().map(|b| b.name).collect()
    };
    let (program, opt_report, env) = match config.opt_level {
        OptLevel::O0 => (elaborated.program.clone(), OptReport::default(), env),
        OptLevel::O2 => {
            let entry_set: HashSet<Symbol> = entry_points.iter().copied().collect();
            optimise_program(&elaborated.program, Some(&entry_set))
                .map_err(|(name, e)| PipelineError::CoreLint(name, e))?
        }
    };
    lap(4);
    let globals = lower_program(&env, &program).map_err(PipelineError::Lower)?;
    lap(5);
    let code = Arc::new(CodeProgram::compile(&globals));
    lap(6);
    let bytecode = Arc::new(BcProgram::compile(&code));
    lap(7);
    let verified = levity_m::verify(&bytecode).map_err(PipelineError::Verify)?;
    lap(8);
    into.add(&Compiles {
        count: 1,
        stage_ns: ns,
        bindings_in: elaborated.program.bindings.len() as u64,
        bindings_out: program.bindings.len() as u64,
        inlined: opt_report.inlined as u64,
        simplified: opt_report.simplified as u64,
        dead_globals: opt_report.dead_globals as u64,
    });
    Ok(Compiled {
        elaborated,
        program,
        opt_level: config.opt_level,
        opt_report,
        entry_points,
        globals,
        code,
        bytecode,
        verified,
    })
}

/// The limits the service applies to a request that sets none.
fn default_limits(config: &ServeConfig) -> RunLimits {
    RunLimits {
        fuel: config.default_fuel.min(config.max_fuel),
        alloc_words: config.default_alloc_words,
        heap_bytes: None,
        gc_nursery: None,
    }
}

fn disasm_hash(compiled: &Compiled) -> u64 {
    fnv1a(compiled.bytecode.disasm().as_bytes())
}

/// One engine's totals over the layer pass.
#[derive(Clone, Copy, Default)]
struct EngineRuns {
    runs: u64,
    ns: u64,
    stats: MachineStats,
}

impl EngineRuns {
    fn add(&mut self, runs: u64, ns: u64, s: &MachineStats) {
        self.runs += runs;
        self.ns += ns;
        self.stats.steps += s.steps;
        self.stats.fused_ops += s.fused_ops;
        self.stats.allocated_words += s.allocated_words;
        self.stats.con_allocs += s.con_allocs;
        self.stats.thunk_allocs += s.thunk_allocs;
        self.stats.collections += s.collections;
        self.stats.bytes_copied += s.bytes_copied;
    }

    fn per_run(&self, v: u64) -> f64 {
        v as f64 / self.runs.max(1) as f64
    }
}

/// Per-thread state of the traced loop.
#[derive(Default)]
struct TracedClient {
    compiles: Compiles,
    lookup_ns: u64,
    lookups: u64,
    /// Cold: (request index, replayed disassembly hash).
    replayed: Vec<(u64, u64)>,
}

/// Per-thread state of the layer pass.
#[derive(Default)]
struct LayerClient {
    compiles: Compiles,
    driver_ns: u64,
    lookup_ns: u64,
    lookups: u64,
    env: EngineRuns,
    bc: EngineRuns,
    errors: Vec<String>,
}

impl LayerClient {
    /// Runs `compiled` on both engines `reps` times, checking results.
    fn run_engines(
        &mut self,
        program: &Program,
        compiled: &Compiled,
        limits: RunLimits,
        reps: u32,
    ) {
        for _ in 0..reps {
            for (engine, totals) in [
                (Engine::Env, &mut self.env),
                (Engine::Bytecode, &mut self.bc),
            ] {
                let t0 = Instant::now();
                match compiled.run_with_limits("main", engine, limits) {
                    Ok((outcome, stats)) => {
                        totals.add(1, t0.elapsed().as_nanos() as u64, &stats);
                        if let Outcome::Wrong(why) = judge(program, &outcome) {
                            self.errors.push(format!("{engine:?}: {why}"));
                        }
                    }
                    Err(e) => self
                        .errors
                        .push(format!("{engine:?}: {}: {e}", program.label)),
                }
            }
        }
    }
}

/// What the traced run measured.
pub struct TraceReport {
    /// Per-layer metrics as (name, value, unit).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Wrong answers, failed compiles and replay mismatches.
    pub errors: Vec<String>,
    /// The traced loop's own end-to-end numbers.
    pub traced: LoadResult,
}

/// The traced run proper: the traced loop for `seconds`, then the layer
/// pass, then the serve-overhead probe against `service`.
pub fn traced_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    config: &ServeConfig,
    hot: &[Program],
    service: &EvalService,
) -> TraceReport {
    let clients = config.workers;
    let limits = default_limits(config);
    let cache = ProgramCache::with_capacity(config.cache_capacity);
    let mut errors: Vec<String> = Vec::new();

    // Hot: fill the cache through the driver before the loop, as the
    // service's set-up does.
    let mut driver_ns = 0u64;
    for p in hot {
        let t0 = Instant::now();
        let (compiled, hit) =
            cache.get_or_compile(&p.source, config.opt_level, config.with_prelude);
        driver_ns += t0.elapsed().as_nanos() as u64;
        if let Err(e) = compiled {
            errors.push(format!("{}: {e}", p.label));
        }
        if hit {
            errors.push(format!("{}: set-up compile hit the cache", p.label));
        }
    }

    let (traced, clients_state) = closed_loop(clients, seconds, TracedClient::default, |st, i| {
        if workload.is_hot() {
            let p = &hot[hot_schedule(seed, i)];
            let t0 = Instant::now();
            let (compiled, hit) =
                cache.get_or_compile(&p.source, config.opt_level, config.with_prelude);
            let t1 = Instant::now();
            let run = compiled.map(|c| c.run_with_limits("main", Engine::default(), limits));
            let ns = t0.elapsed().as_nanos() as u64;
            st.lookup_ns += (t1 - t0).as_nanos() as u64;
            st.lookups += 1;
            let outcome = match run {
                Ok(Ok((outcome, _))) if hit => judge(p, &outcome),
                Ok(Ok(_)) => Outcome::Wrong(format!("{}: cache miss on a hot request", p.label)),
                Ok(Err(e)) => Outcome::Failed(format!("{}: {e}", p.label)),
                Err(e) => Outcome::Failed(format!("{}: {e}", p.label)),
            };
            Sample { ns, outcome }
        } else {
            let p = cold_request(seed, i);
            let t0 = Instant::now();
            let result = replay(&p.source, config, &mut st.compiles).map(|compiled| {
                let run = compiled.run_with_limits("main", Engine::default(), limits);
                (compiled, run)
            });
            let ns = t0.elapsed().as_nanos() as u64;
            let outcome = match result {
                Ok((compiled, run)) => {
                    st.replayed.push((i, disasm_hash(&compiled)));
                    match run {
                        Ok((outcome, _)) => judge(&p, &outcome),
                        Err(e) => Outcome::Failed(format!("{}: {e}", p.label)),
                    }
                }
                Err(e) => Outcome::Failed(format!("{}: {e}", p.label)),
            };
            Sample { ns, outcome }
        }
    });
    errors.extend(traced.failures.iter().cloned());

    let mut compiles = Compiles::default();
    let mut lookup_ns = 0u64;
    let mut lookups = 0u64;
    let mut replays: Vec<(u64, u64)> = Vec::new();
    for st in clients_state {
        compiles.add(&st.compiles);
        lookup_ns += st.lookup_ns;
        lookups += st.lookups;
        replays.extend(st.replayed);
    }
    replays.sort_unstable();

    // The layer pass: every traced program once more through the driver
    // (hot: replayed here, cold: replayed in the loop), checked against
    // its replay, and run on each engine.
    let items = if workload.is_hot() {
        hot.len()
    } else {
        replays.len()
    };
    let next = AtomicUsize::new(0);
    let layer_cache = ProgramCache::with_capacity(16);
    let mut layers: Vec<LayerClient> = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut st = LayerClient::default();
                    loop {
                        let ix = next.fetch_add(1, Ordering::Relaxed);
                        if ix >= items {
                            break;
                        }
                        let (p, replayed, compiled, reps) = if workload.is_hot() {
                            let p = hot[ix].clone();
                            let replayed = match replay(&p.source, config, &mut st.compiles) {
                                Ok(c) => disasm_hash(&c),
                                Err(e) => {
                                    st.errors.push(format!("{}: {e}", p.label));
                                    continue;
                                }
                            };
                            let t0 = Instant::now();
                            let (compiled, _) = cache.get_or_compile(
                                &p.source,
                                config.opt_level,
                                config.with_prelude,
                            );
                            st.lookup_ns += t0.elapsed().as_nanos() as u64;
                            st.lookups += 1;
                            (p, replayed, compiled, 4)
                        } else {
                            let (i, replayed) = replays[ix];
                            let p = cold_request(seed, i);
                            let t0 = Instant::now();
                            let (compiled, hit) = layer_cache.get_or_compile(
                                &p.source,
                                config.opt_level,
                                config.with_prelude,
                            );
                            st.driver_ns += t0.elapsed().as_nanos() as u64;
                            let t1 = Instant::now();
                            let (_, hit_again) = layer_cache.get_or_compile(
                                &p.source,
                                config.opt_level,
                                config.with_prelude,
                            );
                            st.lookup_ns += t1.elapsed().as_nanos() as u64;
                            st.lookups += 1;
                            if hit || !hit_again {
                                st.errors
                                    .push(format!("{}: unexpected cache behaviour", p.label));
                            }
                            (p, replayed, compiled, 1)
                        };
                        match compiled {
                            Ok(compiled) => {
                                if disasm_hash(&compiled) != replayed {
                                    st.errors.push(format!(
                                        "{}: replayed bytecode differs from the driver's",
                                        p.label
                                    ));
                                }
                                st.run_engines(&p, &compiled, limits, reps);
                            }
                            Err(e) => st.errors.push(format!("{}: {e}", p.label)),
                        }
                    }
                    st
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("layer thread panicked"))
            .collect()
    });

    // Hot compiles were replayed in the layer pass and driven through
    // the driver before the loop; cold ones the other way round. Every
    // lookup counted is a cache hit.
    let mut env = EngineRuns::default();
    let mut bc = EngineRuns::default();
    for st in &mut layers {
        errors.append(&mut st.errors);
        compiles.add(&st.compiles);
        driver_ns += st.driver_ns;
        lookup_ns += st.lookup_ns;
        lookups += st.lookups;
        env.add(st.env.runs, st.env.ns, &st.env.stats);
        bc.add(st.bc.runs, st.bc.ns, &st.bc.stats);
    }

    let overhead_us = serve_overhead(workload, seed, config, hot, service, &mut errors);

    let requests = traced.attempted.max(1) as f64;
    let per_request = |ns: u64| ns as f64 / 1e3 / requests;
    let stage_total: u64 = compiles.stage_ns.iter().sum();
    let per_compile = |v: u64| v as f64 / compiles.count.max(1) as f64;
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    for (name, ns) in STAGES.iter().zip(compiles.stage_ns) {
        metrics.push((name, per_request(ns), "us"));
    }
    metrics.extend([
        (
            "compile.opt_bindings_in",
            per_compile(compiles.bindings_in),
            "count",
        ),
        (
            "compile.opt_bindings_out",
            per_compile(compiles.bindings_out),
            "count",
        ),
        (
            "compile.opt_survivor_ratio",
            compiles.bindings_out as f64 / compiles.bindings_in.max(1) as f64,
            "ratio",
        ),
        (
            "compile.opt_inlined",
            per_compile(compiles.inlined),
            "count",
        ),
        (
            "compile.opt_simplified",
            per_compile(compiles.simplified),
            "count",
        ),
        (
            "compile.opt_dead_globals",
            per_compile(compiles.dead_globals),
            "count",
        ),
        ("driver.compile_us", per_request(driver_ns), "us"),
        (
            "driver.stage_coverage",
            stage_total as f64 / driver_ns.max(1) as f64,
            "ratio",
        ),
        ("env.run_us", env.per_run(env.ns) / 1e3, "us"),
        ("env.steps", env.per_run(env.stats.steps), "count"),
        (
            "env.ns_per_step",
            env.ns as f64 / env.stats.steps.max(1) as f64,
            "ns",
        ),
        ("bc.run_us", bc.per_run(bc.ns) / 1e3, "us"),
        ("bc.steps", bc.per_run(bc.stats.steps), "count"),
        (
            "bc.ns_per_step",
            bc.ns as f64 / bc.stats.steps.max(1) as f64,
            "ns",
        ),
        ("bc.fused_ops", bc.per_run(bc.stats.fused_ops), "count"),
        (
            "heap.allocated_words",
            bc.per_run(bc.stats.allocated_words),
            "words",
        ),
        ("heap.con_allocs", bc.per_run(bc.stats.con_allocs), "count"),
        (
            "heap.thunk_allocs",
            bc.per_run(bc.stats.thunk_allocs),
            "count",
        ),
        ("gc.collections", bc.per_run(bc.stats.collections), "count"),
        (
            "gc.bytes_copied",
            bc.per_run(bc.stats.bytes_copied),
            "bytes",
        ),
        (
            "serve.cache_lookup_us",
            lookup_ns as f64 / 1e3 / lookups.max(1) as f64,
            "us",
        ),
        ("serve.overhead_us", overhead_us, "us"),
    ]);
    TraceReport {
        metrics,
        errors,
        traced,
    }
}

/// Serve hit latency minus direct-run latency of the same programs on
/// the same (default) engine, one request at a time.
fn serve_overhead(
    workload: Workload,
    seed: u64,
    config: &ServeConfig,
    hot: &[Program],
    service: &EvalService,
    errors: &mut Vec<String>,
) -> f64 {
    let programs: Vec<Program> = if workload.is_hot() {
        hot.to_vec()
    } else {
        // The service evicted these long ago: the first call recompiles.
        (0..16).map(|i| cold_request(seed, i)).collect()
    };
    let cache = ProgramCache::with_capacity(programs.len());
    let limits = default_limits(config);
    let (mut serve_ns, mut direct_ns) = (0u64, 0u64);
    for p in &programs {
        let (compiled, _) = cache.get_or_compile(&p.source, config.opt_level, config.with_prelude);
        let Ok(compiled) = compiled else {
            errors.push(format!("{}: compile failed", p.label));
            continue;
        };
        if !workload.is_hot() {
            let _ = service.call(EvalRequest::source(p.source.clone()));
        }
        for _ in 0..8 {
            let t0 = Instant::now();
            let resp = service.call(EvalRequest::source(p.source.clone()));
            serve_ns += t0.elapsed().as_nanos() as u64;
            match resp {
                Ok(r) if r.cache_hit => {}
                Ok(_) => errors.push(format!("{}: overhead probe missed the cache", p.label)),
                Err(e) => errors.push(format!("{}: {e}", p.label)),
            }
            let t0 = Instant::now();
            let run = compiled.run_with_limits("main", Engine::default(), limits);
            direct_ns += t0.elapsed().as_nanos() as u64;
            if let Err(e) = run {
                errors.push(format!("{}: {e}", p.label));
            }
        }
    }
    let n = (programs.len() * 8) as f64;
    (serve_ns as f64 - direct_ns as f64) / 1e3 / n
}
