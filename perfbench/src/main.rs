//! The serving benchmark: a single-process closed-loop load generator
//! driving `levity_serve::EvalService` (source in, value out).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot-loops|hot-alloc|cold-compile> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The service runs with one worker per available CPU and is loaded by
//! as many client threads, each waiting for its reply before sending the
//! next request. Requests set no engine and no limits, so they run on
//! whatever `Engine::default()` and `ServeConfig::default()` are.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! serving loop, then the traced replay (see [`trace`]), and prints the
//! per-layer metrics with the traced loop's end-to-end numbers beside
//! the untraced ones. Either way the last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod gen;
mod load;
mod trace;

use std::borrow::Cow;
use std::process::ExitCode;
use std::thread;
use std::time::{Duration, Instant};

use levity_driver::pipeline::{compile_source_opt, compile_with_prelude_opt};
use levity_serve::{EvalRequest, EvalService, ServeConfig};

use gen::{Program, Workload};
use load::{closed_loop, judge, LoadResult, Outcome, Sample};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Cold requests whose bytecode `code_size_instrs` counts: a fixed
/// prefix of the schedule, which every run serves.
const COLD_SIZE_PREFIX: u64 = 100;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("levity-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // `default_nursery_cells` reads this once per process: an inherited
    // value would silently turn hot-alloc into a GC stress test.
    if let Some(v) = std::env::var_os("LEVITY_GC_NURSERY") {
        return Err(format!(
            "LEVITY_GC_NURSERY={v:?} is set; unset it, the benchmark measures the default nursery"
        ));
    }
    gen::self_check(args.workload, args.seed)?;
    let workers = thread::available_parallelism().map_or(1, |n| n.get());
    let config = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    let hot = gen::hot_programs(args.workload, args.seed);

    let (service, setup_s) = set_up(args.workload, &config, &hot)?;
    let before = service.counters();
    let load = serve_loop(&service, &args, &hot, workers);
    let after = service.counters();
    let hits = after.cache.hits - before.cache.hits;
    let misses = after.cache.misses - before.cache.misses;
    let shed = after.shed - before.shed;
    // Problems that make the run incorrect (failed requests only count
    // against `failed`, unless they were answered wrongly).
    let mut errors: Vec<String> = Vec::new();
    let hits_expected = if args.workload.is_hot() {
        misses == 0
    } else {
        hits == 0 && misses + shed == load.attempted
    };
    if !hits_expected {
        errors.push(format!(
            "cache counters disagree with the workload: {} hits, {} misses, {} shed over {} requests",
            hits, misses, shed, load.attempted
        ));
    }

    println!(
        "workload {} seed {} seconds {} workers {workers} clients {workers} engine {:?}",
        args.workload.name(),
        args.seed,
        args.seconds,
        levity_serve::Engine::default()
    );
    println!(
        "untraced: {} requests, {} failed (failed_ratio {}), {} wrong, {} latency samples, p{} is the tail",
        load.attempted,
        load.failed,
        load.failed as f64 / load.attempted.max(1) as f64,
        load.wrong,
        load.attempted,
        load.tail_us().0
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let report = trace::traced_run(
            args.workload,
            args.seed,
            args.seconds,
            &config,
            &hot,
            &service,
        );
        errors.extend(report.errors);
        for (name, value, unit) in report.metrics {
            metrics.push((name.to_string(), value, unit));
        }
        let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
        metrics.push(("serve.cache_hit_ratio".into(), hit_ratio, "ratio"));
        metrics.push(("serve.shed".into(), shed as f64, "count"));
        for (prefix, run) in [("trace", &report.traced), ("untraced", &load)] {
            metrics.push((format!("{prefix}.throughput_rps"), run.throughput(), "1/s"));
            metrics.push((format!("{prefix}.latency_p50_us"), run.p50_us(), "us"));
        }
        println!("layer -> end-to-end metric it should move -> workload:");
        for (layer, moves) in trace::MAPPING {
            println!("  {layer:<42} -> {moves}");
        }
        println!(
            "traced loop: {} requests, {:.1} rps, p50 {:.1} us (untraced: {:.1} rps, p50 {:.1} us)",
            report.traced.attempted,
            report.traced.throughput(),
            report.traced.p50_us(),
            load.throughput(),
            load.p50_us()
        );
    } else {
        let code_size = code_size(&args, &config, &hot, &mut errors);
        let (tail, tail_us) = load.tail_us();
        metrics.push(("throughput_rps".into(), load.throughput(), "1/s"));
        metrics.push(("latency_p50_us".into(), load.p50_us(), "us"));
        metrics.push((format!("latency_p{tail}_us"), tail_us, "us"));
        metrics.push((
            "success_ratio".into(),
            (load.attempted - load.failed) as f64 / load.attempted.max(1) as f64,
            "ratio",
        ));
        metrics.push(("setup_s".into(), setup_s, "s"));
        metrics.push((
            "peak_rss_mb".into(),
            load::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
            "MiB",
        ));
        metrics.push(("code_size_instrs".into(), code_size as f64, "count"));
    }
    service.shutdown();

    let correct = load.wrong == 0 && errors.is_empty();
    for why in &load.failures {
        println!("failed request: {why}");
    }
    for why in &errors {
        println!("error: {why}");
    }
    for (name, value, unit) in &metrics {
        println!("{name:<30} {value:>16.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no infinity: a latency that unserved requests made
            // infinite is written as the largest finite number.
            let value = if value.is_finite() { *value } else { f64::MAX };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        load.attempted.max(1),
        load.failed,
        body.join(", ")
    );
    Ok(())
}

/// Starts the service and, for a hot workload, compiles the cached
/// program set through it (a cold workload sends one set-up request
/// instead). Done [`SETUPS`] times; the last service is kept and the
/// median set-up time returned. Requests are submitted from this thread
/// in waves no deeper than the queue, so no helper threads come and go.
fn set_up(
    workload: Workload,
    config: &ServeConfig,
    hot: &[Program],
) -> Result<(EvalService, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept: Option<EvalService> = None;
    for k in 0..SETUPS {
        let warmup;
        let programs: &[Program] = if workload.is_hot() {
            hot
        } else {
            warmup = [gen::cold_warmup(k as u64)];
            &warmup
        };
        if let Some(old) = kept.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        let service = EvalService::start(*config);
        for wave in programs.chunks(config.queue_depth.max(1)) {
            let tickets: Vec<_> = wave
                .iter()
                .map(|p| service.submit(EvalRequest::source(p.source.clone())))
                .collect();
            for (p, ticket) in wave.iter().zip(tickets) {
                let why = match ticket.and_then(|t| t.wait()) {
                    Ok(r) if r.cache_hit => format!("{}: set-up request hit the cache", p.label),
                    Ok(r) => match judge(p, &r.outcome) {
                        Outcome::Served => continue,
                        Outcome::Failed(why) | Outcome::Wrong(why) => why,
                    },
                    Err(e) => format!("{}: {e}", p.label),
                };
                return Err(format!("set-up failed: {why}"));
            }
        }
        times.push(t0.elapsed());
        kept = Some(service);
    }
    let service = kept.expect("at least one set-up");
    Ok((
        service,
        load::median(times.iter().map(Duration::as_secs_f64)),
    ))
}

/// The measured closed loop: every request goes through the service.
fn serve_loop(service: &EvalService, args: &Args, hot: &[Program], clients: usize) -> LoadResult {
    let (workload, seed) = (args.workload, args.seed);
    let (result, _) = closed_loop(
        clients,
        args.seconds,
        || (),
        |_, i| {
            let p: Cow<Program> = if workload.is_hot() {
                Cow::Borrowed(&hot[gen::hot_schedule(seed, i)])
            } else {
                Cow::Owned(gen::cold_request(seed, i))
            };
            let request = EvalRequest::source(p.source.clone());
            let t0 = Instant::now();
            let reply = service.call(request);
            let ns = t0.elapsed().as_nanos() as u64;
            let outcome = match reply {
                Ok(r) if r.cache_hit != workload.is_hot() => Outcome::Wrong(format!(
                    "{}: cache_hit {} on a {} request",
                    p.label,
                    r.cache_hit,
                    workload.name()
                )),
                Ok(r) => judge(&p, &r.outcome),
                Err(e) => Outcome::Failed(format!("{}: {e}", p.label)),
            };
            Sample { ns, outcome }
        },
    );
    result
}

/// Total bytecode instructions of the run's reference programs: the
/// cached set of a hot workload, the first [`COLD_SIZE_PREFIX`]
/// requests of a cold one. Compiled after the measurement, one at a
/// time, as the service compiles them.
fn code_size(args: &Args, config: &ServeConfig, hot: &[Program], errors: &mut Vec<String>) -> u64 {
    let cold: Vec<Program>;
    let programs = if args.workload.is_hot() {
        hot
    } else {
        cold = (0..COLD_SIZE_PREFIX)
            .map(|i| gen::cold_request(args.seed, i))
            .collect();
        &cold
    };
    let mut instrs = 0;
    for p in programs {
        let compiled = if config.with_prelude {
            compile_with_prelude_opt(&p.source, config.opt_level)
        } else {
            compile_source_opt(&p.source, config.opt_level)
        };
        match compiled {
            Ok(c) => {
                instrs += c
                    .bytecode
                    .chunks
                    .iter()
                    .map(|ch| ch.code.len() as u64)
                    .sum::<u64>()
            }
            Err(e) => errors.push(format!("{}: {e}", p.label)),
        }
    }
    instrs
}
