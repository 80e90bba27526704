//! `serve/` — the compile-once/run-many serving layer under load.
//!
//! Everything here is measured by hand with `Instant` and printed in
//! the shim's `bench:` line format so the gate records it like any
//! other group:
//!
//! * `serve/first_compile` — the latency of the bench process's first
//!   request, a program never seen: besides the compile, it pays the
//!   process's one-time set-up, the prelude seed's build included;
//! * `serve/cold_compile` — latency of a request whose program has
//!   never been seen (pays the full elaborate→optimise→lower pipeline),
//!   timed once every worker has answered a cold request, so no sample
//!   pays the process's set-up or a worker's first compile;
//! * `serve/cold_compile_full` — the same request once the cache is
//!   full, as on a long-running server: every compile also evicts, and
//!   frees, the oldest entry;
//! * `serve/cache_hit` — what the same request costs once cached: the
//!   wall time of a burst of hits, per hit (lookup, queueing,
//!   evaluation and reply, no compile), median over the bursts;
//! * `serve/requests_w{1,8,64}` — mean wall-clock **per request** for a
//!   burst of mixed-corpus requests at 1/8/64 workers (the inverse of
//!   requests/sec, in the gate's native ns units);
//! * `serve/latency_p50` / `serve/latency_p99` — per-request latency
//!   percentiles over the mixed corpus at 8 workers.
//!
//! Two claims are asserted where the numbers are produced: a cache hit
//! must be ≥ 10× cheaper than a cold compile, and — when the host
//! actually has ≥ 8 CPUs — going from 1 to 8 workers must scale
//! requests/sec by ≥ 3×. On smaller hosts (the single-CPU CI container
//! included) the scaling claim is physically unmeasurable, so the bench
//! still records the numbers but only asserts that the 8-worker
//! configuration is not materially *slower* than 1 worker (pool
//! overhead stays bounded).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use levity_serve::corpus::{expected_int, MIXED_CORPUS};
use levity_serve::{EvalRequest, EvalService, ServeConfig, Ticket};

/// Prints one shim-format line so `parse_bench_lines` picks the name
/// up, and returns the mean.
fn report(name: &str, samples_ns: &mut [f64]) -> f64 {
    samples_ns.sort_by(|a, b| a.total_cmp(b));
    let min = samples_ns.first().copied().unwrap_or(0.0);
    let max = samples_ns.last().copied().unwrap_or(0.0);
    let mean = samples_ns.iter().sum::<f64>() / samples_ns.len().max(1) as f64;
    println!(
        "bench: {name} ... min {min:.0} ns, mean {mean:.0} ns, max {max:.0} ns \
         ({} iters/sample)",
        samples_ns.len()
    );
    mean
}

fn percentile(sorted_ns: &[f64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let ix = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[ix]
}

/// A program no earlier request has sent (a fresh literal makes a
/// fresh content hash).
fn cold_request() -> EvalRequest {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    EvalRequest::source(format!("main :: Int#\nmain = {n}# +# 1#\n"))
}

/// Cold-compile latency: every request is a program the service has
/// never seen. Each sample comes with the worker that served it.
fn measure_cold(service: &EvalService, k: usize) -> Vec<(f64, usize)> {
    (0..k)
        .map(|_| {
            let start = Instant::now();
            let resp = service.call(cold_request()).expect("cold call");
            let ns = start.elapsed().as_nanos() as f64;
            assert!(!resp.cache_hit, "cold request must miss");
            (ns, resp.worker)
        })
        .collect()
}

/// Submits untimed cold requests in bursts of one per worker until
/// every worker has answered one: a worker's first compile costs several
/// times a later one, so a sample that paid it would measure the
/// worker, not the pipeline.
fn warm_workers(service: &EvalService, workers: usize) {
    let mut answered = vec![false; workers];
    while answered.contains(&false) {
        let tickets: Vec<Ticket> = (0..workers)
            .map(|_| service.submit(cold_request()).expect("warm submit"))
            .collect();
        for ticket in tickets {
            answered[ticket.wait().expect("warm call").worker] = true;
        }
    }
}

/// [`report`]s cold samples, after printing each one's latency and the
/// worker that served it, in request order.
fn report_cold(name: &str, samples: &[(f64, usize)]) -> f64 {
    let served: Vec<String> = samples
        .iter()
        .map(|(ns, worker)| format!("{:.0}µs@w{worker}", ns / 1e3))
        .collect();
    eprintln!("{name} by worker: {}", served.join(" "));
    report(
        name,
        &mut samples.iter().map(|(ns, _)| *ns).collect::<Vec<_>>(),
    )
}

/// Cold-compile latency at steady state: a fresh service's cache is
/// first filled to its default capacity with distinct programs, so each
/// timed request also evicts an entry. The fill's lone calls need not
/// reach every worker, so untimed cold requests then do, as for
/// `serve/cold_compile` (a worker's first compile is slower).
fn measure_cold_full(k: usize) -> Vec<(f64, usize)> {
    let config = ServeConfig::default();
    let (capacity, workers) = (config.cache_capacity, config.workers);
    let service = EvalService::start(config);
    for n in 0..capacity {
        let src = format!("main :: Int#\nmain = {n}# +# 2#\n");
        let resp = service.call(EvalRequest::source(src)).expect("fill call");
        assert!(!resp.cache_hit, "fill requests are distinct");
    }
    warm_workers(&service, workers);
    let samples = measure_cold(&service, k);
    service.shutdown();
    samples
}

/// Hits per burst in [`measure_hits`].
const HIT_BURST: usize = 20;

/// Cache-hit cost: re-requests of a program of the *same shape* as the
/// cold ones, so the cold/hit ratio isolates exactly the pipeline cost
/// the cache amortises. Each sample is one burst of [`HIT_BURST`] hits,
/// all submitted before the first is awaited, timed per hit: what a hit
/// costs the service. A lone request also waits for a parked worker to
/// wake and then to be woken itself; on a 2-vCPU VM that wait alone
/// moves a lone hit between 4 and 20 µs from run to run at any commit,
/// so it is left to the latency rows.
fn measure_hits(service: &EvalService, bursts: usize) -> Vec<f64> {
    let src = "main :: Int#\nmain = 999000999# +# 1#\n";
    let warm = service.call(EvalRequest::source(src)).expect("warm call");
    assert!(!warm.cache_hit);
    assert_eq!(expected_int(&warm.outcome), Some(999_001_000));
    (0..bursts)
        .map(|_| {
            let start = Instant::now();
            let tickets: Vec<Ticket> = (0..HIT_BURST)
                .map(|_| {
                    service
                        .submit(EvalRequest::source(src))
                        .expect("hit submit")
                })
                .collect();
            for ticket in tickets {
                let resp = ticket.wait().expect("hit call");
                assert!(resp.cache_hit, "warm request must hit");
            }
            start.elapsed().as_nanos() as f64 / HIT_BURST as f64
        })
        .collect()
}

/// One burst: `clients` threads issue `per_client` mixed-corpus
/// requests each against a fresh `workers`-wide service. Returns the
/// aggregate mean wall-clock per request and every per-request latency.
fn burst(workers: usize, clients: usize, per_client: usize) -> (f64, Vec<f64>) {
    let service = Arc::new(EvalService::start(ServeConfig {
        workers,
        queue_depth: clients * per_client + 1,
        ..ServeConfig::default()
    }));
    // Warm the cache so the burst measures evaluation throughput, not
    // five compiles.
    for prog in MIXED_CORPUS {
        let resp = service
            .call(EvalRequest::source(prog.source))
            .expect("warm call");
        assert_eq!(
            expected_int(&resp.outcome),
            Some(prog.expected),
            "{}",
            prog.name
        );
    }
    let start = Instant::now();
    let mut latencies: Vec<f64> = Vec::with_capacity(clients * per_client);
    thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let service = Arc::clone(&service);
                s.spawn(move || {
                    let mut mine = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let prog = &MIXED_CORPUS[(client + i) % MIXED_CORPUS.len()];
                        let t0 = Instant::now();
                        let resp = service
                            .call(EvalRequest::source(prog.source))
                            .expect("burst call");
                        mine.push(t0.elapsed().as_nanos() as f64);
                        assert_eq!(
                            expected_int(&resp.outcome),
                            Some(prog.expected),
                            "{}",
                            prog.name
                        );
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            latencies.extend(h.join().expect("client panicked"));
        }
    });
    let wall_ns = start.elapsed().as_nanos() as f64;
    let total = (clients * per_client) as f64;
    Arc::into_inner(service).expect("clients done").shutdown();
    (wall_ns / total, latencies)
}

fn bench_serve(_c: &mut Criterion) {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let (cold_k, hit_bursts, per_client, rounds) =
        if smoke { (4, 3, 4, 1) } else { (16, 10, 24, 3) };

    let config = ServeConfig::default();
    let workers = config.workers;
    let service = EvalService::start(config);
    let first = measure_cold(&service, 1);
    warm_workers(&service, workers);
    let cold = measure_cold(&service, cold_k);
    let mut hits = measure_hits(&service, hit_bursts);
    service.shutdown();
    report_cold("serve/first_compile", &first);
    let cold_mean = report_cold("serve/cold_compile", &cold);
    report_cold("serve/cold_compile_full", &measure_cold_full(cold_k));
    // The median burst: one burst the host happens to deschedule moves
    // the mean of ten by multiples.
    hits.sort_by(|a, b| a.total_cmp(b));
    let hit_median = report("serve/cache_hit", &mut [percentile(&hits, 0.5)]);
    assert!(
        cold_mean >= 10.0 * hit_median,
        "a cache hit must be >=10x cheaper than a cold compile; \
         got cold {cold_mean:.0} ns vs hit {hit_median:.0} ns ({:.1}x)",
        cold_mean / hit_median
    );

    // Throughput at 1 / 8 / 64 workers: `rounds` bursts each, best
    // round recorded as min, all rounds feeding mean/max.
    let mut mean_per_request = Vec::new();
    let mut p8_latencies = Vec::new();
    for workers in [1usize, 8, 64] {
        let clients = workers.min(8) * 2;
        let mut per_req: Vec<f64> = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let (mean_ns, latencies) = burst(workers, clients, per_client);
            per_req.push(mean_ns);
            if workers == 8 {
                p8_latencies.extend(latencies);
            }
        }
        mean_per_request.push(report(&format!("serve/requests_w{workers}"), &mut per_req));
    }
    let (w1, w8) = (mean_per_request[0], mean_per_request[1]);
    let cpus = thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = w1 / w8;
    if cpus >= 8 {
        assert!(
            speedup >= 3.0,
            "1 -> 8 workers must scale requests/sec >=3x on a {cpus}-CPU host, got {speedup:.2}x"
        );
    } else {
        // On a 1-CPU container parallel speedup is physically capped at
        // 1x; hold the pool-overhead line instead of pretending.
        eprintln!(
            "serve: host has {cpus} CPU(s); recording 1 -> 8 worker ratio ({speedup:.2}x) \
             without the >=3x scaling assertion (needs >=8 CPUs)"
        );
        assert!(
            w8 <= 1.5 * w1,
            "8 workers must not be materially slower than 1 on a small host; \
             got w8 {w8:.0} ns vs w1 {w1:.0} ns"
        );
    }

    p8_latencies.sort_by(|a, b| a.total_cmp(b));
    let p50 = percentile(&p8_latencies, 0.50);
    let p99 = percentile(&p8_latencies, 0.99);
    report("serve/latency_p50", &mut [p50]);
    report("serve/latency_p99", &mut [p99]);
    eprintln!(
        "\n== serve: compile-once/run-many ({} requests/burst at w8) ==\n\
         cold compile {:.1} µs, cache hit {:.1} µs ({:.0}x); \
         per-request wall w1 {:.1} µs, w8 {:.1} µs, w64 {:.1} µs; \
         p50 {:.1} µs, p99 {:.1} µs\n",
        16 * per_client,
        cold_mean / 1e3,
        hit_median / 1e3,
        cold_mean / hit_median,
        w1 / 1e3,
        w8 / 1e3,
        mean_per_request[2] / 1e3,
        p50 / 1e3,
        p99 / 1e3,
    );
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
