//! The closed-loop load generator and its statistics.
//!
//! `clients` threads each send one request, wait for its reply, and send
//! the next, like a build tool or notebook calling in. They stop sending
//! at the deadline; requests already sent still complete and count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use levity_serve::corpus::expected_int;
use levity_serve::RunOutcome;

use crate::gen::Program;

/// How one request ended.
pub enum Outcome {
    /// Served, with the expected answer.
    Served,
    /// Refused, killed or failed to compile.
    Failed(String),
    /// Served with the wrong answer (or a wrong cache verdict).
    Wrong(String),
}

/// One request's result as seen by its client.
pub struct Sample {
    /// Latency in nanoseconds, from send to reply.
    pub ns: u64,
    /// How it ended.
    pub outcome: Outcome,
}

/// Windows a run is cut into, by completion time, for its medians.
const WINDOWS: u64 = 10;

/// Samples a window needs for its own p99: ten beyond the percentile.
const TAIL_SAMPLES: usize = 1000;

/// What a closed-loop run produced.
pub struct LoadResult {
    /// (completion offset from the start, latency) per request, both in
    /// nanoseconds; a request that was not served has latency `u64::MAX`,
    /// so it misses any latency limit.
    records: Vec<(u64, u64)>,
    /// The run length asked for.
    run: Duration,
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused, killed, failed or answered wrongly.
    pub failed: u64,
    /// Requests answered wrongly (a subset of `failed`).
    pub wrong: u64,
    /// The first few failure reports.
    pub failures: Vec<String>,
    /// From the start of the run to the last reply.
    pub wall: Duration,
}

/// Judges a served answer against the value the generator computed.
pub fn judge(program: &Program, outcome: &RunOutcome) -> Outcome {
    match expected_int(outcome) {
        Some(got) if got == program.expected => Outcome::Served,
        got => Outcome::Wrong(format!(
            "{}: expected {}, got {got:?}",
            program.label, program.expected
        )),
    }
}

/// One client's samples, each with its completion offset, and its state.
type ClientRun<S> = (Vec<(Duration, Sample)>, S);

/// Runs `step(state, i)` for request indices `i = 0, 1, …` from
/// `clients` threads until `seconds` have passed. Each thread owns one
/// `S` from `init`; they are returned with the result.
pub fn closed_loop<S: Send>(
    clients: usize,
    seconds: f64,
    init: impl Fn() -> S + Sync,
    step: impl Fn(&mut S, u64) -> Sample + Sync,
) -> (LoadResult, Vec<S>) {
    let next = AtomicU64::new(0);
    let barrier = Barrier::new(clients);
    let run = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let per_client: Vec<ClientRun<S>> = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut state = init();
                    let mut samples = Vec::new();
                    barrier.wait();
                    let mut last = Instant::now();
                    while last.duration_since(start) < run {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let sample = step(&mut state, i);
                        last = Instant::now();
                        samples.push((last.duration_since(start), sample));
                    }
                    (samples, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut result = LoadResult {
        records: Vec::new(),
        run,
        attempted: 0,
        failed: 0,
        wrong: 0,
        failures: Vec::new(),
        wall: Duration::ZERO,
    };
    let mut states = Vec::with_capacity(clients);
    for (samples, state) in per_client {
        for (done, s) in samples {
            result.wall = result.wall.max(done);
            result.attempted += 1;
            let served = matches!(s.outcome, Outcome::Served);
            let ns = if served { s.ns } else { u64::MAX };
            result.records.push((done.as_nanos() as u64, ns));
            let why = match s.outcome {
                Outcome::Served => continue,
                Outcome::Failed(why) => why,
                Outcome::Wrong(why) => {
                    result.wrong += 1;
                    why
                }
            };
            result.failed += 1;
            if result.failures.len() < 20 {
                result.failures.push(why);
            }
        }
        states.push(state);
    }
    (result, states)
}

/// The statistics below are medians over [`WINDOWS`] equal spans of the
/// run, so a burst of interference from outside the process moves one
/// window, not the result.
impl LoadResult {
    /// Each window's length in seconds (the last one runs until the
    /// last reply) and the sorted latencies of the requests completed
    /// in it.
    fn windows(&self) -> Vec<(f64, Vec<u64>)> {
        let span = (self.run.as_nanos() as u64 / WINDOWS).max(1);
        let mut out: Vec<(f64, Vec<u64>)> = (0..WINDOWS)
            .map(|_| (span as f64 / 1e9, Vec::new()))
            .collect();
        if let Some(last) = out.last_mut() {
            last.0 = self.wall.as_secs_f64() - (span * (WINDOWS - 1)) as f64 / 1e9;
        }
        for &(done, ns) in &self.records {
            out[(done / span).min(WINDOWS - 1) as usize].1.push(ns);
        }
        for (_, w) in &mut out {
            w.sort_unstable();
        }
        out
    }

    /// Requests served per second: the median window's rate.
    pub fn throughput(&self) -> f64 {
        median(self.windows().iter().map(|(secs, w)| {
            w.iter().filter(|&&ns| ns != u64::MAX).count() as f64 / secs.max(1e-9)
        }))
    }

    /// Median latency in microseconds: the median of the windows'.
    pub fn p50_us(&self) -> f64 {
        median(self.windows().iter().map(|(_, w)| us(quantile(w, 0.5))))
    }

    /// The tail latency this run supports, as (percentile, microseconds).
    /// When every window holds enough samples this is the median of the
    /// windows' p99; otherwise it is taken over the whole run, at 99
    /// when at least ten samples lie beyond it, else at the highest
    /// whole percentile that has ten samples beyond it.
    pub fn tail_us(&self) -> (u32, f64) {
        let windows = self.windows();
        if windows.iter().all(|(_, w)| w.len() >= TAIL_SAMPLES) {
            return (
                99,
                median(windows.iter().map(|(_, w)| us(quantile(w, 0.99)))),
            );
        }
        let mut all: Vec<u64> = self.records.iter().map(|&(_, ns)| ns).collect();
        all.sort_unstable();
        let p = tail_percentile(all.len());
        (p, us(quantile(&all, f64::from(p) / 100.0)))
    }
}

/// Nanoseconds to microseconds; a request that was not served reads as
/// infinitely slow.
fn us(ns: u64) -> f64 {
    if ns == u64::MAX {
        f64::INFINITY
    } else {
        ns as f64 / 1e3
    }
}

/// The median of some numbers (0 when there are none).
pub fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile, at most 99, that has at least ten of
/// `samples` beyond it.
fn tail_percentile(samples: usize) -> u32 {
    for p in (50..=99).rev() {
        let rank = (p as f64 / 100.0 * samples as f64).ceil() as usize;
        if samples >= rank + 10 {
            return p;
        }
    }
    50
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(999), 98);
        assert_eq!(tail_percentile(500), 98);
        assert_eq!(tail_percentile(200), 95);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median([3.0, 1.0, 2.0].into_iter()), 2.0);
        assert_eq!(median([4.0, 1.0, 3.0, 2.0].into_iter()), 2.5);
        assert_eq!(median(std::iter::empty()), 0.0);
    }

    #[test]
    fn closed_loop_counts_every_request() {
        let (r, states) = closed_loop(
            2,
            0.05,
            || 0u64,
            |n, i| {
                *n += 1;
                let outcome = match i % 7 {
                    0 => Outcome::Wrong(format!("request {i}")),
                    1 => Outcome::Failed(format!("request {i}")),
                    _ => Outcome::Served,
                };
                Sample { ns: 1, outcome }
            },
        );
        assert_eq!(states.iter().sum::<u64>(), r.attempted);
        assert_eq!(r.records.len() as u64, r.attempted);
        assert_eq!(
            r.tail_us().1,
            f64::INFINITY,
            "failed requests miss every limit"
        );
        assert!(r.wrong >= 1 && r.failed > r.wrong);
    }
}
