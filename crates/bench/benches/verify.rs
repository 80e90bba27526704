//! The static verifier and the register machine it gates.
//!
//! Two groups:
//!
//! * `verify/` — the cost of verification itself: one pass of the
//!   abstract interpreter over the whole compiled program. This is
//!   paid **once per compile** (and once per cache insert in the
//!   serving layer), so it should sit in the noise next to the
//!   pipeline's milliseconds;
//! * `regmachine_unchecked/` — the headline unboxed rungs run through
//!   [`BcMachine::run`], entry verification included: the dispatch
//!   loop does not re-check what the verifier proved. (The group keeps
//!   its name so the bench gate still compares it with the committed
//!   baselines.)

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use levity_driver::{compile_with_prelude, Compiled};
use levity_m::regmachine::BcMachine;
use levity_m::verify::verify;
use levity_m::{BcEntry, MExpr};

const SUM_TO_UNBOXED: &str = "sumTo# :: Int# -> Int# -> Int#\n\
     sumTo# acc n = case n of { 0# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }\n\
     main :: Int#\n\
     main = sumTo# 0# LIMIT#\n";

const CPR_TUPLE: &str = "divModU :: Int# -> Int# -> (# Int#, Int# #)\n\
     divModU n d = case n <# d of { 1# -> (# 0#, n #); _ -> case divModU (n -# d) d of { (# q, r #) -> (# q +# 1#, r #) } }\n\
     loop :: Int# -> Int# -> Int#\n\
     loop acc n = case n of { 0# -> acc; _ -> case divModU n 3# of { (# q, r #) -> loop (acc +# q +# r) (n -# 1#) } }\n\
     main :: Int#\n\
     main = loop 0# LIMIT#\n";

fn compiled(src: &str, n: u64) -> Compiled {
    compile_with_prelude(&src.replace("LIMIT", &n.to_string())).expect("compiles")
}

fn main_entry(c: &Compiled) -> BcEntry {
    c.bytecode
        .compile_entry(&c.code.compile_entry(&MExpr::global("main")))
}

fn run_verified(c: &Compiled, entry: &BcEntry) {
    // The serving pattern: the program witness exists from compile
    // time; each run verifies only its entry.
    let ventry = c.verified.verify_entry(entry).expect("entry verifies");
    let mut m = BcMachine::new(Arc::clone(&c.bytecode));
    m.set_fuel(u64::MAX / 2);
    m.run(&ventry).unwrap();
}

fn bench_verify(c: &mut Criterion) {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let sum_sizes: &[u64] = if smoke { &[50] } else { &[50, 5_000] };
    let cpr_sizes: &[u64] = if smoke { &[50] } else { &[50, 200] };

    // One verifier pass over the whole compiled program (after
    // dead-global elimination: main plus everything it reaches).
    let mut group = c.benchmark_group("verify");
    group.sample_size(10);
    for &n in sum_sizes {
        let p = compiled(SUM_TO_UNBOXED, n);
        group.bench_with_input(BenchmarkId::new("sum_to_unboxed", n), &n, |b, _| {
            b.iter(|| verify(&p.bytecode).expect("verifies"))
        });
    }
    for &n in cpr_sizes {
        let p = compiled(CPR_TUPLE, n);
        group.bench_with_input(BenchmarkId::new("cpr_tuple_direct", n), &n, |b, _| {
            b.iter(|| verify(&p.bytecode).expect("verifies"))
        });
    }
    group.finish();

    // Verified dispatch on the two headline unboxed rungs.
    let mut group = c.benchmark_group("regmachine_unchecked");
    group.sample_size(10);
    for &n in sum_sizes {
        let p = compiled(SUM_TO_UNBOXED, n);
        let entry = main_entry(&p);
        group.bench_with_input(BenchmarkId::new("sum_to_unboxed", n), &n, |b, _| {
            b.iter(|| run_verified(&p, &entry))
        });
    }
    for &n in cpr_sizes {
        let p = compiled(CPR_TUPLE, n);
        let entry = main_entry(&p);
        group.bench_with_input(BenchmarkId::new("cpr_tuple_direct", n), &n, |b, _| {
            b.iter(|| run_verified(&p, &entry))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_verify);
criterion_main!(benches);
