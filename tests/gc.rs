//! Negative-space pins for the bytecode engine's copying collector.
//!
//! The differential suite proves the collector is observationally
//! invisible across the whole corpus grid; these tests pin the edges
//! that a grid sweep would not isolate if they regressed:
//!
//! * zero-allocation loops never collect, however tiny the nursery —
//!   the §2.1 payoff (unboxed code never touches the heap) must
//!   survive the collector's existence;
//! * allocation churn under a tiny nursery collects *many* times and
//!   still reproduces the uncollected run's outcome and every non-GC
//!   counter;
//! * a collection landing in the middle of a `Force` — update frame on
//!   the stack, blackhole in the heap — preserves thunk-update
//!   semantics (sharing) and `<<loop>>` detection;
//! * the live-heap cap kills a program whose *reachable* data outgrows
//!   it, with a structured error distinct from the cumulative
//!   allocation cap.

use std::sync::Arc;

use levity::driver::pipeline::{compile_with_prelude, RunLimits};
use levity::m::bytecode::BcProgram;
use levity::m::compile::CodeProgram;
use levity::m::machine::{Globals, MachineError, MachineStats, RunOutcome};
use levity::m::regmachine::BcMachine;
use levity::m::syntax::{Atom, Literal, MExpr};
use levity::m::verify::verify;
use levity::m::Engine;

const FUEL: u64 = 50_000_000;

/// The §2.1 unboxed ladder: a register loop that allocates nothing.
const ZERO_ALLOC: &str = "sumTo# :: Int# -> Int# -> Int#\n\
     sumTo# acc n = case n of { 0# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }\n\
     main :: Int#\n\
     main = sumTo# 0# 5000#\n";

/// Allocation churn with a tiny live set: builds and drops a fresh
/// 24-cell chain per round.
const CHURN: &str = "data Chain = End | Link Int Chain\n\
     build :: Int# -> Chain\n\
     build n = case n of { 0# -> End; _ -> Link (I# n) (build (n -# 1#)) }\n\
     len :: Chain -> Int#\n\
     len xs = case xs of { End -> 0#; Link h t -> 1# +# len t }\n\
     churn :: Int# -> Int# -> Int#\n\
     churn acc r = case r of { 0# -> acc; _ -> churn (acc +# len (build 24#)) (r -# 1#) }\n\
     main :: Int#\n\
     main = churn 0# 100#\n";

/// A big *live* chain: 300 cells all reachable at once, so residency
/// (unlike churn's) genuinely grows.
const BIG_LIVE: &str = "data Chain = End | Link Int Chain\n\
     build :: Int# -> Chain\n\
     build n = case n of { 0# -> End; _ -> Link (I# n) (build (n -# 1#)) }\n\
     len :: Chain -> Int#\n\
     len xs = case xs of { End -> 0#; Link h t -> 1# +# len t }\n\
     main :: Int#\n\
     main = len (build 300#)\n";

/// A shared thunk forced twice: `xs` is an argument thunk whose first
/// force runs the whole allocating `build` under an update frame.
const SHARED_FORCE: &str = "data Chain = End | Link Int Chain\n\
     build :: Int# -> Chain\n\
     build n = case n of { 0# -> End; _ -> Link (I# n) (build (n -# 1#)) }\n\
     len :: Chain -> Int#\n\
     len xs = case xs of { End -> 0#; Link h t -> 1# +# len t }\n\
     twice :: Chain -> Int#\n\
     twice xs = len xs +# len xs\n\
     main :: Int#\n\
     main = twice (build 25#)\n";

fn run_bc(source: &str, limits: RunLimits) -> (RunOutcome, MachineStats) {
    let compiled = compile_with_prelude(source).unwrap_or_else(|e| panic!("{e}"));
    compiled
        .run_with_limits("main", Engine::Bytecode, limits)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Every field of `MachineStats` except the three GC counters.
#[allow(clippy::type_complexity)]
fn non_gc_counters(s: &MachineStats) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64, usize, u64) {
    (
        s.steps,
        s.thunk_allocs,
        s.con_allocs,
        s.thunk_forces,
        s.updates,
        s.var_lookups,
        s.prim_ops,
        s.jumps,
        s.allocated_words,
        s.max_stack,
        s.fused_ops,
    )
}

#[test]
fn zero_allocation_ladders_never_collect() {
    let tiny = RunLimits {
        gc_nursery: Some(1),
        ..RunLimits::fuel(FUEL)
    };
    let (out, stats) = run_bc(ZERO_ALLOC, tiny);
    assert_eq!(out.value().and_then(|v| v.as_int()), Some(12_502_500));
    // The loop never allocates, so pressure is never reached: the
    // collector must not cost an unboxed program anything — not one
    // collection, not one copied byte.
    assert_eq!(stats.collections, 0, "zero-alloc loop collected");
    assert_eq!(stats.bytes_copied, 0);
    assert_eq!(stats.gc_steps, 0);
    assert_eq!(stats.allocated_words, 0, "ladder is no longer zero-alloc");
}

#[test]
fn forced_collections_change_nothing_but_the_gc_counters() {
    let baseline = run_bc(CHURN, RunLimits::fuel(FUEL));
    assert_eq!(
        baseline.1.collections, 0,
        "churn at the default nursery should not collect in one request"
    );
    let tiny = RunLimits {
        gc_nursery: Some(64),
        ..RunLimits::fuel(FUEL)
    };
    let collected = run_bc(CHURN, tiny);
    assert!(
        collected.1.collections > 10,
        "tiny nursery barely collected: {}",
        collected.1.collections
    );
    assert_eq!(collected.0, baseline.0, "collection changed the outcome");
    assert_eq!(
        non_gc_counters(&collected.1),
        non_gc_counters(&baseline.1),
        "collection perturbed a non-GC counter"
    );
}

#[test]
fn collection_mid_force_preserves_update_semantics() {
    // `twice` forces its argument thunk twice; the first force runs
    // ~75 allocations under the update frame, so a 32-cell nursery
    // guarantees collections while the frame is live and the thunk is
    // blackholed. Sharing must survive relocation: same outcome, same
    // number of forces and updates as the uncollected run.
    let baseline = run_bc(SHARED_FORCE, RunLimits::fuel(FUEL));
    let tiny = RunLimits {
        gc_nursery: Some(32),
        ..RunLimits::fuel(FUEL)
    };
    let collected = run_bc(SHARED_FORCE, tiny);
    assert!(collected.1.collections > 0, "nursery of 32 never collected");
    assert_eq!(collected.0, baseline.0);
    assert_eq!(
        (collected.1.thunk_forces, collected.1.updates),
        (baseline.1.thunk_forces, baseline.1.updates),
        "relocation broke thunk sharing"
    );
}

#[test]
fn blackholes_survive_collection_and_still_catch_loops() {
    // let p = (let q = I#[1] in case q of I#[_] -> case p of I#[i] ->
    // I#[i]) in case p of I#[i] -> i — forcing `p` blackholes it, then
    // allocates `q`; with a 1-cell nursery that allocation collects
    // while `p` is a blackhole with its update frame on the stack. The
    // relocated blackhole must still be recognised when `p` demands
    // itself: `<<loop>>`, not a crash or a stale value.
    let inner = MExpr::let_lazy(
        "q",
        MExpr::con_int_hash(Atom::Lit(Literal::Int(1))),
        MExpr::case_int_hash(
            MExpr::var("q"),
            "j",
            MExpr::case_int_hash(
                MExpr::var("p"),
                "i",
                MExpr::con_int_hash(Atom::Var("i".into())),
            ),
        ),
    );
    let t = MExpr::let_lazy(
        "p",
        inner,
        MExpr::case_int_hash(MExpr::var("p"), "i", MExpr::var("i")),
    );
    let globals = Globals::new();
    let program = CodeProgram::compile(&globals);
    let bc = Arc::new(BcProgram::compile(&program));
    let entry = bc.compile_entry(&program.compile_entry(&t));
    let verified = verify(&bc).unwrap();
    let mut machine = BcMachine::new(bc);
    machine.set_fuel(FUEL);
    machine.set_gc_nursery(1);
    let ventry = verified.verify_entry(&entry).unwrap();
    assert_eq!(machine.run(&ventry), Err(MachineError::Loop));
    assert!(
        machine.stats().collections > 0,
        "the nursery never collected"
    );
}

#[test]
fn live_heap_cap_kills_what_churn_survives() {
    // Churn's live set is one 24-cell chain — far under 4KiB — so it
    // completes under the cap…
    let capped = RunLimits {
        heap_bytes: Some(4096),
        gc_nursery: Some(64),
        ..RunLimits::fuel(FUEL)
    };
    let (out, stats) = run_bc(CHURN, capped);
    assert_eq!(out.value().and_then(|v| v.as_int()), Some(2_400));
    assert!(stats.collections > 0);
    // …while the same cap kills a program whose *reachable* data
    // outgrows it, with the residency error, not the allocation one.
    let compiled = compile_with_prelude(BIG_LIVE).unwrap_or_else(|e| panic!("{e}"));
    let err = compiled
        .run_with_limits("main", Engine::Bytecode, capped)
        .unwrap_err();
    assert_eq!(err, MachineError::HeapLimitExceeded { limit: 4096 });
    // The distinction matters: churn allocates far *more* than
    // BIG_LIVE in total. An allocation cap could never separate them.
    let alloc_capped = RunLimits {
        alloc_words: Some(2_000),
        ..RunLimits::fuel(FUEL)
    };
    assert!(matches!(
        compile_with_prelude(CHURN)
            .unwrap()
            .run_with_limits("main", Engine::Bytecode, alloc_capped)
            .unwrap_err(),
        MachineError::AllocLimitExceeded { .. }
    ));
}
