//! The static bytecode verifier, end to end:
//!
//! * **corpus** — every golden-bytecode program (the same thirteen the
//!   snapshot suites pin), at `O0` *and* `O2`, must verify and must
//!   pass every Core lint rule with zero errors;
//! * **negative pins** — hand-built chunks exercising each
//!   [`VerifyErrorKind`]: the verifier must reject them with exactly
//!   the structured error (kind, chunk, pc) the API promises;
//! * **the single gate** — [`BcMachine::run`] takes only a verified
//!   entry: a witness minted for another program is refused, and an
//!   entry the verifier rejects surfaces through the pipeline as a
//!   structured [`MachineError::Unverified`], never a run;
//! * **fuzz** — a SplitMix64 bytecode mutator: for every mutant,
//!   either the verifier rejects it (or the entry compiled against the
//!   original program), or the verified run returns a value or a
//!   structured [`MachineError`] within its budgets — never a panic.
//!   This is the soundness story in executable form: the dispatch loop
//!   skips exactly the checks the verifier discharged.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use levity::compile::lint_program;
use levity::core::rep::Slot;
use levity::driver::pipeline::{compile_with_prelude_opt, Compiled};
use levity::driver::OptLevel;
use levity::m::bytecode::{BDefault, Chunk, Instr, PSrc, Src, WSrc};
use levity::m::machine::MachineError;
use levity::m::regmachine::BcMachine;
use levity::m::syntax::{Addr, Atom, Binder, Literal, MExpr, PrimOp};
use levity::m::verify::{verify, VerifyErrorKind};
use levity::m::{BcProgram, Engine};

/// The golden corpus — kept in lockstep with `golden_core.rs` and
/// `golden_bytecode.rs`, so every program whose Core and flat code are
/// pinned is also pinned to verify and lint clean.
const GOLDEN: &[(&str, &str)] = &[
    (
        "sum_to_boxed",
        "sumTo :: Int -> Int -> Int\n\
         sumTo acc n = case n of { I# k -> case k of { 0# -> acc; _ -> sumTo (acc + n) (n - 1) } }\n\
         main :: Int\n\
         main = sumTo 0 5000\n",
    ),
    (
        "sum_to_unboxed",
        "sumTo# :: Int# -> Int# -> Int#\n\
         sumTo# acc n = case n of { 0# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }\n\
         main :: Int#\n\
         main = sumTo# 0# 5000#\n",
    ),
    (
        "dict_unboxed",
        "loop :: Int# -> Int# -> Int#\n\
         loop acc n = case n of { 0# -> acc; _ -> loop (acc + n) (n - 1#) }\n\
         main :: Int#\n\
         main = loop 0# 2000#\n",
    ),
    (
        "dict_boxed",
        "loop :: Int -> Int -> Int\n\
         loop acc n = case n of { I# k -> case k of { 0# -> acc; _ -> loop (acc + n) (n - 1) } }\n\
         main :: Int\n\
         main = loop 0 2000\n",
    ),
    (
        "dict_poly_fn",
        "step :: forall (a :: TYPE IntRep). Num a => a -> a\n\
         step x = x + x\n\
         loop :: Int# -> Int# -> Int#\n\
         loop acc n = case n of { 0# -> acc; _ -> loop (acc + step n) (n - 1#) }\n\
         main :: Int#\n\
         main = loop 0# 2000#\n",
    ),
    (
        "dict_poly_fn_boxed",
        "step :: Num a => a -> a\n\
         step x = x + x\n\
         loop :: Int -> Int -> Int\n\
         loop acc n = case n of { I# k -> case k of { 0# -> acc; _ -> loop (acc + step n) (n - 1) } }\n\
         main :: Int\n\
         main = loop 0 2000\n",
    ),
    (
        "spec_square",
        "square :: Num a => a -> a\n\
         square x = x * x\n\
         main :: Int\n\
         main = square 7\n",
    ),
    (
        "cpr_divmod",
        "data QR = QR Int# Int#\n\
         divMod# :: Int# -> Int# -> QR\n\
         divMod# n d = case n <# d of { 1# -> QR 0# n; _ -> case divMod# (n -# d) d of { QR q r -> QR (q +# 1#) r } }\n\
         loop :: Int# -> Int# -> Int#\n\
         loop acc n = case n of { 0# -> acc; _ -> case divMod# n 3# of { QR q r -> loop (acc +# q +# r) (n -# 1#) } }\n\
         main :: Int#\n\
         main = loop 0# 5000#\n",
    ),
    (
        "cpr_accumulator",
        "data QR = QR Int# Int#\n\
         spin :: Int# -> Int# -> QR\n\
         spin acc n = case n of { 0# -> QR acc n; _ -> spin (acc +# n) (n -# 1#) }\n\
         main :: Int#\n\
         main = case spin 0# 5000# of { QR s z -> s +# z }\n",
    ),
    (
        "cpr_escape",
        "data QR = QR Int# Int#\n\
         mk :: Int# -> QR\n\
         mk n = case n <# 0# of { 1# -> QR 0# n; _ -> case mk (n -# 1#) of { QR a b -> QR (a +# n) b } }\n\
         main :: QR\n\
         main = mk 3#\n",
    ),
    (
        "join_diamond",
        "data QR = QR Int# Int#\n\
         pick :: Int# -> Int# -> QR\n\
         pick a b = case (case a <# b of { 1# -> QR a b; _ -> QR b a }) of { QR x y -> QR (x +# 100#) y }\n\
         use :: Int# -> Int#\n\
         use n = case pick n 5# of { QR u v -> u +# (v *# 2#) +# (u -# v) +# (u *# v) }\n\
         main :: Int#\n\
         main = use 3#\n",
    ),
    (
        "tuple_divmod",
        "divMod# :: Int# -> Int# -> (# Int#, Int# #)\n\
         divMod# n k = (# quotInt# n k, remInt# n k #)\n\
         useBoth :: Int# -> Int# -> Int#\n\
         useBoth n k = case divMod# n k of { (# q, r #) -> q +# r }\n\
         main :: Int#\n\
         main = useBoth 17# 5#\n",
    ),
    (
        "spec_mutual",
        "bounce :: Num a => a -> Int# -> a\n\
         bounce x n = case n of { 0# -> x; _ -> rebound (x + x) (n -# 1#) }\n\
         rebound :: Num a => a -> Int# -> a\n\
         rebound x n = case n of { 0# -> x; _ -> bounce (x * x) (n -# 1#) }\n\
         main :: Int\n\
         main = bounce 2 3#\n",
    ),
];

const FUEL: u64 = 200_000_000;

// ---------------------------------------------------------------------
// Corpus: everything the snapshots pin must verify and lint clean
// ---------------------------------------------------------------------

#[test]
fn the_golden_corpus_verifies_and_lints_clean_at_both_levels() {
    for (name, src) in GOLDEN {
        for level in [OptLevel::O0, OptLevel::O2] {
            let compiled = compile_with_prelude_opt(src, level)
                .unwrap_or_else(|e| panic!("{name} at {level}: {e}"));
            // The pipeline already verified once (compilation would
            // have failed otherwise); re-verify through the public API
            // and pin that the stored witness covers this bytecode.
            let witness = verify(&compiled.bytecode)
                .unwrap_or_else(|e| panic!("{name} at {level} fails verification: {e}"));
            assert!(
                Arc::ptr_eq(witness.program(), compiled.verified.program()),
                "{name} at {level}: fresh witness covers a different program"
            );
            let tenv = levity::ir::typecheck::check_program(&compiled.program)
                .unwrap_or_else(|(b, e)| panic!("{name} at {level}: `{b}` fails typecheck: {e}"));
            let lints = lint_program(&tenv, &compiled.program);
            assert!(
                lints.is_clean(),
                "{name} at {level} fails Core lint:\n{lints}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Negative pins: one hand-built chunk per VerifyErrorKind
// ---------------------------------------------------------------------

fn chunk(label: &str, frame: [u16; 4], code: Vec<Instr>) -> Arc<Chunk> {
    Arc::new(Chunk {
        label: label.to_owned(),
        code: code.into(),
        frame,
        caps: Arc::from([] as [Slot; 0]),
        caps_counts: [0; 4],
        params: Arc::from([] as [Binder; 0]),
        lam_body: None,
    })
}

fn program_of(chunks: Vec<Arc<Chunk>>) -> Arc<BcProgram> {
    Arc::new(BcProgram {
        chunks,
        generic: Vec::new(),
        fast: Vec::new(),
        names: Vec::new(),
    })
}

fn rejected_with(p: &Arc<BcProgram>) -> VerifyErrorKind {
    verify(p)
        .expect_err("the verifier must reject this program")
        .kind
}

#[test]
fn a_jump_past_the_code_is_rejected() {
    let p = program_of(vec![chunk("bad", [0; 4], vec![Instr::Goto(7)])]);
    assert_eq!(
        rejected_with(&p),
        VerifyErrorKind::BadJumpTarget { target: 7, len: 1 }
    );
}

#[test]
fn falling_off_the_end_is_rejected() {
    let p = program_of(vec![chunk(
        "bad",
        [0, 1, 0, 0],
        vec![Instr::MovW {
            dst: 0,
            src: WSrc::K(Literal::Int(1)),
        }],
    )]);
    assert_eq!(rejected_with(&p), VerifyErrorKind::FallThrough);
}

#[test]
fn a_write_beyond_the_declared_frame_is_rejected() {
    let p = program_of(vec![chunk(
        "bad",
        [0, 2, 0, 0],
        vec![
            Instr::MovW {
                dst: 5,
                src: WSrc::K(Literal::Int(1)),
            },
            Instr::RetW(WSrc::K(Literal::Int(0))),
        ],
    )]);
    assert_eq!(
        rejected_with(&p),
        VerifyErrorKind::FrameOverflow {
            class: Slot::Word,
            slot: 5,
            frame: 2
        }
    );
}

#[test]
fn an_uninitialised_read_is_rejected() {
    let p = program_of(vec![chunk(
        "bad",
        [0, 2, 0, 0],
        vec![Instr::RetW(WSrc::R(1))],
    )]);
    assert_eq!(
        rejected_with(&p),
        VerifyErrorKind::UninitialisedRead {
            class: Slot::Word,
            slot: 1,
            height: 0
        }
    );
}

#[test]
fn a_non_word_breq_default_binder_is_rejected() {
    // The unchecked machine writes the scrutinee straight into the
    // word bank on the miss edge; a pointer-class binder here would
    // corrupt the frame, so the verifier must refuse it statically.
    let p = program_of(vec![chunk(
        "bad",
        [1, 1, 0, 0],
        vec![
            Instr::BrEqW {
                src: WSrc::K(Literal::Int(0)),
                lit: Literal::Int(0),
                on_eq: 1,
                default: BDefault {
                    binder: Binder::ptr("p"),
                    slot: 0,
                    target: 1,
                },
            },
            Instr::RetW(WSrc::K(Literal::Int(0))),
        ],
    )]);
    assert_eq!(
        rejected_with(&p),
        VerifyErrorKind::ClassMismatch {
            what: "br.eq default binder",
            expected: Slot::Word,
            found: Slot::Ptr,
        }
    );
}

#[test]
fn a_non_word_fused_bind_is_rejected() {
    // call.fw's return protocol writes the caller's binds as raw
    // words; a pointer binder must be a static error.
    let p = program_of(vec![chunk(
        "bad",
        [1, 1, 0, 0],
        vec![
            Instr::CallFW {
                chunk: 0,
                resume: 1,
                args: Arc::from([] as [WSrc; 0]),
                binds: Arc::from([(Binder::ptr("p"), 0u16)]),
            },
            Instr::RetW(WSrc::K(Literal::Int(0))),
        ],
    )]);
    assert_eq!(
        rejected_with(&p),
        VerifyErrorKind::NonWordBind {
            binder: "p:ptr".to_owned()
        }
    );
}

#[test]
fn a_self_call_wider_than_the_buffer_is_rejected() {
    // The fused self-call resolves every operand into a fixed
    // 12-slot buffer before rewriting the frame; a wider arity would
    // index past it, so the verifier bounds it statically.
    let args: Vec<WSrc> = (0..13).map(|i| WSrc::K(Literal::Int(i))).collect();
    let p = program_of(vec![chunk(
        "bad",
        [0, 13, 0, 0],
        vec![Instr::CallW { args: args.into() }],
    )]);
    assert_eq!(
        rejected_with(&p),
        VerifyErrorKind::SelfCallBufExceeded { arity: 13 }
    );
}

#[test]
fn a_dangling_chunk_reference_is_rejected() {
    let p = program_of(vec![chunk(
        "bad",
        [0; 4],
        vec![Instr::CallF {
            chunk: 9,
            args: Arc::from([] as [Src; 0]),
            tail: true,
        }],
    )]);
    assert_eq!(rejected_with(&p), VerifyErrorKind::BadChunkRef { id: 9 });
}

#[test]
fn a_closure_over_a_parameterless_chunk_is_rejected() {
    let p = program_of(vec![chunk(
        "bad",
        [0; 4],
        vec![
            Instr::MkClos {
                chunk: 0,
                caps: Arc::from([] as [Src; 0]),
            },
            Instr::RetA,
        ],
    )]);
    assert_eq!(rejected_with(&p), VerifyErrorKind::MissingParam);
}

#[test]
fn caps_counts_disagreeing_with_the_capture_list_are_rejected() {
    let p = program_of(vec![Arc::new(Chunk {
        label: "bad".to_owned(),
        code: vec![Instr::RetA].into(),
        frame: [1, 0, 0, 0],
        caps: Arc::from([Slot::Ptr]),
        caps_counts: [0; 4],
        params: Arc::from([] as [Binder; 0]),
        lam_body: None,
    })]);
    assert_eq!(
        rejected_with(&p),
        VerifyErrorKind::BadCaps {
            declared: [0; 4],
            found: [1, 0, 0, 0]
        }
    );
}

#[test]
fn an_immediate_heap_address_is_rejected() {
    // `eval.p #3` names a cell no run allocated, in an operand the
    // moving collector could not forward.
    let p = program_of(vec![chunk(
        "bad",
        [0; 4],
        vec![Instr::EvalP(PSrc::K(Addr(3))), Instr::RetA],
    )]);
    assert_eq!(
        rejected_with(&p),
        VerifyErrorKind::AddressConstant { addr: 3 }
    );
}

// ---------------------------------------------------------------------
// The single gate: only verified entries run
// ---------------------------------------------------------------------

fn main_entry(compiled: &Compiled) -> levity::m::BcEntry {
    compiled
        .bytecode
        .compile_entry(&compiled.code.compile_entry(&MExpr::global("main")))
}

#[test]
fn a_witness_for_another_program_is_refused() {
    let a = compile_with_prelude_opt(GOLDEN[0].1, OptLevel::O2).unwrap();
    let b = compile_with_prelude_opt(GOLDEN[1].1, OptLevel::O2).unwrap();
    let entry = main_entry(&a);
    let ventry = a.verified.verify_entry(&entry).unwrap();
    // Same entry, same witness — but a machine loaded with the *other*
    // program: it must refuse to run rather than race an unrelated
    // program through checks the verifier discharged for `a`.
    let mut m = BcMachine::new(Arc::clone(&b.bytecode));
    m.set_fuel(FUEL);
    assert!(matches!(m.run(&ventry), Err(MachineError::BadBytecode(_))));
}

#[test]
fn an_address_constant_entry_is_a_structured_error_not_a_run() {
    // A raw heap address as the entry term names a cell no run
    // allocated: running it would index an empty heap, so it must be
    // refused before the machine starts.
    let compiled = compile_with_prelude_opt("main :: Int#\nmain = 0#\n", OptLevel::O2).unwrap();
    let t = Arc::new(MExpr::Atom(Atom::Addr(Addr(7))));
    let entry = compiled
        .bytecode
        .compile_entry(&compiled.code.compile_entry(&t));
    let rejected = compiled.verified.verify_entry(&entry).unwrap_err();
    assert_eq!(rejected.kind, VerifyErrorKind::AddressConstant { addr: 7 });
    let err = compiled
        .run_term_with_engine(t, FUEL, Engine::Bytecode)
        .unwrap_err();
    assert!(
        matches!(&err, MachineError::Unverified(e) if **e == rejected),
        "{err}"
    );
}

#[test]
fn a_dangling_address_is_a_structured_error_on_the_tree_engines() {
    // The tree engines run unverified terms, so they must meet a raw
    // address the heap never allocated with an error, not a panic: as
    // the entry term itself, and as a primop argument.
    let compiled = compile_with_prelude_opt("main :: Int#\nmain = 0#\n", OptLevel::O2).unwrap();
    let entry = Arc::new(MExpr::Atom(Atom::Addr(Addr(7))));
    let prim = Arc::new(MExpr::Prim(
        PrimOp::AddI,
        vec![Atom::Addr(Addr(7)), Atom::Lit(Literal::Int(1))],
    ));
    for engine in [Engine::Subst, Engine::Env] {
        for t in [&entry, &prim] {
            let err = compiled
                .run_term_with_engine(Arc::clone(t), FUEL, engine)
                .unwrap_err();
            assert!(
                matches!(&err, MachineError::InvalidState(msg) if msg.contains("dangling")),
                "{engine:?} on {t:?}: {err}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Fuzz: mutate bytecode; reject, or fail safely, but never diverge
// ---------------------------------------------------------------------

/// SplitMix64; tiny, deterministic, and dependency-free.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 {
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One random structural mutation of one chunk: retargeted jumps,
/// swapped/duplicated/truncated instructions, rewritten register
/// slots. Deliberately includes identity-shaped mutations (a swap of
/// an instruction with itself) so the accepted population is never
/// empty, and wild ones (slot 63 of a 2-slot frame) so the rejected
/// population never is either.
fn mutate(program: &BcProgram, g: &mut SplitMix64) -> Arc<BcProgram> {
    let mut chunks = program.chunks.clone();
    let ci = g.below(chunks.len() as u64) as usize;
    let mut code: Vec<Instr> = chunks[ci].code.to_vec();
    let i = g.below(code.len() as u64) as usize;
    match g.below(6) {
        0 => code[i] = Instr::Goto(g.below(2 * code.len() as u64 + 2) as u32),
        1 => {
            let j = g.below(code.len() as u64) as usize;
            code.swap(i, j);
        }
        2 => code.truncate(i + 1),
        3 => code[i] = Instr::RetW(WSrc::R(g.below(64) as u16)),
        4 => {
            let dup = code[i].clone();
            code.insert(i, dup);
        }
        _ => {
            code[i] = Instr::MovW {
                dst: g.below(64) as u16,
                src: WSrc::R(g.below(64) as u16),
            }
        }
    }
    let mutated = Chunk {
        code: code.into(),
        ..(*chunks[ci]).clone()
    };
    chunks[ci] = Arc::new(mutated);
    Arc::new(BcProgram {
        chunks,
        generic: program.generic.clone(),
        fast: program.fast.clone(),
        names: program.names.clone(),
    })
}

#[test]
fn mutated_bytecode_is_rejected_or_fails_safely_and_never_diverges() {
    // A small CPR workload: fused self-calls, multi-returns, joins —
    // the instruction families whose checks the dispatch loop leaves
    // to the verifier.
    let src = "data QR = QR Int# Int#\n\
               divMod# :: Int# -> Int# -> QR\n\
               divMod# n d = case n <# d of { 1# -> QR 0# n; _ -> case divMod# (n -# d) d of { QR q r -> QR (q +# 1#) r } }\n\
               loop :: Int# -> Int# -> Int#\n\
               loop acc n = case n of { 0# -> acc; _ -> case divMod# n 3# of { QR q r -> loop (acc +# q +# r) (n -# 1#) } }\n\
               main :: Int#\n\
               main = loop 0# 40#\n";
    let compiled = compile_with_prelude_opt(src, OptLevel::O2).unwrap();
    // The entry comes from the *unmutated* program: mutations keep the
    // chunk count, so its chunk references stay meaningful.
    let entry = main_entry(&compiled);
    let mut g = SplitMix64::new(0x5eed_bc09);
    let (mut rejected, mut ran) = (0u32, 0u32);
    let mut panicked = Vec::new();
    for round in 0..400u32 {
        let mutant = mutate(&compiled.bytecode, &mut g);
        // Verification is the only way in. The entry is verified
        // against the *mutant*: a mutation can invalidate the entry's
        // assumptions about the chunks it calls.
        let Ok(witness) = verify(&mutant) else {
            rejected += 1;
            continue;
        };
        let Ok(ventry) = witness.verify_entry(&entry) else {
            rejected += 1;
            continue;
        };
        ran += 1;
        // Small budgets: a mutation may well have manufactured an
        // infinite loop, which must surface as OutOfFuel or
        // AllocLimitExceeded, not a hang. A tiny nursery makes the
        // verified maps carry collections too.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut m = BcMachine::new(Arc::clone(&mutant));
            m.set_fuel(100_000);
            m.set_alloc_limit(1 << 20);
            m.set_gc_nursery(32);
            m.run(&ventry)
        }));
        if outcome.is_err() {
            panicked.push(round);
        }
    }
    eprintln!(
        "mutation fuzzer: {rejected} rejected, {ran} ran, {} panicked",
        panicked.len()
    );
    assert!(
        panicked.is_empty(),
        "the machine panicked on verified mutants {panicked:?}"
    );
    // The mutator must actually exercise both sides of the verifier.
    assert!(rejected >= 50, "only {rejected}/400 mutants rejected");
    assert!(ran >= 20, "only {ran}/400 mutants ran");
}
