//! The bytecode compiler: [`Code`] trees flattened into contiguous
//! instruction vectors for the register machine in [`crate::regmachine`].
//!
//! The environment engine still *walks a tree*: every transition is an
//! `Arc` dereference, a `match` on a node, and a heap-allocated
//! environment extension. This module is the second half of the §6.2
//! story — because every binder's register class is fixed at compile
//! time, we can assign every variable a *slot in a per-class operand
//! stack* (word / double / float / pointer) and compile the tree into a
//! flat `Vec` of fixed-width instructions with jump offsets. Unboxed
//! hot paths then execute with no tag dispatch at all: an `Int#` loop
//! is a handful of instructions over the word stack.
//!
//! Compilation units are **chunks**: one per global (a "generic" chunk
//! that evaluates the body as written, plus a "fast" chunk that takes a
//! saturated λ-chain's parameters directly in registers), one per λ
//! (entered on application), one per lazy-`let` right-hand side
//! (entered on force), and one for the entry expression.
//!
//! Join points compile to *labels*: a `jump` becomes register moves
//! plus a `goto` offset — the flat-code realisation of "Compiling
//! without Continuations". Tail self-calls re-enter the current chunk
//! at offset 0: a back-edge.
//!
//! Three families of **fused superinstructions** cover the shapes the
//! O2 pipeline reliably emits:
//!
//! * [`Instr::CmpBrW`] — compare + branch (`case (<# a b) of {1#…;0#…}`);
//! * [`Instr::PrimWJ`] — primop + tail jump (the last accumulator
//!   update of a join-point loop);
//! * [`Instr::RetMulti`] / [`Instr::BindMulti`] — unboxed tuple return
//!   + multi-register rebind (CPR worker output).
//!
//! The compiler is *semantics-preserving to the letter*: every runtime
//! error the environment engine would raise (unbound variables, width
//! checks, arity mismatches, unknown joins) is either reproduced by the
//! same runtime check or — when the failure is statically evident —
//! compiled to an [`Instr::Trap`] at exactly the program point where
//! the environment engine would have failed, *after* any observable
//! effects (counter bumps, allocations) that precede it.

use std::fmt;
use std::sync::Arc;

use levity_core::rep::Slot;
use levity_core::symbol::Symbol;

use crate::compile::{CAlt, CAtom, CJoin, Code, CodeProgram, GlobalId};
use crate::machine::MachineError;
use crate::syntax::{Addr, Binder, DataCon, Literal, PrimOp};

/// Self tail-calls up to this arity resolve their arguments through a
/// fixed interpreter-stack buffer — no heap allocation on the
/// back-edge. [`Instr::CallW`] is only emitted within this bound.
pub(crate) const SELF_CALL_BUF: usize = 12;

/// Index of a register class: `[ptr, word, float, double]`.
#[inline]
pub(crate) fn class_ix(class: Slot) -> usize {
    match class {
        Slot::Ptr => 0,
        Slot::Word => 1,
        Slot::Float => 2,
        Slot::Double => 3,
    }
}

/// A word-stack operand: a register or an immediate word literal
/// (`Int#` or `Char#` — both live in the word class, and the
/// distinction is preserved end to end).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WSrc {
    /// Frame-relative word register.
    R(u16),
    /// Immediate (always `Literal::Int` or `Literal::Char`).
    K(Literal),
}

/// A double-stack operand (immediates carried as bit patterns).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DSrc {
    /// Frame-relative double register.
    R(u16),
    /// Immediate `f64` bits.
    K(u64),
}

/// A float-stack operand (immediates carried as bit patterns).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FSrc {
    /// Frame-relative float register.
    R(u16),
    /// Immediate `f32` bits.
    K(u32),
}

/// A pointer-stack operand.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PSrc {
    /// Frame-relative pointer register.
    R(u16),
    /// Immediate heap address (runtime-built terms only).
    K(Addr),
}

/// The primitive half of a prim-fused superinstruction: a two-operand
/// word primop and its destination register. The fused interpreter arm
/// executes it — counters, errors and the register write all exactly
/// as the standalone [`Instr::PrimW`] — before the instruction's own
/// action.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WPrim {
    /// The primitive (the [`Instr::PrimW`] word family).
    pub op: PrimOp,
    /// Destination word register.
    pub dst: u16,
    /// Left operand.
    pub a: WSrc,
    /// Right operand.
    pub b: WSrc,
}

/// A classed operand: the register class was chosen at compile time
/// from the binder's §6.2 slot, so the interpreter never tag-checks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Src {
    /// Word-class operand.
    W(WSrc),
    /// Double-class operand.
    D(DSrc),
    /// Float-class operand.
    F(FSrc),
    /// Pointer-class operand.
    P(PSrc),
    /// A variable free at compile time; resolving it raises
    /// `UnboundVariable` at the same program point as the other engines.
    U(Symbol),
}

impl Src {
    /// The static register class, if bound.
    pub fn class(self) -> Option<Slot> {
        match self {
            Src::W(_) => Some(Slot::Word),
            Src::D(_) => Some(Slot::Double),
            Src::F(_) => Some(Slot::Float),
            Src::P(_) => Some(Slot::Ptr),
            Src::U(_) => None,
        }
    }
}

/// A constructor alternative of a [`Instr::SwitchA`].
#[derive(Clone, Debug, PartialEq)]
pub enum BAlt {
    /// `C y₁ … yₙ -> @target`, fields written to the listed slots
    /// (width-checked in order, like the environment engine).
    Con {
        /// The constructor matched by name.
        con: Arc<DataCon>,
        /// Field binders and their destination slots.
        binds: Arc<[(Binder, u16)]>,
        /// Branch target.
        target: u32,
    },
    /// `lit -> @target`.
    Lit(Literal, u32),
}

/// A default alternative: the scrutinee value is rebound (allocating a
/// cell for boxed values, exactly like the environment engine's
/// `value_to_atom`) and control branches to the target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BDefault {
    /// The default binder (kept for the width-check error payload).
    pub binder: Binder,
    /// Destination slot in the binder's class.
    pub slot: u16,
    /// Branch target.
    pub target: u32,
}

/// A flat register-machine instruction. Branch targets are
/// instruction offsets within the current chunk.
#[derive(Clone, Debug, PartialEq)]
pub enum Instr {
    /// `error` (rule ERR): aborts the whole machine with
    /// `RunOutcome::Error`, checked *before* the fuel counter exactly
    /// like the tree engines.
    Err(Arc<str>),
    /// A statically-detected machine failure, raised at runtime at
    /// this program point.
    Trap(Arc<MachineError>),
    /// Unconditional branch.
    Goto(u32),
    /// Join-point jump with buffered argument transfer: resolve every
    /// argument (in order), write the parameter slots (in order; the
    /// verifier matched their classes statically), branch. The hazard-free
    /// common case compiles to bare moves + `GotoJ` with no arguments.
    GotoJ {
        /// Branch target (the join body's offset).
        target: u32,
        /// Argument sources (empty when pre-moved).
        args: Arc<[Src]>,
        /// Parameter binders and slots (empty when pre-moved).
        params: Arc<[(Binder, u16)]>,
    },
    /// Word-register move.
    MovW {
        /// Destination slot.
        dst: u16,
        /// Source operand.
        src: WSrc,
    },
    /// Double-register move.
    MovD {
        /// Destination slot.
        dst: u16,
        /// Source operand.
        src: DSrc,
    },
    /// Float-register move.
    MovF {
        /// Destination slot.
        dst: u16,
        /// Source operand.
        src: FSrc,
    },
    /// Pointer-register move.
    MovP {
        /// Destination slot.
        dst: u16,
        /// Source operand.
        src: PSrc,
    },
    /// Two-argument integer-family primop into a word register. No tag
    /// checks on the fast path: both operands come off the word stack.
    PrimW {
        /// The operation (integer family, arity 2).
        op: PrimOp,
        /// Destination word slot.
        dst: u16,
        /// Left operand.
        a: WSrc,
        /// Right operand.
        b: WSrc,
    },
    /// Unary word primop (`negateInt#`).
    PrimW1 {
        /// The operation.
        op: PrimOp,
        /// Destination word slot.
        dst: u16,
        /// Operand.
        a: WSrc,
    },
    /// **Fused**: [`Instr::PrimW`] + tail jump — the accumulator
    /// update feeding a join-point back-edge in one dispatch.
    PrimWJ {
        /// The operation (integer family, arity 2).
        op: PrimOp,
        /// Destination word slot (a join parameter).
        dst: u16,
        /// Left operand.
        a: WSrc,
        /// Right operand.
        b: WSrc,
        /// Branch target.
        target: u32,
        /// Whether this edge is a join jump (counts `jumps`).
        join: bool,
    },
    /// Two-argument double-arithmetic primop into a double register.
    PrimD {
        /// The operation (`+##`/`-##`/`*##`//`##`).
        op: PrimOp,
        /// Destination double slot.
        dst: u16,
        /// Left operand.
        a: DSrc,
        /// Right operand.
        b: DSrc,
    },
    /// Double comparison into a word register (`==##` returns `1#`/`0#`).
    PrimDW {
        /// The operation (`==##`/`<##`/`<=##`).
        op: PrimOp,
        /// Destination word slot.
        dst: u16,
        /// Left operand.
        a: DSrc,
        /// Right operand.
        b: DSrc,
    },
    /// The general primop: resolve each operand (in order) through the
    /// heap-literal check, call `apply_prim`, leave the literal in the
    /// accumulator. Used for float/char/conversion ops and for every
    /// statically ill-classed application, so error payloads match the
    /// tree engines exactly.
    PrimA {
        /// The operation.
        op: PrimOp,
        /// Operand sources.
        args: Arc<[Src]>,
    },
    /// **Fused**: integer compare + branch. Writes nothing; branches
    /// on the unboxed boolean.
    CmpBrW {
        /// The comparison (integer family or `eqChar#`).
        op: PrimOp,
        /// Left operand.
        a: WSrc,
        /// Right operand.
        b: WSrc,
        /// Target when the comparison yields `1#`.
        on_true: u32,
        /// Target when the comparison yields `0#`.
        on_false: u32,
    },
    /// **Fused**: [`Instr::CmpBrW`] whose false edge is the adjacent
    /// [`Instr::PrimCallFW`] — the loop header of a non-tail
    /// self-recursive function (`case (<# a b) of {1# -> base; _ ->
    /// … f e …}`). One dispatch tests the comparison and either jumps
    /// to the base case or runs the floated prim plus the fused call.
    CmpBrCallFW {
        /// The comparison (integer family or `eqChar#`).
        op: PrimOp,
        /// Left comparison operand.
        a: WSrc,
        /// Right comparison operand.
        b: WSrc,
        /// Target when the comparison yields `1#`.
        on_true: u32,
        /// The floated argument compute, run only on the false edge.
        prim: WPrim,
        /// The callee chunk.
        chunk: u32,
        /// Resume pc in this chunk, *past* the absorbed bind.
        resume: u32,
        /// All-word arguments, in parameter order.
        args: Arc<[WSrc]>,
        /// The absorbed multi-value binders (all word-class).
        binds: Arc<[(Binder, u16)]>,
    },
    /// **Fused**: the single-literal-arm [`Instr::SwitchW`] with a
    /// default — one compare against the arm literal, binding the
    /// scrutinee into the default slot on the miss path. The shape
    /// every `case n of { lit -> ...; _ -> ... }` loop header takes.
    BrEqW {
        /// Scrutinee operand.
        src: WSrc,
        /// The single arm's literal.
        lit: Literal,
        /// Target when the scrutinee equals the literal.
        on_eq: u32,
        /// The default: scrutinee binding plus miss target.
        default: BDefault,
    },
    /// Multi-way branch on a word scrutinee (no tag dispatch: the
    /// scrutinee class is static).
    SwitchW {
        /// Scrutinee operand.
        src: WSrc,
        /// Literal arms in source order.
        arms: Arc<[(Literal, u32)]>,
        /// Optional default (binds the scrutinee).
        default: Option<BDefault>,
    },
    /// General case dispatch on the accumulator, mirroring the
    /// environment engine's `Case` frame (constructor match by name,
    /// arity check, per-field width checks, `value_to_atom` default).
    SwitchA {
        /// Alternatives in source order.
        alts: Arc<[BAlt]>,
        /// Optional default.
        default: Option<BDefault>,
    },
    /// Accumulator := word literal.
    AccW(
        /// Source operand.
        WSrc,
    ),
    /// Accumulator := double literal.
    AccD(
        /// Source operand.
        DSrc,
    ),
    /// Accumulator := float literal.
    AccF(
        /// Source operand.
        FSrc,
    ),
    /// Evaluate a pointer: heap value → accumulator (counting a
    /// lookup), thunk → blackhole + force (pushing an update frame and
    /// a return frame resuming at the next instruction), blackhole →
    /// `<<loop>>`.
    EvalP(
        /// The pointer to evaluate.
        PSrc,
    ),
    /// Build a constructor value in the accumulator (counts the §2.1
    /// boxing event; the cell is allocated only when the value is
    /// *bound*, exactly like the environment engine).
    MkCon {
        /// The constructor.
        con: Arc<DataCon>,
        /// Field sources, resolved in order.
        args: Arc<[Src]>,
    },
    /// Build an unboxed multi-value in the accumulator.
    MkMulti {
        /// Component sources, resolved in order.
        args: Arc<[Src]>,
    },
    /// **Fused**: build a multi-value and return it — the CPR worker's
    /// unboxed tuple return in one dispatch.
    RetMulti {
        /// Component sources, resolved in order.
        args: Arc<[Src]>,
    },
    /// **Fused**: [`Instr::RetMulti`] specialised to an all-word
    /// multi-value. When the waiting frame came from
    /// [`Instr::CallFW`], the fields land straight in the caller's
    /// registers; otherwise the words materialise into a generic
    /// multi-value and take the ordinary return path.
    RetMultiW {
        /// Component sources, resolved in order (all word operands).
        args: Arc<[WSrc]>,
    },
    /// Rebind a returned multi-value into per-class registers: arity
    /// check, then per-binder width check + typed write — the consumer
    /// half of the CPR protocol.
    BindMulti {
        /// Component binders and destination slots.
        binds: Arc<[(Binder, u16)]>,
    },
    /// Close over the listed slots and build a closure value in the
    /// accumulator.
    MkClos {
        /// The λ-body chunk.
        chunk: u32,
        /// Captured slots, outermost first.
        caps: Arc<[Src]>,
    },
    /// Allocate a thunk (rule LET): reserve the address, write it to
    /// `dst`, *then* capture (so the capture list may include the
    /// thunk's own address — cyclic thunks).
    MkThunk {
        /// The right-hand-side chunk.
        chunk: u32,
        /// Captured slots, outermost first (including `dst`).
        caps: Arc<[Src]>,
        /// Destination pointer slot.
        dst: u16,
    },
    /// Bind the accumulator to a `let!` binder: literals bind
    /// directly, boxed values allocate a cell (`value_to_atom`),
    /// multi-values are an invalid state — all width-checked.
    BindAcc {
        /// The binder (for the width-check payload).
        binder: Binder,
        /// Destination slot in the binder's class.
        slot: u16,
    },
    /// Push a return frame resuming at `resume` in this chunk.
    PushRet {
        /// Resumption offset.
        resume: u32,
    },
    /// Resolve an argument and push an application frame (spine
    /// arguments are pushed outermost-first, so they apply
    /// innermost-first — the Figure 6 order).
    PushArg(
        /// The argument source.
        Src,
    ),
    /// Direct call of a saturated global through its fast chunk:
    /// arguments resolved right-to-left (the spine's error order),
    /// written to parameter registers, no closures built. With `tail`,
    /// the current frame is released first — a self-call becomes a
    /// back-edge.
    CallF {
        /// The fast chunk.
        chunk: u32,
        /// Arguments in parameter order.
        args: Arc<[Src]>,
        /// Whether to release the current frame.
        tail: bool,
    },
    /// **Fused**: self tail-call of a capture-free chunk whose
    /// parameters are all word-class (so they sit at word slots
    /// `0..n`). Every operand resolves before any slot is rewritten;
    /// the whole back-edge is one dispatch with no atom traffic.
    CallW {
        /// Arguments in parameter order (all word operands).
        args: Arc<[WSrc]>,
    },
    /// **Fused**: a word primop executed (and its register written)
    /// immediately before a [`Instr::CallFW`] — the argument compute
    /// and the call in one dispatch.
    PrimCallFW {
        /// The primitive half.
        prim: WPrim,
        /// The fast chunk.
        chunk: u32,
        /// Resume point (*past* the absorbed bind).
        resume: u32,
        /// Arguments in parameter order (all word operands).
        args: Arc<[WSrc]>,
        /// The absorbed multi-value binders and their caller slots.
        binds: Arc<[(Binder, u16)]>,
    },
    /// **Fused**: a word primop executed (and its register written)
    /// immediately before a [`Instr::RetMultiW`] — the last field
    /// compute and the tuple return in one dispatch.
    PrimRetMultiW {
        /// The primitive half.
        prim: WPrim,
        /// Component sources, resolved in order (all word operands).
        args: Arc<[WSrc]>,
    },
    /// **Fused**: [`Instr::PushRet`] + non-tail [`Instr::CallF`] +
    /// the [`Instr::BindMulti`] waiting at the resume point, for a
    /// call whose arguments and result binders are all word-class.
    /// The pushed frame carries the binders, so the callee's
    /// [`Instr::RetMultiW`] writes the caller's registers directly —
    /// the whole call/return seam moves words, never atoms.
    CallFW {
        /// The fast chunk.
        chunk: u32,
        /// Resume point (*past* the absorbed bind).
        resume: u32,
        /// Arguments in parameter order (all word operands).
        args: Arc<[WSrc]>,
        /// The absorbed multi-value binders and their caller slots.
        binds: Arc<[(Binder, u16)]>,
    },
    /// **Fused**: a word primop feeding straight into a self
    /// tail-call ([`Instr::PrimW`] + [`Instr::CallW`]). The prim's
    /// register is dead after the back-edge, so the result is never
    /// written: argument occurrences of `dst` read it directly.
    PrimCallW {
        /// The primitive (the [`Instr::PrimW`] word family).
        op: PrimOp,
        /// The register the unfused prim wrote; occurrences in `args`
        /// resolve to the freshly computed result.
        dst: u16,
        /// Left operand.
        a: WSrc,
        /// Right operand.
        b: WSrc,
        /// Arguments in parameter order (all word operands).
        args: Arc<[WSrc]>,
    },
    /// Enter a zero-parameter chunk (a global body, re-evaluated per
    /// reference like the tree engines).
    EnterG {
        /// The chunk to enter.
        chunk: u32,
        /// Whether to release the current frame.
        tail: bool,
    },
    /// Apply the accumulator to the pending application frames
    /// (non-tail: the current frame stays live for the return).
    ApplyA,
    /// Return a word literal.
    RetW(
        /// Source operand.
        WSrc,
    ),
    /// Return a double literal.
    RetD(
        /// Source operand.
        DSrc,
    ),
    /// Return a float literal.
    RetF(
        /// Source operand.
        FSrc,
    ),
    /// Return the accumulator: release the frame and enter the
    /// pop-loop (apply / update / resume).
    RetA,
}

/// A compiled chunk: a flat instruction vector plus its static frame
/// shape (registers per class), capture classes, and parameters.
#[derive(Clone, Debug)]
pub struct Chunk {
    /// Stable diagnostic label (`f`, `f!fast`, `f.lam0`, `f.thunk1`,
    /// `<entry>`, …).
    pub label: String,
    /// The instructions.
    pub code: Arc<[Instr]>,
    /// Frame size per class (`[ptr, word, float, double]`).
    pub frame: [u16; 4],
    /// Classes of the captured values, outermost first.
    pub caps: Arc<[Slot]>,
    /// Number of captures per class (entry write cursors).
    pub caps_counts: [u16; 4],
    /// Parameters (empty for thunk/global/entry chunks, one for λ
    /// chunks, the full chain for fast chunks).
    pub params: Arc<[Binder]>,
    /// The λ body as tree code, for closure readback.
    pub lam_body: Option<Arc<Code>>,
}

/// A whole program compiled to bytecode: chunks plus the global call
/// tables.
#[derive(Clone, Debug)]
pub struct BcProgram {
    /// All chunks; ids index this vector.
    pub chunks: Vec<Arc<Chunk>>,
    /// Per-global generic chunk (evaluates the body as written).
    pub generic: Vec<u32>,
    /// Per-global fast chunk and arity, when the body is a λ-chain.
    pub fast: Vec<Option<(u32, usize)>>,
    /// Global names (diagnostics).
    pub names: Vec<Symbol>,
}

/// A compiled entry expression: chunks whose ids continue the
/// program's id space, plus the root chunk to enter.
#[derive(Clone, Debug)]
pub struct BcEntry {
    /// Entry-local chunks.
    pub chunks: Vec<Arc<Chunk>>,
    /// The chunk to enter (an absolute id).
    pub root: u32,
}

impl BcProgram {
    /// Compiles every global of an already-compiled [`CodeProgram`].
    pub fn compile(program: &CodeProgram) -> BcProgram {
        let mut cx = Cx::new(0);
        // Phase 1: reserve ids for every global's chunks so bodies can
        // call each other (mutual recursion) before anything is built.
        let n = program.len();
        let mut generic = Vec::with_capacity(n);
        let mut fast = Vec::with_capacity(n);
        let mut names = Vec::with_capacity(n);
        let mut fast_params: Vec<Option<Arc<[Binder]>>> = Vec::with_capacity(n);
        for ix in 0..n {
            let id = GlobalId(ix as u32);
            let name = program.name(id);
            names.push(name);
            let body = program.body(id);
            let chain = lam_chain(body);
            let gid = cx.reserve(ChunkJob {
                label: name.to_string(),
                caps: Vec::new(),
                params: Vec::new(),
                body: Arc::clone(body),
                lam_body: None,
            });
            generic.push(gid);
            if chain.0.is_empty() {
                fast.push(None);
                fast_params.push(None);
            } else {
                let params: Arc<[Binder]> = chain.0.iter().copied().collect();
                let fid = cx.reserve(ChunkJob {
                    label: format!("{name}!fast"),
                    caps: Vec::new(),
                    params: chain.0.clone(),
                    body: Arc::clone(&chain.1),
                    lam_body: None,
                });
                fast.push(Some((fid, params.len())));
                fast_params.push(Some(params));
            }
        }
        cx.generic = generic.clone();
        cx.fast = fast.clone();
        cx.fast_params = fast_params;
        // Phase 2: drain the job queue (bodies enqueue λ/thunk chunks).
        cx.drain();
        BcProgram {
            chunks: cx
                .chunks
                .into_iter()
                .map(|c| c.expect("chunk built"))
                .collect(),
            generic,
            fast,
            names,
        }
    }

    /// Compiles a closed entry expression against this program. The
    /// per-run cost of the bytecode engine: one traversal of the
    /// (typically tiny) entry term.
    pub fn compile_entry(&self, entry: &Arc<Code>) -> BcEntry {
        // Entry chunks extend the program's id space so call/enter
        // instructions address one flat table.
        let mut cx = Cx::new(self.chunks.len() as u32);
        cx.generic = self.generic.clone();
        cx.fast = self.fast.clone();
        cx.fast_params = self
            .fast
            .iter()
            .map(|f| f.map(|(id, _)| Arc::clone(&self.chunks[id as usize].params)))
            .collect();
        let root = cx.reserve(ChunkJob {
            label: "<entry>".to_string(),
            caps: Vec::new(),
            params: Vec::new(),
            body: Arc::clone(entry),
            lam_body: None,
        });
        cx.drain();
        BcEntry {
            chunks: cx
                .chunks
                .into_iter()
                .map(|c| c.expect("chunk built"))
                .collect(),
            root,
        }
    }

    /// A deterministic disassembly of every chunk — the golden-snapshot
    /// format (chunks referenced by label, never by raw id).
    pub fn disasm(&self) -> String {
        let mut out = String::new();
        for chunk in &self.chunks {
            disasm_chunk(&mut out, chunk, &|id| self.label_of(id));
        }
        out
    }

    fn label_of(&self, id: u32) -> String {
        self.chunks
            .get(id as usize)
            .map(|c| c.label.clone())
            .unwrap_or_else(|| format!("<chunk {id}>"))
    }
}

impl BcEntry {
    /// Disassembles the entry chunks (program chunks referenced by
    /// label through `program`).
    pub fn disasm(&self, program: &BcProgram) -> String {
        let base = program.chunks.len() as u32;
        let lookup = |id: u32| -> String {
            if id < base {
                program.label_of(id)
            } else {
                self.chunks
                    .get((id - base) as usize)
                    .map(|c| c.label.clone())
                    .unwrap_or_else(|| format!("<chunk {id}>"))
            }
        };
        let mut out = String::new();
        for chunk in &self.chunks {
            disasm_chunk(&mut out, chunk, &lookup);
        }
        out
    }
}

/// Strips a λ-chain: `λa. λb. body` → (`[a, b]`, `body`).
fn lam_chain(code: &Arc<Code>) -> (Vec<Binder>, Arc<Code>) {
    let mut params = Vec::new();
    let mut cur = code;
    while let Code::Lam(b, body) = &**cur {
        params.push(*b);
        cur = body;
    }
    (params, Arc::clone(cur))
}

/// A chunk waiting to be compiled.
struct ChunkJob {
    label: String,
    /// Classes of the captured scope, outermost first.
    caps: Vec<Slot>,
    /// Parameters bound after the captures.
    params: Vec<Binder>,
    body: Arc<Code>,
    lam_body: Option<Arc<Code>>,
}

/// Shared compiler state: the chunk table under construction plus the
/// global call tables.
struct Cx {
    base: u32,
    chunks: Vec<Option<Arc<Chunk>>>,
    queue: Vec<(u32, ChunkJob)>,
    generic: Vec<u32>,
    fast: Vec<Option<(u32, usize)>>,
    fast_params: Vec<Option<Arc<[Binder]>>>,
}

impl Cx {
    fn new(base: u32) -> Cx {
        Cx {
            base,
            chunks: Vec::new(),
            queue: Vec::new(),
            generic: Vec::new(),
            fast: Vec::new(),
            fast_params: Vec::new(),
        }
    }

    /// Reserves an id and queues the job (deterministic: encounter
    /// order).
    fn reserve(&mut self, job: ChunkJob) -> u32 {
        let id = self.base + self.chunks.len() as u32;
        self.chunks.push(None);
        self.queue.push((id, job));
        id
    }

    fn drain(&mut self) {
        // Jobs enqueue further jobs; process in reservation order.
        let mut next = 0;
        while next < self.queue.len() {
            // Take the job out to appease the borrow checker; the
            // placeholder is never revisited.
            let (id, job) = std::mem::replace(
                &mut self.queue[next],
                (
                    u32::MAX,
                    ChunkJob {
                        label: String::new(),
                        caps: Vec::new(),
                        params: Vec::new(),
                        body: Arc::new(Code::Error(String::new())),
                        lam_body: None,
                    },
                ),
            );
            next += 1;
            let chunk = FnCx::compile_chunk(self, id, job);
            self.chunks[(id - self.base) as usize] = Some(Arc::new(chunk));
        }
        self.queue.clear();
    }
}

/// A register: a class plus a frame-relative slot.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Reg {
    class: Slot,
    slot: u16,
}

/// Compilation continuation for an expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cont {
    /// Tail position: produce the value and return (frames released).
    Tail,
    /// Deliver the value to the accumulator, then branch to the label
    /// (the enclosing frame stays live).
    Acc(u32),
}

/// A join point visible during compilation.
struct JoinCtx {
    def: Arc<CJoin>,
    /// Parameter registers (freshly allocated, never reused).
    params: Vec<Reg>,
    /// The scope at the definition site (the join body's free
    /// variables resolve against this).
    scope: Vec<Reg>,
    /// Join points visible inside the body: this entry and everything
    /// beneath it.
    depth: usize,
    /// Compiled variants: one body copy per distinct continuation.
    variants: Vec<(Cont, u32, bool)>,
}

/// Per-chunk compiler: allocates registers monotonically (slots are
/// never reused inside a chunk, so capture lists and join-parameter
/// writes can never collide with later binders).
struct FnCx<'a> {
    cx: &'a mut Cx,
    /// The id of the chunk being compiled (self tail-call detection).
    self_id: u32,
    label: String,
    scope: Vec<Reg>,
    counts: [u16; 4],
    code: Vec<Instr>,
    labels: Vec<u32>,
    joins: Vec<JoinCtx>,
    join_vis: usize,
    nested: usize,
    /// Code length at the most recent label bind: peepholes must not
    /// pop instructions at or before this position, or a bound label
    /// would point into the replaced range.
    fence: usize,
}

const UNBOUND_LABEL: u32 = u32::MAX;

impl<'a> FnCx<'a> {
    fn compile_chunk(cx: &'a mut Cx, self_id: u32, job: ChunkJob) -> Chunk {
        let mut f = FnCx {
            cx,
            self_id,
            label: job.label.clone(),
            scope: Vec::new(),
            counts: [0; 4],
            code: Vec::new(),
            labels: Vec::new(),
            joins: Vec::new(),
            join_vis: 0,
            nested: 0,
            fence: 0,
        };
        let mut caps_counts = [0u16; 4];
        for class in &job.caps {
            let reg = f.fresh(*class);
            caps_counts[class_ix(*class)] += 1;
            f.scope.push(reg);
        }
        for b in &job.params {
            let reg = f.fresh(b.class);
            f.scope.push(reg);
        }
        f.compile(&job.body, Cont::Tail);
        let labels = std::mem::take(&mut f.labels);
        let mut code = std::mem::take(&mut f.code);
        patch_labels(&mut code, &labels);
        Chunk {
            label: job.label,
            code: code.into(),
            frame: f.counts,
            caps: job.caps.into_iter().collect(),
            caps_counts,
            params: job.params.into_iter().collect(),
            lam_body: job.lam_body,
        }
    }

    /// Allocates a fresh register (monotone; the frame is the final
    /// counter state).
    fn fresh(&mut self, class: Slot) -> Reg {
        let ix = class_ix(class);
        let slot = self.counts[ix];
        self.counts[ix] += 1;
        Reg { class, slot }
    }

    fn label(&mut self) -> u32 {
        self.labels.push(UNBOUND_LABEL);
        (self.labels.len() - 1) as u32
    }

    fn bind(&mut self, label: u32) {
        self.labels[label as usize] = self.code.len() as u32;
        self.fence = self.code.len();
    }

    fn emit(&mut self, i: Instr) {
        self.code.push(i);
    }

    fn trap(&mut self, e: MachineError) {
        self.emit(Instr::Trap(Arc::new(e)));
    }

    /// Resolves a compiled atom to a classed operand.
    fn src_of(&self, a: CAtom) -> Src {
        match a {
            CAtom::Local(ix) => {
                let reg = self.scope[self.scope.len() - 1 - ix as usize];
                match reg.class {
                    Slot::Word => Src::W(WSrc::R(reg.slot)),
                    Slot::Double => Src::D(DSrc::R(reg.slot)),
                    Slot::Float => Src::F(FSrc::R(reg.slot)),
                    Slot::Ptr => Src::P(PSrc::R(reg.slot)),
                }
            }
            CAtom::Lit(l) => lit_src(l),
            CAtom::Addr(addr) => Src::P(PSrc::K(addr)),
            CAtom::Unbound(x) => Src::U(x),
        }
    }

    fn srcs_of(&self, args: &[CAtom]) -> Arc<[Src]> {
        args.iter().map(|a| self.src_of(*a)).collect()
    }

    /// The capture list for the whole current scope, outermost first.
    fn capture_srcs(&self) -> Arc<[Src]> {
        self.scope
            .iter()
            .map(|r| match r.class {
                Slot::Word => Src::W(WSrc::R(r.slot)),
                Slot::Double => Src::D(DSrc::R(r.slot)),
                Slot::Float => Src::F(FSrc::R(r.slot)),
                Slot::Ptr => Src::P(PSrc::R(r.slot)),
            })
            .collect()
    }

    fn capture_classes(&self) -> Vec<Slot> {
        self.scope.iter().map(|r| r.class).collect()
    }

    /// Finishes a value sitting in the accumulator.
    fn finish(&mut self, cont: Cont) {
        match cont {
            Cont::Tail => self.emit(Instr::RetA),
            Cont::Acc(l) => self.emit(Instr::Goto(l)),
        }
    }

    fn nested_label(&mut self, kind: &str) -> String {
        let n = self.nested;
        self.nested += 1;
        format!("{}.{kind}{n}", self.label)
    }

    fn compile(&mut self, code: &Code, cont: Cont) {
        match code {
            Code::Atom(a) => self.compile_atom(*a, cont),
            Code::App(..) => self.compile_app(code, cont),
            Code::Lam(binder, body) => {
                let caps = self.capture_srcs();
                let label = self.nested_label("lam");
                let chunk = self.cx.reserve(ChunkJob {
                    label,
                    caps: self.capture_classes(),
                    params: vec![*binder],
                    body: Arc::clone(body),
                    lam_body: Some(Arc::clone(body)),
                });
                self.emit(Instr::MkClos { chunk, caps });
                self.finish(cont);
            }
            Code::LetLazy(_, rhs, body) => {
                let reg = self.fresh(Slot::Ptr);
                self.scope.push(reg);
                // The capture list includes the thunk's own slot (the
                // environment engine pushes the address before
                // capturing): cyclic thunks work unchanged.
                let caps = self.capture_srcs();
                let label = self.nested_label("thunk");
                let chunk = self.cx.reserve(ChunkJob {
                    label,
                    caps: self.capture_classes(),
                    params: Vec::new(),
                    body: Arc::clone(rhs),
                    lam_body: None,
                });
                self.emit(Instr::MkThunk {
                    chunk,
                    caps,
                    dst: reg.slot,
                });
                self.compile(body, cont);
                self.scope.pop();
            }
            Code::LetStrict(binder, rhs, body) => {
                let reg = self.fresh(binder.class);
                self.compile_strict_rhs(*binder, reg, rhs);
                self.scope.push(reg);
                self.compile(body, cont);
                self.scope.pop();
            }
            Code::Case(scrut, alts, def) => self.compile_case(scrut, alts, def, cont),
            Code::Con(c, args) => {
                self.emit(Instr::MkCon {
                    con: Arc::clone(c),
                    args: self.srcs_of(args),
                });
                self.finish(cont);
            }
            Code::Prim(op, args) => {
                if let Some(fast) = self.fast_prim(*op, args) {
                    match cont {
                        Cont::Tail => {
                            let scratch = self.fresh(fast.result);
                            self.emit_fast_prim(fast, scratch.slot);
                            match fast.result {
                                Slot::Word => self.emit(Instr::RetW(WSrc::R(scratch.slot))),
                                Slot::Double => self.emit(Instr::RetD(DSrc::R(scratch.slot))),
                                _ => unreachable!("fast prims are word/double"),
                            }
                        }
                        Cont::Acc(_) => {
                            // Rare position; the general instruction is
                            // exact and allocation-free.
                            self.emit(Instr::PrimA {
                                op: *op,
                                args: self.srcs_of(args),
                            });
                            self.finish(cont);
                        }
                    }
                } else {
                    self.emit(Instr::PrimA {
                        op: *op,
                        args: self.srcs_of(args),
                    });
                    self.finish(cont);
                }
            }
            Code::MultiVal(args) => match cont {
                Cont::Tail => {
                    let srcs = self.srcs_of(args);
                    let words: Option<Vec<WSrc>> = srcs
                        .iter()
                        .map(|s| match s {
                            Src::W(w) => Some(*w),
                            _ => None,
                        })
                        .collect();
                    match words {
                        Some(w) if w.len() <= SELF_CALL_BUF => {
                            // Peephole: a strict-let prim sequenced
                            // immediately before the tuple return
                            // rides along in the same dispatch (its
                            // register is still written, so this is
                            // safe for any adjacent prim).
                            let fuse = match self.code.last() {
                                Some(&Instr::PrimW { op, dst, a, b })
                                    if self.fence < self.code.len() =>
                                {
                                    Some(WPrim { op, dst, a, b })
                                }
                                _ => None,
                            };
                            match fuse {
                                Some(prim) => {
                                    self.code.pop();
                                    self.emit(Instr::PrimRetMultiW {
                                        prim,
                                        args: w.into(),
                                    });
                                }
                                None => self.emit(Instr::RetMultiW { args: w.into() }),
                            }
                        }
                        _ => self.emit(Instr::RetMulti { args: srcs }),
                    }
                }
                Cont::Acc(_) => {
                    self.emit(Instr::MkMulti {
                        args: self.srcs_of(args),
                    });
                    self.finish(cont);
                }
            },
            Code::CaseMulti(scrut, binders, body) => {
                let l = self.label();
                self.compile(scrut, Cont::Acc(l));
                let mut binds = Vec::with_capacity(binders.len());
                let depth = self.scope.len();
                for b in binders.iter() {
                    let reg = self.fresh(b.class);
                    binds.push((*b, reg.slot));
                    self.scope.push(reg);
                }
                // Peephole: the scrutinee compiled to `push.ret l;
                // call f!fast [all-word args]` and every field binder
                // is word-class — absorb the pending bind into one
                // fused call whose frame carries the binders, so the
                // callee's `ret.multi.w` writes them directly. A
                // strict-let prim sequenced just before the call (the
                // floated argument compute) rides along too.
                let wargs = |args: &Arc<[Src]>| -> Option<Vec<WSrc>> {
                    args.iter()
                        .map(|s| match s {
                            Src::W(w) => Some(*w),
                            _ => None,
                        })
                        .collect()
                };
                let fused = if binds.iter().all(|(b, _)| b.class == Slot::Word) {
                    match &self.code[..] {
                        [.., Instr::PrimW { op, dst, a, b }, Instr::PushRet { resume }, Instr::CallF {
                            chunk,
                            args,
                            tail: false,
                        }] if *resume == l
                            && args.len() <= SELF_CALL_BUF
                            && self.fence + 3 <= self.code.len() =>
                        {
                            wargs(args).map(|w| {
                                (
                                    Some(WPrim {
                                        op: *op,
                                        dst: *dst,
                                        a: *a,
                                        b: *b,
                                    }),
                                    *chunk,
                                    w,
                                )
                            })
                        }
                        [.., Instr::PushRet { resume }, Instr::CallF {
                            chunk,
                            args,
                            tail: false,
                        }] if *resume == l
                            && args.len() <= SELF_CALL_BUF
                            && self.fence + 2 <= self.code.len() =>
                        {
                            wargs(args).map(|w| (None, *chunk, w))
                        }
                        _ => None,
                    }
                } else {
                    None
                };
                if let Some((prim, chunk, words)) = fused {
                    self.code.pop();
                    self.code.pop();
                    let binds: Arc<[(Binder, u16)]> = binds.into();
                    match prim {
                        Some(prim) => {
                            self.code.pop();
                            // Loop-header fusion: if the compare that
                            // guards this block sits directly before
                            // it and its false edge targets exactly
                            // this position (and nothing else does),
                            // absorb the call into the compare in
                            // place. No instruction is added or
                            // removed, so every bound label stays
                            // valid.
                            let here = self.code.len() as u32;
                            let cmp = match self.code.last() {
                                Some(Instr::CmpBrW {
                                    op,
                                    a,
                                    b,
                                    on_true,
                                    on_false,
                                }) if self.labels[*on_false as usize] == here
                                    && self
                                        .labels
                                        .iter()
                                        .enumerate()
                                        .filter(|(_, p)| **p == here)
                                        .all(|(i, _)| i == *on_false as usize) =>
                                {
                                    Some((*op, *a, *b, *on_true))
                                }
                                _ => None,
                            };
                            match cmp {
                                Some((op, a, b, on_true)) => {
                                    let q = self.code.len() - 1;
                                    self.code[q] = Instr::CmpBrCallFW {
                                        op,
                                        a,
                                        b,
                                        on_true,
                                        prim,
                                        chunk,
                                        resume: l,
                                        args: words.into(),
                                        binds,
                                    };
                                }
                                None => self.emit(Instr::PrimCallFW {
                                    prim,
                                    chunk,
                                    resume: l,
                                    args: words.into(),
                                    binds,
                                }),
                            }
                        }
                        None => self.emit(Instr::CallFW {
                            chunk,
                            resume: l,
                            args: words.into(),
                            binds,
                        }),
                    }
                    // The resume label lands *past* the absorbed
                    // bind: the first instruction of the body.
                    self.bind(l);
                } else {
                    self.bind(l);
                    self.emit(Instr::BindMulti {
                        binds: binds.into(),
                    });
                }
                self.compile(body, cont);
                self.scope.truncate(depth);
            }
            Code::LetJoin(def, body) => self.compile_letjoin(def, body, cont),
            Code::Jump(j, args) => self.compile_jump(*j, args, cont),
            Code::Global(id, _) => match cont {
                Cont::Tail => self.emit(Instr::EnterG {
                    chunk: self.cx.generic[id.0 as usize],
                    tail: true,
                }),
                Cont::Acc(l) => {
                    self.emit(Instr::PushRet { resume: l });
                    self.emit(Instr::EnterG {
                        chunk: self.cx.generic[id.0 as usize],
                        tail: false,
                    });
                }
            },
            Code::UnknownGlobal(g) => self.trap(MachineError::UnknownGlobal(*g)),
            Code::Error(msg) => self.emit(Instr::Err(msg.as_str().into())),
        }
    }

    fn compile_atom(&mut self, a: CAtom, cont: Cont) {
        match self.src_of(a) {
            Src::U(x) => self.trap(MachineError::UnboundVariable(x)),
            Src::W(w) => match cont {
                Cont::Tail => self.emit(Instr::RetW(w)),
                Cont::Acc(_) => {
                    self.emit(Instr::AccW(w));
                    self.finish(cont);
                }
            },
            Src::D(d) => match cont {
                Cont::Tail => self.emit(Instr::RetD(d)),
                Cont::Acc(_) => {
                    self.emit(Instr::AccD(d));
                    self.finish(cont);
                }
            },
            Src::F(fs) => match cont {
                Cont::Tail => self.emit(Instr::RetF(fs)),
                Cont::Acc(_) => {
                    self.emit(Instr::AccF(fs));
                    self.finish(cont);
                }
            },
            Src::P(p) => {
                self.emit(Instr::EvalP(p));
                match cont {
                    Cont::Tail => self.emit(Instr::RetA),
                    Cont::Acc(_) => self.finish(cont),
                }
            }
        }
    }

    /// `let! binder = rhs in …` — the right-hand side compiled straight
    /// into the binder's register when the classes line up statically,
    /// through the accumulator otherwise.
    fn compile_strict_rhs(&mut self, binder: Binder, reg: Reg, rhs: &Code) {
        match rhs {
            Code::Atom(a) => match self.src_of(*a) {
                Src::U(x) => self.trap(MachineError::UnboundVariable(x)),
                Src::P(p) => {
                    // Pointers force first, and the environment engine
                    // re-allocates the forced value on binding
                    // (`value_to_atom`): not a move.
                    self.emit(Instr::EvalP(p));
                    self.emit(Instr::BindAcc {
                        binder,
                        slot: reg.slot,
                    });
                }
                src => {
                    let actual = src.class().expect("classed");
                    if actual == binder.class {
                        self.emit_mov(reg.slot, src);
                    } else {
                        self.trap(MachineError::ClassMismatch {
                            binder: binder.name,
                            expected: binder.class,
                            actual,
                        });
                    }
                }
            },
            Code::Prim(op, args) => {
                if let Some(fast) = self.fast_prim(*op, args) {
                    if fast.result == binder.class {
                        self.emit_fast_prim(fast, reg.slot);
                    } else {
                        // The primop runs (and counts) before the
                        // width check fails.
                        let scratch = self.fresh(fast.result);
                        self.emit_fast_prim(fast, scratch.slot);
                        self.trap(MachineError::ClassMismatch {
                            binder: binder.name,
                            expected: binder.class,
                            actual: fast.result,
                        });
                    }
                } else {
                    self.emit(Instr::PrimA {
                        op: *op,
                        args: self.srcs_of(args),
                    });
                    self.emit(Instr::BindAcc {
                        binder,
                        slot: reg.slot,
                    });
                }
            }
            Code::Error(msg) => self.emit(Instr::Err(msg.as_str().into())),
            _ => {
                let l = self.label();
                self.compile(rhs, Cont::Acc(l));
                self.bind(l);
                self.emit(Instr::BindAcc {
                    binder,
                    slot: reg.slot,
                });
            }
        }
    }

    fn emit_mov(&mut self, dst: u16, src: Src) {
        match src {
            Src::W(s) => self.emit(Instr::MovW { dst, src: s }),
            Src::D(s) => self.emit(Instr::MovD { dst, src: s }),
            Src::F(s) => self.emit(Instr::MovF { dst, src: s }),
            Src::P(s) => self.emit(Instr::MovP { dst, src: s }),
            Src::U(_) => unreachable!("unbound handled by caller"),
        }
    }

    /// A statically-clean fast primop: operand classes match the
    /// operation, which is in the word or double family.
    fn fast_prim(&mut self, op: PrimOp, args: &[CAtom]) -> Option<FastPrim> {
        let srcs: Vec<Src> = args.iter().map(|a| self.src_of(*a)).collect();
        let all = |class: Slot| srcs.iter().all(|s| s.class() == Some(class));
        match op {
            PrimOp::AddI
            | PrimOp::SubI
            | PrimOp::MulI
            | PrimOp::QuotI
            | PrimOp::RemI
            | PrimOp::EqI
            | PrimOp::NeI
            | PrimOp::LtI
            | PrimOp::LeI
            | PrimOp::GtI
            | PrimOp::GeI
                if srcs.len() == 2 && all(Slot::Word) =>
            {
                let (Src::W(a), Src::W(b)) = (srcs[0], srcs[1]) else {
                    unreachable!()
                };
                Some(FastPrim {
                    op,
                    args: FastArgs::W2(a, b),
                    result: Slot::Word,
                })
            }
            PrimOp::NegI if srcs.len() == 1 && all(Slot::Word) => {
                let Src::W(a) = srcs[0] else { unreachable!() };
                Some(FastPrim {
                    op,
                    args: FastArgs::W1(a),
                    result: Slot::Word,
                })
            }
            PrimOp::AddD | PrimOp::SubD | PrimOp::MulD | PrimOp::DivD
                if srcs.len() == 2 && all(Slot::Double) =>
            {
                let (Src::D(a), Src::D(b)) = (srcs[0], srcs[1]) else {
                    unreachable!()
                };
                Some(FastPrim {
                    op,
                    args: FastArgs::D2(a, b),
                    result: Slot::Double,
                })
            }
            PrimOp::EqD | PrimOp::LtD | PrimOp::LeD if srcs.len() == 2 && all(Slot::Double) => {
                let (Src::D(a), Src::D(b)) = (srcs[0], srcs[1]) else {
                    unreachable!()
                };
                Some(FastPrim {
                    op,
                    args: FastArgs::DW2(a, b),
                    result: Slot::Word,
                })
            }
            _ => None,
        }
    }

    fn emit_fast_prim(&mut self, fast: FastPrim, dst: u16) {
        match fast.args {
            FastArgs::W2(a, b) => self.emit(Instr::PrimW {
                op: fast.op,
                dst,
                a,
                b,
            }),
            FastArgs::W1(a) => self.emit(Instr::PrimW1 {
                op: fast.op,
                dst,
                a,
            }),
            FastArgs::D2(a, b) => self.emit(Instr::PrimD {
                op: fast.op,
                dst,
                a,
                b,
            }),
            FastArgs::DW2(a, b) => self.emit(Instr::PrimDW {
                op: fast.op,
                dst,
                a,
                b,
            }),
        }
    }

    fn compile_case(
        &mut self,
        scrut: &Arc<Code>,
        alts: &Arc<[CAlt]>,
        def: &Option<(Binder, Arc<Code>)>,
        cont: Cont,
    ) {
        // Fusion: `case (<# a b) of { 1# -> t; 0# -> e }` with both
        // unboxed booleans covered becomes one compare-and-branch.
        // Also fires for a single boolean literal arm plus a default
        // whose binder is dead: the comparison only ever produces
        // `0#`/`1#`, so the default is the other boolean and the dead
        // binder needs no register write.
        if let Code::Prim(op, args) = &**scrut {
            if is_word_cmp(*op) {
                if let Some(FastPrim {
                    args: FastArgs::W2(a, b),
                    ..
                }) = self.fast_prim(*op, args)
                {
                    if covers_both_bools(alts) {
                        let lt = self.label();
                        let lf = self.label();
                        self.emit(Instr::CmpBrW {
                            op: *op,
                            a,
                            b,
                            on_true: lt,
                            on_false: lf,
                        });
                        for alt in alts.iter() {
                            if let CAlt::Lit(Literal::Int(n), rhs) = alt {
                                self.bind(if *n == 1 { lt } else { lf });
                                self.compile(rhs, cont);
                            }
                        }
                        return;
                    }
                    if let ([CAlt::Lit(Literal::Int(n @ (0 | 1)), rhs)], Some((db, drhs))) =
                        (&alts[..], def)
                    {
                        if !uses_local(drhs, 0) {
                            let la = self.label();
                            let ld = self.label();
                            let (on_true, on_false) = if *n == 1 { (la, ld) } else { (ld, la) };
                            self.emit(Instr::CmpBrW {
                                op: *op,
                                a,
                                b,
                                on_true,
                                on_false,
                            });
                            // The false-edge block is laid out first,
                            // directly after the compare: that
                            // adjacency is what lets the loop-header
                            // fusion rewrite the compare in place.
                            if *n == 1 {
                                self.bind(ld);
                                let reg = self.fresh(db.class);
                                self.scope.push(reg);
                                self.compile(drhs, cont);
                                self.scope.pop();
                                self.bind(la);
                                self.compile(rhs, cont);
                            } else {
                                self.bind(la);
                                self.compile(rhs, cont);
                                self.bind(ld);
                                let reg = self.fresh(db.class);
                                self.scope.push(reg);
                                self.compile(drhs, cont);
                                self.scope.pop();
                            }
                            return;
                        }
                    }
                }
            }
        }

        // Word-class scrutinees dispatch through the word stack.
        let word_src: Option<WSrc> = match &**scrut {
            Code::Atom(a) => match self.src_of(*a) {
                Src::W(w) => Some(w),
                _ => None,
            },
            Code::Prim(op, args) => match self.fast_prim(*op, args) {
                Some(fast) if fast.result == Slot::Word => {
                    let scratch = self.fresh(Slot::Word);
                    self.emit_fast_prim(fast, scratch.slot);
                    Some(WSrc::R(scratch.slot))
                }
                _ => None,
            },
            _ => None,
        };

        if let Some(src) = word_src {
            let mut arms = Vec::new();
            let mut arm_bodies = Vec::new();
            for alt in alts.iter() {
                if let CAlt::Lit(l, rhs) = alt {
                    if l.slot() == Slot::Word {
                        let target = self.label();
                        arms.push((*l, target));
                        arm_bodies.push((target, Arc::clone(rhs)));
                    }
                }
            }
            let default = def.as_ref().map(|(b, _)| {
                let reg = self.fresh(b.class);
                let target = self.label();
                (
                    BDefault {
                        binder: *b,
                        slot: reg.slot,
                        target,
                    },
                    reg,
                )
            });
            // One literal arm with a default is a single compare —
            // the loop-header shape `case n of { lit -> ..; _ -> .. }`.
            if let (&[(lit, on_eq)], Some((d, _))) = (&arms[..], &default) {
                self.emit(Instr::BrEqW {
                    src,
                    lit,
                    on_eq,
                    default: *d,
                });
            } else {
                self.emit(Instr::SwitchW {
                    src,
                    arms: arms.into(),
                    default: default.as_ref().map(|(d, _)| *d),
                });
            }
            for (target, rhs) in arm_bodies {
                self.bind(target);
                self.compile(&rhs, cont);
            }
            if let (Some((d, reg)), Some((_, rhs))) = (default, def.as_ref()) {
                self.bind(d.target);
                self.scope.push(reg);
                self.compile(rhs, cont);
                self.scope.pop();
            }
            return;
        }

        // General dispatch on the accumulator.
        let l = self.label();
        self.compile(scrut, Cont::Acc(l));
        self.bind(l);
        let mut balts = Vec::with_capacity(alts.len());
        let mut bodies: Vec<(u32, Vec<Reg>, Arc<Code>)> = Vec::new();
        for alt in alts.iter() {
            match alt {
                CAlt::Con(c, binders, rhs) => {
                    let target = self.label();
                    let mut binds = Vec::with_capacity(binders.len());
                    let mut regs = Vec::with_capacity(binders.len());
                    for b in binders.iter() {
                        let reg = self.fresh(b.class);
                        binds.push((*b, reg.slot));
                        regs.push(reg);
                    }
                    balts.push(BAlt::Con {
                        con: Arc::clone(c),
                        binds: binds.into(),
                        target,
                    });
                    bodies.push((target, regs, Arc::clone(rhs)));
                }
                CAlt::Lit(l2, rhs) => {
                    let target = self.label();
                    balts.push(BAlt::Lit(*l2, target));
                    bodies.push((target, Vec::new(), Arc::clone(rhs)));
                }
            }
        }
        let default = def.as_ref().map(|(b, _)| {
            let reg = self.fresh(b.class);
            let target = self.label();
            (
                BDefault {
                    binder: *b,
                    slot: reg.slot,
                    target,
                },
                reg,
            )
        });
        self.emit(Instr::SwitchA {
            alts: balts.into(),
            default: default.as_ref().map(|(d, _)| *d),
        });
        for (target, regs, rhs) in bodies {
            self.bind(target);
            let depth = self.scope.len();
            self.scope.extend(regs);
            self.compile(&rhs, cont);
            self.scope.truncate(depth);
        }
        if let (Some((d, reg)), Some((_, rhs))) = (default, def.as_ref()) {
            self.bind(d.target);
            self.scope.push(reg);
            self.compile(rhs, cont);
            self.scope.pop();
        }
    }

    fn compile_letjoin(&mut self, def: &Arc<CJoin>, body: &Arc<Code>, cont: Cont) {
        let params: Vec<Reg> = def.params.iter().map(|b| self.fresh(b.class)).collect();
        let depth = self.joins.len();
        self.joins.push(JoinCtx {
            def: Arc::clone(def),
            params,
            scope: self.scope.clone(),
            depth: depth + 1,
            variants: Vec::new(),
        });
        let saved_vis = self.join_vis;
        self.join_vis = depth + 1;
        self.compile(body, cont);
        // Compile every requested body variant; variants may request
        // more (recursive jumps, jumps to outer joins).
        loop {
            let pending = self.joins[depth]
                .variants
                .iter()
                .position(|(_, _, done)| !done);
            let Some(vix) = pending else { break };
            let (vcont, vlabel, _) = self.joins[depth].variants[vix];
            self.joins[depth].variants[vix].2 = true;
            let jdef = Arc::clone(&self.joins[depth].def);
            let mut jscope = self.joins[depth].scope.clone();
            jscope.extend(self.joins[depth].params.iter().copied());
            let outer_scope = std::mem::replace(&mut self.scope, jscope);
            let outer_vis = self.join_vis;
            self.join_vis = self.joins[depth].depth;
            self.bind(vlabel);
            self.compile(&jdef.body, vcont);
            self.scope = outer_scope;
            self.join_vis = outer_vis;
        }
        self.joins.truncate(depth);
        self.join_vis = saved_vis;
    }

    /// Resolves a jump target among the visible joins (innermost
    /// wins), returning its index.
    fn lookup_join(&self, name: Symbol) -> Option<usize> {
        self.joins[..self.join_vis]
            .iter()
            .rposition(|j| j.def.name == name)
    }

    /// Requests (allocating if needed) the body label of a join for a
    /// continuation.
    fn request_join(&mut self, jix: usize, cont: Cont) -> u32 {
        if let Some((_, l, _)) = self.joins[jix].variants.iter().find(|(c, _, _)| *c == cont) {
            return *l;
        }
        let l = self.label();
        self.joins[jix].variants.push((cont, l, false));
        l
    }

    fn compile_jump(&mut self, j: Symbol, args: &[CAtom], cont: Cont) {
        let Some(jix) = self.lookup_join(j) else {
            // Lexically out of scope. The pipeline's escape analysis
            // guarantees every jump is dominated by its definition, so
            // this trap fires only on hand-written `M`, where the tree
            // engines raise the same error at the same point.
            self.trap(MachineError::UnknownJoin(j));
            return;
        };
        if self.joins[jix].def.params.len() != args.len() {
            self.trap(MachineError::InvalidState(format!(
                "join point `{j}` arity mismatch"
            )));
            return;
        }
        let target = self.request_join(jix, cont);
        let srcs: Vec<Src> = args.iter().map(|a| self.src_of(*a)).collect();
        let params = self.joins[jix].params.clone();
        let binders: Vec<Binder> = self.joins[jix].def.params.to_vec();

        if srcs.iter().any(|s| matches!(s, Src::U(_))) {
            // An unbound argument: the buffered form resolves every
            // argument in order, so the error fires at the right point.
            let pslots: Arc<[(Binder, u16)]> = binders
                .iter()
                .zip(params.iter())
                .map(|(b, r)| (*b, r.slot))
                .collect();
            self.emit(Instr::GotoJ {
                target,
                args: srcs.into_iter().collect(),
                params: pslots,
            });
            return;
        }
        // Statically ill-classed argument: every resolution is
        // effect-free, so the first failing parameter check (in
        // parameter order) is the observable error.
        for (b, s) in binders.iter().zip(srcs.iter()) {
            let actual = s.class().expect("classed");
            if actual != b.class {
                self.trap(MachineError::ClassMismatch {
                    binder: b.name,
                    expected: b.class,
                    actual,
                });
                return;
            }
        }
        // Clean jump: register moves + goto. Direct moves are safe
        // when no later source reads an already-written parameter slot
        // (parameter slots are fresh, so the only way to read one is a
        // recursive jump forwarding current parameters).
        let mut hazard = false;
        for (i, p) in params.iter().enumerate() {
            for s in srcs.iter().skip(i + 1) {
                if reads_reg(*s, *p) {
                    hazard = true;
                }
            }
        }
        if hazard {
            let pslots: Arc<[(Binder, u16)]> = binders
                .iter()
                .zip(params.iter())
                .map(|(b, r)| (*b, r.slot))
                .collect();
            self.emit(Instr::GotoJ {
                target,
                args: srcs.into_iter().collect(),
                params: pslots,
            });
            return;
        }
        let window = self.code.len();
        for (p, s) in params.iter().zip(srcs.iter()) {
            if !is_self_move(*s, *p) {
                self.emit_mov(p.slot, *s);
            }
        }
        self.fuse_jump_window(window, target);
    }

    /// Peephole over the move window before a join back-edge: fold
    /// each `Mov dst, R(t)` into the `PrimW` that produced `t` (the
    /// accumulator-update idiom), then fuse a trailing `PrimW` with
    /// the `goto` into [`Instr::PrimWJ`].
    fn fuse_jump_window(&mut self, window: usize, target: u32) {
        // Fold moves whose source was computed by an immediately
        // preceding PrimW run (the `let! x = prim in … jump j … x …`
        // shape). `prims` indexes instructions before the window.
        let mut i = window;
        while i < self.code.len() {
            let Instr::MovW {
                dst,
                src: WSrc::R(t),
            } = self.code[i]
            else {
                i += 1;
                continue;
            };
            // Find the producer among the instructions before the
            // window (scan back over the PrimW run).
            let mut producer = None;
            let mut k = window;
            while k > 0 {
                k -= 1;
                match &self.code[k] {
                    Instr::PrimW { dst: pd, .. } | Instr::PrimW1 { dst: pd, .. } => {
                        if *pd == t {
                            producer = Some(k);
                            break;
                        }
                    }
                    _ => break,
                }
            }
            let Some(k) = producer else {
                i += 1;
                continue;
            };
            // Safe to retarget only if nothing else reads `t` after
            // the producer, and nothing between the producer and this
            // move reads the new destination `dst`.
            let mut safe = true;
            for (j, instr) in self.code.iter().enumerate().skip(k + 1) {
                if j == i {
                    continue;
                }
                if instr_reads_word(instr, t) {
                    safe = false;
                    break;
                }
                if instr_reads_word(instr, dst) || instr_writes_word(instr, dst) {
                    safe = false;
                    break;
                }
            }
            if !safe {
                i += 1;
                continue;
            }
            match &mut self.code[k] {
                Instr::PrimW { dst: pd, .. } | Instr::PrimW1 { dst: pd, .. } => *pd = dst,
                _ => unreachable!(),
            }
            self.code.remove(i);
        }
        // Fuse a trailing accumulator update with the back-edge.
        if let Some(Instr::PrimW { op, dst, a, b }) = self.code.last().cloned() {
            if is_int_arith(op) {
                self.code.pop();
                self.emit(Instr::PrimWJ {
                    op,
                    dst,
                    a,
                    b,
                    target,
                    join: true,
                });
                return;
            }
        }
        self.emit(Instr::GotoJ {
            target,
            args: Arc::from([] as [Src; 0]),
            params: Arc::from([] as [(Binder, u16); 0]),
        });
    }

    /// The register class of an atom under `ext` floated binders on
    /// top of the current scope, without allocating registers.
    fn atom_class_ext(&self, a: CAtom, ext: &[Slot]) -> Option<Slot> {
        match a {
            CAtom::Local(ix) => {
                let ix = ix as usize;
                if ix < ext.len() {
                    Some(ext[ext.len() - 1 - ix])
                } else {
                    self.scope
                        .get(self.scope.len().checked_sub(1 + ix - ext.len())?)
                        .map(|r| r.class)
                }
            }
            CAtom::Lit(l) => Some(l.slot()),
            CAtom::Addr(_) => Some(Slot::Ptr),
            CAtom::Unbound(_) => None,
        }
    }

    /// Read-only scout for [`Self::compile_direct_call`]: is this app
    /// spine — App args interleaved with strict fast-prim lets in the
    /// function position (how the lowering nests non-atomic call
    /// arguments) — a saturated, statically class-clean call of a
    /// global's fast chunk?
    fn scout_direct_call(&self, code: &Code) -> bool {
        let mut ext: Vec<Slot> = Vec::new();
        let mut arg_classes_rev: Vec<Option<Slot>> = Vec::new();
        let mut head = code;
        loop {
            match head {
                Code::App(fun, arg) => {
                    arg_classes_rev.push(self.atom_class_ext(*arg, &ext));
                    head = fun;
                }
                Code::LetStrict(binder, rhs, body) => {
                    let Some(result) = self.scout_rhs_chain(rhs, &mut ext) else {
                        return false;
                    };
                    if result != binder.class {
                        return false;
                    }
                    ext.push(binder.class);
                    head = body;
                }
                Code::Global(id, _) => {
                    let Some((_, arity)) = self.cx.fast[id.0 as usize] else {
                        return false;
                    };
                    if arity != arg_classes_rev.len() {
                        return false;
                    }
                    let params = self.cx.fast_params[id.0 as usize]
                        .as_ref()
                        .expect("fast params");
                    return arg_classes_rev
                        .iter()
                        .rev()
                        .zip(params.iter())
                        .all(|(c, b)| *c == Some(b.class));
                }
                _ => return false,
            }
        }
    }

    /// A strict-let right-hand side the spine float can take whole: a
    /// fast prim, or a strict-let *chain* of fast prims (the lowering
    /// nests one when a call argument is a compound prim expression).
    /// Returns the chain's result class.
    fn scout_rhs_chain(&self, rhs: &Code, ext: &mut Vec<Slot>) -> Option<Slot> {
        match rhs {
            Code::Prim(op, pargs) => {
                let classes: Vec<Option<Slot>> =
                    pargs.iter().map(|a| self.atom_class_ext(*a, ext)).collect();
                fast_prim_result(*op, &classes)
            }
            Code::LetStrict(binder, inner, body) => {
                let c = self.scout_rhs_chain(inner, ext)?;
                if c != binder.class {
                    return None;
                }
                ext.push(binder.class);
                let out = self.scout_rhs_chain(body, ext);
                ext.pop();
                out
            }
            _ => None,
        }
    }

    /// Emits a scouted strict-let chain as a flat prim sequence and
    /// returns the result register. Inner binders go out of scope
    /// before the caller pushes the chain's own binder, so de Bruijn
    /// resolution is unchanged; evaluation order is exactly the tree
    /// order, so error behaviour is too.
    fn emit_rhs_chain(&mut self, rhs: &Code) -> Reg {
        match rhs {
            Code::Prim(op, pargs) => {
                let fast = self.fast_prim(*op, pargs).expect("scouted");
                let reg = self.fresh(fast.result);
                self.emit_fast_prim(fast, reg.slot);
                reg
            }
            Code::LetStrict(_, inner, body) => {
                let depth = self.scope.len();
                let reg = self.emit_rhs_chain(inner);
                self.scope.push(reg);
                let out = self.emit_rhs_chain(body);
                self.scope.truncate(depth);
                out
            }
            _ => unreachable!("scouted"),
        }
    }

    /// Emits a scouted spine as floated prims plus one direct
    /// [`Instr::CallF`]. Argument operands are resolved at the spine
    /// position where they occur (registers are assigned once per
    /// chunk, so they stay valid across the floated bindings); the
    /// floated prims run in the same order the environment engine
    /// evaluates the nested strict lets.
    fn compile_direct_call(&mut self, code: &Code, cont: Cont) {
        let depth = self.scope.len();
        let mut srcs_rev: Vec<Src> = Vec::new();
        let mut floated_last: Option<u16> = None;
        let mut head = code;
        loop {
            match head {
                Code::App(fun, arg) => {
                    srcs_rev.push(self.src_of(*arg));
                    head = fun;
                }
                Code::LetStrict(_, rhs, body) => {
                    let reg = self.emit_rhs_chain(rhs);
                    floated_last = Some(reg.slot);
                    self.scope.push(reg);
                    head = body;
                }
                Code::Global(id, _) => {
                    let (chunk, _) = self.cx.fast[id.0 as usize].expect("scouted");
                    // A self tail-call whose arguments are all word
                    // operands rewrites the parameter slots in one
                    // dispatch (fast chunks have no captures, so the
                    // parameters sit at word slots 0..n).
                    if cont == Cont::Tail
                        && chunk == self.self_id
                        && srcs_rev.len() <= SELF_CALL_BUF
                    {
                        let words: Option<Vec<WSrc>> = srcs_rev
                            .iter()
                            .rev()
                            .map(|s| match s {
                                Src::W(w) => Some(*w),
                                _ => None,
                            })
                            .collect();
                        if let Some(words) = words {
                            // Peephole: the innermost floated prim
                            // feeds straight into the back-edge. Its
                            // register is a fresh spine-local (dead
                            // after the call, no label between the
                            // two), so the pair fuses into one
                            // dispatch.
                            if let Some(&Instr::PrimW { op, dst, a, b }) = self.code.last() {
                                if floated_last == Some(dst)
                                    && words.iter().any(|w| matches!(w, WSrc::R(r) if *r == dst))
                                {
                                    self.code.pop();
                                    self.emit(Instr::PrimCallW {
                                        op,
                                        dst,
                                        a,
                                        b,
                                        args: words.into(),
                                    });
                                    self.scope.truncate(depth);
                                    return;
                                }
                            }
                            self.emit(Instr::CallW { args: words.into() });
                            self.scope.truncate(depth);
                            return;
                        }
                    }
                    let args: Arc<[Src]> = srcs_rev.iter().rev().copied().collect();
                    match cont {
                        Cont::Tail => self.emit(Instr::CallF {
                            chunk,
                            args,
                            tail: true,
                        }),
                        Cont::Acc(l) => {
                            self.emit(Instr::PushRet { resume: l });
                            self.emit(Instr::CallF {
                                chunk,
                                args,
                                tail: false,
                            });
                        }
                    }
                    self.scope.truncate(depth);
                    return;
                }
                _ => unreachable!("scouted"),
            }
        }
    }

    fn compile_app(&mut self, code: &Code, cont: Cont) {
        // Saturated direct call through the fast chunk, floating
        // strict fast-prim lets out of the function position.
        if self.scout_direct_call(code) {
            self.compile_direct_call(code, cont);
            return;
        }
        // Unwind the spine: args end up outermost-first, the Figure 6
        // resolution order.
        let mut args_rev = Vec::new();
        let mut head = code;
        while let Code::App(fun, arg) = head {
            args_rev.push(*arg);
            head = fun;
        }
        // General application: push the pending arguments, evaluate
        // the head, apply through the frame pop-loop.
        if let Cont::Acc(l) = cont {
            self.emit(Instr::PushRet { resume: l });
        }
        for a in &args_rev {
            self.emit(Instr::PushArg(self.src_of(*a)));
        }
        match head {
            Code::Global(id, _) => self.emit(Instr::EnterG {
                chunk: self.cx.generic[id.0 as usize],
                tail: cont == Cont::Tail,
            }),
            Code::UnknownGlobal(g) => self.trap(MachineError::UnknownGlobal(*g)),
            Code::Lam(binder, body) => {
                let caps = self.capture_srcs();
                let label = self.nested_label("lam");
                let chunk = self.cx.reserve(ChunkJob {
                    label,
                    caps: self.capture_classes(),
                    params: vec![*binder],
                    body: Arc::clone(body),
                    lam_body: Some(Arc::clone(body)),
                });
                self.emit(Instr::MkClos { chunk, caps });
                self.emit(if cont == Cont::Tail {
                    Instr::RetA
                } else {
                    Instr::ApplyA
                });
            }
            Code::Atom(a) => {
                match self.src_of(*a) {
                    Src::U(x) => {
                        self.trap(MachineError::UnboundVariable(x));
                        return;
                    }
                    Src::P(p) => self.emit(Instr::EvalP(p)),
                    Src::W(w) => self.emit(Instr::AccW(w)),
                    Src::D(d) => self.emit(Instr::AccD(d)),
                    Src::F(fs) => self.emit(Instr::AccF(fs)),
                }
                self.emit(if cont == Cont::Tail {
                    Instr::RetA
                } else {
                    Instr::ApplyA
                });
            }
            other => {
                // A computed function (case/let/join in head position):
                // deliver it to the accumulator, then apply.
                let l2 = self.label();
                self.compile(other, Cont::Acc(l2));
                self.bind(l2);
                self.emit(if cont == Cont::Tail {
                    Instr::RetA
                } else {
                    Instr::ApplyA
                });
            }
        }
    }
}

#[derive(Clone, Copy)]
struct FastPrim {
    op: PrimOp,
    args: FastArgs,
    result: Slot,
}

#[derive(Clone, Copy)]
enum FastArgs {
    W2(WSrc, WSrc),
    W1(WSrc),
    D2(DSrc, DSrc),
    DW2(DSrc, DSrc),
}

fn lit_src(l: Literal) -> Src {
    match l {
        Literal::Int(_) | Literal::Char(_) => Src::W(WSrc::K(l)),
        Literal::DoubleBits(b) => Src::D(DSrc::K(b)),
        Literal::FloatBits(b) => Src::F(FSrc::K(b)),
    }
}

fn is_word_cmp(op: PrimOp) -> bool {
    matches!(
        op,
        PrimOp::EqI | PrimOp::NeI | PrimOp::LtI | PrimOp::LeI | PrimOp::GtI | PrimOp::GeI
    )
}

fn is_int_arith(op: PrimOp) -> bool {
    matches!(
        op,
        PrimOp::AddI | PrimOp::SubI | PrimOp::MulI | PrimOp::QuotI | PrimOp::RemI
    )
}

/// The result class of a statically-clean fast primop given its
/// operand classes — the class-level mirror of [`FnCx::fast_prim`],
/// usable without allocating registers.
fn fast_prim_result(op: PrimOp, classes: &[Option<Slot>]) -> Option<Slot> {
    let all = |class: Slot| classes.iter().all(|c| *c == Some(class));
    match op {
        _ if is_int_arith(op) || is_word_cmp(op) => {
            (classes.len() == 2 && all(Slot::Word)).then_some(Slot::Word)
        }
        PrimOp::NegI => (classes.len() == 1 && all(Slot::Word)).then_some(Slot::Word),
        PrimOp::AddD | PrimOp::SubD | PrimOp::MulD | PrimOp::DivD => {
            (classes.len() == 2 && all(Slot::Double)).then_some(Slot::Double)
        }
        PrimOp::EqD | PrimOp::LtD | PrimOp::LeD => {
            (classes.len() == 2 && all(Slot::Double)).then_some(Slot::Word)
        }
        _ => None,
    }
}

/// Do the literal alternatives cover both `0#` and `1#` (and nothing
/// else)?
fn covers_both_bools(alts: &[CAlt]) -> bool {
    let mut saw = [false, false];
    for alt in alts {
        match alt {
            CAlt::Lit(Literal::Int(n @ (0 | 1)), _) => saw[*n as usize] = true,
            _ => return false,
        }
    }
    saw[0] && saw[1]
}

/// Conservative scan: does `code` reference de-Bruijn index `depth`?
/// Used to detect dead default binders so `case (<# a b) of {1# -> t;
/// _ -> e}` can still fuse into [`Instr::CmpBrW`] — a word comparison
/// only ever produces `0#`/`1#`, so a dead default binder needs no
/// register write.
fn uses_local(code: &Code, depth: u32) -> bool {
    let atom = |a: &CAtom| matches!(a, CAtom::Local(n) if *n == depth);
    match code {
        Code::Atom(a) => atom(a),
        Code::App(t, a) => uses_local(t, depth) || atom(a),
        Code::Lam(_, t) => uses_local(t, depth + 1),
        Code::LetLazy(_, rhs, body) => uses_local(rhs, depth + 1) || uses_local(body, depth + 1),
        Code::LetStrict(_, rhs, body) => uses_local(rhs, depth) || uses_local(body, depth + 1),
        Code::Case(s, alts, def) => {
            uses_local(s, depth)
                || alts.iter().any(|alt| match alt {
                    CAlt::Con(_, binders, rhs) => uses_local(rhs, depth + binders.len() as u32),
                    CAlt::Lit(_, rhs) => uses_local(rhs, depth),
                })
                || def
                    .as_ref()
                    .is_some_and(|(_, rhs)| uses_local(rhs, depth + 1))
        }
        Code::Con(_, args) | Code::Prim(_, args) | Code::MultiVal(args) | Code::Jump(_, args) => {
            args.iter().any(atom)
        }
        Code::CaseMulti(s, binders, t) => {
            uses_local(s, depth) || uses_local(t, depth + binders.len() as u32)
        }
        Code::LetJoin(def, body) => {
            uses_local(&def.body, depth + def.params.len() as u32) || uses_local(body, depth)
        }
        Code::Global(..) | Code::UnknownGlobal(_) | Code::Error(_) => false,
    }
}

fn reads_reg(s: Src, r: Reg) -> bool {
    match (s, r.class) {
        (Src::W(WSrc::R(i)), Slot::Word) => i == r.slot,
        (Src::D(DSrc::R(i)), Slot::Double) => i == r.slot,
        (Src::F(FSrc::R(i)), Slot::Float) => i == r.slot,
        (Src::P(PSrc::R(i)), Slot::Ptr) => i == r.slot,
        _ => false,
    }
}

fn is_self_move(s: Src, r: Reg) -> bool {
    reads_reg(s, r)
}

fn wsrc_reads(s: WSrc, slot: u16) -> bool {
    matches!(s, WSrc::R(i) if i == slot)
}

/// Does this instruction read the given word register? Conservative
/// over the instructions that can appear in a jump move window.
fn instr_reads_word(instr: &Instr, slot: u16) -> bool {
    match instr {
        Instr::MovW { src, .. } => wsrc_reads(*src, slot),
        Instr::PrimW { a, b, .. } => wsrc_reads(*a, slot) || wsrc_reads(*b, slot),
        Instr::PrimW1 { a, .. } => wsrc_reads(*a, slot),
        Instr::MovD { .. } | Instr::MovF { .. } | Instr::MovP { .. } => false,
        // Anything else in the window: assume it reads (never fuse).
        _ => true,
    }
}

fn instr_writes_word(instr: &Instr, slot: u16) -> bool {
    match instr {
        Instr::MovW { dst, .. } | Instr::PrimW { dst, .. } | Instr::PrimW1 { dst, .. } => {
            *dst == slot
        }
        Instr::MovD { .. } | Instr::MovF { .. } | Instr::MovP { .. } => false,
        _ => true,
    }
}

/// Rewrites label ids into instruction offsets.
fn patch_labels(code: &mut [Instr], labels: &[u32]) {
    let fix = |t: &mut u32| {
        *t = labels[*t as usize];
        debug_assert_ne!(*t, UNBOUND_LABEL, "unbound label");
    };
    for instr in code {
        match instr {
            Instr::Goto(t) => fix(t),
            Instr::GotoJ { target, .. } => fix(target),
            Instr::PrimWJ { target, .. } => fix(target),
            Instr::CmpBrW {
                on_true, on_false, ..
            } => {
                fix(on_true);
                fix(on_false);
            }
            Instr::CmpBrCallFW {
                on_true, resume, ..
            } => {
                fix(on_true);
                fix(resume);
            }
            Instr::BrEqW { on_eq, default, .. } => {
                fix(on_eq);
                fix(&mut default.target);
            }
            Instr::SwitchW { arms, default, .. } => {
                let arms = Arc::get_mut(arms).expect("unshared arms");
                for (_, t) in arms.iter_mut() {
                    fix(t);
                }
                if let Some(d) = default {
                    fix(&mut d.target);
                }
            }
            Instr::SwitchA { alts, default } => {
                let alts = Arc::get_mut(alts).expect("unshared alts");
                for alt in alts.iter_mut() {
                    match alt {
                        BAlt::Con { target, .. } => fix(target),
                        BAlt::Lit(_, t) => fix(t),
                    }
                }
                if let Some(d) = default {
                    fix(&mut d.target);
                }
            }
            Instr::PushRet { resume } => fix(resume),
            Instr::CallFW { resume, .. } => fix(resume),
            Instr::PrimCallFW { resume, .. } => fix(resume),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Disassembly (deterministic; the golden-snapshot format).
// ---------------------------------------------------------------------

struct W(WSrc);
impl fmt::Display for W {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            WSrc::R(i) => write!(f, "w{i}"),
            WSrc::K(l) => write!(f, "{l}"),
        }
    }
}
struct D(DSrc);
impl fmt::Display for D {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            DSrc::R(i) => write!(f, "d{i}"),
            DSrc::K(b) => write!(f, "{}##", f64::from_bits(b)),
        }
    }
}
struct F(FSrc);
impl fmt::Display for F {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            FSrc::R(i) => write!(f, "f{i}"),
            FSrc::K(b) => write!(f, "{}#f", f32::from_bits(b)),
        }
    }
}
struct P(PSrc);
impl fmt::Display for P {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            PSrc::R(i) => write!(f, "p{i}"),
            PSrc::K(a) => write!(f, "{a}"),
        }
    }
}
struct S(Src);
impl fmt::Display for S {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Src::W(s) => write!(f, "{}", W(s)),
            Src::D(s) => write!(f, "{}", D(s)),
            Src::F(s) => write!(f, "{}", F(s)),
            Src::P(s) => write!(f, "{}", P(s)),
            Src::U(x) => write!(f, "?{x}"),
        }
    }
}

fn fmt_srcs(args: &[Src]) -> String {
    args.iter()
        .map(|s| S(*s).to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn reg_name(class: Slot, slot: u16) -> String {
    match class {
        Slot::Ptr => format!("p{slot}"),
        Slot::Word => format!("w{slot}"),
        Slot::Float => format!("f{slot}"),
        Slot::Double => format!("d{slot}"),
    }
}

/// One instruction in the disassembly syntax, chunks shown as raw ids
/// (the verifier's error payloads; the golden format resolves labels).
pub(crate) fn disasm_instr(instr: &Instr) -> String {
    DisasmInstr {
        instr,
        label_of: &|id| format!("#{id}"),
    }
    .to_string()
}

fn disasm_chunk(out: &mut String, chunk: &Chunk, label_of: &dyn Fn(u32) -> String) {
    use std::fmt::Write;
    let params = chunk
        .params
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let caps = chunk
        .caps
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        out,
        "chunk {} (params [{params}] caps [{caps}] frame p={} w={} f={} d={}):",
        chunk.label, chunk.frame[0], chunk.frame[1], chunk.frame[2], chunk.frame[3],
    );
    for (pc, instr) in chunk.code.iter().enumerate() {
        let _ = writeln!(out, "  {pc:3}: {}", DisasmInstr { instr, label_of });
    }
    out.push('\n');
}

struct DisasmInstr<'a> {
    instr: &'a Instr,
    label_of: &'a dyn Fn(u32) -> String,
}

impl fmt::Display for DisasmInstr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ch = self.label_of;
        match self.instr {
            Instr::Err(msg) => write!(f, "err {msg:?}"),
            Instr::Trap(e) => write!(f, "trap <{e}>"),
            Instr::Goto(t) => write!(f, "goto @{t}"),
            Instr::GotoJ {
                target,
                args,
                params,
            } => {
                if args.is_empty() {
                    write!(f, "goto.j @{target}")
                } else {
                    let ps = params
                        .iter()
                        .map(|(b, s)| reg_name(b.class, *s))
                        .collect::<Vec<_>>()
                        .join(", ");
                    write!(f, "goto.j @{target} [{ps}] <- [{}]", fmt_srcs(args))
                }
            }
            Instr::MovW { dst, src } => write!(f, "mov.w w{dst}, {}", W(*src)),
            Instr::MovD { dst, src } => write!(f, "mov.d d{dst}, {}", D(*src)),
            Instr::MovF { dst, src } => write!(f, "mov.f f{dst}, {}", F(*src)),
            Instr::MovP { dst, src } => write!(f, "mov.p p{dst}, {}", P(*src)),
            Instr::PrimW { op, dst, a, b } => {
                write!(f, "prim.w w{dst}, {op} {} {}", W(*a), W(*b))
            }
            Instr::PrimW1 { op, dst, a } => write!(f, "prim.w w{dst}, {op} {}", W(*a)),
            Instr::PrimWJ {
                op,
                dst,
                a,
                b,
                target,
                join,
            } => write!(
                f,
                "prim.w+{} w{dst}, {op} {} {}, @{target}",
                if *join { "jump" } else { "goto" },
                W(*a),
                W(*b)
            ),
            Instr::PrimD { op, dst, a, b } => {
                write!(f, "prim.d d{dst}, {op} {} {}", D(*a), D(*b))
            }
            Instr::PrimDW { op, dst, a, b } => {
                write!(f, "prim.dw w{dst}, {op} {} {}", D(*a), D(*b))
            }
            Instr::PrimA { op, args } => write!(f, "prim.a {op} [{}]", fmt_srcs(args)),
            Instr::CmpBrW {
                op,
                a,
                b,
                on_true,
                on_false,
            } => write!(
                f,
                "cmp+br {op} {} {}, @{on_true}, @{on_false}",
                W(*a),
                W(*b)
            ),
            Instr::BrEqW {
                src,
                lit,
                on_eq,
                default,
            } => write!(
                f,
                "br.eq {} {lit} -> @{on_eq} else {} -> @{}",
                W(*src),
                reg_name(default.binder.class, default.slot),
                default.target
            ),
            Instr::SwitchW { src, arms, default } => {
                write!(f, "switch.w {} [", W(*src))?;
                for (i, (l, t)) in arms.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{l} -> @{t}")?;
                }
                write!(f, "]")?;
                if let Some(d) = default {
                    write!(
                        f,
                        " default {} -> @{}",
                        reg_name(d.binder.class, d.slot),
                        d.target
                    )?;
                }
                Ok(())
            }
            Instr::SwitchA { alts, default } => {
                write!(f, "switch.a [")?;
                for (i, alt) in alts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    match alt {
                        BAlt::Con { con, binds, target } => {
                            write!(f, "{con}(")?;
                            for (j, (b, s)) in binds.iter().enumerate() {
                                if j > 0 {
                                    write!(f, ", ")?;
                                }
                                write!(f, "{}", reg_name(b.class, *s))?;
                            }
                            write!(f, ") -> @{target}")?;
                        }
                        BAlt::Lit(l, t) => write!(f, "{l} -> @{t}")?,
                    }
                }
                write!(f, "]")?;
                if let Some(d) = default {
                    write!(
                        f,
                        " default {} -> @{}",
                        reg_name(d.binder.class, d.slot),
                        d.target
                    )?;
                }
                Ok(())
            }
            Instr::AccW(s) => write!(f, "acc.w {}", W(*s)),
            Instr::AccD(s) => write!(f, "acc.d {}", D(*s)),
            Instr::AccF(s) => write!(f, "acc.f {}", F(*s)),
            Instr::EvalP(s) => write!(f, "eval.p {}", P(*s)),
            Instr::MkCon { con, args } => write!(f, "mkcon {con} [{}]", fmt_srcs(args)),
            Instr::MkMulti { args } => write!(f, "mkmulti [{}]", fmt_srcs(args)),
            Instr::RetMulti { args } => write!(f, "ret.multi [{}]", fmt_srcs(args)),
            Instr::RetMultiW { args } => {
                write!(f, "ret.multi.w [")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", W(*a))?;
                }
                write!(f, "]")
            }
            Instr::BindMulti { binds } => {
                write!(f, "bind.multi [")?;
                for (i, (b, s)) in binds.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} := {b}", reg_name(b.class, *s))?;
                }
                write!(f, "]")
            }
            Instr::MkClos { chunk, caps } => {
                write!(f, "mkclos {} [{}]", ch(*chunk), fmt_srcs(caps))
            }
            Instr::MkThunk { chunk, caps, dst } => {
                write!(f, "mkthunk p{dst}, {} [{}]", ch(*chunk), fmt_srcs(caps))
            }
            Instr::BindAcc { binder, slot } => {
                write!(f, "bind.acc {} := {binder}", reg_name(binder.class, *slot))
            }
            Instr::PushRet { resume } => write!(f, "push.ret @{resume}"),
            Instr::PushArg(s) => write!(f, "push.arg {}", S(*s)),
            Instr::CallF { chunk, args, tail } => write!(
                f,
                "call{} {} [{}]",
                if *tail { ".tail" } else { "" },
                ch(*chunk),
                fmt_srcs(args)
            ),
            Instr::CallFW {
                chunk,
                resume,
                args,
                binds,
            } => {
                write!(f, "call.fw {} [", ch(*chunk))?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", W(*a))?;
                }
                write!(f, "] ret @{resume} binds [")?;
                for (i, (b, s)) in binds.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} := {b}", reg_name(b.class, *s))?;
                }
                write!(f, "]")
            }
            Instr::PrimCallFW {
                prim,
                chunk,
                resume,
                args,
                binds,
            } => {
                write!(
                    f,
                    "prim.w w{}, {} {} {}; call.fw {} [",
                    prim.dst,
                    prim.op,
                    W(prim.a),
                    W(prim.b),
                    ch(*chunk)
                )?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", W(*a))?;
                }
                write!(f, "] ret @{resume} binds [")?;
                for (i, (b, s)) in binds.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} := {b}", reg_name(b.class, *s))?;
                }
                write!(f, "]")
            }
            Instr::CmpBrCallFW {
                op,
                a,
                b,
                on_true,
                prim,
                chunk,
                resume,
                args,
                binds,
            } => {
                write!(
                    f,
                    "cmp+br {op} {} {}, @{on_true}; prim.w w{}, {} {} {}; call.fw {} [",
                    W(*a),
                    W(*b),
                    prim.dst,
                    prim.op,
                    W(prim.a),
                    W(prim.b),
                    ch(*chunk)
                )?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", W(*a))?;
                }
                write!(f, "] ret @{resume} binds [")?;
                for (i, (b, s)) in binds.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} := {b}", reg_name(b.class, *s))?;
                }
                write!(f, "]")
            }
            Instr::PrimRetMultiW { prim, args } => {
                write!(
                    f,
                    "prim.w w{}, {} {} {}; ret.multi.w [",
                    prim.dst,
                    prim.op,
                    W(prim.a),
                    W(prim.b)
                )?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", W(*a))?;
                }
                write!(f, "]")
            }
            Instr::CallW { args } => {
                write!(f, "call.self.w [")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", W(*a))?;
                }
                write!(f, "]")
            }
            Instr::PrimCallW {
                op,
                dst,
                a,
                b,
                args,
            } => {
                write!(f, "prim.call.w w{dst}, {op} {} {} [", W(*a), W(*b))?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", W(*a))?;
                }
                write!(f, "]")
            }
            Instr::EnterG { chunk, tail } => write!(
                f,
                "enter{} {}",
                if *tail { ".tail" } else { "" },
                ch(*chunk)
            ),
            Instr::ApplyA => write!(f, "apply"),
            Instr::RetW(s) => write!(f, "ret.w {}", W(*s)),
            Instr::RetD(s) => write!(f, "ret.d {}", D(*s)),
            Instr::RetF(s) => write!(f, "ret.f {}", F(*s)),
            Instr::RetA => write!(f, "ret"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Globals;
    use crate::syntax::{Atom, MExpr};

    fn compile_src(t: Arc<MExpr>) -> (BcProgram, BcEntry) {
        let program = CodeProgram::compile(&Globals::new());
        let bc = BcProgram::compile(&program);
        let entry = bc.compile_entry(&program.compile_entry(&t));
        (bc, entry)
    }

    #[test]
    fn fast_chunks_exist_for_lambda_chain_globals() {
        let mut globals = Globals::new();
        globals.define(
            "add2",
            MExpr::lams(
                [Binder::int("a"), Binder::int("b")],
                MExpr::prim(
                    PrimOp::AddI,
                    vec![Atom::Var("a".into()), Atom::Var("b".into())],
                ),
            ),
        );
        globals.define("k", MExpr::int(1));
        let program = CodeProgram::compile(&globals);
        let bc = BcProgram::compile(&program);
        assert_eq!(bc.fast.iter().flatten().count(), 1);
        let (fid, arity) = bc.fast.iter().flatten().next().unwrap();
        assert_eq!(*arity, 2);
        assert_eq!(bc.chunks[*fid as usize].params.len(), 2);
        assert!(bc.chunks[*fid as usize].label.ends_with("!fast"));
    }

    #[test]
    fn saturated_calls_compile_to_callf() {
        let mut globals = Globals::new();
        globals.define(
            "id2",
            MExpr::lams([Binder::int("a"), Binder::int("b")], MExpr::var("b")),
        );
        let program = CodeProgram::compile(&globals);
        let bc = BcProgram::compile(&program);
        let entry = bc.compile_entry(&program.compile_entry(&MExpr::apps(
            MExpr::global("id2"),
            [Atom::Lit(Literal::Int(1)), Atom::Lit(Literal::Int(2))],
        )));
        let root = &entry.chunks[(entry.root as usize) - bc.chunks.len()];
        assert!(
            root.code
                .iter()
                .any(|i| matches!(i, Instr::CallF { tail: true, .. })),
            "{:?}",
            root.code
        );
    }

    #[test]
    fn cmp_cases_fuse_into_compare_and_branch() {
        // case (==# 1# 2#) of { 1# -> 10#; 0# -> 20# }
        let t = MExpr::case(
            MExpr::prim(
                PrimOp::EqI,
                vec![Atom::Lit(Literal::Int(1)), Atom::Lit(Literal::Int(2))],
            ),
            vec![
                crate::syntax::Alt::Lit(Literal::Int(1), MExpr::int(10)),
                crate::syntax::Alt::Lit(Literal::Int(0), MExpr::int(20)),
            ],
            None,
        );
        let (bc, entry) = compile_src(t);
        let root = &entry.chunks[(entry.root as usize) - bc.chunks.len()];
        assert!(root.code.iter().any(|i| matches!(i, Instr::CmpBrW { .. })));
    }

    #[test]
    fn tail_multivalues_fuse_into_ret_multi() {
        let t = Arc::new(MExpr::MultiVal(vec![
            Atom::Lit(Literal::Int(1)),
            Atom::Lit(Literal::Int(2)),
        ]));
        let (bc, entry) = compile_src(t);
        let root = &entry.chunks[(entry.root as usize) - bc.chunks.len()];
        // All-word fields take the register-return fast path.
        assert!(matches!(root.code[0], Instr::RetMultiW { .. }));
    }

    #[test]
    fn disassembly_is_deterministic_and_labels_chunks() {
        let mut globals = Globals::new();
        globals.define("one", MExpr::int(1));
        let program = CodeProgram::compile(&globals);
        let bc1 = BcProgram::compile(&program);
        let bc2 = BcProgram::compile(&program);
        assert_eq!(bc1.disasm(), bc2.disasm());
        assert!(bc1.disasm().contains("chunk one "));
    }

    #[test]
    fn jump_moves_fuse_with_the_producing_prim() {
        // join loop n = case (==# n 0#) of { 1# -> n; 0# ->
        //   let! n2 = -# n 1# in jump loop n2 } in jump loop 5#
        use crate::syntax::JoinDef;
        let n = || Atom::Var("n".into());
        let def = Arc::new(JoinDef {
            name: "loop".into(),
            params: vec![Binder::int("n")],
            body: MExpr::case(
                MExpr::prim(PrimOp::EqI, vec![n(), Atom::Lit(Literal::Int(0))]),
                vec![
                    crate::syntax::Alt::Lit(Literal::Int(1), MExpr::var("n")),
                    crate::syntax::Alt::Lit(
                        Literal::Int(0),
                        MExpr::let_strict(
                            Binder::int("n2"),
                            MExpr::prim(PrimOp::SubI, vec![n(), Atom::Lit(Literal::Int(1))]),
                            MExpr::jump("loop", vec![Atom::Var("n2".into())]),
                        ),
                    ),
                ],
                None,
            ),
        });
        let t = MExpr::let_join(def, MExpr::jump("loop", vec![Atom::Lit(Literal::Int(5))]));
        let (bc, entry) = compile_src(t);
        let root = &entry.chunks[(entry.root as usize) - bc.chunks.len()];
        assert!(
            root.code
                .iter()
                .any(|i| matches!(i, Instr::PrimWJ { join: true, .. })),
            "{}",
            entry.disasm(&bc)
        );
    }
}
