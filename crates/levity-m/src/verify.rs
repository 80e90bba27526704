//! The static bytecode verifier: a classfile-style abstract
//! interpreter over [`BcProgram`] that proves, before execution, the
//! register discipline the register machine's dispatch loop relies on
//! without re-checking it.
//!
//! Levity polymorphism's whole point (§6.2) is that kinds statically
//! determine representation — so the flat bytecode's per-class register
//! discipline is *provable*, not something to re-check on every
//! transition. Per chunk, the verifier runs a worklist dataflow over
//! **per-class initialized-height watermarks** `[ptr, word, float,
//! double]`: an instruction may only read a register below the
//! watermark of its class, only write below the chunk's declared frame
//! size, and every jump joins its target with the elementwise *minimum*
//! of the incoming watermarks (all paths into a label agree on what is
//! provably initialized). On top of the dataflow it checks, per
//! instruction — including every fused superinstruction
//! ([`Instr::CmpBrCallFW`], [`Instr::PrimCallFW`], [`Instr::RetMultiW`],
//! …) — that:
//!
//! * jump targets land on instruction boundaries inside the chunk, and
//!   no path falls off the end of the code (`FallThrough`);
//! * frame-size declarations `[u16; 4]` are never exceeded, including
//!   by the chunk's own capture + parameter entry writes;
//! * join-argument classes match the join parameters' binder classes,
//!   so the machine binds `goto.j` arguments without a width check;
//! * direct-call argument classes and arities match the callee's
//!   parameters, capture lists match the callee's declared capture
//!   classes, and every chunk/global reference resolves;
//! * fused multi-return widths match the caller-side binder lists, and
//!   every binder absorbed into a `call.fw`-family frame is word-class
//!   with an in-frame slot — the one place an ill-formed program could
//!   write a register *of the wrong class* without a dynamic check
//!   ([`Instr::RetMultiW`]'s fast path writes caller words directly);
//! * word-register back-edges ([`Instr::CallW`]) fit the fixed
//!   self-call buffer and the chunk's own all-word parameter shape;
//! * no operand is an immediate heap address (`PSrc::K`): addresses
//!   only ever come out of the heap at runtime, so the moving collector
//!   can forward every one of them.
//!
//! A program that passes is wrapped in the [`VerifiedProgram`] witness
//! (constructible only here); an entry verified against it is the only
//! thing [`crate::regmachine::BcMachine::run`] accepts. Failures are
//! structured [`VerifyError`]s carrying the chunk, pc, disassembled
//! instruction and expected/found heights.
//!
//! The per-class watermarks computed here are exactly the per-frame
//! *pointer maps* a precise rep-directed garbage collector needs: at
//! any pc, the collector may scan `bases[0] .. bases[0] + height[0]`
//! pointer slots and nothing else.

use std::fmt;
use std::sync::Arc;

use levity_core::rep::Slot;

use crate::bytecode::{
    class_ix, disasm_instr, BAlt, BcEntry, BcProgram, Chunk, DSrc, FSrc, Instr, PSrc, Src, WSrc,
    SELF_CALL_BUF,
};

/// Per-class initialized-height watermarks, `[ptr, word, float,
/// double]` — the abstract state of the dataflow, and (retained per
/// pc) the safepoint pointer maps the copying collector scans by:
/// at a pc with heights `h`, exactly the pointer slots
/// `bases[0] .. bases[0] + h[0]` of the frame are provably
/// initialized, and nothing above them is ever read again before
/// being rewritten.
pub type Heights = [u16; 4];

/// The per-pc heights of one chunk, indexed by instruction offset.
/// Offsets the dataflow never reached are `[0; 4]` — statically
/// unreachable, so no frame can ever be suspended there.
pub(crate) type ChunkMap = Box<[Heights]>;

/// Why verification rejected a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyErrorKind {
    /// A branch target outside the chunk's code.
    BadJumpTarget {
        /// The offending target offset.
        target: u32,
        /// The chunk's instruction count.
        len: usize,
    },
    /// A non-terminator as the last instruction: control would fall
    /// off the end of the chunk.
    FallThrough,
    /// A register write at or beyond the declared frame size.
    FrameOverflow {
        /// The register class written.
        class: Slot,
        /// The offending slot.
        slot: u16,
        /// The declared frame size for that class.
        frame: u16,
    },
    /// A register read above the initialized-height watermark: some
    /// path reaches this read without having written the slot.
    UninitialisedRead {
        /// The register class read.
        class: Slot,
        /// The offending slot.
        slot: u16,
        /// The provable watermark at this pc.
        height: u16,
    },
    /// A static class mismatch: an operand or binder whose §6.2 class
    /// provably disagrees with what the instruction requires.
    ClassMismatch {
        /// Which operand/binder disagreed.
        what: &'static str,
        /// The class the instruction requires.
        expected: Slot,
        /// The class actually found.
        found: Slot,
    },
    /// A chunk id (in an instruction or a global table) that resolves
    /// to no chunk.
    BadChunkRef {
        /// The unresolvable id.
        id: u32,
    },
    /// An argument/parameter or capture count mismatch.
    ArityMismatch {
        /// Which list disagreed.
        what: &'static str,
        /// The count the callee/params side declares.
        expected: usize,
        /// The count supplied.
        found: usize,
    },
    /// A `call.fw`-family frame binder that is not word-class: the
    /// fused multi-return would write a word into another class's
    /// register file.
    NonWordBind {
        /// The offending binder, rendered `name:class`.
        binder: String,
    },
    /// A fused self-call whose arity exceeds the fixed
    /// [`SELF_CALL_BUF`] resolve buffer.
    SelfCallBufExceeded {
        /// The offending arity.
        arity: usize,
    },
    /// A closure over a chunk with no parameter (nothing to apply).
    MissingParam,
    /// A chunk whose `caps_counts` disagree with its `caps` list — the
    /// entry cursors would write past the declared per-class counts.
    BadCaps {
        /// The declared per-class counts.
        declared: [u16; 4],
        /// The counts recomputed from the capture list.
        found: [u16; 4],
    },
    /// An immediate heap-address operand: it names a cell the program
    /// never allocated, and a moving collector could not forward it.
    AddressConstant {
        /// The embedded heap address.
        addr: u64,
    },
}

impl fmt::Display for VerifyErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyErrorKind::BadJumpTarget { target, len } => {
                write!(f, "jump target @{target} outside code of length {len}")
            }
            VerifyErrorKind::FallThrough => {
                write!(f, "control falls off the end of the chunk")
            }
            VerifyErrorKind::FrameOverflow { class, slot, frame } => {
                write!(f, "write to {class} slot {slot} beyond frame size {frame}")
            }
            VerifyErrorKind::UninitialisedRead {
                class,
                slot,
                height,
            } => write!(
                f,
                "read of {class} slot {slot} above initialized height {height}"
            ),
            VerifyErrorKind::ClassMismatch {
                what,
                expected,
                found,
            } => write!(f, "{what}: expected class {expected}, found {found}"),
            VerifyErrorKind::BadChunkRef { id } => write!(f, "unknown chunk id {id}"),
            VerifyErrorKind::ArityMismatch {
                what,
                expected,
                found,
            } => write!(f, "{what}: expected {expected}, found {found}"),
            VerifyErrorKind::NonWordBind { binder } => {
                write!(f, "fused-call frame binder {binder} is not word-class")
            }
            VerifyErrorKind::SelfCallBufExceeded { arity } => write!(
                f,
                "self-call arity {arity} exceeds the {SELF_CALL_BUF}-slot buffer"
            ),
            VerifyErrorKind::MissingParam => write!(f, "closure chunk has no parameter"),
            VerifyErrorKind::BadCaps { declared, found } => write!(
                f,
                "caps_counts {declared:?} disagree with capture list counts {found:?}"
            ),
            VerifyErrorKind::AddressConstant { addr } => {
                write!(
                    f,
                    "immediate heap address #{addr} in the instruction stream"
                )
            }
        }
    }
}

/// A structured verification failure: which chunk, which pc, which
/// instruction, and what went wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// The chunk id the failure is in.
    pub chunk: u32,
    /// The chunk's diagnostic label.
    pub label: String,
    /// The instruction offset (0 for chunk-level failures).
    pub pc: usize,
    /// The disassembled instruction (or a chunk-level marker).
    pub instr: String,
    /// What went wrong.
    pub kind: VerifyErrorKind,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bytecode verification failed in chunk {} `{}` at pc {} ({}): {}",
            self.chunk, self.label, self.pc, self.instr, self.kind
        )
    }
}

impl std::error::Error for VerifyError {}

/// The witness that a [`BcProgram`] passed verification. Constructible
/// only via [`verify`]; entries verified against it are what
/// [`crate::regmachine::BcMachine::run`] accepts.
#[derive(Clone, Debug)]
pub struct VerifiedProgram {
    program: Arc<BcProgram>,
    /// Per-chunk, per-pc heights retained from the dataflow — the
    /// collector's safepoint pointer maps, indexed by chunk id.
    maps: Arc<[ChunkMap]>,
}

impl VerifiedProgram {
    /// The verified program.
    pub fn program(&self) -> &Arc<BcProgram> {
        &self.program
    }

    /// The provable `[ptr, word, float, double]` initialized heights at
    /// `pc` of chunk `chunk`, or `None` if either index is out of
    /// range. The ptr component is the pointer-map width a collector
    /// may scan at that safepoint.
    pub fn heights_at(&self, chunk: u32, pc: usize) -> Option<Heights> {
        self.maps.get(chunk as usize)?.get(pc).copied()
    }

    /// Verifies an entry compiled against this program (entry chunk
    /// ids continue the program's id space). The per-run half of the
    /// witness: program chunks were verified once, only the (typically
    /// tiny) entry chunks are analysed here.
    ///
    /// # Errors
    ///
    /// A structured [`VerifyError`] naming chunk, pc and instruction.
    pub fn verify_entry<'a>(
        &'a self,
        entry: &'a BcEntry,
    ) -> Result<VerifiedEntry<'a>, VerifyError> {
        let verifier = Verifier {
            program: &self.program,
            entry: Some(entry),
        };
        let base = self.program.chunks.len() as u32;
        let mut maps = Vec::with_capacity(entry.chunks.len());
        for (ix, chunk) in entry.chunks.iter().enumerate() {
            maps.push(verifier.verify_chunk(base + ix as u32, chunk)?);
        }
        // The root is entered with no captures and no parameters.
        let Some(root) = verifier.chunk(entry.root) else {
            return Err(VerifyError {
                chunk: entry.root,
                label: "<entry root>".to_owned(),
                pc: 0,
                instr: "<entry>".to_owned(),
                kind: VerifyErrorKind::BadChunkRef { id: entry.root },
            });
        };
        if !root.caps.is_empty() || !root.params.is_empty() {
            return Err(VerifyError {
                chunk: entry.root,
                label: root.label.clone(),
                pc: 0,
                instr: "<entry>".to_owned(),
                kind: VerifyErrorKind::ArityMismatch {
                    what: "entry root must take no captures or parameters",
                    expected: 0,
                    found: root.caps.len() + root.params.len(),
                },
            });
        }
        Ok(VerifiedEntry {
            program: self,
            entry,
            maps: maps.into(),
        })
    }
}

/// The witness that a [`BcEntry`] was verified against a specific
/// [`VerifiedProgram`]. Borrowing ties the entry to the program it was
/// checked against.
#[derive(Clone, Debug)]
pub struct VerifiedEntry<'a> {
    program: &'a VerifiedProgram,
    entry: &'a BcEntry,
    /// Pointer maps for the entry chunks (chunk ids continue the
    /// program's id space at `program.chunks.len()`).
    maps: Box<[ChunkMap]>,
}

impl<'a> VerifiedEntry<'a> {
    /// The program this entry was verified against.
    pub fn program(&self) -> &'a VerifiedProgram {
        self.program
    }

    /// The verified entry.
    pub fn entry(&self) -> &'a BcEntry {
        self.entry
    }

    /// The provable initialized heights at `pc` of chunk `chunk`, in
    /// the combined id space of program and entry chunks, or `None` if
    /// either index is out of range. These are the collector's
    /// safepoint pointer maps.
    pub(crate) fn heights_at(&self, chunk: u32, pc: usize) -> Option<Heights> {
        let base = self.program.maps.len();
        match (chunk as usize).checked_sub(base) {
            None => self.program.heights_at(chunk, pc),
            Some(ix) => self.maps.get(ix)?.get(pc).copied(),
        }
    }
}

/// Verifies a whole program: every chunk, plus the global call tables.
///
/// # Errors
///
/// The first structured [`VerifyError`] found.
pub fn verify(program: &Arc<BcProgram>) -> Result<VerifiedProgram, VerifyError> {
    let verifier = Verifier {
        program,
        entry: None,
    };
    let table_err = |what: &str, id: u32| VerifyError {
        chunk: id,
        label: format!("<{what} table>"),
        pc: 0,
        instr: format!("<{what} table>"),
        kind: VerifyErrorKind::BadChunkRef { id },
    };
    for &id in &program.generic {
        if verifier.chunk(id).is_none() {
            return Err(table_err("generic", id));
        }
    }
    for entry in program.fast.iter().flatten() {
        if verifier.chunk(entry.0).is_none() {
            return Err(table_err("fast", entry.0));
        }
    }
    let mut maps = Vec::with_capacity(program.chunks.len());
    for (ix, chunk) in program.chunks.iter().enumerate() {
        maps.push(verifier.verify_chunk(ix as u32, chunk)?);
    }
    Ok(VerifiedProgram {
        program: Arc::clone(program),
        maps: maps.into(),
    })
}

/// The shared resolver: program chunks, extended by entry chunks when
/// verifying an entry.
struct Verifier<'a> {
    program: &'a BcProgram,
    entry: Option<&'a BcEntry>,
}

impl<'a> Verifier<'a> {
    fn chunk(&self, id: u32) -> Option<&'a Chunk> {
        let base = self.program.chunks.len();
        let ix = id as usize;
        if ix < base {
            Some(&*self.program.chunks[ix])
        } else {
            self.entry
                .and_then(|e| e.chunks.get(ix - base))
                .map(|c| &**c)
        }
    }

    fn verify_chunk(&self, id: u32, chunk: &Chunk) -> Result<ChunkMap, VerifyError> {
        ChunkVerifier {
            v: self,
            id,
            chunk,
            pc: 0,
        }
        .run()
    }
}

/// Per-class counts of a capture or parameter list.
fn class_counts<'c>(classes: impl Iterator<Item = &'c Slot>) -> [u16; 4] {
    let mut counts = [0u16; 4];
    for c in classes {
        counts[class_ix(*c)] = counts[class_ix(*c)].saturating_add(1);
    }
    counts
}

/// The dataflow over one chunk. `pc` tracks the instruction under
/// analysis so every error carries its location.
struct ChunkVerifier<'a> {
    v: &'a Verifier<'a>,
    id: u32,
    chunk: &'a Chunk,
    pc: usize,
}

impl ChunkVerifier<'_> {
    fn fail(&self, kind: VerifyErrorKind) -> VerifyError {
        let instr = match self.chunk.code.get(self.pc) {
            Some(i) => disasm_instr(i),
            None => "<entry>".to_owned(),
        };
        VerifyError {
            chunk: self.id,
            label: self.chunk.label.clone(),
            pc: self.pc,
            instr,
            kind,
        }
    }

    /// The watermarks a freshly entered frame provably has: captures
    /// then parameters, written by per-class cursors. Also checks the
    /// declared `caps_counts` and that the entry writes fit the frame.
    fn entry_heights(&self) -> Result<Heights, VerifyError> {
        let caps = class_counts(self.chunk.caps.iter());
        if caps != self.chunk.caps_counts {
            return Err(self.fail(VerifyErrorKind::BadCaps {
                declared: self.chunk.caps_counts,
                found: caps,
            }));
        }
        let params = class_counts(self.chunk.params.iter().map(|b| &b.class));
        let mut h = [0u16; 4];
        for c in 0..4 {
            h[c] = caps[c].saturating_add(params[c]);
            if h[c] > self.chunk.frame[c] {
                return Err(self.fail(VerifyErrorKind::FrameOverflow {
                    class: class_of_ix(c),
                    slot: h[c] - 1,
                    frame: self.chunk.frame[c],
                }));
            }
        }
        Ok(h)
    }

    fn run(&mut self) -> Result<ChunkMap, VerifyError> {
        let code = &self.chunk.code;
        let n = code.len();
        let entry = self.entry_heights()?;
        if n == 0 {
            return Err(self.fail(VerifyErrorKind::FallThrough));
        }
        let mut states: Vec<Option<Heights>> = vec![None; n];
        states[0] = Some(entry);
        let mut work = vec![0usize];
        while let Some(pc) = work.pop() {
            self.pc = pc;
            let h = states[pc].expect("worklist entries have states");
            self.step(&code[pc], h, &mut states, &mut work)?;
        }
        // The fixpoint states double as the collector's safepoint
        // pointer maps: elementwise-min joins mean every path into a
        // pc agrees that slots below the watermark are initialized,
        // and anything above is dead (rewritten before any read).
        Ok(states.into_iter().map(|s| s.unwrap_or([0; 4])).collect())
    }

    // --- abstract reads / writes / joins ------------------------------

    fn read(&self, h: &Heights, class: Slot, slot: u16) -> Result<(), VerifyError> {
        let ix = class_ix(class);
        if slot >= h[ix] {
            return Err(self.fail(VerifyErrorKind::UninitialisedRead {
                class,
                slot,
                height: h[ix],
            }));
        }
        Ok(())
    }

    fn write(&self, h: &mut Heights, class: Slot, slot: u16) -> Result<(), VerifyError> {
        let ix = class_ix(class);
        if slot >= self.chunk.frame[ix] {
            return Err(self.fail(VerifyErrorKind::FrameOverflow {
                class,
                slot,
                frame: self.chunk.frame[ix],
            }));
        }
        h[ix] = h[ix].max(slot + 1);
        Ok(())
    }

    fn read_w(&self, h: &Heights, s: WSrc) -> Result<(), VerifyError> {
        match s {
            WSrc::R(i) => self.read(h, Slot::Word, i),
            WSrc::K(_) => Ok(()),
        }
    }

    fn read_d(&self, h: &Heights, s: DSrc) -> Result<(), VerifyError> {
        match s {
            DSrc::R(i) => self.read(h, Slot::Double, i),
            DSrc::K(_) => Ok(()),
        }
    }

    fn read_f(&self, h: &Heights, s: FSrc) -> Result<(), VerifyError> {
        match s {
            FSrc::R(i) => self.read(h, Slot::Float, i),
            FSrc::K(_) => Ok(()),
        }
    }

    fn read_p(&self, h: &Heights, s: PSrc) -> Result<(), VerifyError> {
        match s {
            PSrc::R(i) => self.read(h, Slot::Ptr, i),
            PSrc::K(a) => Err(self.fail(VerifyErrorKind::AddressConstant { addr: a.0 })),
        }
    }

    /// Reads a classed operand. `Src::U` resolves to a structured
    /// `UnboundVariable` at runtime without touching a register, so it
    /// verifies (and its class is unknowable — callers skip class
    /// checks for it).
    fn read_src(&self, h: &Heights, s: Src) -> Result<(), VerifyError> {
        match s {
            Src::W(w) => self.read_w(h, w),
            Src::D(d) => self.read_d(h, d),
            Src::F(fs) => self.read_f(h, fs),
            Src::P(p) => self.read_p(h, p),
            Src::U(_) => Ok(()),
        }
    }

    /// Joins `h` into the state at `target` (elementwise minimum —
    /// what *every* path provably initialized), queueing it when the
    /// merge changes anything.
    fn branch(
        &self,
        states: &mut [Option<Heights>],
        work: &mut Vec<usize>,
        target: u32,
        h: Heights,
    ) -> Result<(), VerifyError> {
        let t = target as usize;
        if t >= states.len() {
            return Err(self.fail(VerifyErrorKind::BadJumpTarget {
                target,
                len: states.len(),
            }));
        }
        match &mut states[t] {
            slot @ None => {
                *slot = Some(h);
                work.push(t);
            }
            Some(old) => {
                let mut merged = *old;
                for c in 0..4 {
                    merged[c] = merged[c].min(h[c]);
                }
                if merged != *old {
                    *old = merged;
                    work.push(t);
                }
            }
        }
        Ok(())
    }

    /// Fall through to `pc + 1`; the last instruction must not.
    fn fallthrough(
        &self,
        states: &mut [Option<Heights>],
        work: &mut Vec<usize>,
        h: Heights,
    ) -> Result<(), VerifyError> {
        if self.pc + 1 >= states.len() {
            return Err(self.fail(VerifyErrorKind::FallThrough));
        }
        self.branch(states, work, (self.pc + 1) as u32, h)
    }

    // --- inter-chunk obligations --------------------------------------

    fn callee(&self, id: u32) -> Result<&Chunk, VerifyError> {
        self.v
            .chunk(id)
            .ok_or_else(|| self.fail(VerifyErrorKind::BadChunkRef { id }))
    }

    /// A direct call that writes the callee's parameter registers:
    /// capture-free callee, matching arity, matching per-position
    /// classes (`Src::U` resolves to a runtime error first, so its
    /// class is unconstrained).
    fn check_direct_call(&self, id: u32, args: &[Src]) -> Result<(), VerifyError> {
        let callee = self.callee(id)?;
        if !callee.caps.is_empty() {
            return Err(self.fail(VerifyErrorKind::ArityMismatch {
                what: "direct call of a capturing chunk",
                expected: 0,
                found: callee.caps.len(),
            }));
        }
        if callee.params.len() != args.len() {
            return Err(self.fail(VerifyErrorKind::ArityMismatch {
                what: "call arguments vs callee parameters",
                expected: callee.params.len(),
                found: args.len(),
            }));
        }
        for (s, p) in args.iter().zip(callee.params.iter()) {
            if let Some(class) = s.class() {
                if class != p.class {
                    return Err(self.fail(VerifyErrorKind::ClassMismatch {
                        what: "call argument vs callee parameter",
                        expected: p.class,
                        found: class,
                    }));
                }
            }
        }
        Ok(())
    }

    /// The all-word variant used by the fused `call.fw` family: the
    /// arguments land straight in the callee's word registers `0..n`.
    fn check_word_call(&self, id: u32, arity: usize) -> Result<(), VerifyError> {
        let callee = self.callee(id)?;
        if !callee.caps.is_empty() {
            return Err(self.fail(VerifyErrorKind::ArityMismatch {
                what: "fused word call of a capturing chunk",
                expected: 0,
                found: callee.caps.len(),
            }));
        }
        if callee.params.len() != arity {
            return Err(self.fail(VerifyErrorKind::ArityMismatch {
                what: "fused word-call arguments vs callee parameters",
                expected: callee.params.len(),
                found: arity,
            }));
        }
        for p in callee.params.iter() {
            if p.class != Slot::Word {
                return Err(self.fail(VerifyErrorKind::ClassMismatch {
                    what: "fused word-call callee parameter",
                    expected: Slot::Word,
                    found: p.class,
                }));
            }
        }
        Ok(())
    }

    /// A self back-edge re-entering this chunk at pc 0 through its
    /// word parameters (`call.self.w`): the chunk itself must be
    /// capture-free with all-word parameters matching the arity, and
    /// the arity must fit the fixed resolve buffer.
    fn check_self_word_call(&self, arity: usize) -> Result<(), VerifyError> {
        if arity > SELF_CALL_BUF {
            return Err(self.fail(VerifyErrorKind::SelfCallBufExceeded { arity }));
        }
        self.check_word_call(self.id, arity)
    }

    /// The binder list a `call.fw`-family frame absorbs: the callee's
    /// fused multi-return writes these caller slots *as words, with no
    /// dynamic class check* — so word class and in-frame slots must be
    /// static facts.
    fn check_fw_binds(
        &self,
        h: &mut Heights,
        binds: &[(crate::syntax::Binder, u16)],
    ) -> Result<(), VerifyError> {
        for (b, slot) in binds {
            if b.class != Slot::Word {
                return Err(self.fail(VerifyErrorKind::NonWordBind {
                    binder: b.to_string(),
                }));
            }
            self.write(h, Slot::Word, *slot)?;
        }
        Ok(())
    }

    /// A capture list against the callee's declared capture classes.
    fn check_caps(&self, id: u32, caps: &[Src]) -> Result<(), VerifyError> {
        let callee = self.callee(id)?;
        if callee.caps.len() != caps.len() {
            return Err(self.fail(VerifyErrorKind::ArityMismatch {
                what: "capture list vs callee captures",
                expected: callee.caps.len(),
                found: caps.len(),
            }));
        }
        for (s, declared) in caps.iter().zip(callee.caps.iter()) {
            if let Some(class) = s.class() {
                if class != *declared {
                    return Err(self.fail(VerifyErrorKind::ClassMismatch {
                        what: "capture vs callee capture class",
                        expected: *declared,
                        found: class,
                    }));
                }
            }
        }
        Ok(())
    }

    // --- the transfer function ----------------------------------------

    #[allow(clippy::too_many_lines)]
    fn step(
        &self,
        instr: &Instr,
        mut h: Heights,
        states: &mut [Option<Heights>],
        work: &mut Vec<usize>,
    ) -> Result<(), VerifyError> {
        match instr {
            // Terminators with no register effect.
            Instr::Err(_) | Instr::Trap(_) | Instr::ApplyA | Instr::RetA => Ok(()),
            Instr::Goto(t) => self.branch(states, work, *t, h),
            Instr::GotoJ {
                target,
                args,
                params,
            } => {
                if args.len() != params.len() {
                    return Err(self.fail(VerifyErrorKind::ArityMismatch {
                        what: "join arguments vs parameters",
                        expected: params.len(),
                        found: args.len(),
                    }));
                }
                for s in args.iter() {
                    self.read_src(&h, *s)?;
                }
                for (s, (b, slot)) in args.iter().zip(params.iter()) {
                    if let Some(class) = s.class() {
                        if class != b.class {
                            return Err(self.fail(VerifyErrorKind::ClassMismatch {
                                what: "join argument vs parameter",
                                expected: b.class,
                                found: class,
                            }));
                        }
                    }
                    self.write(&mut h, b.class, *slot)?;
                }
                self.branch(states, work, *target, h)
            }
            Instr::MovW { dst, src } => {
                self.read_w(&h, *src)?;
                self.write(&mut h, Slot::Word, *dst)?;
                self.fallthrough(states, work, h)
            }
            Instr::MovD { dst, src } => {
                self.read_d(&h, *src)?;
                self.write(&mut h, Slot::Double, *dst)?;
                self.fallthrough(states, work, h)
            }
            Instr::MovF { dst, src } => {
                self.read_f(&h, *src)?;
                self.write(&mut h, Slot::Float, *dst)?;
                self.fallthrough(states, work, h)
            }
            Instr::MovP { dst, src } => {
                self.read_p(&h, *src)?;
                self.write(&mut h, Slot::Ptr, *dst)?;
                self.fallthrough(states, work, h)
            }
            Instr::PrimW { dst, a, b, .. } => {
                self.read_w(&h, *a)?;
                self.read_w(&h, *b)?;
                self.write(&mut h, Slot::Word, *dst)?;
                self.fallthrough(states, work, h)
            }
            Instr::PrimW1 { dst, a, .. } => {
                self.read_w(&h, *a)?;
                self.write(&mut h, Slot::Word, *dst)?;
                self.fallthrough(states, work, h)
            }
            Instr::PrimWJ {
                dst, a, b, target, ..
            } => {
                self.read_w(&h, *a)?;
                self.read_w(&h, *b)?;
                self.write(&mut h, Slot::Word, *dst)?;
                self.branch(states, work, *target, h)
            }
            Instr::PrimD { dst, a, b, .. } => {
                self.read_d(&h, *a)?;
                self.read_d(&h, *b)?;
                self.write(&mut h, Slot::Double, *dst)?;
                self.fallthrough(states, work, h)
            }
            Instr::PrimDW { dst, a, b, .. } => {
                self.read_d(&h, *a)?;
                self.read_d(&h, *b)?;
                self.write(&mut h, Slot::Word, *dst)?;
                self.fallthrough(states, work, h)
            }
            Instr::PrimA { args, .. } => {
                for s in args.iter() {
                    self.read_src(&h, *s)?;
                }
                self.fallthrough(states, work, h)
            }
            Instr::CmpBrW {
                a,
                b,
                on_true,
                on_false,
                ..
            } => {
                self.read_w(&h, *a)?;
                self.read_w(&h, *b)?;
                self.branch(states, work, *on_true, h)?;
                self.branch(states, work, *on_false, h)
            }
            Instr::CmpBrCallFW {
                a,
                b,
                on_true,
                prim,
                chunk,
                resume,
                args,
                binds,
                ..
            } => {
                self.read_w(&h, *a)?;
                self.read_w(&h, *b)?;
                self.branch(states, work, *on_true, h)?;
                // The false edge: floated prim, then the fused call.
                self.read_w(&h, prim.a)?;
                self.read_w(&h, prim.b)?;
                self.write(&mut h, Slot::Word, prim.dst)?;
                for s in args.iter() {
                    self.read_w(&h, *s)?;
                }
                self.check_word_call(*chunk, args.len())?;
                self.check_fw_binds(&mut h, binds)?;
                self.branch(states, work, *resume, h)
            }
            Instr::BrEqW {
                src,
                on_eq,
                default,
                ..
            } => {
                self.read_w(&h, *src)?;
                self.branch(states, work, *on_eq, h)?;
                // The miss path rebinds the (word) scrutinee with a
                // straight word-register write and no width check, so
                // a non-word default binder must be rejected here.
                if default.binder.class != Slot::Word {
                    return Err(self.fail(VerifyErrorKind::ClassMismatch {
                        what: "br.eq default binder",
                        expected: Slot::Word,
                        found: default.binder.class,
                    }));
                }
                self.write(&mut h, Slot::Word, default.slot)?;
                self.branch(states, work, default.target, h)
            }
            Instr::SwitchW { src, arms, default } => {
                self.read_w(&h, *src)?;
                for (_, t) in arms.iter() {
                    self.branch(states, work, *t, h)?;
                }
                if let Some(d) = default {
                    if d.binder.class != Slot::Word {
                        return Err(self.fail(VerifyErrorKind::ClassMismatch {
                            what: "switch.w default binder",
                            expected: Slot::Word,
                            found: d.binder.class,
                        }));
                    }
                    let mut hd = h;
                    self.write(&mut hd, Slot::Word, d.slot)?;
                    self.branch(states, work, d.target, hd)?;
                }
                Ok(())
            }
            Instr::SwitchA { alts, default } => {
                for alt in alts.iter() {
                    match alt {
                        BAlt::Con { binds, target, .. } => {
                            let mut ha = h;
                            for (b, slot) in binds.iter() {
                                self.write(&mut ha, b.class, *slot)?;
                            }
                            self.branch(states, work, *target, ha)?;
                        }
                        BAlt::Lit(_, target) => self.branch(states, work, *target, h)?,
                    }
                }
                if let Some(d) = default {
                    let mut hd = h;
                    self.write(&mut hd, d.binder.class, d.slot)?;
                    self.branch(states, work, d.target, hd)?;
                }
                Ok(())
            }
            Instr::AccW(s) => {
                self.read_w(&h, *s)?;
                self.fallthrough(states, work, h)
            }
            Instr::AccD(s) => {
                self.read_d(&h, *s)?;
                self.fallthrough(states, work, h)
            }
            Instr::AccF(s) => {
                self.read_f(&h, *s)?;
                self.fallthrough(states, work, h)
            }
            Instr::EvalP(s) => {
                // Both the value path and the post-force resume land
                // on pc + 1 with this frame intact.
                self.read_p(&h, *s)?;
                self.fallthrough(states, work, h)
            }
            Instr::MkCon { args, .. } | Instr::MkMulti { args } => {
                for s in args.iter() {
                    self.read_src(&h, *s)?;
                }
                self.fallthrough(states, work, h)
            }
            Instr::RetMulti { args } => {
                for s in args.iter() {
                    self.read_src(&h, *s)?;
                }
                Ok(())
            }
            Instr::RetMultiW { args } => {
                for s in args.iter() {
                    self.read_w(&h, *s)?;
                }
                Ok(())
            }
            Instr::BindMulti { binds } => {
                // The value's arity and field classes are dynamic (the
                // multi arrives through the accumulator); only the
                // slots are static facts.
                for (b, slot) in binds.iter() {
                    self.write(&mut h, b.class, *slot)?;
                }
                self.fallthrough(states, work, h)
            }
            Instr::MkClos { chunk, caps } => {
                for s in caps.iter() {
                    self.read_src(&h, *s)?;
                }
                let callee = self.callee(*chunk)?;
                if callee.params.is_empty() {
                    return Err(self.fail(VerifyErrorKind::MissingParam));
                }
                if callee.params.len() != 1 {
                    return Err(self.fail(VerifyErrorKind::ArityMismatch {
                        what: "λ chunk parameters",
                        expected: 1,
                        found: callee.params.len(),
                    }));
                }
                self.check_caps(*chunk, caps)?;
                self.fallthrough(states, work, h)
            }
            Instr::MkThunk { chunk, caps, dst } => {
                // The address is written *before* the captures resolve
                // (cyclic thunks), so `dst` may appear in `caps`.
                self.write(&mut h, Slot::Ptr, *dst)?;
                for s in caps.iter() {
                    self.read_src(&h, *s)?;
                }
                let callee = self.callee(*chunk)?;
                if !callee.params.is_empty() {
                    return Err(self.fail(VerifyErrorKind::ArityMismatch {
                        what: "thunk chunk parameters",
                        expected: 0,
                        found: callee.params.len(),
                    }));
                }
                self.check_caps(*chunk, caps)?;
                self.fallthrough(states, work, h)
            }
            Instr::BindAcc { binder, slot } => {
                // The accumulator's class is dynamic; the slot is not.
                self.write(&mut h, binder.class, *slot)?;
                self.fallthrough(states, work, h)
            }
            Instr::PushRet { resume } => {
                // The callee cannot touch this frame, so the resume
                // point sees exactly the heights at push time.
                self.branch(states, work, *resume, h)?;
                self.fallthrough(states, work, h)
            }
            Instr::PushArg(s) => {
                self.read_src(&h, *s)?;
                self.fallthrough(states, work, h)
            }
            Instr::CallF { chunk, args, .. } => {
                for s in args.iter() {
                    self.read_src(&h, *s)?;
                }
                self.check_direct_call(*chunk, args)
            }
            Instr::CallW { args } => {
                for s in args.iter() {
                    self.read_w(&h, *s)?;
                }
                self.check_self_word_call(args.len())?;
                let mut hb = h;
                for i in 0..args.len() {
                    self.write(&mut hb, Slot::Word, i as u16)?;
                }
                self.branch(states, work, 0, hb)
            }
            Instr::PrimCallW {
                dst, a, b, args, ..
            } => {
                self.read_w(&h, *a)?;
                self.read_w(&h, *b)?;
                // `dst` is never written: argument occurrences of it
                // read the fresh prim result instead of the register.
                for s in args.iter() {
                    match s {
                        WSrc::R(rg) if rg == dst => {}
                        s => self.read_w(&h, *s)?,
                    }
                }
                self.check_self_word_call(args.len())?;
                let mut hb = h;
                for i in 0..args.len() {
                    self.write(&mut hb, Slot::Word, i as u16)?;
                }
                self.branch(states, work, 0, hb)
            }
            Instr::PrimCallFW {
                prim,
                chunk,
                resume,
                args,
                binds,
            } => {
                self.read_w(&h, prim.a)?;
                self.read_w(&h, prim.b)?;
                self.write(&mut h, Slot::Word, prim.dst)?;
                for s in args.iter() {
                    self.read_w(&h, *s)?;
                }
                self.check_word_call(*chunk, args.len())?;
                self.check_fw_binds(&mut h, binds)?;
                self.branch(states, work, *resume, h)
            }
            Instr::PrimRetMultiW { prim, args } => {
                self.read_w(&h, prim.a)?;
                self.read_w(&h, prim.b)?;
                self.write(&mut h, Slot::Word, prim.dst)?;
                for s in args.iter() {
                    self.read_w(&h, *s)?;
                }
                Ok(())
            }
            Instr::CallFW {
                chunk,
                resume,
                args,
                binds,
            } => {
                for s in args.iter() {
                    self.read_w(&h, *s)?;
                }
                self.check_word_call(*chunk, args.len())?;
                self.check_fw_binds(&mut h, binds)?;
                self.branch(states, work, *resume, h)
            }
            Instr::EnterG { chunk, .. } => {
                let callee = self.callee(*chunk)?;
                if !callee.caps.is_empty() || !callee.params.is_empty() {
                    return Err(self.fail(VerifyErrorKind::ArityMismatch {
                        what: "generic chunk captures + parameters",
                        expected: 0,
                        found: callee.caps.len() + callee.params.len(),
                    }));
                }
                Ok(())
            }
            Instr::RetW(s) => {
                self.read_w(&h, *s)?;
                Ok(())
            }
            Instr::RetD(s) => {
                self.read_d(&h, *s)?;
                Ok(())
            }
            Instr::RetF(s) => {
                self.read_f(&h, *s)?;
                Ok(())
            }
        }
    }
}

fn class_of_ix(ix: usize) -> Slot {
    match ix {
        0 => Slot::Ptr,
        1 => Slot::Word,
        2 => Slot::Float,
        _ => Slot::Double,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CodeProgram;
    use crate::machine::Globals;
    use crate::syntax::{Atom, Binder, Literal, MExpr, PrimOp};

    fn compiled(t: &Arc<MExpr>) -> (Arc<BcProgram>, BcEntry) {
        let program = CodeProgram::compile(&Globals::new());
        let bc = Arc::new(BcProgram::compile(&program));
        let entry = bc.compile_entry(&program.compile_entry(t));
        (bc, entry)
    }

    #[test]
    fn compiled_programs_verify() {
        // let! i = 40# +# 2# in I#[i] — prims, a bind, a boxed con.
        let t = MExpr::let_strict(
            Binder::int("i"),
            MExpr::prim(
                PrimOp::AddI,
                vec![Atom::Lit(Literal::Int(40)), Atom::Lit(Literal::Int(2))],
            ),
            MExpr::con_int_hash(Atom::Var("i".into())),
        );
        let (bc, entry) = compiled(&t);
        let witness = verify(&bc).expect("program verifies");
        witness.verify_entry(&entry).expect("entry verifies");
    }

    #[test]
    fn lambdas_and_thunks_verify() {
        // let x = <thunk 7#> in (λa. a) x — closures, thunks, eval.
        let t = MExpr::let_lazy(
            "x",
            MExpr::int(7),
            MExpr::app(MExpr::lam(Binder::ptr("p"), MExpr::var("p")), {
                Atom::Var("x".into())
            }),
        );
        let (bc, entry) = compiled(&t);
        let witness = verify(&bc).expect("program verifies");
        witness.verify_entry(&entry).expect("entry verifies");
    }

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

    #[test]
    fn jump_past_the_code_is_rejected() {
        let p = program_of(vec![chunk("bad", [0; 4], vec![Instr::Goto(7)])]);
        let err = verify(&p).unwrap_err();
        assert_eq!(
            err.kind,
            VerifyErrorKind::BadJumpTarget { target: 7, len: 1 }
        );
        assert_eq!((err.chunk, err.pc), (0, 0));
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
        let err = verify(&p).unwrap_err();
        assert_eq!(err.kind, VerifyErrorKind::FallThrough);
    }

    #[test]
    fn uninitialised_reads_are_rejected() {
        let p = program_of(vec![chunk(
            "bad",
            [0, 2, 0, 0],
            vec![Instr::RetW(WSrc::R(1))],
        )]);
        let err = verify(&p).unwrap_err();
        assert_eq!(
            err.kind,
            VerifyErrorKind::UninitialisedRead {
                class: Slot::Word,
                slot: 1,
                height: 0
            }
        );
    }

    #[test]
    fn the_join_is_the_elementwise_minimum() {
        // One arm initializes w1, the other does not; the join target
        // may only read w0.
        let p = program_of(vec![chunk(
            "bad",
            [0, 2, 0, 0],
            vec![
                Instr::MovW {
                    dst: 0,
                    src: WSrc::K(Literal::Int(1)),
                },
                Instr::CmpBrW {
                    op: PrimOp::EqI,
                    a: WSrc::R(0),
                    b: WSrc::K(Literal::Int(0)),
                    on_true: 3,
                    on_false: 2,
                },
                Instr::MovW {
                    dst: 1,
                    src: WSrc::K(Literal::Int(2)),
                },
                // Joined from both arms: only min heights survive.
                Instr::RetW(WSrc::R(1)),
            ],
        )]);
        let err = verify(&p).unwrap_err();
        assert_eq!(
            err.kind,
            VerifyErrorKind::UninitialisedRead {
                class: Slot::Word,
                slot: 1,
                height: 1
            }
        );
        assert_eq!(err.pc, 3);
    }
}
