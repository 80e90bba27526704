//! The register machine: interprets the flat bytecode produced by
//! [`crate::bytecode`].
//!
//! Where the tree engines carry every value in a tagged [`Atom`], this
//! machine keeps **one operand stack per register class** (§6.2):
//! `i64`/`char` words, `f64` doubles, `f32`-bit floats, and heap
//! pointers. A binder's class was fixed at compile time, so every read
//! and write goes straight to the right stack with *no tag dispatch at
//! all* — an unboxed `Int#` loop is a compare, an add, and a back-edge
//! over the word stack.
//!
//! Each chunk executes in a *frame*: a window of every stack starting
//! at the `bases` recorded on entry. Tail calls release the frame
//! first (truncating every stack to its base), so recursive loops run
//! in constant stack space; returns truncate the same way before the
//! pop-loop applies pending arguments, updates forced thunks, and
//! resumes the caller.
//!
//! Semantics are in lock-step with [`crate::env::EnvMachine`]: the same
//! heap events in the same order (so heap addresses coincide), the same
//! counter updates for `thunk_allocs`/`con_allocs`/`allocated_words`/
//! `thunk_forces`/`updates`/`jumps`/`prim_ops`, and the same
//! [`MachineError`] payloads at the same program points. Step counts
//! legitimately differ (fused superinstructions retire several tree
//! transitions in one dispatch — counted in
//! [`MachineStats::fused_ops`]), which is the entire point.
//!
//! There is one dispatch loop, and the static verifier
//! ([`crate::verify`](mod@crate::verify)) is its only gate:
//! [`BcMachine::run`] accepts nothing but a [`VerifiedEntry`]. The
//! register-class and width facts the verifier proved are not
//! re-checked at runtime, and the collector's safepoint pointer maps
//! are the heights the verifier retained: one source of maps, and
//! every run can collect.

use std::fmt;
use std::sync::Arc;

use levity_core::rep::Slot;

use crate::bytecode::{
    BAlt, BDefault, BcEntry, BcProgram, Chunk, DSrc, FSrc, Instr, PSrc, Src, WSrc, SELF_CALL_BUF,
};
use crate::env::Env;
use crate::machine::{check_atom_class, MachineError, MachineStats, RunOutcome, Value};
use crate::prim::apply_prim;
use crate::syntax::{Addr, Atom, Binder, DataCon, Literal, PrimOp};
use crate::verify::{VerifiedEntry, VerifiedProgram};

/// A word-stack value. `Int#` and `Char#` share the word class
/// (§6.2), and the distinction must survive the stack round-trip so
/// primop error payloads and case dispatch match the tree engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WordV {
    /// An `Int#`.
    I(i64),
    /// A `Char#`.
    C(char),
}

impl WordV {
    #[inline]
    fn lit(self) -> Literal {
        match self {
            WordV::I(n) => Literal::Int(n),
            WordV::C(c) => Literal::Char(c),
        }
    }

    #[inline]
    fn of_lit(l: Literal) -> WordV {
        match l {
            Literal::Int(n) => WordV::I(n),
            Literal::Char(c) => WordV::C(c),
            _ => unreachable!("word operands are Int/Char"),
        }
    }
}

/// A heap cell: thunks are (chunk, captured atoms) pairs.
#[derive(Clone, Debug)]
pub(crate) enum BCell {
    Thunk(u32, Arc<[Atom]>),
    Value(BValue),
    Blackhole,
}

/// A machine value held in the accumulator. Differs from
/// [`crate::env::EValue`] only at closures, which capture a chunk id
/// plus resolved atoms instead of code and an environment.
#[derive(Clone, Debug)]
pub(crate) enum BValue {
    Clos {
        binder: Binder,
        chunk: u32,
        caps: Arc<[Atom]>,
    },
    Con(Arc<DataCon>, Arc<[Atom]>),
    Lit(Literal),
    Multi(Vec<Atom>),
}

impl fmt::Display for BValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Must render exactly like `Value`/`EValue`: these strings
        // reach MachineError payloads the differential suite compares.
        match self {
            BValue::Clos { binder, .. } => write!(f, "<function \\{binder}>"),
            BValue::Con(c, args) => {
                write!(f, "{c}[")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, "]")
            }
            BValue::Lit(l) => write!(f, "{l}"),
            BValue::Multi(args) => {
                write!(f, "(#")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, " {a}")?;
                }
                write!(f, " #)")
            }
        }
    }
}

/// A control-stack frame. `Ret` frames snapshot the caller's position
/// and stack bases; `Upd` frames update a forced thunk; `Arg` frames
/// hold pending application arguments (pushed outermost-first, applied
/// innermost-first — the Figure 6 order).
#[derive(Clone, Debug)]
pub(crate) enum BFrame {
    Ret {
        chunk: u32,
        pc: u32,
        bases: [usize; 4],
    },
    /// A `Ret` frame pushed by [`Instr::CallFW`]: it carries the
    /// caller's multi-value binders, so an all-word return writes the
    /// caller's registers directly. `pc` points *past* the absorbed
    /// bind. A generic return landing here performs the bind itself,
    /// with the same checks [`Instr::BindMulti`] would run.
    RetW {
        chunk: u32,
        pc: u32,
        bases: [usize; 4],
        binds: Arc<[(Binder, u16)]>,
    },
    Upd(Addr),
    Arg(Atom),
}

/// The executing chunk: id, code, program counter, stack bases. The
/// per-class frame sizes are carried so a fused self-call can grow the
/// stacks without re-fetching the chunk.
struct Exec {
    chunk: u32,
    code: Arc<[Instr]>,
    pc: usize,
    bases: [usize; 4],
    frame: [u16; 4],
}

/// What the pop-loop decided after a return.
enum Popped {
    Done(RunOutcome),
    Resume(Exec, BValue),
}

/// The counters the dispatch loop bumps on (nearly) every step, kept
/// in locals for the duration of a run and flushed to
/// [`MachineStats`] once on exit — the loop pays for register
/// increments, not memory traffic.
#[derive(Clone, Copy, Debug, Default)]
struct Hot {
    steps: u64,
    prim_ops: u64,
    fused_ops: u64,
    jumps: u64,
}

/// The register-machine interpreter over a compiled [`BcProgram`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use levity_m::bytecode::BcProgram;
/// use levity_m::compile::CodeProgram;
/// use levity_m::machine::{Globals, RunOutcome, Value};
/// use levity_m::regmachine::BcMachine;
/// use levity_m::syntax::{Atom, Binder, Literal, MExpr};
/// use levity_m::verify::verify;
///
/// // (λi. i) 42#
/// let t = MExpr::app(
///     MExpr::lam(Binder::int("i"), MExpr::var("i")),
///     Atom::Lit(Literal::Int(42)),
/// );
/// let program = CodeProgram::compile(&Globals::new());
/// let bc = Arc::new(BcProgram::compile(&program));
/// let entry = bc.compile_entry(&program.compile_entry(&t));
/// let verified = verify(&bc)?;
/// let mut machine = BcMachine::new(bc);
/// let outcome = machine.run(&verified.verify_entry(&entry)?)?;
/// assert_eq!(outcome, RunOutcome::Value(Value::Lit(Literal::Int(42))));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct BcMachine {
    words: Vec<WordV>,
    doubles: Vec<f64>,
    floats: Vec<u32>,
    ptrs: Vec<Addr>,
    heap: Vec<BCell>,
    stack: Vec<BFrame>,
    program: Arc<BcProgram>,
    stats: MachineStats,
    fuel: u64,
    alloc_limit: u64,
    /// Collection trigger in cells: collect when the heap reaches this
    /// size at an allocation site. Doubles with the live set (never
    /// below `gc_nursery`), the classic semispace growth policy.
    gc_limit: usize,
    /// The configured nursery floor in cells.
    gc_nursery: usize,
    /// Live-heap cap in bytes, enforced *after* each collection —
    /// distinct from `alloc_limit`, which caps cumulative allocation.
    heap_limit: Option<u64>,
    /// High-water mark per operand stack (`[ptr, word, float,
    /// double]`) — the §6.2 negative-space observable: a program with
    /// no `Double#` binders must leave `high[3] == 0`, and vice versa.
    high: [usize; 4],
    /// Logical tops of the four operand stacks. The backing `Vec`s
    /// only ever grow; frame push/pop is cursor arithmetic, with no
    /// per-frame zero-fill or truncation on the hot call path.
    top: [usize; 4],
}

impl BcMachine {
    /// A machine over the given bytecode program with default fuel.
    pub fn new(program: Arc<BcProgram>) -> BcMachine {
        BcMachine {
            words: Vec::new(),
            doubles: Vec::new(),
            floats: Vec::new(),
            ptrs: Vec::new(),
            heap: Vec::new(),
            stack: Vec::new(),
            program,
            stats: MachineStats::default(),
            fuel: crate::machine::Machine::DEFAULT_FUEL,
            alloc_limit: u64::MAX,
            gc_limit: crate::gc::DEFAULT_NURSERY_CELLS,
            gc_nursery: crate::gc::DEFAULT_NURSERY_CELLS,
            heap_limit: None,
            high: [0; 4],
            top: [0; 4],
        }
    }

    /// Replaces the fuel limit.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Caps the estimated words this run may allocate; exceeding it
    /// fails with [`MachineError::AllocLimitExceeded`].
    pub fn set_alloc_limit(&mut self, words: u64) {
        self.alloc_limit = words;
    }

    /// Overrides the nursery size in cells: the heap size at which an
    /// allocation site triggers a collection. Defaults to
    /// [`crate::gc::DEFAULT_NURSERY_CELLS`]. Tiny values force frequent
    /// collections — the differential suites use this to pin that GC
    /// is observationally invisible.
    pub fn set_gc_nursery(&mut self, cells: usize) {
        self.gc_nursery = cells.max(1);
        self.gc_limit = self.gc_nursery;
    }

    /// Caps the *live* heap in bytes, checked after every collection:
    /// a run whose reachable data still exceeds the cap once garbage
    /// is reclaimed fails with [`MachineError::HeapLimitExceeded`].
    /// Distinct from [`Self::set_alloc_limit`], which caps cumulative
    /// allocation regardless of liveness.
    pub fn set_heap_limit(&mut self, bytes: u64) {
        self.heap_limit = Some(bytes);
    }

    /// Fails if the accumulated allocation estimate exceeds the cap.
    #[inline]
    fn check_alloc_limit(&self) -> Result<(), MachineError> {
        if self.stats.allocated_words > self.alloc_limit {
            Err(MachineError::AllocLimitExceeded {
                limit: self.alloc_limit,
            })
        } else {
            Ok(())
        }
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Current heap size in cells: collection survivors plus whatever
    /// has been allocated since the last collection (before PR 10's
    /// collector this was the cumulative cell count).
    pub fn heap_size(&self) -> usize {
        self.heap.len()
    }

    /// High-water mark of each operand stack, as `[ptr, word, float,
    /// double]`. A `Double#` value can never transit the word stack
    /// (or vice versa) — the stacks are different Rust types — and
    /// this observable lets tests pin that a given program never even
    /// *touches* a class.
    pub fn stack_high_water(&self) -> [usize; 4] {
        self.high
    }

    #[inline]
    fn alloc(&mut self, cell: BCell) -> Addr {
        let addr = Addr(self.heap.len() as u64);
        self.heap.push(cell);
        addr
    }

    /// Whether an allocation site should collect first: the heap has
    /// reached the nursery trigger, or a live-heap cap is set and the
    /// cells-as-bytes lower bound could already exceed it (every cell
    /// is at least one word, so `8 × cells ≤ live bytes`).
    #[inline]
    fn gc_pressure(&self) -> bool {
        let trigger = match self.heap_limit {
            Some(bytes) => self.gc_limit.min((bytes / 8) as usize + 1),
            None => self.gc_limit,
        };
        self.heap.len() >= trigger
    }

    /// One precise copying collection at the safepoint `(ex.chunk,
    /// ex.pc)`. Gathers the per-frame pointer windows from the heights
    /// the verifier retained in `entry`, hands all roots to
    /// [`crate::gc::collect`], then enforces the live-heap cap and
    /// re-arms the trigger at `max(nursery, 2 × live)`.
    #[cold]
    fn collect_garbage(
        &mut self,
        entry: &VerifiedEntry<'_>,
        ex: &Exec,
        acc: &mut BValue,
    ) -> Result<(), MachineError> {
        // Every root window is resolved *before* anything moves, so a
        // safepoint without a map is an error, never a torn heap.
        let window = |chunk: u32, pc: usize, base: usize| match entry.heights_at(chunk, pc) {
            Some(h) => Ok((base, h[0] as usize)),
            None => Err(MachineError::InvalidState(format!(
                "gc: no pointer map at chunk {chunk} pc {pc}"
            ))),
        };
        let mut windows = Vec::with_capacity(self.stack.len() + 1);
        windows.push(window(ex.chunk, ex.pc, ex.bases[0])?);
        for f in &self.stack {
            match f {
                BFrame::Ret { chunk, pc, bases }
                | BFrame::RetW {
                    chunk, pc, bases, ..
                } => {
                    windows.push(window(*chunk, *pc as usize, bases[0])?);
                }
                BFrame::Upd(_) | BFrame::Arg(_) => {}
            }
        }
        let mut stack = std::mem::take(&mut self.stack);
        let result = crate::gc::collect(&mut self.heap, &mut self.ptrs, &windows, &mut stack, acc);
        self.stack = stack;
        let out = result?;
        self.stats.collections += 1;
        self.stats.bytes_copied += out.words_live * 8;
        self.stats.gc_steps += out.cells_live;
        if let Some(limit) = self.heap_limit {
            if out.words_live * 8 > limit {
                return Err(MachineError::HeapLimitExceeded { limit });
            }
        }
        self.gc_limit = self.gc_nursery.max(self.heap.len().saturating_mul(2));
        Ok(())
    }

    #[inline]
    fn push_frame(&mut self, frame: BFrame) {
        self.stack.push(frame);
        self.stats.max_stack = self.stats.max_stack.max(self.stack.len());
    }

    fn chunk_of(&self, entry: &BcEntry, id: u32) -> Result<Arc<Chunk>, MachineError> {
        let base = self.program.chunks.len();
        let ix = id as usize;
        if ix < base {
            Ok(Arc::clone(&self.program.chunks[ix]))
        } else {
            entry
                .chunks
                .get(ix - base)
                .map(Arc::clone)
                .ok_or_else(|| MachineError::BadBytecode(format!("unknown chunk id {id}")))
        }
    }

    /// Resizes every operand stack to `bases + frame` and tracks the
    /// high-water marks.
    fn grow_frame(&mut self, chunk: &Chunk, bases: [usize; 4]) {
        self.grow_frame_sizes(chunk.frame, bases);
    }

    #[inline]
    fn grow_frame_sizes(&mut self, frame: [u16; 4], bases: [usize; 4]) {
        // Word-only frames (every fused all-word call) touch a single
        // cursor; the other three keep their extents.
        if frame[0] == 0 && frame[2] == 0 && frame[3] == 0 {
            let t = bases[1] + frame[1] as usize;
            self.top = [bases[0], t, bases[2], bases[3]];
            if t > self.words.len() {
                self.words.resize(t, WordV::I(0));
            }
            self.high[1] = self.high[1].max(t);
            return;
        }
        let top = [
            bases[0] + frame[0] as usize,
            bases[1] + frame[1] as usize,
            bases[2] + frame[2] as usize,
            bases[3] + frame[3] as usize,
        ];
        self.top = top;
        if top[0] > self.ptrs.len() {
            self.ptrs.resize(top[0], Addr(0));
        }
        if top[1] > self.words.len() {
            self.words.resize(top[1], WordV::I(0));
        }
        if top[2] > self.floats.len() {
            self.floats.resize(top[2], 0);
        }
        if top[3] > self.doubles.len() {
            self.doubles.resize(top[3], 0.0);
        }
        self.high[0] = self.high[0].max(top[0]);
        self.high[1] = self.high[1].max(top[1]);
        self.high[2] = self.high[2].max(top[2]);
        self.high[3] = self.high[3].max(top[3]);
    }

    #[inline]
    fn truncate_to(&mut self, bases: [usize; 4]) {
        self.top = bases;
    }

    #[inline]
    fn tops(&self) -> [usize; 4] {
        self.top
    }

    /// Writes an atom into the next slot of its class (frame entry:
    /// captures first, then parameters, per-class cursors).
    fn write_entry_atom(
        &mut self,
        bases: [usize; 4],
        cursors: &mut [usize; 4],
        atom: Atom,
    ) -> Result<(), MachineError> {
        match atom {
            Atom::Lit(Literal::Int(n)) => {
                self.words[bases[1] + cursors[1]] = WordV::I(n);
                cursors[1] += 1;
            }
            Atom::Lit(Literal::Char(c)) => {
                self.words[bases[1] + cursors[1]] = WordV::C(c);
                cursors[1] += 1;
            }
            Atom::Lit(Literal::DoubleBits(b)) => {
                self.doubles[bases[3] + cursors[3]] = f64::from_bits(b);
                cursors[3] += 1;
            }
            Atom::Lit(Literal::FloatBits(b)) => {
                self.floats[bases[2] + cursors[2]] = b;
                cursors[2] += 1;
            }
            Atom::Addr(a) => {
                self.ptrs[bases[0] + cursors[0]] = a;
                cursors[0] += 1;
            }
            Atom::Var(x) => return Err(MachineError::UnboundVariable(x)),
        }
        Ok(())
    }

    /// Writes an atom into a specific slot of a class (join-parameter
    /// and case-field writes — the atom's class was already checked).
    fn write_slot(
        &mut self,
        bases: [usize; 4],
        class: Slot,
        slot: u16,
        atom: Atom,
    ) -> Result<(), MachineError> {
        match (class, atom) {
            (Slot::Word, Atom::Lit(Literal::Int(n))) => {
                self.words[bases[1] + slot as usize] = WordV::I(n)
            }
            (Slot::Word, Atom::Lit(Literal::Char(c))) => {
                self.words[bases[1] + slot as usize] = WordV::C(c)
            }
            (Slot::Double, Atom::Lit(Literal::DoubleBits(b))) => {
                self.doubles[bases[3] + slot as usize] = f64::from_bits(b)
            }
            (Slot::Float, Atom::Lit(Literal::FloatBits(b))) => {
                self.floats[bases[2] + slot as usize] = b
            }
            (Slot::Ptr, Atom::Addr(a)) => self.ptrs[bases[0] + slot as usize] = a,
            (_, atom) => {
                return Err(MachineError::BadBytecode(format!(
                    "cannot write {atom} into a {class} slot"
                )))
            }
        }
        Ok(())
    }

    /// Enters a chunk: installs the frame and writes captures then
    /// parameters.
    fn enter(
        &mut self,
        entry: &BcEntry,
        id: u32,
        bases: [usize; 4],
        caps: &[Atom],
        params: &[Atom],
    ) -> Result<Exec, MachineError> {
        let chunk = self.chunk_of(entry, id)?;
        self.grow_frame(&chunk, bases);
        let mut cursors = [0usize; 4];
        for a in caps {
            self.write_entry_atom(bases, &mut cursors, *a)?;
        }
        for a in params {
            self.write_entry_atom(bases, &mut cursors, *a)?;
        }
        Ok(Exec {
            chunk: id,
            code: Arc::clone(&chunk.code),
            pc: 0,
            bases,
            frame: chunk.frame,
        })
    }

    // --- operand reads ------------------------------------------------

    #[inline]
    fn wsrc(&self, s: WSrc, bases: [usize; 4]) -> WordV {
        match s {
            WSrc::R(i) => self.words[bases[1] + i as usize],
            WSrc::K(l) => WordV::of_lit(l),
        }
    }

    #[inline]
    fn dsrc(&self, s: DSrc, bases: [usize; 4]) -> f64 {
        match s {
            DSrc::R(i) => self.doubles[bases[3] + i as usize],
            DSrc::K(b) => f64::from_bits(b),
        }
    }

    #[inline]
    fn fsrc(&self, s: FSrc, bases: [usize; 4]) -> u32 {
        match s {
            FSrc::R(i) => self.floats[bases[2] + i as usize],
            FSrc::K(b) => b,
        }
    }

    #[inline]
    fn psrc(&self, s: PSrc, bases: [usize; 4]) -> Addr {
        match s {
            PSrc::R(i) => self.ptrs[bases[0] + i as usize],
            PSrc::K(a) => a,
        }
    }

    /// Resolves a classed operand to a runtime atom.
    fn atom_of(&self, s: Src, bases: [usize; 4]) -> Result<Atom, MachineError> {
        match s {
            Src::W(w) => Ok(Atom::Lit(self.wsrc(w, bases).lit())),
            Src::D(d) => Ok(Atom::Lit(Literal::DoubleBits(
                self.dsrc(d, bases).to_bits(),
            ))),
            Src::F(fs) => Ok(Atom::Lit(Literal::FloatBits(self.fsrc(fs, bases)))),
            Src::P(p) => Ok(Atom::Addr(self.psrc(p, bases))),
            Src::U(x) => Err(MachineError::UnboundVariable(x)),
        }
    }

    fn atoms_of(&self, srcs: &[Src], bases: [usize; 4]) -> Result<Vec<Atom>, MachineError> {
        srcs.iter().map(|s| self.atom_of(*s, bases)).collect()
    }

    /// Resolves a primop operand to a literal through the heap check —
    /// exactly [`crate::env::EnvMachine`]'s `literal_of` (no
    /// `var_lookups` count).
    fn literal_of(&self, s: Src, bases: [usize; 4]) -> Result<Literal, MachineError> {
        match s {
            Src::W(w) => Ok(self.wsrc(w, bases).lit()),
            Src::D(d) => Ok(Literal::DoubleBits(self.dsrc(d, bases).to_bits())),
            Src::F(fs) => Ok(Literal::FloatBits(self.fsrc(fs, bases))),
            Src::P(p) => {
                let addr = self.psrc(p, bases);
                match &self.heap[addr.0 as usize] {
                    BCell::Value(BValue::Lit(l)) => Ok(*l),
                    _ => Err(MachineError::InvalidState(format!(
                        "primop argument at {addr} is not an evaluated literal"
                    ))),
                }
            }
            Src::U(x) => Err(MachineError::UnboundVariable(x)),
        }
    }

    /// Turns a value into an atom, storing boxed values in the heap
    /// (no counters — mirrors the environment engine's
    /// `value_to_atom`).
    fn value_to_atom(&mut self, w: BValue) -> Result<Atom, MachineError> {
        match w {
            BValue::Lit(l) => Ok(Atom::Lit(l)),
            BValue::Clos { .. } | BValue::Con(..) => {
                let addr = self.alloc(BCell::Value(w));
                Ok(Atom::Addr(addr))
            }
            BValue::Multi(_) => Err(MachineError::InvalidState(
                "a multi-value cannot be bound to a single register".to_owned(),
            )),
        }
    }

    /// Converts an accumulator value into the public [`Value`] type.
    /// Closures keep their λ body as tree code precisely for this:
    /// the captures become an [`Env`] and the shared readback
    /// substitutes them into the body.
    fn readback_value(&self, entry: &BcEntry, w: BValue) -> Result<Value, MachineError> {
        Ok(match w {
            BValue::Lit(l) => Value::Lit(l),
            BValue::Con(c, args) => Value::Con((*c).clone(), args.to_vec()),
            BValue::Multi(args) => Value::Multi(args),
            BValue::Clos {
                binder,
                chunk,
                caps,
            } => {
                let chunk = self.chunk_of(entry, chunk)?;
                let body = chunk.lam_body.as_ref().ok_or_else(|| {
                    MachineError::BadBytecode(format!(
                        "closure chunk {} has no λ body",
                        chunk.label
                    ))
                })?;
                let mut env = Env::nil();
                for a in caps.iter() {
                    env = env.push(*a);
                }
                let mut names = vec![binder.name];
                Value::Lam(binder, crate::env::readback(body, &mut names, &env))
            }
        })
    }

    /// Binds a field list whose classes arrive dynamically —
    /// constructor payloads, multi-values out of the accumulator — into
    /// frame slots: one width check plus one classed write per pair.
    /// This is the single shape behind `bind.multi`, fused-frame
    /// generic returns and case binders; arity checks stay at the call
    /// sites (their error payloads differ).
    fn bind_fields(
        &mut self,
        bases: [usize; 4],
        binds: &[(Binder, u16)],
        fields: &[Atom],
    ) -> Result<(), MachineError> {
        for ((b, slot), a) in binds.iter().zip(fields.iter()) {
            check_atom_class(*b, *a)?;
            self.write_slot(bases, b.class, *slot, *a)?;
        }
        Ok(())
    }

    /// The return pop-loop: apply pending arguments, update forced
    /// thunks, resume the caller, or finish. The caller must have
    /// truncated the stacks already when the return releases a frame
    /// (`Ret*`); `ApplyA` enters here without truncating.
    fn pop_return(&mut self, entry: &BcEntry, mut acc: BValue) -> Result<Popped, MachineError> {
        loop {
            match self.stack.pop() {
                None => {
                    let v = self.readback_value(entry, acc)?;
                    return Ok(Popped::Done(RunOutcome::Value(v)));
                }
                Some(BFrame::Upd(addr)) => {
                    self.heap[addr.0 as usize] = BCell::Value(acc.clone());
                    self.stats.updates += 1;
                }
                Some(BFrame::Arg(atom)) => match acc {
                    BValue::Clos {
                        binder,
                        chunk,
                        caps,
                    } => {
                        check_atom_class(binder, atom)?;
                        let exec = self.enter(entry, chunk, self.tops(), &caps, &[atom])?;
                        acc = BValue::Lit(Literal::Int(0));
                        return Ok(Popped::Resume(exec, acc));
                    }
                    other => return Err(MachineError::AppliedNonFunction(other.to_string())),
                },
                Some(BFrame::Ret { chunk, pc, bases }) => {
                    let c = self.chunk_of(entry, chunk)?;
                    let exec = Exec {
                        chunk,
                        code: Arc::clone(&c.code),
                        pc: pc as usize,
                        bases,
                        frame: c.frame,
                    };
                    return Ok(Popped::Resume(exec, acc));
                }
                Some(BFrame::RetW {
                    chunk,
                    pc,
                    bases,
                    binds,
                }) => {
                    // A generic return into a fused-call frame: run
                    // the absorbed bind here, with exactly the checks
                    // and errors `bind.multi` would produce.
                    match &acc {
                        BValue::Multi(fields) => {
                            if binds.len() != fields.len() {
                                return Err(MachineError::InvalidState(
                                    "multi-value arity mismatch".to_owned(),
                                ));
                            }
                            let fields = fields.clone();
                            self.bind_fields(bases, &binds, &fields)?;
                        }
                        other => {
                            return Err(MachineError::InvalidState(format!(
                                "case-of-multi scrutinee evaluated to {other}"
                            )))
                        }
                    }
                    let c = self.chunk_of(entry, chunk)?;
                    let exec = Exec {
                        chunk,
                        code: Arc::clone(&c.code),
                        pc: pc as usize,
                        bases,
                        frame: c.frame,
                    };
                    return Ok(Popped::Resume(exec, acc));
                }
            }
        }
    }

    /// Evaluates a heap address into the accumulator, or starts
    /// forcing a thunk (pushing the resume and update frames).
    fn eval_addr(
        &mut self,
        entry: &BcEntry,
        addr: Addr,
        ex: &Exec,
    ) -> Result<Option<Exec>, MachineError> {
        let ix = addr.0 as usize;
        match &self.heap[ix] {
            BCell::Value(_) => Ok(None),
            BCell::Thunk(chunk, caps) => {
                let chunk = *chunk;
                let caps = Arc::clone(caps);
                self.stats.thunk_forces += 1;
                self.heap[ix] = BCell::Blackhole;
                self.push_frame(BFrame::Ret {
                    chunk: ex.chunk,
                    pc: (ex.pc + 1) as u32,
                    bases: ex.bases,
                });
                self.push_frame(BFrame::Upd(addr));
                let exec = self.enter(entry, chunk, self.tops(), &caps, &[])?;
                Ok(Some(exec))
            }
            BCell::Blackhole => Err(MachineError::Loop),
        }
    }

    /// Runs a verified entry from its root chunk. Verification is the
    /// only way in: the register-class and width facts the verifier
    /// proved are not re-checked, and the collector scans by the
    /// heights the witness retained. A bare [`BcEntry`] is refused at
    /// compile time:
    ///
    /// ```compile_fail
    /// use std::sync::Arc;
    /// use levity_m::bytecode::BcProgram;
    /// use levity_m::compile::CodeProgram;
    /// use levity_m::machine::Globals;
    /// use levity_m::regmachine::BcMachine;
    /// use levity_m::syntax::MExpr;
    ///
    /// let program = CodeProgram::compile(&Globals::new());
    /// let bc = Arc::new(BcProgram::compile(&program));
    /// let entry = bc.compile_entry(&program.compile_entry(&MExpr::int(1)));
    /// let _ = BcMachine::new(bc).run(&entry); // expected `&VerifiedEntry`
    /// ```
    ///
    /// # Errors
    ///
    /// [`MachineError`] on dynamic failures (a closure applied to an
    /// argument of the wrong class, a constructor field bound at the
    /// wrong class, `<<loop>>`, …) and exhausted fuel or caps; `error`
    /// is reported as `Ok(RunOutcome::Error(..))` (rule ERR).
    /// [`MachineError::BadBytecode`] when the witness was issued for a
    /// different program than the one this machine executes.
    pub fn run(&mut self, entry: &VerifiedEntry<'_>) -> Result<RunOutcome, MachineError> {
        if !Arc::ptr_eq(&self.program, entry.program().program()) {
            return Err(MachineError::BadBytecode(
                "verified entry does not belong to this machine's program".to_owned(),
            ));
        }
        // The hottest counters live in locals for the run and are
        // flushed exactly once on the way out — on `Ok`, `Err` and
        // `RunOutcome::Error` alike.
        let mut hot = Hot::default();
        let r = self.run_loop(entry, &mut hot);
        self.stats.steps += hot.steps;
        self.stats.prim_ops += hot.prim_ops;
        self.stats.fused_ops += hot.fused_ops;
        self.stats.jumps += hot.jumps;
        r
    }

    fn run_loop(
        &mut self,
        verified: &VerifiedEntry<'_>,
        hot: &mut Hot,
    ) -> Result<RunOutcome, MachineError> {
        let entry = verified.entry();
        // Fuel spent by earlier runs on this machine is already in
        // `stats.steps`; the local counter starts at zero.
        let limit = self.fuel.saturating_sub(self.stats.steps);
        let mut ex = self.enter(entry, entry.root, self.tops(), &[], &[])?;
        // The dispatch loop matches instructions *by reference* out of
        // a local handle on the current chunk's code — no per-step
        // clone. Arms that switch chunks refresh the handle.
        let mut code = Arc::clone(&ex.code);
        let mut acc = BValue::Lit(Literal::Int(0));
        loop {
            let Some(instr) = code.get(ex.pc) else {
                return Err(MachineError::BadBytecode(format!(
                    "pc {} out of range in chunk {}",
                    ex.pc, ex.chunk
                )));
            };
            if hot.steps >= limit {
                // ERR aborts before the fuel check, like the tree
                // engines — tested here, on the cold path, so the hot
                // dispatch pays no extra branch.
                if let Instr::Err(msg) = instr {
                    return Ok(RunOutcome::Error(msg.to_string()));
                }
                return Err(MachineError::OutOfFuel { limit: self.fuel });
            }
            hot.steps += 1;
            let bases = ex.bases;
            match instr {
                Instr::Err(msg) => return Ok(RunOutcome::Error(msg.to_string())),
                Instr::Trap(e) => return Err((**e).clone()),
                Instr::Goto(t) => {
                    ex.pc = *t as usize;
                }
                Instr::GotoJ {
                    target,
                    args,
                    params,
                } => {
                    if !args.is_empty() {
                        // Join arguments carry static classes the
                        // verifier matched against the parameter
                        // binders: no width check. Every argument
                        // resolves before any parameter is written.
                        let atoms = self.atoms_of(args, bases)?;
                        for ((b, slot), a) in params.iter().zip(atoms) {
                            debug_assert!(
                                check_atom_class(*b, a).is_ok(),
                                "verified join bound {a} to {b}"
                            );
                            self.write_slot(bases, b.class, *slot, a)?;
                        }
                    }
                    hot.jumps += 1;
                    ex.pc = *target as usize;
                }
                Instr::MovW { dst, src } => {
                    self.words[bases[1] + *dst as usize] = self.wsrc(*src, bases);
                    ex.pc += 1;
                }
                Instr::MovD { dst, src } => {
                    self.doubles[bases[3] + *dst as usize] = self.dsrc(*src, bases);
                    ex.pc += 1;
                }
                Instr::MovF { dst, src } => {
                    self.floats[bases[2] + *dst as usize] = self.fsrc(*src, bases);
                    ex.pc += 1;
                }
                Instr::MovP { dst, src } => {
                    self.ptrs[bases[0] + *dst as usize] = self.psrc(*src, bases);
                    ex.pc += 1;
                }
                Instr::PrimW { op, dst, a, b } => {
                    let a = self.wsrc(*a, bases);
                    let b = self.wsrc(*b, bases);
                    hot.prim_ops += 1;
                    let r = word_prim2(*op, a, b)?;
                    self.words[bases[1] + *dst as usize] = r;
                    ex.pc += 1;
                }
                Instr::PrimW1 { op, dst, a } => {
                    let a = self.wsrc(*a, bases);
                    hot.prim_ops += 1;
                    let r = match (*op, a) {
                        (PrimOp::NegI, WordV::I(x)) => WordV::I(x.wrapping_neg()),
                        _ => WordV::of_lit(apply_prim(*op, &[a.lit()])?),
                    };
                    self.words[bases[1] + *dst as usize] = r;
                    ex.pc += 1;
                }
                Instr::PrimWJ {
                    op,
                    dst,
                    a,
                    b,
                    target,
                    join,
                } => {
                    let a = self.wsrc(*a, bases);
                    let b = self.wsrc(*b, bases);
                    hot.prim_ops += 1;
                    let r = word_prim2(*op, a, b)?;
                    self.words[bases[1] + *dst as usize] = r;
                    hot.fused_ops += 1;
                    if *join {
                        hot.jumps += 1;
                    }
                    ex.pc = *target as usize;
                }
                Instr::PrimD { op, dst, a, b } => {
                    let a = self.dsrc(*a, bases);
                    let b = self.dsrc(*b, bases);
                    hot.prim_ops += 1;
                    let r = match op {
                        PrimOp::AddD => a + b,
                        PrimOp::SubD => a - b,
                        PrimOp::MulD => a * b,
                        PrimOp::DivD => a / b,
                        _ => {
                            return Err(MachineError::BadBytecode(format!(
                                "prim.d does not implement {op}"
                            )))
                        }
                    };
                    self.doubles[bases[3] + *dst as usize] = r;
                    ex.pc += 1;
                }
                Instr::PrimDW { op, dst, a, b } => {
                    let a = self.dsrc(*a, bases);
                    let b = self.dsrc(*b, bases);
                    hot.prim_ops += 1;
                    let r = match op {
                        PrimOp::EqD => a == b,
                        PrimOp::LtD => a < b,
                        PrimOp::LeD => a <= b,
                        _ => {
                            return Err(MachineError::BadBytecode(format!(
                                "prim.dw does not implement {op}"
                            )))
                        }
                    };
                    self.words[bases[1] + *dst as usize] = WordV::I(i64::from(r));
                    ex.pc += 1;
                }
                Instr::PrimA { op, args } => {
                    let mut lits = Vec::with_capacity(args.len());
                    for s in args.iter() {
                        lits.push(self.literal_of(*s, bases)?);
                    }
                    hot.prim_ops += 1;
                    acc = BValue::Lit(apply_prim(*op, &lits)?);
                    ex.pc += 1;
                }
                Instr::CmpBrW {
                    op,
                    a,
                    b,
                    on_true,
                    on_false,
                } => {
                    let a = self.wsrc(*a, bases);
                    let b = self.wsrc(*b, bases);
                    hot.prim_ops += 1;
                    let taken = matches!(word_prim2(*op, a, b)?, WordV::I(1));
                    hot.fused_ops += 1;
                    ex.pc = if taken { *on_true } else { *on_false } as usize;
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
                    let va = self.wsrc(*a, bases);
                    let vb = self.wsrc(*b, bases);
                    hot.prim_ops += 1;
                    let taken = matches!(word_prim2(*op, va, vb)?, WordV::I(1));
                    hot.fused_ops += 1;
                    if taken {
                        ex.pc = *on_true as usize;
                        continue;
                    }
                    // False edge: the floated prim plus the fused call.
                    let va = self.wsrc(prim.a, bases);
                    let vb = self.wsrc(prim.b, bases);
                    hot.prim_ops += 1;
                    let r = word_prim2(prim.op, va, vb)?;
                    self.words[bases[1] + prim.dst as usize] = r;
                    self.push_frame(BFrame::RetW {
                        chunk: ex.chunk,
                        pc: *resume,
                        bases,
                        binds: Arc::clone(binds),
                    });
                    let chunk = *chunk;
                    let new_bases = self.tops();
                    // A self-recursive call keeps the chunk and code
                    // handle — no chunk fetch, no `Arc` traffic.
                    let callee = if chunk == ex.chunk {
                        self.grow_frame_sizes(ex.frame, new_bases);
                        None
                    } else {
                        let c = self.chunk_of(entry, chunk)?;
                        self.grow_frame(&c, new_bases);
                        Some(c)
                    };
                    // Caller registers keep their indexes across the
                    // grow, so arguments copy frame-to-frame directly.
                    for (i, s) in args.iter().enumerate() {
                        let v = self.wsrc(*s, bases);
                        self.words[new_bases[1] + i] = v;
                    }
                    match callee {
                        None => {
                            ex.pc = 0;
                            ex.bases = new_bases;
                        }
                        Some(c) => {
                            ex = Exec {
                                chunk,
                                code: Arc::clone(&c.code),
                                pc: 0,
                                bases: new_bases,
                                frame: c.frame,
                            };
                            code = Arc::clone(&ex.code);
                        }
                    }
                }
                Instr::BrEqW {
                    src,
                    lit,
                    on_eq,
                    default,
                } => {
                    let w = self.wsrc(*src, bases);
                    if w.lit() == *lit {
                        ex.pc = *on_eq as usize;
                    } else {
                        let BDefault {
                            binder,
                            slot,
                            target,
                        } = *default;
                        // The verifier proved the default binder
                        // word-class: rebind the scrutinee with a
                        // straight register write.
                        debug_assert!(
                            binder.class == Slot::Word,
                            "verified br.eq default binder {binder} is not word-class"
                        );
                        self.words[bases[1] + slot as usize] = w;
                        ex.pc = target as usize;
                    }
                }
                Instr::SwitchW { src, arms, default } => {
                    let w = self.wsrc(*src, bases);
                    let l = w.lit();
                    let mut taken = None;
                    for (arm, t) in arms.iter() {
                        if *arm == l {
                            taken = Some(*t);
                            break;
                        }
                    }
                    match taken {
                        Some(t) => ex.pc = t as usize,
                        None => match *default {
                            Some(BDefault {
                                binder,
                                slot,
                                target,
                            }) => {
                                // Verified: the default binder is
                                // word-class, rebind directly.
                                debug_assert!(
                                    binder.class == Slot::Word,
                                    "verified switch.w default binder {binder} is not word-class"
                                );
                                self.words[bases[1] + slot as usize] = w;
                                ex.pc = target as usize;
                            }
                            None => return Err(MachineError::NoMatchingAlt(l.to_string())),
                        },
                    }
                }
                Instr::SwitchA { alts, default } => {
                    // A default alternative boxes a Clos/Con scrutinee
                    // (an allocation); collect first if due.
                    if matches!(acc, BValue::Clos { .. } | BValue::Con(..)) && self.gc_pressure() {
                        self.collect_garbage(verified, &ex, &mut acc)?;
                    }
                    ex.pc = self.switch_acc(&acc, alts, *default, bases)?;
                }
                Instr::AccW(s) => {
                    acc = BValue::Lit(self.wsrc(*s, bases).lit());
                    ex.pc += 1;
                }
                Instr::AccD(s) => {
                    acc = BValue::Lit(Literal::DoubleBits(self.dsrc(*s, bases).to_bits()));
                    ex.pc += 1;
                }
                Instr::AccF(s) => {
                    acc = BValue::Lit(Literal::FloatBits(self.fsrc(*s, bases)));
                    ex.pc += 1;
                }
                Instr::EvalP(s) => {
                    let addr = self.psrc(*s, bases);
                    match self.eval_addr(entry, addr, &ex)? {
                        Some(exec) => {
                            ex = exec;
                            code = Arc::clone(&ex.code);
                        }
                        None => {
                            let BCell::Value(w) = &self.heap[addr.0 as usize] else {
                                unreachable!("eval_addr said value");
                            };
                            self.stats.var_lookups += 1;
                            acc = w.clone();
                            ex.pc += 1;
                        }
                    }
                }
                Instr::MkCon { con, args } => {
                    let atoms: Arc<[Atom]> = self.atoms_of(args, bases)?.into();
                    self.stats.con_allocs += 1;
                    self.stats.allocated_words += 1 + atoms.len() as u64;
                    self.check_alloc_limit()?;
                    acc = BValue::Con(Arc::clone(con), atoms);
                    ex.pc += 1;
                }
                Instr::MkMulti { args } => {
                    acc = BValue::Multi(self.atoms_of(args, bases)?);
                    ex.pc += 1;
                }
                Instr::RetMulti { args } => {
                    acc = BValue::Multi(self.atoms_of(args, bases)?);
                    hot.fused_ops += 1;
                    self.truncate_to(bases);
                    match self.pop_return(entry, acc)? {
                        Popped::Done(outcome) => return Ok(outcome),
                        Popped::Resume(exec, a) => {
                            ex = exec;
                            code = Arc::clone(&ex.code);
                            acc = a;
                        }
                    }
                }
                Instr::BindMulti { binds } => {
                    match &acc {
                        BValue::Multi(fields) => {
                            if binds.len() != fields.len() {
                                return Err(MachineError::InvalidState(
                                    "multi-value arity mismatch".to_owned(),
                                ));
                            }
                            let fields = fields.clone();
                            self.bind_fields(bases, binds, &fields)?;
                        }
                        other => {
                            return Err(MachineError::InvalidState(format!(
                                "case-of-multi scrutinee evaluated to {other}"
                            )))
                        }
                    }
                    ex.pc += 1;
                }
                Instr::MkClos { chunk, caps } => {
                    let chunk = *chunk;
                    let atoms: Arc<[Atom]> = self.atoms_of(caps, bases)?.into();
                    let c = self.chunk_of(entry, chunk)?;
                    let binder = *c.params.first().ok_or_else(|| {
                        MachineError::BadBytecode(format!(
                            "closure chunk {} has no parameter",
                            c.label
                        ))
                    })?;
                    acc = BValue::Clos {
                        binder,
                        chunk,
                        caps: atoms,
                    };
                    ex.pc += 1;
                }
                Instr::MkThunk { chunk, caps, dst } => {
                    if self.gc_pressure() {
                        self.collect_garbage(verified, &ex, &mut acc)?;
                    }
                    let addr = self.alloc(BCell::Blackhole);
                    self.ptrs[bases[0] + *dst as usize] = addr;
                    // Captures resolve *after* the address is written,
                    // so cyclic thunks capture themselves.
                    let atoms: Arc<[Atom]> = self.atoms_of(caps, bases)?.into();
                    self.heap[addr.0 as usize] = BCell::Thunk(*chunk, atoms);
                    self.stats.thunk_allocs += 1;
                    self.stats.allocated_words += 2;
                    self.check_alloc_limit()?;
                    ex.pc += 1;
                }
                Instr::BindAcc { binder, slot } => {
                    // Boxing a Clos/Con accumulator allocates a cell.
                    if matches!(acc, BValue::Clos { .. } | BValue::Con(..)) && self.gc_pressure() {
                        self.collect_garbage(verified, &ex, &mut acc)?;
                    }
                    let atom = match &acc {
                        BValue::Lit(l) => Atom::Lit(*l),
                        BValue::Clos { .. } | BValue::Con(..) => self.value_to_atom(acc.clone())?,
                        BValue::Multi(_) => {
                            return Err(MachineError::InvalidState(
                                "let! of a multi-value; use case-of-multi".to_owned(),
                            ))
                        }
                    };
                    check_atom_class(*binder, atom)?;
                    self.write_slot(bases, binder.class, *slot, atom)?;
                    ex.pc += 1;
                }
                Instr::PushRet { resume } => {
                    self.push_frame(BFrame::Ret {
                        chunk: ex.chunk,
                        pc: *resume,
                        bases,
                    });
                    ex.pc += 1;
                }
                Instr::PushArg(s) => {
                    let atom = self.atom_of(*s, bases)?;
                    self.push_frame(BFrame::Arg(atom));
                    ex.pc += 1;
                }
                Instr::CallF { chunk, args, tail } => {
                    let (chunk, tail) = (*chunk, *tail);
                    if tail && chunk == ex.chunk && args.len() <= SELF_CALL_BUF {
                        // Self tail-call: the frame shape is identical,
                        // so rewrite the parameter slots in place and
                        // take the back-edge. Every argument is
                        // resolved into a fixed buffer *before* any
                        // parameter slot is written (an argument may
                        // read a parameter register) — no allocation
                        // on the hot path.
                        let mut buf = [Atom::Lit(Literal::Int(0)); SELF_CALL_BUF];
                        for (i, s) in args.iter().enumerate() {
                            buf[i] = self.atom_of(*s, bases)?;
                        }
                        let mut cursors = [0usize; 4];
                        for a in &buf[..args.len()] {
                            self.write_entry_atom(bases, &mut cursors, *a)?;
                        }
                        ex.pc = 0;
                    } else {
                        let atoms = self.atoms_of(args, bases)?;
                        if tail && chunk == ex.chunk {
                            let mut cursors = [0usize; 4];
                            for a in &atoms {
                                self.write_entry_atom(bases, &mut cursors, *a)?;
                            }
                            ex.pc = 0;
                        } else if tail {
                            self.truncate_to(bases);
                            ex = self.enter(entry, chunk, bases, &[], &atoms)?;
                            code = Arc::clone(&ex.code);
                        } else {
                            ex = self.enter(entry, chunk, self.tops(), &[], &atoms)?;
                            code = Arc::clone(&ex.code);
                        }
                    }
                }
                Instr::CallW { args } => {
                    // All operands resolve before any parameter slot
                    // is rewritten (an argument may read a parameter).
                    match args[..] {
                        [s0] => {
                            self.words[bases[1]] = self.wsrc(s0, bases);
                        }
                        [s0, s1] => {
                            let v0 = self.wsrc(s0, bases);
                            let v1 = self.wsrc(s1, bases);
                            self.words[bases[1]] = v0;
                            self.words[bases[1] + 1] = v1;
                        }
                        _ => {
                            let n = args.len();
                            debug_assert!(
                                n <= SELF_CALL_BUF,
                                "verified call.self.w arity {n} exceeds the self-call buffer"
                            );
                            let mut buf = [WordV::I(0); SELF_CALL_BUF];
                            for (i, s) in args.iter().enumerate() {
                                buf[i] = self.wsrc(*s, bases);
                            }
                            self.words[bases[1]..bases[1] + n].copy_from_slice(&buf[..n]);
                        }
                    }
                    hot.fused_ops += 1;
                    ex.pc = 0;
                }
                Instr::PrimCallW {
                    op,
                    dst,
                    a,
                    b,
                    args,
                } => {
                    let va = self.wsrc(*a, bases);
                    let vb = self.wsrc(*b, bases);
                    hot.prim_ops += 1;
                    let r = word_prim2(*op, va, vb)?;
                    let dst = *dst;
                    // `dst` is dead after the back-edge: occurrences
                    // among the arguments read the fresh result, the
                    // register itself is never written.
                    let rd = |s: WSrc, m: &Self| match s {
                        WSrc::R(rg) if rg == dst => r,
                        s => m.wsrc(s, bases),
                    };
                    match args[..] {
                        [s0] => {
                            self.words[bases[1]] = rd(s0, self);
                        }
                        [s0, s1] => {
                            let v0 = rd(s0, self);
                            let v1 = rd(s1, self);
                            self.words[bases[1]] = v0;
                            self.words[bases[1] + 1] = v1;
                        }
                        _ => {
                            let n = args.len();
                            debug_assert!(
                                n <= SELF_CALL_BUF,
                                "verified call.self.w arity {n} exceeds the self-call buffer"
                            );
                            let mut buf = [WordV::I(0); SELF_CALL_BUF];
                            for (i, s) in args.iter().enumerate() {
                                buf[i] = rd(*s, self);
                            }
                            self.words[bases[1]..bases[1] + n].copy_from_slice(&buf[..n]);
                        }
                    }
                    hot.fused_ops += 1;
                    ex.pc = 0;
                }
                Instr::PrimCallFW {
                    prim,
                    chunk,
                    resume,
                    args,
                    binds,
                } => {
                    let va = self.wsrc(prim.a, bases);
                    let vb = self.wsrc(prim.b, bases);
                    hot.prim_ops += 1;
                    let r = word_prim2(prim.op, va, vb)?;
                    self.words[bases[1] + prim.dst as usize] = r;
                    self.push_frame(BFrame::RetW {
                        chunk: ex.chunk,
                        pc: *resume,
                        bases,
                        binds: Arc::clone(binds),
                    });
                    let chunk = *chunk;
                    let new_bases = self.tops();
                    // A self-recursive call keeps the chunk and code
                    // handle — no chunk fetch, no `Arc` traffic.
                    let callee = if chunk == ex.chunk {
                        self.grow_frame_sizes(ex.frame, new_bases);
                        None
                    } else {
                        let c = self.chunk_of(entry, chunk)?;
                        self.grow_frame(&c, new_bases);
                        Some(c)
                    };
                    // Caller registers keep their indexes across the
                    // grow, so arguments copy frame-to-frame directly.
                    for (i, s) in args.iter().enumerate() {
                        let v = self.wsrc(*s, bases);
                        self.words[new_bases[1] + i] = v;
                    }
                    hot.fused_ops += 1;
                    match callee {
                        None => {
                            ex.pc = 0;
                            ex.bases = new_bases;
                        }
                        Some(c) => {
                            ex = Exec {
                                chunk,
                                code: Arc::clone(&c.code),
                                pc: 0,
                                bases: new_bases,
                                frame: c.frame,
                            };
                            code = Arc::clone(&ex.code);
                        }
                    }
                }
                Instr::PrimRetMultiW { prim, args } => {
                    let va = self.wsrc(prim.a, bases);
                    let vb = self.wsrc(prim.b, bases);
                    hot.prim_ops += 1;
                    let r = word_prim2(prim.op, va, vb)?;
                    self.words[bases[1] + prim.dst as usize] = r;
                    let n = args.len();
                    hot.fused_ops += 1;
                    match self.stack.pop() {
                        Some(BFrame::RetW {
                            chunk,
                            pc,
                            bases: cb,
                            binds,
                        }) if binds.len() == n => {
                            // The caller's bind slots sit below the
                            // callee frame, so they can be written
                            // before the truncate while the sources
                            // are still live.
                            for ((_, slot), s) in binds.iter().zip(args.iter()) {
                                let v = self.wsrc(*s, bases);
                                self.words[cb[1] + *slot as usize] = v;
                            }
                            self.truncate_to(bases);
                            if chunk == ex.chunk {
                                // Returning into the same chunk (deep
                                // self-recursion): keep the code
                                // handle.
                                ex.pc = pc as usize;
                                ex.bases = cb;
                            } else {
                                let c = self.chunk_of(entry, chunk)?;
                                ex = Exec {
                                    chunk,
                                    code: Arc::clone(&c.code),
                                    pc: pc as usize,
                                    bases: cb,
                                    frame: c.frame,
                                };
                                code = Arc::clone(&ex.code);
                            }
                            continue;
                        }
                        fr => {
                            if let Some(fr) = fr {
                                self.stack.push(fr);
                            }
                        }
                    }
                    {
                        let v = BValue::Multi(
                            args.iter()
                                .map(|s| Atom::Lit(self.wsrc(*s, bases).lit()))
                                .collect(),
                        );
                        self.truncate_to(bases);
                        match self.pop_return(entry, v)? {
                            Popped::Done(outcome) => return Ok(outcome),
                            Popped::Resume(exec, a) => {
                                ex = exec;
                                code = Arc::clone(&ex.code);
                                acc = a;
                            }
                        }
                    }
                }
                Instr::CallFW {
                    chunk,
                    resume,
                    args,
                    binds,
                } => {
                    self.push_frame(BFrame::RetW {
                        chunk: ex.chunk,
                        pc: *resume,
                        bases,
                        binds: Arc::clone(binds),
                    });
                    let chunk = *chunk;
                    let new_bases = self.tops();
                    // A self-recursive call keeps the chunk and code
                    // handle — no chunk fetch, no `Arc` traffic.
                    let callee = if chunk == ex.chunk {
                        self.grow_frame_sizes(ex.frame, new_bases);
                        None
                    } else {
                        let c = self.chunk_of(entry, chunk)?;
                        self.grow_frame(&c, new_bases);
                        Some(c)
                    };
                    // Caller registers keep their indexes across the
                    // grow, so arguments copy frame-to-frame directly.
                    for (i, s) in args.iter().enumerate() {
                        let v = self.wsrc(*s, bases);
                        self.words[new_bases[1] + i] = v;
                    }
                    hot.fused_ops += 1;
                    match callee {
                        None => {
                            ex.pc = 0;
                            ex.bases = new_bases;
                        }
                        Some(c) => {
                            ex = Exec {
                                chunk,
                                code: Arc::clone(&c.code),
                                pc: 0,
                                bases: new_bases,
                                frame: c.frame,
                            };
                            code = Arc::clone(&ex.code);
                        }
                    }
                }
                Instr::RetMultiW { args } => {
                    let n = args.len();
                    hot.fused_ops += 1;
                    // Hot path: the caller fused its bind into the
                    // frame, and classes are word/word by construction
                    // on both sides — straight register writes.
                    match self.stack.pop() {
                        Some(BFrame::RetW {
                            chunk,
                            pc,
                            bases: cb,
                            binds,
                        }) if binds.len() == n => {
                            // The caller's bind slots sit below the
                            // callee frame, so they can be written
                            // before the truncate while the sources
                            // are still live.
                            for ((_, slot), s) in binds.iter().zip(args.iter()) {
                                let v = self.wsrc(*s, bases);
                                self.words[cb[1] + *slot as usize] = v;
                            }
                            self.truncate_to(bases);
                            if chunk == ex.chunk {
                                // Returning into the same chunk (deep
                                // self-recursion): keep the code
                                // handle.
                                ex.pc = pc as usize;
                                ex.bases = cb;
                            } else {
                                let c = self.chunk_of(entry, chunk)?;
                                ex = Exec {
                                    chunk,
                                    code: Arc::clone(&c.code),
                                    pc: pc as usize,
                                    bases: cb,
                                    frame: c.frame,
                                };
                                code = Arc::clone(&ex.code);
                            }
                            continue;
                        }
                        fr => {
                            if let Some(fr) = fr {
                                self.stack.push(fr);
                            }
                        }
                    }
                    {
                        let v = BValue::Multi(
                            args.iter()
                                .map(|s| Atom::Lit(self.wsrc(*s, bases).lit()))
                                .collect(),
                        );
                        self.truncate_to(bases);
                        match self.pop_return(entry, v)? {
                            Popped::Done(outcome) => return Ok(outcome),
                            Popped::Resume(exec, a) => {
                                ex = exec;
                                code = Arc::clone(&ex.code);
                                acc = a;
                            }
                        }
                    }
                }
                Instr::EnterG { chunk, tail } => {
                    if *tail {
                        self.truncate_to(bases);
                        ex = self.enter(entry, *chunk, bases, &[], &[])?;
                    } else {
                        ex = self.enter(entry, *chunk, self.tops(), &[], &[])?;
                    }
                    code = Arc::clone(&ex.code);
                }
                Instr::ApplyA => match self.pop_return(entry, acc)? {
                    Popped::Done(outcome) => return Ok(outcome),
                    Popped::Resume(exec, a) => {
                        ex = exec;
                        code = Arc::clone(&ex.code);
                        acc = a;
                    }
                },
                Instr::RetW(s) => {
                    acc = BValue::Lit(self.wsrc(*s, bases).lit());
                    self.truncate_to(bases);
                    match self.pop_return(entry, acc)? {
                        Popped::Done(outcome) => return Ok(outcome),
                        Popped::Resume(exec, a) => {
                            ex = exec;
                            code = Arc::clone(&ex.code);
                            acc = a;
                        }
                    }
                }
                Instr::RetD(s) => {
                    acc = BValue::Lit(Literal::DoubleBits(self.dsrc(*s, bases).to_bits()));
                    self.truncate_to(bases);
                    match self.pop_return(entry, acc)? {
                        Popped::Done(outcome) => return Ok(outcome),
                        Popped::Resume(exec, a) => {
                            ex = exec;
                            code = Arc::clone(&ex.code);
                            acc = a;
                        }
                    }
                }
                Instr::RetF(s) => {
                    acc = BValue::Lit(Literal::FloatBits(self.fsrc(*s, bases)));
                    self.truncate_to(bases);
                    match self.pop_return(entry, acc)? {
                        Popped::Done(outcome) => return Ok(outcome),
                        Popped::Resume(exec, a) => {
                            ex = exec;
                            code = Arc::clone(&ex.code);
                            acc = a;
                        }
                    }
                }
                Instr::RetA => {
                    self.truncate_to(bases);
                    match self.pop_return(entry, acc)? {
                        Popped::Done(outcome) => return Ok(outcome),
                        Popped::Resume(exec, a) => {
                            ex = exec;
                            code = Arc::clone(&ex.code);
                            acc = a;
                        }
                    }
                }
            }
        }
    }

    /// `SwitchA` dispatch on the accumulator — in lock-step with the
    /// environment engine's `Case` frame. Returns the next pc.
    fn switch_acc(
        &mut self,
        acc: &BValue,
        alts: &[BAlt],
        default: Option<BDefault>,
        bases: [usize; 4],
    ) -> Result<usize, MachineError> {
        match acc {
            BValue::Con(c, fields) => {
                for alt in alts {
                    if let BAlt::Con { con, binds, target } = alt {
                        if con.name == c.name {
                            if binds.len() != fields.len() {
                                return Err(MachineError::InvalidState(format!(
                                    "constructor {c} arity mismatch in case"
                                )));
                            }
                            let fields = Arc::clone(fields);
                            self.bind_fields(bases, binds, &fields)?;
                            return Ok(*target as usize);
                        }
                    }
                }
                self.switch_default(acc, default, bases)
            }
            BValue::Lit(l) => {
                for alt in alts {
                    if let BAlt::Lit(l2, target) = alt {
                        if l2 == l {
                            return Ok(*target as usize);
                        }
                    }
                }
                self.switch_default(acc, default, bases)
            }
            BValue::Clos { .. } => self.switch_default(acc, default, bases),
            BValue::Multi(_) => Err(MachineError::InvalidState(
                "case on a multi-value; use case-of-multi".to_owned(),
            )),
        }
    }

    fn switch_default(
        &mut self,
        acc: &BValue,
        default: Option<BDefault>,
        bases: [usize; 4],
    ) -> Result<usize, MachineError> {
        match default {
            Some(BDefault {
                binder,
                slot,
                target,
            }) => {
                let atom = self.value_to_atom(acc.clone())?;
                check_atom_class(binder, atom)?;
                self.write_slot(bases, binder.class, slot, atom)?;
                Ok(target as usize)
            }
            None => Err(MachineError::NoMatchingAlt(acc.to_string())),
        }
    }
}

/// A two-argument word primop with no tag dispatch on the `(I, I)`
/// fast path; `Char#` operands (statically word-class, dynamically
/// wrong for the integer family) and division misfires fall back to
/// [`apply_prim`] so the error payload matches the tree engines
/// exactly.
#[inline]
fn word_prim2(op: PrimOp, a: WordV, b: WordV) -> Result<WordV, MachineError> {
    if let (WordV::I(x), WordV::I(y)) = (a, b) {
        let r = match op {
            PrimOp::AddI => WordV::I(x.wrapping_add(y)),
            PrimOp::SubI => WordV::I(x.wrapping_sub(y)),
            PrimOp::MulI => WordV::I(x.wrapping_mul(y)),
            PrimOp::QuotI => match x.checked_div(y) {
                Some(v) => WordV::I(v),
                None => return Err(apply_prim(op, &[a.lit(), b.lit()]).unwrap_err().into()),
            },
            PrimOp::RemI => match x.checked_rem(y) {
                Some(v) => WordV::I(v),
                None => return Err(apply_prim(op, &[a.lit(), b.lit()]).unwrap_err().into()),
            },
            PrimOp::EqI => WordV::I(i64::from(x == y)),
            PrimOp::NeI => WordV::I(i64::from(x != y)),
            PrimOp::LtI => WordV::I(i64::from(x < y)),
            PrimOp::LeI => WordV::I(i64::from(x <= y)),
            PrimOp::GtI => WordV::I(i64::from(x > y)),
            PrimOp::GeI => WordV::I(i64::from(x >= y)),
            _ => WordV::of_lit(apply_prim(op, &[a.lit(), b.lit()])?),
        };
        return Ok(r);
    }
    Ok(WordV::of_lit(apply_prim(op, &[a.lit(), b.lit()])?))
}

/// Compiles nothing — verifies an already-compiled entry against the
/// program witness, then runs it on a fresh machine, returning the
/// outcome and statistics. Mirrors [`crate::env::run_compiled`].
///
/// # Errors
///
/// [`MachineError::Unverified`] if the entry fails verification;
/// otherwise see [`BcMachine::run`].
pub fn run_bytecode(
    program: &VerifiedProgram,
    entry: &BcEntry,
    fuel: u64,
) -> Result<(RunOutcome, MachineStats), MachineError> {
    let entry = program.verify_entry(entry)?;
    let mut machine = BcMachine::new(Arc::clone(program.program()));
    machine.set_fuel(fuel);
    let outcome = machine.run(&entry)?;
    Ok((outcome, *machine.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CodeProgram;
    use crate::machine::Globals;
    use crate::syntax::{Alt, JoinDef, MExpr};
    use crate::verify::verify;

    fn int_atom(n: i64) -> Atom {
        Atom::Lit(Literal::Int(n))
    }

    fn run_t(t: Arc<MExpr>) -> RunOutcome {
        run_with(Globals::new(), t).expect("machine failure").0
    }

    fn run_with(
        globals: Globals,
        t: Arc<MExpr>,
    ) -> Result<(RunOutcome, MachineStats), MachineError> {
        let program = CodeProgram::compile(&globals);
        let bc = Arc::new(BcProgram::compile(&program));
        let entry = bc.compile_entry(&program.compile_entry(&t));
        let verified = verify(&bc).expect("compiled programs verify");
        run_bytecode(&verified, &entry, crate::machine::Machine::DEFAULT_FUEL)
    }

    #[test]
    fn beta_reduction_through_the_word_stack() {
        let t = MExpr::app(MExpr::lam(Binder::int("i"), MExpr::var("i")), int_atom(42));
        assert_eq!(run_t(t), RunOutcome::Value(Value::Lit(Literal::Int(42))));
    }

    #[test]
    fn closures_capture_registers() {
        // ((λa. λb. a) 10#) 20#
        let t = MExpr::apps(
            MExpr::lams([Binder::int("a"), Binder::int("b")], MExpr::var("a")),
            [int_atom(10), int_atom(20)],
        );
        assert_eq!(run_t(t), RunOutcome::Value(Value::Lit(Literal::Int(10))));
    }

    #[test]
    fn partial_application_reads_back_the_lambda() {
        // (λa. λb. +# a b) 1# — readback substitutes the capture.
        let t = MExpr::app(
            MExpr::lams(
                [Binder::int("a"), Binder::int("b")],
                MExpr::prim(
                    PrimOp::AddI,
                    vec![Atom::Var("a".into()), Atom::Var("b".into())],
                ),
            ),
            int_atom(1),
        );
        let RunOutcome::Value(Value::Lam(b, body)) = run_t(t) else {
            panic!("expected a lambda back");
        };
        assert_eq!(b, Binder::int("b"));
        assert_eq!(
            body,
            MExpr::prim(PrimOp::AddI, vec![int_atom(1), Atom::Var("b".into())])
        );
    }

    #[test]
    fn lazy_sharing_counts_one_force_and_one_update() {
        // let x = <thunk 7#> in let! a = x in let! b = x in +# a b
        let t = MExpr::let_lazy(
            "x",
            MExpr::int(7),
            MExpr::let_strict(
                Binder::int("a"),
                MExpr::var("x"),
                MExpr::let_strict(
                    Binder::int("b"),
                    MExpr::var("x"),
                    MExpr::prim(
                        PrimOp::AddI,
                        vec![Atom::Var("a".into()), Atom::Var("b".into())],
                    ),
                ),
            ),
        );
        let (outcome, stats) = run_with(Globals::new(), t).unwrap();
        assert_eq!(outcome, RunOutcome::Value(Value::Lit(Literal::Int(14))));
        assert_eq!(stats.thunk_forces, 1);
        assert_eq!(stats.var_lookups, 1);
        assert_eq!(stats.updates, 1);
        assert_eq!(stats.thunk_allocs, 1);
    }

    #[test]
    fn cyclic_thunk_is_a_loop() {
        // let x = <thunk forcing x> in x — the blackhole catches it.
        let t = MExpr::let_lazy(
            "x",
            MExpr::let_strict(Binder::ptr("y"), MExpr::var("x"), MExpr::var("y")),
            MExpr::var("x"),
        );
        assert_eq!(run_with(Globals::new(), t).unwrap_err(), MachineError::Loop);
    }

    #[test]
    fn width_checks_fire_at_runtime_boundaries() {
        // (λd:double. d) 1# — the application's width check.
        let t = MExpr::app(
            MExpr::lam(Binder::new("d", Slot::Double), MExpr::var("d")),
            int_atom(1),
        );
        assert_eq!(
            run_with(Globals::new(), t).unwrap_err(),
            MachineError::ClassMismatch {
                binder: "d".into(),
                expected: Slot::Double,
                actual: Slot::Word,
            }
        );
    }

    #[test]
    fn unboxed_recursion_allocates_nothing() {
        // sumTo# as a global λ-chain: acc-loop with a self tail-call.
        let mut globals = Globals::new();
        globals.define(
            "sumTo",
            MExpr::lams(
                [Binder::int("acc"), Binder::int("n")],
                MExpr::case(
                    MExpr::prim(
                        PrimOp::LtI,
                        vec![Atom::Var("n".into()), Atom::Lit(Literal::Int(1))],
                    ),
                    vec![
                        Alt::Lit(Literal::Int(1), MExpr::var("acc")),
                        Alt::Lit(
                            Literal::Int(0),
                            MExpr::let_strict(
                                Binder::int("acc2"),
                                MExpr::prim(
                                    PrimOp::AddI,
                                    vec![Atom::Var("acc".into()), Atom::Var("n".into())],
                                ),
                                MExpr::let_strict(
                                    Binder::int("n2"),
                                    MExpr::prim(
                                        PrimOp::SubI,
                                        vec![Atom::Var("n".into()), Atom::Lit(Literal::Int(1))],
                                    ),
                                    MExpr::apps(
                                        MExpr::global("sumTo"),
                                        [Atom::Var("acc2".into()), Atom::Var("n2".into())],
                                    ),
                                ),
                            ),
                        ),
                    ],
                    None,
                ),
            ),
        );
        let t = MExpr::apps(MExpr::global("sumTo"), [int_atom(0), int_atom(100)]);
        let (outcome, stats) = run_with(globals, t).unwrap();
        assert_eq!(outcome, RunOutcome::Value(Value::Lit(Literal::Int(5050))));
        assert_eq!(stats.allocated_words, 0, "unboxed loop must not allocate");
        assert_eq!(stats.thunk_allocs, 0);
        assert_eq!(stats.con_allocs, 0);
    }

    #[test]
    fn errors_and_unknowns_are_structured() {
        assert_eq!(
            run_t(MExpr::error("boom")),
            RunOutcome::Error("boom".to_owned())
        );
        assert_eq!(
            run_with(Globals::new(), MExpr::var("nope")).unwrap_err(),
            MachineError::UnboundVariable("nope".into())
        );
        assert_eq!(
            run_with(Globals::new(), MExpr::global("nope")).unwrap_err(),
            MachineError::UnknownGlobal("nope".into())
        );
        assert_eq!(
            run_with(Globals::new(), MExpr::jump("nowhere", vec![int_atom(1)])).unwrap_err(),
            MachineError::UnknownJoin("nowhere".into())
        );
    }

    #[test]
    fn multi_values_stay_unboxed() {
        // case (# 3#, 4# #) of (# a, b #) -> +# a b
        let t = Arc::new(MExpr::CaseMulti(
            Arc::new(MExpr::MultiVal(vec![int_atom(3), int_atom(4)])),
            vec![Binder::int("a"), Binder::int("b")],
            MExpr::prim(
                PrimOp::AddI,
                vec![Atom::Var("a".into()), Atom::Var("b".into())],
            ),
        ));
        let (outcome, stats) = run_with(Globals::new(), t).unwrap();
        assert_eq!(outcome, RunOutcome::Value(Value::Lit(Literal::Int(7))));
        assert_eq!(stats.allocated_words, 0);
    }

    #[test]
    fn constructor_case_binds_fields() {
        // case MkPair[1#, 2#] of { MkPair a b -> -# a b }
        let pair = DataCon {
            name: "MkPair".into(),
            tag: 0,
            fields: [Slot::Word, Slot::Word].into(),
        };
        let t = MExpr::case(
            Arc::new(MExpr::Con(pair.clone(), vec![int_atom(1), int_atom(2)])),
            vec![Alt::Con(
                pair,
                vec![Binder::int("a"), Binder::int("b")],
                MExpr::prim(
                    PrimOp::SubI,
                    vec![Atom::Var("a".into()), Atom::Var("b".into())],
                ),
            )],
            None,
        );
        let (outcome, stats) = run_with(Globals::new(), t).unwrap();
        assert_eq!(outcome, RunOutcome::Value(Value::Lit(Literal::Int(-1))));
        assert_eq!(stats.con_allocs, 1);
        assert_eq!(stats.allocated_words, 3);
    }

    #[test]
    fn join_loops_run_on_the_word_stack() {
        // join loop (acc, n) = if n < 1 then acc else loop (acc+n, n-1)
        let def = Arc::new(JoinDef {
            name: "loop".into(),
            params: vec![Binder::int("acc"), Binder::int("n")],
            body: MExpr::case(
                MExpr::prim(
                    PrimOp::LtI,
                    vec![Atom::Var("n".into()), Atom::Lit(Literal::Int(1))],
                ),
                vec![
                    Alt::Lit(Literal::Int(1), MExpr::var("acc")),
                    Alt::Lit(
                        Literal::Int(0),
                        MExpr::let_strict(
                            Binder::int("acc2"),
                            MExpr::prim(
                                PrimOp::AddI,
                                vec![Atom::Var("acc".into()), Atom::Var("n".into())],
                            ),
                            MExpr::let_strict(
                                Binder::int("n2"),
                                MExpr::prim(
                                    PrimOp::SubI,
                                    vec![Atom::Var("n".into()), Atom::Lit(Literal::Int(1))],
                                ),
                                MExpr::jump(
                                    "loop",
                                    vec![Atom::Var("acc2".into()), Atom::Var("n2".into())],
                                ),
                            ),
                        ),
                    ),
                ],
                None,
            ),
        });
        let t = MExpr::let_join(def, MExpr::jump("loop", vec![int_atom(0), int_atom(10)]));
        let (outcome, stats) = run_with(Globals::new(), t).unwrap();
        assert_eq!(outcome, RunOutcome::Value(Value::Lit(Literal::Int(55))));
        assert_eq!(stats.allocated_words, 0);
        assert_eq!(stats.jumps, 11);
        assert!(stats.fused_ops > 0, "the loop back-edge should fuse");
    }

    #[test]
    fn fuel_runs_out_structurally() {
        let mut globals = Globals::new();
        globals.define("spin", MExpr::global("spin"));
        let program = CodeProgram::compile(&globals);
        let bc = Arc::new(BcProgram::compile(&program));
        let entry = bc.compile_entry(&program.compile_entry(&MExpr::global("spin")));
        let verified = verify(&bc).unwrap();
        assert_eq!(
            run_bytecode(&verified, &entry, 1000).unwrap_err(),
            MachineError::OutOfFuel { limit: 1000 }
        );
    }

    #[test]
    fn doubles_never_touch_the_word_stack() {
        // A pure double computation: word stack high-water must be 0
        // apart from the boolean-free paths (no word binders at all).
        let t = MExpr::let_strict(
            Binder::new("x", Slot::Double),
            MExpr::prim(
                PrimOp::AddD,
                vec![
                    Atom::Lit(Literal::double(1.5)),
                    Atom::Lit(Literal::double(2.0)),
                ],
            ),
            MExpr::var("x"),
        );
        let program = CodeProgram::compile(&Globals::new());
        let bc = Arc::new(BcProgram::compile(&program));
        let entry = bc.compile_entry(&program.compile_entry(&t));
        let verified = verify(&bc).unwrap();
        let mut machine = BcMachine::new(bc);
        let outcome = machine
            .run(&verified.verify_entry(&entry).unwrap())
            .unwrap();
        assert_eq!(outcome, RunOutcome::Value(Value::Lit(Literal::double(3.5))));
        let high = machine.stack_high_water();
        assert_eq!(high[1], 0, "no word slots for a double program");
        assert!(high[3] > 0, "the double stack did the work");
    }
}
