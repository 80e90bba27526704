//! The operational semantics of `M` (Figure 6): a machine state
//! `⟨t; S; H⟩` of an expression under evaluation, a stack of frames, and
//! a heap.
//!
//! This is the **reference engine**: Figure 6 transcribed literally,
//! parameters passed "by substitution" exactly as the paper writes the
//! rules. The production path is [`crate::env::EnvMachine`], which runs
//! the same transitions over pre-compiled code with an environment; the
//! differential suite keeps the two in lock-step (same outcomes, same
//! counters). The rules are implemented one-for-one, with the extended
//! forms (general constructors, primops, multi-values, globals)
//! slotting in beside them — the middle column is this machine, the
//! right one its environment-engine counterpart:
//!
//! | Figure 6 | Here (reference, subst) | [`crate::env`] (fast, env) |
//! |---|---|---|
//! | PAPP / IAPP | `Eval(App …)` pushes [`Frame::App`] | same, argument resolved through the env |
//! | VAL | `Eval(Atom(Addr …))` on a heap *value* | `Eval(Local …)` resolving to a heap value |
//! | EVAL | `Eval(Atom(Addr …))` on a heap *thunk* (blackholes it) | same; thunks are (code, env) pairs |
//! | LET | `Eval(LetLazy …)` allocates a thunk, substitutes the address | allocates a thunk, *extends the env* with the address |
//! | SLET | `Eval(LetStrict …)` pushes [`Frame::LetStrict`] | same, frame captures the env |
//! | CASE | `Eval(Case …)` pushes [`Frame::Case`] (shared `Arc<[Alt]>`) | same, shared compiled alternatives |
//! | ERR | `Eval(Error …)` aborts with [`RunOutcome::Error`] | same |
//! | PPOP / IPOP | `Ret(Lam …)` under [`Frame::App`]: width-checked `subst_atom` | `Ret(Clos …)`: width-checked O(1) env extension |
//! | FCE | `Ret(w)` under [`Frame::Force`] writes `w` back (thunk update) | same |
//! | ILET | `Ret(w)` under [`Frame::LetStrict`] | same, binds by env extension |
//! | IMAT | `Ret(Con …)` under [`Frame::Case`] | same, fields bound by env extension |
//!
//! Every substitution (reference) or environment binding (fast engine)
//! is width-checked against the binder's register class — the
//! machine-level reason levity-polymorphic binders cannot exist (§5.1,
//! §6.2).

use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use levity_core::rep::Slot;
use levity_core::symbol::{Symbol, SymbolMap};

use crate::prim::{apply_prim, PrimError};
use crate::subst::{subst_atom, subst_atoms};
use crate::syntax::{int_hash_symbol, Addr, Alt, Atom, Binder, DataCon, JoinDef, Literal, MExpr};
use crate::verify::VerifyError;

/// A machine value `w` (Figure 5, extended). Constructor and multi-value
/// fields are resolved atoms (addresses or literals), never variables.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `λy. t`.
    Lam(Binder, Arc<MExpr>),
    /// A saturated constructor value, e.g. `I#[3]`.
    Con(DataCon, Vec<Atom>),
    /// A literal.
    Lit(Literal),
    /// An unboxed multi-value: contents of several registers, never
    /// heap-allocated.
    Multi(Vec<Atom>),
}

impl Value {
    /// The register class of this value when stored or passed.
    pub fn slot(&self) -> Option<Slot> {
        match self {
            Value::Lam(..) | Value::Con(..) => Some(Slot::Ptr),
            Value::Lit(l) => Some(l.slot()),
            Value::Multi(_) => None, // occupies several registers
        }
    }

    /// Convenience: the `i64` payload of an integer literal value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Lit(l) => l.as_int(),
            _ => None,
        }
    }

    /// Convenience: matches `I#[n]` and returns `n`.
    pub fn as_boxed_int(&self) -> Option<i64> {
        match self {
            Value::Con(c, args) if c.name == int_hash_symbol() => match args.as_slice() {
                [Atom::Lit(Literal::Int(n))] => Some(*n),
                _ => None,
            },
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Lam(b, _) => write!(f, "<function \\{b}>"),
            Value::Con(c, args) => {
                write!(f, "{c}[")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, "]")
            }
            Value::Lit(l) => write!(f, "{l}"),
            Value::Multi(args) => {
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

/// A heap cell.
#[derive(Clone, Debug)]
enum HeapCell {
    /// An unevaluated expression (mapped by LET).
    Thunk(Arc<MExpr>),
    /// An evaluated value (written by FCE or by storing a strict result).
    Value(Value),
    /// A thunk currently under evaluation; re-entering one means the
    /// program demands its own result (`<<loop>>` in GHC).
    Blackhole,
}

/// Join points in scope: a persistent cons-list, extended by `join`
/// (O(1)) and *captured by every frame that resumes evaluation*, so a
/// jump taken after a recursive call returns resolves against the join
/// definitions of **its own activation**, not whatever the callee
/// happened to define under the same static name. (A machine-global
/// map would be dynamically scoped: re-entering a `join` inside a case
/// scrutinee's recursive call would clobber the outer activation's
/// definition — a silent miscompilation on any join body that closes
/// over an enclosing argument.)
// The scope chain is a *runtime* structure the machine builds and
// tears down on its own thread — plain `Rc` links, so the hot loop
// (frames capture the scope; jumps clone it back out) never pays an
// atomic reference-count bump. The definitions inside stay `Arc`: they
// are shared with the (possibly thread-shared) term being run.
#[derive(Clone, Debug, Default)]
pub struct JoinScope(Option<Rc<JoinNode>>);

#[derive(Debug)]
struct JoinNode {
    def: Arc<JoinDef>,
    next: JoinScope,
}

// A derived drop would recurse once per link; a scope chain is as deep
// as the program is join-nested, which is small — but defence in depth
// costs one branch, and the env engine's sibling lists *can* grow with
// the workload. Walk the chain iteratively, stopping at the first link
// another handle still owns.
impl Drop for JoinScope {
    fn drop(&mut self) {
        let mut cur = self.0.take();
        while let Some(node) = cur {
            match Rc::try_unwrap(node) {
                Ok(mut node) => cur = node.next.0.take(),
                Err(_shared) => break,
            }
        }
    }
}

impl JoinScope {
    /// No join points in scope.
    pub fn nil() -> JoinScope {
        JoinScope(None)
    }

    /// Extends the scope with one definition.
    #[must_use]
    fn push(&self, def: Arc<JoinDef>) -> JoinScope {
        JoinScope(Some(Rc::new(JoinNode {
            def,
            next: self.clone(),
        })))
    }

    /// Resolves a jump target; innermost definition wins. Returns the
    /// definition and the scope *at its definition site* (so the join
    /// body's own jumps resolve against the enclosing definitions, not
    /// the jump site's).
    fn get(&self, name: Symbol) -> Option<(Arc<JoinDef>, JoinScope)> {
        let mut cur = self;
        while let Some(node) = cur.0.as_deref() {
            if node.def.name == name {
                return Some((Arc::clone(&node.def), JoinScope(cur.0.clone())));
            }
            cur = &node.next;
        }
        None
    }
}

/// A stack frame `S` (Figure 5). Frames that resume *evaluation* of a
/// stored expression also capture the [`JoinScope`] current when the
/// frame was pushed: the stored expression is lexically inside that
/// scope, whatever joins the scrutinee/right-hand side defined in the
/// meantime.
#[derive(Clone, Debug)]
pub enum Frame {
    /// `App(p)` / `App(n)`: a pending argument (resolved atom). Carries
    /// no join scope: a λ body starts with *no* joins in scope (its own
    /// are defined inside it, and jumps never cross a λ — the same
    /// invariant that gives thunk bodies a fresh scope). Threading the
    /// application-site scope here instead is not just sloppy scoping:
    /// it chains one scope node per tail call through a global, an
    /// unbounded leak on served loop workloads.
    App(Atom),
    /// `Force(p)`: write the value back to the heap when done (FCE).
    Force(Addr),
    /// `Let(y, t)`: continue with `t` once the strict rhs is a value.
    /// Holds the whole `LetStrict` term (the eval step owns it anyway),
    /// so pushing moves one pointer instead of refcounting the body.
    LetStrict(Arc<MExpr>, JoinScope),
    /// `Case(y, t)` generalized to alternative lists. Holds the whole
    /// `Case` term: pushing is O(1) with zero refcount traffic for the
    /// alternatives and the default.
    Case(Arc<MExpr>, JoinScope),
    /// Unpack a multi-value; holds the whole `CaseMulti` term.
    CaseMulti(Arc<MExpr>, JoinScope),
}

/// Instrumentation counters. These are the quantities the benchmarks
/// report: the boxed-vs-unboxed story of §2.1 shows up as allocation and
/// thunk traffic long before it shows up as wall-clock time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Machine transitions taken.
    pub steps: u64,
    /// Thunks allocated by LET.
    pub thunk_allocs: u64,
    /// Constructor values built (boxing events, e.g. `I#[n]`).
    pub con_allocs: u64,
    /// Thunks entered (EVAL) — each is a pointer chase plus a jump.
    pub thunk_forces: u64,
    /// Thunk updates (FCE) — heap writes implementing sharing.
    pub updates: u64,
    /// Heap value lookups (VAL).
    pub var_lookups: u64,
    /// Primitive operations executed.
    pub prim_ops: u64,
    /// Join-point jumps taken — each is a register-argument transfer
    /// with no closure, no thunk, and no stack frame.
    pub jumps: u64,
    /// Estimated words allocated (2/thunk, 1+arity/constructor).
    pub allocated_words: u64,
    /// High-water mark of the stack.
    pub max_stack: usize,
    /// Fused superinstructions executed (bytecode engine only: the
    /// tree engines always report 0, so their full-stats equality
    /// comparisons are unaffected).
    pub fused_ops: u64,
    /// Copying collections run (bytecode engine only; the tree engines
    /// never collect and report 0).
    pub collections: u64,
    /// Estimated bytes evacuated to to-space across all collections
    /// (bytecode engine only).
    pub bytes_copied: u64,
    /// Cells the collector scanned across all collections (bytecode
    /// engine only).
    pub gc_steps: u64,
}

/// Top-level definitions for the extended machine (recursion support).
///
/// The formal Figure 7 fragment never uses globals; the full pipeline
/// maps each top-level binding to one.
#[derive(Clone, Debug, Default)]
pub struct Globals {
    defs: SymbolMap<Arc<MExpr>>,
}

impl Globals {
    /// An empty global environment.
    pub fn new() -> Globals {
        Globals::default()
    }

    /// Defines (or replaces) a global.
    pub fn define(&mut self, name: impl Into<Symbol>, body: Arc<MExpr>) {
        self.defs.insert(name.into(), body);
    }

    /// Looks up a global.
    pub fn get(&self, name: Symbol) -> Option<&Arc<MExpr>> {
        self.defs.get(&name)
    }

    /// Number of definitions.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Iterates over the definitions (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Arc<MExpr>)> {
        self.defs.iter().map(|(name, body)| (*name, body))
    }

    /// Is the environment empty?
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }
}

/// How a run ended, *as the semantics sees it*: `error` is a legitimate
/// outcome (rule ERR reaches ⊥), not a machine failure.
#[derive(Clone, Debug, PartialEq)]
pub enum RunOutcome {
    /// The program evaluated to a value with an empty stack.
    Value(Value),
    /// The program aborted via `error` (⊥).
    Error(String),
}

impl RunOutcome {
    /// The value, if any.
    pub fn value(&self) -> Option<&Value> {
        match self {
            RunOutcome::Value(v) => Some(v),
            RunOutcome::Error(_) => None,
        }
    }
}

/// A genuine machine failure — unreachable from type-checked, compiled
/// code; reachable when hand-written `M` code breaks the invariants the
/// `L` type system (or the Core lint) enforces.
#[derive(Clone, Debug, PartialEq)]
pub enum MachineError {
    /// Ran out of fuel.
    OutOfFuel {
        /// The fuel limit that was exhausted.
        limit: u64,
    },
    /// Exceeded the per-run allocation cap (in estimated words). Like
    /// fuel, this is a *resource policy*, not a semantic failure: the
    /// serving layer uses it to kill requests that would otherwise grow
    /// the heap without bound. Checked at each allocation site, so the
    /// overrun is bounded by a single allocation's size.
    AllocLimitExceeded {
        /// The allocation cap (words) that was exceeded.
        limit: u64,
    },
    /// Exceeded the live-heap cap: after a collection, the *reachable*
    /// data alone was still over the limit. The other resource policy
    /// the serving layer sets — [`Self::AllocLimitExceeded`] caps
    /// cumulative allocation (churn included); this caps residency.
    /// Only the collecting (bytecode) engine can report it.
    HeapLimitExceeded {
        /// The live-heap cap (bytes) that was exceeded.
        limit: u64,
    },
    /// A variable had no substitution — an open term.
    UnboundVariable(Symbol),
    /// An unknown global.
    UnknownGlobal(Symbol),
    /// Applied a non-function value.
    AppliedNonFunction(String),
    /// The width check failed: tried to pass a value of one register
    /// class to a binder of another. This is the §6.2 invariant.
    ClassMismatch {
        /// The binder that was being filled.
        binder: Symbol,
        /// Its declared register class.
        expected: Slot,
        /// The class of the value actually supplied.
        actual: Slot,
    },
    /// A `case` with no matching alternative.
    NoMatchingAlt(String),
    /// A `case`/`let!` shape error (e.g. multi-value in a scalar place).
    InvalidState(String),
    /// A primop failure (arity/class/division by zero).
    Prim(PrimError),
    /// A jump to a join point that was never defined on the current
    /// path — hand-written `M` only; lowering's escape analysis
    /// guarantees every jump is dominated by its definition.
    UnknownJoin(Symbol),
    /// A thunk demanded its own value (`<<loop>>`).
    Loop,
    /// The bytecode engine was handed a verified entry for a different
    /// program than its own, or fetched an instruction outside its
    /// chunk or entered an out-of-range chunk — bounds the verifier
    /// already proved, kept as structured errors rather than panics.
    BadBytecode(String),
    /// The bytecode verifier rejected the code a run was asked to
    /// execute, so it never started: the register machine runs only
    /// verified code ([`crate::verify`](mod@crate::verify)).
    Unverified(Box<VerifyError>),
}

/// The error for an address the heap never allocated. Lowering never
/// emits an address, so only a hand-built `M` term can name one.
pub(crate) fn dangling(addr: Addr) -> MachineError {
    MachineError::InvalidState(format!("dangling heap address {addr}"))
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::OutOfFuel { limit } => write!(f, "out of fuel after {limit} steps"),
            MachineError::AllocLimitExceeded { limit } => {
                write!(f, "allocation cap of {limit} words exceeded")
            }
            MachineError::HeapLimitExceeded { limit } => {
                write!(
                    f,
                    "live heap cap of {limit} bytes exceeded after collection"
                )
            }
            MachineError::UnboundVariable(x) => write!(f, "unbound variable `{x}`"),
            MachineError::UnknownGlobal(g) => write!(f, "unknown global `{g}`"),
            MachineError::AppliedNonFunction(w) => write!(f, "applied non-function value {w}"),
            MachineError::ClassMismatch {
                binder,
                expected,
                actual,
            } => write!(
                f,
                "register class mismatch: binder `{binder}` wants {expected}, got {actual}"
            ),
            MachineError::NoMatchingAlt(w) => write!(f, "no matching case alternative for {w}"),
            MachineError::InvalidState(msg) => write!(f, "invalid machine state: {msg}"),
            MachineError::Prim(e) => write!(f, "{e}"),
            MachineError::UnknownJoin(j) => write!(f, "jump to undefined join point `{j}`"),
            MachineError::Loop => write!(f, "<<loop>>: a thunk demanded its own value"),
            MachineError::BadBytecode(msg) => write!(f, "malformed bytecode: {msg}"),
            MachineError::Unverified(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<PrimError> for MachineError {
    fn from(e: PrimError) -> MachineError {
        MachineError::Prim(e)
    }
}

impl From<VerifyError> for MachineError {
    fn from(e: VerifyError) -> MachineError {
        MachineError::Unverified(Box::new(e))
    }
}

/// The register class of a resolved atom. Shared by both engines so
/// the §6.2 check cannot drift between them.
pub(crate) fn class_of_atom(a: Atom) -> Slot {
    match a {
        Atom::Addr(_) => Slot::Ptr,
        Atom::Lit(l) => l.slot(),
        Atom::Var(_) => unreachable!("resolved"),
    }
}

/// Width check: binder class must equal atom class (§6.2). One
/// implementation serves both engines — the differential suite compares
/// the resulting `ClassMismatch` payloads by value.
pub(crate) fn check_atom_class(binder: Binder, atom: Atom) -> Result<(), MachineError> {
    let actual = class_of_atom(atom);
    if binder.class == actual {
        Ok(())
    } else {
        Err(MachineError::ClassMismatch {
            binder: binder.name,
            expected: binder.class,
            actual,
        })
    }
}

enum Control {
    Eval(Arc<MExpr>, JoinScope),
    Ret(Value),
}

/// The `M` machine.
///
/// # Examples
///
/// ```
/// use levity_m::machine::{Machine, RunOutcome, Value};
/// use levity_m::syntax::{Atom, Binder, Literal, MExpr};
///
/// // (λi. i) 42#
/// let t = MExpr::app(
///     MExpr::lam(Binder::int("i"), MExpr::var("i")),
///     Atom::Lit(Literal::Int(42)),
/// );
/// let mut machine = Machine::new();
/// let outcome = machine.run(t)?;
/// assert_eq!(outcome, RunOutcome::Value(Value::Lit(Literal::Int(42))));
/// # Ok::<(), levity_m::machine::MachineError>(())
/// ```
#[derive(Debug)]
pub struct Machine {
    heap: Vec<HeapCell>,
    stack: Vec<Frame>,
    globals: Globals,
    stats: MachineStats,
    fuel: u64,
    alloc_limit: u64,
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new()
    }
}

impl Machine {
    /// Default fuel: generous enough for every test and bench workload.
    pub const DEFAULT_FUEL: u64 = 500_000_000;

    /// A machine with no globals and default fuel.
    pub fn new() -> Machine {
        Machine::with_globals(Globals::new())
    }

    /// A machine with the given global definitions.
    pub fn with_globals(globals: Globals) -> Machine {
        Machine {
            heap: Vec::new(),
            stack: Vec::new(),
            globals,
            stats: MachineStats::default(),
            fuel: Self::DEFAULT_FUEL,
            alloc_limit: u64::MAX,
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

    /// Fails if the accumulated allocation estimate exceeds the cap.
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

    /// Current heap size in cells.
    pub fn heap_size(&self) -> usize {
        self.heap.len()
    }

    fn alloc(&mut self, cell: HeapCell) -> Addr {
        let addr = Addr(self.heap.len() as u64);
        self.heap.push(cell);
        addr
    }

    /// Resolves a source atom to a runtime atom; variables must have been
    /// substituted away.
    fn resolve(&self, a: Atom) -> Result<Atom, MachineError> {
        match a {
            Atom::Var(x) => Err(MachineError::UnboundVariable(x)),
            other => Ok(other),
        }
    }

    fn resolve_all(&self, args: &[Atom]) -> Result<Vec<Atom>, MachineError> {
        args.iter().map(|a| self.resolve(*a)).collect()
    }

    /// Resolves an atom to a literal, for primops.
    fn literal_of(&self, a: Atom) -> Result<Literal, MachineError> {
        match self.resolve(a)? {
            Atom::Lit(l) => Ok(l),
            Atom::Addr(addr) => match self.heap.get(addr.0 as usize) {
                Some(HeapCell::Value(Value::Lit(l))) => Ok(*l),
                Some(_) => Err(MachineError::InvalidState(format!(
                    "primop argument at {addr} is not an evaluated literal"
                ))),
                None => Err(dangling(addr)),
            },
            Atom::Var(_) => unreachable!("resolved"),
        }
    }

    /// Width check: binder class must equal atom class (§6.2).
    fn check_class(&self, binder: Binder, atom: Atom) -> Result<(), MachineError> {
        check_atom_class(binder, atom)
    }

    /// Turns a value into an atom, storing boxed values in the heap if
    /// necessary so they can be substituted (only atoms are substituted).
    fn value_to_atom(&mut self, w: Value) -> Result<Atom, MachineError> {
        match w {
            Value::Lit(l) => Ok(Atom::Lit(l)),
            Value::Lam(..) | Value::Con(..) => {
                let addr = self.alloc(HeapCell::Value(w));
                Ok(Atom::Addr(addr))
            }
            Value::Multi(_) => Err(MachineError::InvalidState(
                "a multi-value cannot be bound to a single register".to_owned(),
            )),
        }
    }

    /// Runs `t` to completion (empty stack, value in control) or abort.
    ///
    /// # Errors
    ///
    /// [`MachineError`] on broken invariants or fuel exhaustion; `error`
    /// is reported as `Ok(RunOutcome::Error(..))`, matching rule ERR.
    pub fn run(&mut self, t: Arc<MExpr>) -> Result<RunOutcome, MachineError> {
        let mut control = Control::Eval(t, JoinScope::nil());
        loop {
            // ERR: ⟨error; S; H⟩ → ⊥, whatever the stack holds.
            if let Control::Eval(ref t, _) = control {
                if let MExpr::Error(msg) = &**t {
                    return Ok(RunOutcome::Error(msg.clone()));
                }
            }
            if self.stats.steps >= self.fuel {
                return Err(MachineError::OutOfFuel { limit: self.fuel });
            }
            self.stats.steps += 1;
            control = match control {
                Control::Eval(t, joins) => self.step_eval(t, joins)?,
                Control::Ret(w) => match self.stack.pop() {
                    None => return Ok(RunOutcome::Value(w)),
                    Some(frame) => self.step_ret(w, frame)?,
                },
            };
        }
    }

    fn step_eval(&mut self, t: Arc<MExpr>, joins: JoinScope) -> Result<Control, MachineError> {
        match &*t {
            MExpr::Atom(Atom::Lit(l)) => Ok(Control::Ret(Value::Lit(*l))),
            MExpr::Atom(Atom::Addr(a)) => {
                let ix = a.0 as usize;
                match self.heap.get(ix) {
                    // VAL
                    Some(HeapCell::Value(w)) => {
                        self.stats.var_lookups += 1;
                        Ok(Control::Ret(w.clone()))
                    }
                    // EVAL (with blackholing). A thunk body never jumps
                    // to an enclosing join (lazy right-hand sides fail
                    // the escape analysis), so it starts a fresh scope.
                    Some(HeapCell::Thunk(t1)) => {
                        self.stats.thunk_forces += 1;
                        let t1 = Arc::clone(t1);
                        self.heap[ix] = HeapCell::Blackhole;
                        self.push(Frame::Force(*a));
                        Ok(Control::Eval(t1, JoinScope::nil()))
                    }
                    Some(HeapCell::Blackhole) => Err(MachineError::Loop),
                    None => Err(dangling(*a)),
                }
            }
            MExpr::Atom(Atom::Var(x)) => Err(MachineError::UnboundVariable(*x)),
            // PAPP / IAPP
            MExpr::App(fun, arg) => {
                let arg = self.resolve(*arg)?;
                self.push(Frame::App(arg));
                Ok(Control::Eval(Arc::clone(fun), joins))
            }
            MExpr::Lam(binder, body) => Ok(Control::Ret(Value::Lam(*binder, Arc::clone(body)))),
            // LET (cyclic: the rhs may mention the binder, giving
            // recursion through the heap).
            MExpr::LetLazy(p, rhs, body) => {
                let addr = self.alloc(HeapCell::Blackhole);
                let rhs2 = subst_atom(rhs, *p, Atom::Addr(addr));
                self.heap[addr.0 as usize] = HeapCell::Thunk(rhs2);
                self.stats.thunk_allocs += 1;
                self.stats.allocated_words += 2;
                self.check_alloc_limit()?;
                Ok(Control::Eval(subst_atom(body, *p, Atom::Addr(addr)), joins))
            }
            // SLET
            MExpr::LetStrict(_, rhs, _) => {
                let rhs = Arc::clone(rhs);
                self.push(Frame::LetStrict(t, joins.clone()));
                Ok(Control::Eval(rhs, joins))
            }
            // CASE
            MExpr::Case(scrut, _, _) => {
                let scrut = Arc::clone(scrut);
                self.push(Frame::Case(t, joins.clone()));
                Ok(Control::Eval(scrut, joins))
            }
            MExpr::Con(c, args) => {
                let args = self.resolve_all(args)?;
                self.stats.con_allocs += 1;
                self.stats.allocated_words += 1 + args.len() as u64;
                self.check_alloc_limit()?;
                Ok(Control::Ret(Value::Con(c.clone(), args)))
            }
            MExpr::Prim(op, args) => {
                self.stats.prim_ops += 1;
                // Primops are at most binary today; resolve into a stack
                // buffer so the hottest step never touches the allocator.
                if args.len() <= 4 {
                    let mut lits = [Literal::Int(0); 4];
                    for (slot, a) in lits.iter_mut().zip(args.iter()) {
                        *slot = self.literal_of(*a)?;
                    }
                    Ok(Control::Ret(Value::Lit(apply_prim(
                        *op,
                        &lits[..args.len()],
                    )?)))
                } else {
                    let lits = args
                        .iter()
                        .map(|a| self.literal_of(*a))
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(Control::Ret(Value::Lit(apply_prim(*op, &lits)?)))
                }
            }
            // Multi-values exist only in registers: no allocation.
            MExpr::MultiVal(args) => Ok(Control::Ret(Value::Multi(self.resolve_all(args)?))),
            MExpr::CaseMulti(scrut, _, _) => {
                let scrut = Arc::clone(scrut);
                self.push(Frame::CaseMulti(t, joins.clone()));
                Ok(Control::Eval(scrut, joins))
            }
            // A global body is closed: it never jumps to a caller's
            // join points, so its scope starts empty (mirroring the
            // environment engine's `Env::nil()`).
            MExpr::Global(g) => {
                let code = self
                    .globals
                    .get(*g)
                    .ok_or(MachineError::UnknownGlobal(*g))?;
                Ok(Control::Eval(Arc::clone(code), JoinScope::nil()))
            }
            // JOIN: recording the continuation is one transition and
            // zero allocation in the machine's cost model (contrast
            // LET's thunk).
            MExpr::LetJoin(def, body) => {
                let joins = joins.push(Arc::clone(def));
                Ok(Control::Eval(Arc::clone(body), joins))
            }
            // JUMP: bind the arguments (width-checked like PPOP/IPOP)
            // and transfer control. The stack is untouched — a jump is
            // a goto, not a call — and the join body continues in the
            // scope of its *definition* site.
            MExpr::Jump(j, args) => {
                let (def, defscope) = joins.get(*j).ok_or(MachineError::UnknownJoin(*j))?;
                if def.params.len() != args.len() {
                    return Err(MachineError::InvalidState(format!(
                        "join point `{j}` arity mismatch"
                    )));
                }
                self.stats.jumps += 1;
                let mut resolved_buf = [Atom::Lit(Literal::Int(0)); 4];
                let resolved_vec;
                let resolved: &[Atom] = if args.len() <= 4 {
                    for (slot, a) in resolved_buf.iter_mut().zip(args) {
                        *slot = self.resolve(*a)?;
                    }
                    &resolved_buf[..args.len()]
                } else {
                    resolved_vec = self.resolve_all(args)?;
                    &resolved_vec
                };
                for (b, a) in def.params.iter().zip(resolved) {
                    self.check_class(*b, *a)?;
                }
                Ok(Control::Eval(
                    with_subst_pairs(&def.params, resolved, |pairs| subst_atoms(&def.body, pairs)),
                    defscope,
                ))
            }
            MExpr::Error(_) => {
                unreachable!("handled in run()")
            }
        }
    }

    fn step_ret(&mut self, w: Value, frame: Frame) -> Result<Control, MachineError> {
        match frame {
            // PPOP / IPOP, width-checked. The λ body resumes with an
            // empty join scope: its own joins are defined inside it,
            // and jumps never cross a λ.
            Frame::App(arg) => match w {
                Value::Lam(binder, body) => {
                    self.check_class(binder, arg)?;
                    Ok(Control::Eval(
                        subst_atom(&body, binder.name, arg),
                        JoinScope::nil(),
                    ))
                }
                other => Err(MachineError::AppliedNonFunction(other.to_string())),
            },
            // FCE: thunk update.
            Frame::Force(addr) => {
                self.heap[addr.0 as usize] = HeapCell::Value(w.clone());
                self.stats.updates += 1;
                Ok(Control::Ret(w))
            }
            // ILET (extended to boxed strict lets).
            Frame::LetStrict(term, joins) => {
                let MExpr::LetStrict(binder, _, body) = &*term else {
                    unreachable!("LetStrict frame holds a LetStrict term");
                };
                let atom = match &w {
                    Value::Lit(l) => Atom::Lit(*l),
                    Value::Lam(..) | Value::Con(..) => self.value_to_atom(w.clone())?,
                    Value::Multi(_) => {
                        return Err(MachineError::InvalidState(
                            "let! of a multi-value; use case-of-multi".to_owned(),
                        ))
                    }
                };
                self.check_class(*binder, atom)?;
                Ok(Control::Eval(subst_atom(body, binder.name, atom), joins))
            }
            // IMAT (extended to arbitrary constructors and literal alts).
            Frame::Case(term, joins) => {
                let MExpr::Case(_, alts, def) = &*term else {
                    unreachable!("Case frame holds a Case term");
                };
                match &w {
                    Value::Con(c, fields) => {
                        for alt in alts.iter() {
                            if let Alt::Con(c2, binders, rhs) = alt {
                                if c2.name == c.name {
                                    if binders.len() != fields.len() {
                                        return Err(MachineError::InvalidState(format!(
                                            "constructor {c} arity mismatch in case"
                                        )));
                                    }
                                    for (b, a) in binders.iter().zip(fields.iter()) {
                                        self.check_class(*b, *a)?;
                                    }
                                    return Ok(Control::Eval(
                                        with_subst_pairs(binders, fields, |pairs| {
                                            subst_atoms(rhs, pairs)
                                        }),
                                        joins,
                                    ));
                                }
                            }
                        }
                        self.take_default(w, def.as_ref(), joins)
                    }
                    Value::Lit(l) => {
                        for alt in alts.iter() {
                            if let Alt::Lit(l2, rhs) = alt {
                                if l2 == l {
                                    return Ok(Control::Eval(Arc::clone(rhs), joins));
                                }
                            }
                        }
                        self.take_default(w, def.as_ref(), joins)
                    }
                    Value::Lam(..) => self.take_default(w, def.as_ref(), joins),
                    Value::Multi(_) => Err(MachineError::InvalidState(
                        "case on a multi-value; use case-of-multi".to_owned(),
                    )),
                }
            }
            Frame::CaseMulti(term, joins) => {
                let MExpr::CaseMulti(_, binders, body) = &*term else {
                    unreachable!("CaseMulti frame holds a CaseMulti term");
                };
                match w {
                    Value::Multi(fields) => {
                        if binders.len() != fields.len() {
                            return Err(MachineError::InvalidState(
                                "multi-value arity mismatch".to_owned(),
                            ));
                        }
                        for (b, a) in binders.iter().zip(fields.iter()) {
                            self.check_class(*b, *a)?;
                        }
                        Ok(Control::Eval(
                            with_subst_pairs(binders, &fields, |pairs| subst_atoms(body, pairs)),
                            joins,
                        ))
                    }
                    other => Err(MachineError::InvalidState(format!(
                        "case-of-multi scrutinee evaluated to {other}"
                    ))),
                }
            }
        }
    }

    fn take_default(
        &mut self,
        w: Value,
        def: Option<&(Binder, Arc<MExpr>)>,
        joins: JoinScope,
    ) -> Result<Control, MachineError> {
        match def {
            Some((binder, rhs)) => {
                let atom = self.value_to_atom(w)?;
                self.check_class(*binder, atom)?;
                Ok(Control::Eval(subst_atom(rhs, binder.name, atom), joins))
            }
            None => Err(MachineError::NoMatchingAlt(w.to_string())),
        }
    }

    fn push(&mut self, frame: Frame) {
        self.stack.push(frame);
        self.stats.max_stack = self.stats.max_stack.max(self.stack.len());
    }
}

/// Runs `f` with the binder-name/atom substitution pairs of a
/// multi-binding step. Bindings are at most a handful wide in the
/// optimizer's output (CPR tuples, join parameters, constructor
/// fields), so the common case fills a stack buffer and the hot loop
/// never touches the allocator. Callers have already checked
/// `binders.len() == atoms.len()`.
fn with_subst_pairs<R>(
    binders: &[Binder],
    atoms: &[Atom],
    f: impl FnOnce(&[(Symbol, Atom)]) -> R,
) -> R {
    match binders {
        [] => f(&[]),
        [b0, ..] if binders.len() <= 4 => {
            let mut buf = [(b0.name, atoms[0]); 4];
            for (slot, (b, a)) in buf.iter_mut().zip(binders.iter().zip(atoms)) {
                *slot = (b.name, *a);
            }
            f(&buf[..binders.len()])
        }
        _ => {
            let pairs: Vec<_> = binders
                .iter()
                .map(|b| b.name)
                .zip(atoms.iter().copied())
                .collect();
            f(&pairs)
        }
    }
}

/// Runs a program with fresh machine state, returning the outcome and
/// statistics.
///
/// # Errors
///
/// See [`Machine::run`].
pub fn run_program(
    t: Arc<MExpr>,
    globals: Globals,
    fuel: u64,
) -> Result<(RunOutcome, MachineStats), MachineError> {
    let mut machine = Machine::with_globals(globals);
    machine.set_fuel(fuel);
    let outcome = machine.run(t)?;
    Ok((outcome, *machine.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::PrimOp;

    fn int_atom(n: i64) -> Atom {
        Atom::Lit(Literal::Int(n))
    }

    fn run(t: Arc<MExpr>) -> RunOutcome {
        Machine::new().run(t).expect("machine failure")
    }

    #[test]
    fn literal_evaluates_to_itself() {
        assert_eq!(
            run(MExpr::int(5)),
            RunOutcome::Value(Value::Lit(Literal::Int(5)))
        );
    }

    #[test]
    fn ipop_substitutes_integer_argument() {
        // (λi. i) 42# — IAPP then IPOP.
        let t = MExpr::app(MExpr::lam(Binder::int("i"), MExpr::var("i")), int_atom(42));
        assert_eq!(run(t), RunOutcome::Value(Value::Lit(Literal::Int(42))));
    }

    #[test]
    fn lazy_let_defers_work_and_shares_it() {
        // let p = (+# 1 2)-as-thunk in (λq. I#[...]) style:
        // let p = <thunk> in case p of I#[i] -> (+# i i) forces p once.
        let thunk = MExpr::con_int_hash(int_atom(21));
        let t = MExpr::let_lazy(
            "p",
            thunk,
            MExpr::case(
                MExpr::var("p"),
                vec![Alt::Con(
                    DataCon::int_hash(),
                    vec![Binder::int("i")],
                    MExpr::prim(
                        PrimOp::AddI,
                        vec![
                            Atom::Var(Symbol::intern("i")),
                            Atom::Var(Symbol::intern("i")),
                        ],
                    ),
                )],
                None,
            ),
        );
        let mut m = Machine::new();
        let out = m.run(t).unwrap();
        assert_eq!(out, RunOutcome::Value(Value::Lit(Literal::Int(42))));
        assert_eq!(m.stats().thunk_allocs, 1);
        assert_eq!(m.stats().thunk_forces, 1);
        assert_eq!(m.stats().updates, 1);
    }

    #[test]
    fn thunks_are_forced_at_most_once() {
        // let p = I#[7] in case p of I#[a] -> case p of I#[b] -> +# a b
        // Second use of p hits VAL, not EVAL.
        let t = MExpr::let_lazy(
            "p",
            MExpr::con_int_hash(int_atom(7)),
            MExpr::case_int_hash(
                MExpr::var("p"),
                "a",
                MExpr::case_int_hash(
                    MExpr::var("p"),
                    "b",
                    MExpr::prim(
                        PrimOp::AddI,
                        vec![
                            Atom::Var(Symbol::intern("a")),
                            Atom::Var(Symbol::intern("b")),
                        ],
                    ),
                ),
            ),
        );
        let mut m = Machine::new();
        let out = m.run(t).unwrap();
        assert_eq!(out, RunOutcome::Value(Value::Lit(Literal::Int(14))));
        assert_eq!(m.stats().thunk_forces, 1, "sharing: forced once");
        assert_eq!(m.stats().var_lookups, 1, "second use is a VAL lookup");
    }

    #[test]
    fn strict_let_evaluates_rhs_first() {
        // let! i = (+# 1# 2#) in I#[i]
        let t = MExpr::let_strict(
            Binder::int("i"),
            MExpr::prim(PrimOp::AddI, vec![int_atom(1), int_atom(2)]),
            MExpr::con_int_hash(Atom::Var(Symbol::intern("i"))),
        );
        let out = run(t);
        assert_eq!(
            out,
            RunOutcome::Value(Value::Con(DataCon::int_hash(), vec![int_atom(3)]))
        );
    }

    #[test]
    fn error_aborts_the_machine() {
        // let! i = error in 5# — the strict let forces the error.
        let t = MExpr::let_strict(Binder::int("i"), MExpr::error("boom"), MExpr::int(5));
        assert_eq!(run(t), RunOutcome::Error("boom".to_owned()));
    }

    #[test]
    fn lazy_error_is_not_forced() {
        // let p = error in 5# — never demanded, so no abort (laziness).
        let t = MExpr::let_lazy("p", MExpr::error("boom"), MExpr::int(5));
        assert_eq!(run(t), RunOutcome::Value(Value::Lit(Literal::Int(5))));
    }

    #[test]
    fn width_check_rejects_class_mismatch() {
        // (λp:ptr. p) 1# — passing an integer to a pointer binder.
        let t = MExpr::app(MExpr::lam(Binder::ptr("p"), MExpr::var("p")), int_atom(1));
        let err = Machine::new().run(t).unwrap_err();
        assert!(matches!(err, MachineError::ClassMismatch { .. }));
    }

    #[test]
    fn blackhole_detects_self_reference() {
        // let p = case p of I#[i] -> I#[i] in case p of I#[i] -> i
        let body = MExpr::case_int_hash(
            MExpr::var("p"),
            "i",
            MExpr::con_int_hash(Atom::Var(Symbol::intern("i"))),
        );
        let t = MExpr::let_lazy(
            "p",
            body,
            MExpr::case_int_hash(MExpr::var("p"), "i", MExpr::var("i")),
        );
        assert_eq!(Machine::new().run(t).unwrap_err(), MachineError::Loop);
    }

    #[test]
    fn multi_values_unpack_without_allocation() {
        // case (# 3#, 4# #) of (# a, b #) -> +# a b
        let t = Arc::new(MExpr::CaseMulti(
            Arc::new(MExpr::MultiVal(vec![int_atom(3), int_atom(4)])),
            vec![Binder::int("a"), Binder::int("b")],
            MExpr::prim(
                PrimOp::AddI,
                vec![
                    Atom::Var(Symbol::intern("a")),
                    Atom::Var(Symbol::intern("b")),
                ],
            ),
        ));
        let mut m = Machine::new();
        let out = m.run(t).unwrap();
        assert_eq!(out, RunOutcome::Value(Value::Lit(Literal::Int(7))));
        assert_eq!(
            m.stats().allocated_words,
            0,
            "unboxed tuples never allocate"
        );
        assert_eq!(m.stats().con_allocs, 0);
    }

    #[test]
    fn globals_enable_recursion() {
        // sumTo# acc n = if n == 0 then acc else sumTo# (acc+n) (n-1)
        let acc = Symbol::intern("acc");
        let n = Symbol::intern("n");
        let body = MExpr::case(
            MExpr::prim(PrimOp::EqI, vec![Atom::Var(n), int_atom(0)]),
            vec![Alt::Lit(Literal::Int(1), MExpr::var("acc"))],
            Some((
                Binder::int("_t"),
                MExpr::let_strict(
                    Binder::int("acc2"),
                    MExpr::prim(PrimOp::AddI, vec![Atom::Var(acc), Atom::Var(n)]),
                    MExpr::let_strict(
                        Binder::int("n2"),
                        MExpr::prim(PrimOp::SubI, vec![Atom::Var(n), int_atom(1)]),
                        MExpr::apps(
                            MExpr::global("sumTo#"),
                            [
                                Atom::Var(Symbol::intern("acc2")),
                                Atom::Var(Symbol::intern("n2")),
                            ],
                        ),
                    ),
                ),
            )),
        );
        let def = MExpr::lams([Binder::int("acc"), Binder::int("n")], body);
        let mut globals = Globals::new();
        globals.define("sumTo#", def);
        let main = MExpr::apps(MExpr::global("sumTo#"), [int_atom(0), int_atom(100)]);
        let mut m = Machine::with_globals(globals);
        let out = m.run(main).unwrap();
        assert_eq!(out, RunOutcome::Value(Value::Lit(Literal::Int(5050))));
        // The unboxed loop allocates nothing at all (§2.1: "no memory
        // traffic whatsoever").
        assert_eq!(m.stats().allocated_words, 0);
    }

    #[test]
    fn case_selects_by_constructor_tag() {
        let true_con = DataCon::nullary("True", 1);
        let false_con = DataCon::nullary("False", 0);
        let t = MExpr::case(
            Arc::new(MExpr::Con(true_con.clone(), vec![])),
            vec![
                Alt::Con(false_con, vec![], MExpr::int(0)),
                Alt::Con(true_con, vec![], MExpr::int(1)),
            ],
            None,
        );
        assert_eq!(run(t), RunOutcome::Value(Value::Lit(Literal::Int(1))));
    }

    #[test]
    fn case_literal_alternatives_with_default() {
        let scrut = MExpr::int(7);
        let t = MExpr::case(
            scrut,
            vec![Alt::Lit(Literal::Int(0), MExpr::int(100))],
            Some((
                Binder::int("n"),
                MExpr::prim(
                    PrimOp::MulI,
                    vec![Atom::Var(Symbol::intern("n")), int_atom(2)],
                ),
            )),
        );
        assert_eq!(run(t), RunOutcome::Value(Value::Lit(Literal::Int(14))));
    }

    #[test]
    fn no_matching_alt_is_a_machine_error() {
        let t = MExpr::case(
            MExpr::int(7),
            vec![Alt::Lit(Literal::Int(0), MExpr::int(1))],
            None,
        );
        assert!(matches!(
            Machine::new().run(t).unwrap_err(),
            MachineError::NoMatchingAlt(_)
        ));
    }

    #[test]
    fn fuel_exhaustion_is_detected() {
        // let p = case p of … in … loops via globals instead: simplest
        // infinite loop is a global that calls itself.
        let mut globals = Globals::new();
        globals.define("spin", MExpr::global("spin"));
        let mut m = Machine::with_globals(globals);
        m.set_fuel(1000);
        assert!(matches!(
            m.run(MExpr::global("spin")).unwrap_err(),
            MachineError::OutOfFuel { .. }
        ));
    }

    #[test]
    fn applied_non_function_is_a_machine_error() {
        let t = MExpr::app(MExpr::int(3), int_atom(4));
        assert!(matches!(
            Machine::new().run(t).unwrap_err(),
            MachineError::AppliedNonFunction(_)
        ));
    }

    #[test]
    fn unknown_global_is_a_machine_error() {
        assert!(matches!(
            Machine::new().run(MExpr::global("nope")).unwrap_err(),
            MachineError::UnknownGlobal(_)
        ));
    }

    #[test]
    fn join_points_jump_without_allocating_or_growing_the_stack() {
        // join j q r = +# q r in case 1# of { 1# -> jump j 20# 22#; _ -> 0# }
        let def = Arc::new(JoinDef {
            name: Symbol::intern("j0"),
            params: vec![Binder::int("q"), Binder::int("r")],
            body: MExpr::prim(
                PrimOp::AddI,
                vec![
                    Atom::Var(Symbol::intern("q")),
                    Atom::Var(Symbol::intern("r")),
                ],
            ),
        });
        let t = MExpr::let_join(
            def,
            MExpr::case(
                MExpr::int(1),
                vec![Alt::Lit(
                    Literal::Int(1),
                    MExpr::jump("j0", vec![int_atom(20), int_atom(22)]),
                )],
                Some((Binder::int("_d"), MExpr::int(0))),
            ),
        );
        let mut m = Machine::new();
        let out = m.run(t).unwrap();
        assert_eq!(out, RunOutcome::Value(Value::Lit(Literal::Int(42))));
        assert_eq!(m.stats().jumps, 1);
        assert_eq!(m.stats().allocated_words, 0, "joins never allocate");
        assert_eq!(m.stats().thunk_allocs, 0);
    }

    #[test]
    fn jump_arguments_are_width_checked() {
        let def = Arc::new(JoinDef {
            name: Symbol::intern("j0"),
            params: vec![Binder::ptr("p")],
            body: MExpr::var("p"),
        });
        let t = MExpr::let_join(def, MExpr::jump("j0", vec![int_atom(1)]));
        assert!(matches!(
            Machine::new().run(t).unwrap_err(),
            MachineError::ClassMismatch { .. }
        ));
    }

    #[test]
    fn jump_to_an_undefined_join_point_is_a_machine_error() {
        let t = MExpr::jump("ghost", vec![int_atom(1)]);
        assert_eq!(
            Machine::new().run(t).unwrap_err(),
            MachineError::UnknownJoin(Symbol::intern("ghost"))
        );
    }

    #[test]
    fn stats_track_stack_high_water() {
        let t = MExpr::app(MExpr::lam(Binder::int("i"), MExpr::var("i")), int_atom(1));
        let mut m = Machine::new();
        m.run(t).unwrap();
        assert!(m.stats().max_stack >= 1);
        assert!(m.stats().steps > 0);
    }
}
