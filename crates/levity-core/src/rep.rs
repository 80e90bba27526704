//! Runtime representations: the `Rep` datatype of §4.1 and its register
//! model.
//!
//! The paper's central move is to make the *kind* of a type dictate the
//! *runtime representation* — and therefore the calling convention — of its
//! values, via a primitive `TYPE :: Rep -> Type`. This module defines:
//!
//! * [`Rep`]: fully concrete runtime representations (`LiftedRep`,
//!   `IntRep`, `TupleRep [..]`, ...), exactly the promoted datatype of §4.1
//!   plus the unboxed-sum extension GHC later added;
//! * [`RepTy`]: type-level representation *expressions*, which may mention
//!   representation variables `r` (the `ρ` of Figure 2, generalized to the
//!   full `Rep` grammar);
//! * [`Slot`]: the machine's register classes, and the flattening from
//!   representations to register slots (§2.3: tuple nesting is
//!   computationally irrelevant).
//!
//! # Examples
//!
//! ```
//! use levity_core::rep::{Rep, Slot};
//!
//! // (# Int#, Bool #) is passed in an integer register and a pointer register.
//! let rep = Rep::Tuple(vec![Rep::Int, Rep::Lifted]);
//! assert_eq!(rep.slots(), vec![Slot::Word, Slot::Ptr]);
//!
//! // Nesting is computationally irrelevant (§2.3):
//! let nested = Rep::Tuple(vec![Rep::Lifted, Rep::Tuple(vec![Rep::Float, Rep::Lifted])]);
//! let flat = Rep::Tuple(vec![Rep::Lifted, Rep::Float, Rep::Lifted]);
//! assert_eq!(nested.slots(), flat.slots());
//! assert_ne!(nested, flat); // ...but the kinds differ (§4.2)
//! ```

use std::fmt;

use crate::symbol::Symbol;

/// A fully concrete runtime representation: the promoted `Rep` datatype of
/// §4.1.
///
/// A value's representation determines how many registers (and of which
/// class) hold it, whether it lives behind a heap pointer, and whether it
/// can be a thunk. `LiftedRep` and `UnliftedRep` are *boxed* (heap
/// pointers); everything else is *unboxed*. Only `LiftedRep` is *lifted*
/// (may be ⊥/a thunk) — see Figure 1.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rep {
    /// Boxed, lifted: a pointer to a possibly-unevaluated heap object
    /// (`Int`, `Bool`, every ordinary Haskell type).
    Lifted,
    /// Boxed, unlifted: a pointer to a heap object that is always
    /// evaluated (`ByteArray#`, `Array# a`).
    Unlifted,
    /// Unboxed machine integer (`Int#`).
    Int,
    /// Unboxed 8-bit integer (`Int8#`).
    Int8,
    /// Unboxed 16-bit integer (`Int16#`).
    Int16,
    /// Unboxed 32-bit integer (`Int32#`).
    Int32,
    /// Unboxed 64-bit integer (`Int64#`).
    Int64,
    /// Unboxed machine word (`Word#`).
    Word,
    /// Unboxed 8-bit word (`Word8#`).
    Word8,
    /// Unboxed 64-bit word (`Word64#`).
    Word64,
    /// Unboxed character (`Char#`); the paper's §7.1 uses `CharRep`.
    Char,
    /// Unboxed single-precision float (`Float#`).
    Float,
    /// Unboxed double-precision float (`Double#`).
    Double,
    /// Unboxed machine address (`Addr#`).
    Addr,
    /// Unboxed tuple: multiple values in multiple registers (§2.3, §4.2).
    /// `TupleRep '[]` is represented by nothing at all.
    Tuple(Vec<Rep>),
    /// Unboxed sum (GHC extension beyond the paper): a tag word plus the
    /// merged slots of all alternatives.
    Sum(Vec<Rep>),
}

impl Rep {
    /// Is a value of this representation a heap pointer?
    ///
    /// Exactly `LiftedRep` and `UnliftedRep` are boxed (Figure 1).
    pub fn is_boxed(&self) -> bool {
        matches!(self, Rep::Lifted | Rep::Unlifted)
    }

    /// Is a value of this representation lazy (may be a thunk / ⊥)?
    ///
    /// Only `LiftedRep`: "all lifted types must also be boxed" (§2.2).
    pub fn is_lifted(&self) -> bool {
        matches!(self, Rep::Lifted)
    }

    /// The register slots that hold a value of this representation, in
    /// order.
    ///
    /// Tuple nesting flattens away: "while `(# Int, (# Float#, Bool #) #)`
    /// is a distinct type from `(# Int, Float#, Bool #)`, the two are
    /// identical at runtime" (§2.3). Unboxed sums use GHC's slot-merging
    /// scheme: one tag word, then for each slot class the maximum count
    /// needed by any alternative.
    pub fn slots(&self) -> Vec<Slot> {
        match self {
            Rep::Lifted | Rep::Unlifted => vec![Slot::Ptr],
            Rep::Int
            | Rep::Int8
            | Rep::Int16
            | Rep::Int32
            | Rep::Int64
            | Rep::Word
            | Rep::Word8
            | Rep::Word64
            | Rep::Char
            | Rep::Addr => vec![Slot::Word],
            Rep::Float => vec![Slot::Float],
            Rep::Double => vec![Slot::Double],
            Rep::Tuple(parts) => parts.iter().flat_map(Rep::slots).collect(),
            Rep::Sum(alts) => {
                let mut merged = SlotCounts::default();
                for alt in alts {
                    merged.merge_max(&SlotCounts::of_slots(&alt.slots()));
                }
                let mut slots = vec![Slot::Word]; // the tag
                slots.extend(merged.into_slots());
                slots
            }
        }
    }

    /// Total bytes of register space for a value of this representation.
    pub fn width_bytes(&self) -> usize {
        self.slots().iter().map(|s| s.bytes()).sum()
    }

    /// Number of registers used; `(# #)` uses zero.
    pub fn register_count(&self) -> usize {
        self.slots().len()
    }

    /// The classification row of Figure 1 for this representation.
    pub fn classification(&self) -> Classification {
        match (self.is_boxed(), self.is_lifted()) {
            (true, true) => Classification::BoxedLifted,
            (true, false) => Classification::BoxedUnlifted,
            (false, false) => Classification::Unboxed,
            (false, true) => unreachable!("lifted implies boxed (Figure 1)"),
        }
    }
}

impl fmt::Display for Rep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rep::Lifted => f.write_str("LiftedRep"),
            Rep::Unlifted => f.write_str("UnliftedRep"),
            Rep::Int => f.write_str("IntRep"),
            Rep::Int8 => f.write_str("Int8Rep"),
            Rep::Int16 => f.write_str("Int16Rep"),
            Rep::Int32 => f.write_str("Int32Rep"),
            Rep::Int64 => f.write_str("Int64Rep"),
            Rep::Word => f.write_str("WordRep"),
            Rep::Word8 => f.write_str("Word8Rep"),
            Rep::Word64 => f.write_str("Word64Rep"),
            Rep::Char => f.write_str("CharRep"),
            Rep::Float => f.write_str("FloatRep"),
            Rep::Double => f.write_str("DoubleRep"),
            Rep::Addr => f.write_str("AddrRep"),
            Rep::Tuple(parts) => write_promoted_list(f, "TupleRep", parts),
            Rep::Sum(alts) => write_promoted_list(f, "SumRep", alts),
        }
    }
}

fn write_promoted_list(f: &mut fmt::Formatter<'_>, head: &str, parts: &[Rep]) -> fmt::Result {
    write!(f, "{head} '[")?;
    for (i, p) in parts.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write!(f, "{p}")?;
    }
    f.write_str("]")
}

/// The three inhabited corners of Figure 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Classification {
    /// Boxed and lifted: `Int`, `Bool`.
    BoxedLifted,
    /// Boxed and unlifted: `ByteArray#`.
    BoxedUnlifted,
    /// Unboxed (necessarily unlifted): `Int#`, `Char#`.
    Unboxed,
}

impl fmt::Display for Classification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Classification::BoxedLifted => f.write_str("boxed, lifted"),
            Classification::BoxedUnlifted => f.write_str("boxed, unlifted"),
            Classification::Unboxed => f.write_str("unboxed, unlifted"),
        }
    }
}

/// A machine register class, the `M` language's notion of "what kind of
/// register" (§6.2 uses pointer and integer; the full pipeline adds the
/// floating-point bank, cf. §9.1's discussion of OCaml).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Slot {
    /// Garbage-collected pointer register.
    Ptr,
    /// General-purpose (integer/word/address) register.
    Word,
    /// Single-precision floating-point register.
    Float,
    /// Double-precision floating-point register.
    Double,
}

impl Slot {
    /// Width of the slot in bytes (64-bit machine model).
    pub fn bytes(self) -> usize {
        match self {
            Slot::Ptr | Slot::Word | Slot::Double => 8,
            Slot::Float => 4,
        }
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slot::Ptr => f.write_str("ptr"),
            Slot::Word => f.write_str("word"),
            Slot::Float => f.write_str("float"),
            Slot::Double => f.write_str("double"),
        }
    }
}

/// Per-class slot counts, used to merge unboxed-sum alternatives.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct SlotCounts {
    ptr: usize,
    word: usize,
    float: usize,
    double: usize,
}

impl SlotCounts {
    fn of_slots(slots: &[Slot]) -> Self {
        let mut c = SlotCounts::default();
        for s in slots {
            match s {
                Slot::Ptr => c.ptr += 1,
                Slot::Word => c.word += 1,
                Slot::Float => c.float += 1,
                Slot::Double => c.double += 1,
            }
        }
        c
    }

    fn merge_max(&mut self, other: &SlotCounts) {
        self.ptr = self.ptr.max(other.ptr);
        self.word = self.word.max(other.word);
        self.float = self.float.max(other.float);
        self.double = self.double.max(other.double);
    }

    fn into_slots(self) -> Vec<Slot> {
        let mut out = Vec::with_capacity(self.ptr + self.word + self.float + self.double);
        out.extend(std::iter::repeat_n(Slot::Ptr, self.ptr));
        out.extend(std::iter::repeat_n(Slot::Word, self.word));
        out.extend(std::iter::repeat_n(Slot::Float, self.float));
        out.extend(std::iter::repeat_n(Slot::Double, self.double));
        out
    }
}

/// A type-level representation *expression*: the `ρ` of Figure 2,
/// generalized from `{P, I}` to the full `Rep` grammar, and possibly
/// mentioning representation variables.
///
/// `RepTy` is what appears in kinds (`TYPE ρ`). A `RepTy` with no
/// variables can be lowered to a concrete [`Rep`] via
/// [`RepTy::as_concrete`]; one with variables cannot be compiled — that is
/// the whole point of the §5.1 restrictions.
///
/// # Examples
///
/// ```
/// use levity_core::rep::{Rep, RepTy};
/// use levity_core::symbol::Symbol;
///
/// let concrete = RepTy::Concrete(Rep::Int);
/// assert_eq!(concrete.as_concrete(), Some(Rep::Int));
///
/// let var = RepTy::Var(Symbol::intern("r"));
/// assert_eq!(var.as_concrete(), None);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum RepTy {
    /// A representation variable `r`.
    Var(Symbol),
    /// A concrete representation constructor with no variables underneath.
    Concrete(Rep),
    /// `TupleRep '[ρ₁, …, ρₙ]` where some component may mention variables.
    /// (Fully concrete tuples should normalize to `Concrete`.)
    Tuple(Vec<RepTy>),
    /// `SumRep '[ρ₁, …, ρₙ]`, possibly with variables.
    Sum(Vec<RepTy>),
}

impl RepTy {
    /// `LiftedRep`, the representation in `Type = TYPE LiftedRep`.
    pub const LIFTED: RepTy = RepTy::Concrete(Rep::Lifted);

    /// Lower to a concrete representation, if no variables occur.
    pub fn as_concrete(&self) -> Option<Rep> {
        match self {
            RepTy::Var(_) => None,
            RepTy::Concrete(r) => Some(r.clone()),
            RepTy::Tuple(parts) => parts
                .iter()
                .map(RepTy::as_concrete)
                .collect::<Option<Vec<_>>>()
                .map(Rep::Tuple),
            RepTy::Sum(alts) => alts
                .iter()
                .map(RepTy::as_concrete)
                .collect::<Option<Vec<_>>>()
                .map(Rep::Sum),
        }
    }

    /// Does any representation variable occur in this expression?
    pub fn has_vars(&self) -> bool {
        match self {
            RepTy::Var(_) => true,
            RepTy::Concrete(_) => false,
            RepTy::Tuple(parts) | RepTy::Sum(parts) => parts.iter().any(RepTy::has_vars),
        }
    }

    /// All representation variables occurring, in first-occurrence order.
    pub fn free_vars(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<Symbol>) {
        match self {
            RepTy::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            RepTy::Concrete(_) => {}
            RepTy::Tuple(parts) | RepTy::Sum(parts) => {
                for p in parts {
                    p.collect_vars(out);
                }
            }
        }
    }

    /// Substitutes `rep` for the variable `var`, normalizing
    /// variable-free tuples/sums to `Concrete`.
    pub fn substitute(&self, var: Symbol, rep: &RepTy) -> RepTy {
        match self {
            RepTy::Var(v) if *v == var => rep.clone(),
            RepTy::Var(_) | RepTy::Concrete(_) => self.clone(),
            RepTy::Tuple(parts) => {
                normalize_tuple(parts.iter().map(|p| p.substitute(var, rep)).collect())
            }
            RepTy::Sum(parts) => {
                normalize_sum(parts.iter().map(|p| p.substitute(var, rep)).collect())
            }
        }
    }
}

/// Builds a `TupleRep` rep expression, collapsing to `Concrete` when no
/// variables occur.
pub fn normalize_tuple(parts: Vec<RepTy>) -> RepTy {
    if parts.iter().all(|p| !p.has_vars()) {
        RepTy::Concrete(Rep::Tuple(
            parts
                .iter()
                .map(|p| p.as_concrete().expect("no vars"))
                .collect(),
        ))
    } else {
        RepTy::Tuple(parts)
    }
}

/// Builds a `SumRep` rep expression, collapsing to `Concrete` when no
/// variables occur.
pub fn normalize_sum(parts: Vec<RepTy>) -> RepTy {
    if parts.iter().all(|p| !p.has_vars()) {
        RepTy::Concrete(Rep::Sum(
            parts
                .iter()
                .map(|p| p.as_concrete().expect("no vars"))
                .collect(),
        ))
    } else {
        RepTy::Sum(parts)
    }
}

impl fmt::Display for RepTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepTy::Var(v) => write!(f, "{v}"),
            RepTy::Concrete(r) => write!(f, "{r}"),
            RepTy::Tuple(parts) => write_repty_list(f, "TupleRep", parts),
            RepTy::Sum(parts) => write_repty_list(f, "SumRep", parts),
        }
    }
}

fn write_repty_list(f: &mut fmt::Formatter<'_>, head: &str, parts: &[RepTy]) -> fmt::Result {
    write!(f, "{head} '[")?;
    for (i, p) in parts.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write!(f, "{p}")?;
    }
    f.write_str("]")
}

impl From<Rep> for RepTy {
    fn from(rep: Rep) -> RepTy {
        RepTy::Concrete(rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_int_and_bool_are_boxed_lifted() {
        assert_eq!(Rep::Lifted.classification(), Classification::BoxedLifted);
        assert!(Rep::Lifted.is_boxed());
        assert!(Rep::Lifted.is_lifted());
    }

    #[test]
    fn figure1_bytearray_is_boxed_unlifted() {
        assert_eq!(
            Rep::Unlifted.classification(),
            Classification::BoxedUnlifted
        );
        assert!(Rep::Unlifted.is_boxed());
        assert!(!Rep::Unlifted.is_lifted());
    }

    #[test]
    fn figure1_int_hash_is_unboxed() {
        assert_eq!(Rep::Int.classification(), Classification::Unboxed);
        assert_eq!(Rep::Char.classification(), Classification::Unboxed);
        assert!(!Rep::Int.is_boxed());
    }

    #[test]
    fn figure1_lifted_implies_boxed() {
        // There is no unboxed-lifted corner; exhaustively check every
        // nullary constructor.
        let all = [
            Rep::Lifted,
            Rep::Unlifted,
            Rep::Int,
            Rep::Int8,
            Rep::Int16,
            Rep::Int32,
            Rep::Int64,
            Rep::Word,
            Rep::Word8,
            Rep::Word64,
            Rep::Char,
            Rep::Float,
            Rep::Double,
            Rep::Addr,
        ];
        for rep in all {
            if rep.is_lifted() {
                assert!(rep.is_boxed(), "{rep} is lifted but not boxed");
            }
        }
    }

    #[test]
    fn boxed_values_are_one_pointer() {
        assert_eq!(Rep::Lifted.slots(), vec![Slot::Ptr]);
        assert_eq!(Rep::Unlifted.slots(), vec![Slot::Ptr]);
    }

    #[test]
    fn empty_unboxed_tuple_is_represented_by_nothing() {
        // "(# #) :: TYPE (TupleRep '[]) … represented by nothing at all."
        assert_eq!(Rep::Tuple(vec![]).register_count(), 0);
        assert_eq!(Rep::Tuple(vec![]).width_bytes(), 0);
    }

    #[test]
    fn section4_2_tuple_examples() {
        // (# Int, Bool #): two pointer registers.
        let two_ptrs = Rep::Tuple(vec![Rep::Lifted, Rep::Lifted]);
        assert_eq!(two_ptrs.slots(), vec![Slot::Ptr, Slot::Ptr]);
        // (# Int#, Bool #): an integer register and a pointer register.
        let int_ptr = Rep::Tuple(vec![Rep::Int, Rep::Lifted]);
        assert_eq!(int_ptr.slots(), vec![Slot::Word, Slot::Ptr]);
    }

    #[test]
    fn nesting_is_computationally_irrelevant() {
        // (# Int, (# Bool, Double #) #) vs (# (# Char, String #), Int #):
        // "Both are represented by three garbage-collected pointers."
        let a = Rep::Tuple(vec![
            Rep::Lifted,
            Rep::Tuple(vec![Rep::Lifted, Rep::Lifted]),
        ]);
        let b = Rep::Tuple(vec![
            Rep::Tuple(vec![Rep::Lifted, Rep::Lifted]),
            Rep::Lifted,
        ]);
        assert_eq!(a.slots(), vec![Slot::Ptr; 3]);
        assert_eq!(a.slots(), b.slots());
        // ... yet they are distinct kinds (§4.2 kept the nested structure).
        assert_ne!(a, b);
    }

    #[test]
    fn sum_slots_merge_alternatives() {
        // (# Int# | Double# #): tag + one word + one double.
        let s = Rep::Sum(vec![Rep::Int, Rep::Double]);
        assert_eq!(s.slots(), vec![Slot::Word, Slot::Word, Slot::Double]);
        // (# Int# | Int# #): tag + a single shared word slot.
        let t = Rep::Sum(vec![Rep::Int, Rep::Int]);
        assert_eq!(t.slots(), vec![Slot::Word, Slot::Word]);
    }

    #[test]
    fn widths_follow_slots() {
        assert_eq!(Rep::Double.width_bytes(), 8);
        assert_eq!(Rep::Float.width_bytes(), 4);
        assert_eq!(Rep::Tuple(vec![Rep::Int, Rep::Float]).width_bytes(), 12);
    }

    #[test]
    fn display_matches_ghc_spelling() {
        assert_eq!(Rep::Lifted.to_string(), "LiftedRep");
        assert_eq!(Rep::Int.to_string(), "IntRep");
        assert_eq!(
            Rep::Tuple(vec![Rep::Int, Rep::Lifted]).to_string(),
            "TupleRep '[IntRep, LiftedRep]"
        );
    }

    #[test]
    fn repty_concreteness() {
        let r = Symbol::intern("r");
        let poly = RepTy::Tuple(vec![RepTy::Var(r), RepTy::Concrete(Rep::Lifted)]);
        assert!(poly.has_vars());
        assert_eq!(poly.as_concrete(), None);
        assert_eq!(poly.free_vars(), vec![r]);

        let mono = poly.substitute(r, &RepTy::Concrete(Rep::Int));
        assert!(!mono.has_vars());
        assert_eq!(
            mono.as_concrete(),
            Some(Rep::Tuple(vec![Rep::Int, Rep::Lifted]))
        );
    }

    #[test]
    fn substitute_leaves_other_vars_alone() {
        let r = Symbol::intern("r1");
        let s = Symbol::intern("r2");
        let poly = RepTy::Tuple(vec![RepTy::Var(r), RepTy::Var(s)]);
        let after = poly.substitute(r, &RepTy::LIFTED);
        assert_eq!(after.free_vars(), vec![s]);
    }

    #[test]
    fn repty_display() {
        let r = Symbol::intern("r");
        let t = RepTy::Tuple(vec![RepTy::Var(r), RepTy::LIFTED]);
        assert_eq!(t.to_string(), "TupleRep '[r, LiftedRep]");
    }

    #[test]
    fn normalization_collapses_concrete_tuples() {
        let t = normalize_tuple(vec![RepTy::Concrete(Rep::Int), RepTy::LIFTED]);
        assert_eq!(t, RepTy::Concrete(Rep::Tuple(vec![Rep::Int, Rep::Lifted])));
    }
}
