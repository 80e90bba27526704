//! A precise, rep-directed copying collector for the bytecode engine.
//!
//! Levity polymorphism (§6.2) statically determines representation, so
//! the verifier's per-pc `[ptr, word, float, double]` initialized
//! heights double as *safepoint pointer maps*: at any pc, exactly the
//! pointer slots `bases[0] .. bases[0] + height[0]` of a frame are
//! provably initialized, and every slot above the watermark is dead —
//! the elementwise-min join guarantees no path reads it before
//! rewriting it. No per-object tag bitmaps, no conservative stack
//! scanning: the collector scans precisely those windows and nothing
//! else.
//!
//! The algorithm is classic Cheney: [`collect`] takes ownership of the
//! from-space, evacuates every root into a fresh to-space (recording
//! forwarding addresses in a side table), then runs the scan pointer
//! over to-space rewriting interior pointers — thunks' capture lists
//! and constructor/closure fields are the only interior pointers —
//! until it catches the allocation pointer. Sharing and cycles are
//! preserved by the forwarding table; blackholes are opaque one-word
//! cells with no interior pointers.
//!
//! Roots are gathered by [`crate::regmachine::BcMachine`] at its
//! allocation sites: the per-frame pointer windows (looked up in the
//! heights the verified entry retained, never re-derived), pending
//! `Upd`/`Arg` frames, and the accumulator. The verifier rejects
//! immediate heap-address operands, so every heap reference a run holds
//! is one of these roots and every run can collect.

use std::sync::Arc;

use crate::machine::MachineError;
use crate::regmachine::{BCell, BFrame, BValue};
use crate::syntax::{Addr, Atom};

/// Default nursery size, in heap cells: the collection trigger used
/// unless [`crate::regmachine::BcMachine::set_gc_nursery`] overrides
/// it.
pub const DEFAULT_NURSERY_CELLS: usize = 1 << 16;

/// What one collection accomplished.
#[derive(Debug)]
pub(crate) struct CollectOutcome {
    /// Cells evacuated to to-space (the live set).
    pub(crate) cells_live: u64,
    /// Estimated words evacuated (the live bytes are `8 ×` this).
    pub(crate) words_live: u64,
}

/// The semispace state of one collection: from-space (owned, drained),
/// to-space (grown by evacuation), and the forwarding table.
struct Cheney {
    from: Vec<BCell>,
    to: Vec<BCell>,
    fwd: Vec<u64>,
}

const UNFORWARDED: u64 = u64::MAX;

impl Cheney {
    /// Evacuates the cell at `a` (once — later visits hit the
    /// forwarding table) and returns its to-space address.
    fn evac(&mut self, a: Addr) -> Result<Addr, MachineError> {
        let ix = a.0 as usize;
        let Some(slot) = self.fwd.get_mut(ix) else {
            return Err(MachineError::InvalidState(format!(
                "gc: dangling heap address {a}"
            )));
        };
        if *slot == UNFORWARDED {
            *slot = self.to.len() as u64;
            let cell = std::mem::replace(&mut self.from[ix], BCell::Blackhole);
            self.to.push(cell);
        }
        Ok(Addr(*slot))
    }

    fn fwd_atom(&mut self, a: &Atom) -> Result<Atom, MachineError> {
        match a {
            Atom::Addr(addr) => Ok(Atom::Addr(self.evac(*addr)?)),
            other => Ok(*other),
        }
    }

    fn fwd_atoms(&mut self, atoms: &[Atom]) -> Result<Arc<[Atom]>, MachineError> {
        atoms.iter().map(|a| self.fwd_atom(a)).collect()
    }

    fn fwd_value(&mut self, v: &BValue) -> Result<BValue, MachineError> {
        Ok(match v {
            BValue::Clos {
                binder,
                chunk,
                caps,
            } => BValue::Clos {
                binder: *binder,
                chunk: *chunk,
                caps: self.fwd_atoms(caps)?,
            },
            BValue::Con(c, args) => BValue::Con(Arc::clone(c), self.fwd_atoms(args)?),
            BValue::Lit(l) => BValue::Lit(*l),
            BValue::Multi(args) => BValue::Multi(
                args.iter()
                    .map(|a| self.fwd_atom(a))
                    .collect::<Result<_, _>>()?,
            ),
        })
    }
}

/// Estimated size of a cell in words — header plus payload — matching
/// the allocation estimates `allocated_words` accumulates.
fn cell_words(cell: &BCell) -> u64 {
    match cell {
        BCell::Thunk(..) => 2,
        BCell::Value(BValue::Con(_, args)) => 1 + args.len() as u64,
        BCell::Value(BValue::Clos { caps, .. }) => 2 + caps.len() as u64,
        BCell::Value(BValue::Lit(_)) => 1,
        BCell::Value(BValue::Multi(args)) => 1 + args.len() as u64,
        BCell::Blackhole => 1,
    }
}

/// One full copying collection. `windows` lists the `(base, len)`
/// pointer-stack windows the pointer maps prove live (the current
/// frame's plus one per suspended `Ret`/`RetW` frame); `stack` and
/// `acc` contribute the remaining roots. On return `heap` is the
/// compacted to-space, every root rewritten to its new address.
///
/// # Errors
///
/// `InvalidState` on a dangling address — unreachable for maps derived
/// from a sound verification, kept as a structured error rather than a
/// panic.
pub(crate) fn collect(
    heap: &mut Vec<BCell>,
    ptrs: &mut [Addr],
    windows: &[(usize, usize)],
    stack: &mut [BFrame],
    acc: &mut BValue,
) -> Result<CollectOutcome, MachineError> {
    let from = std::mem::take(heap);
    let len = from.len();
    let mut gc = Cheney {
        from,
        to: Vec::with_capacity(len.min(1 << 20)),
        fwd: vec![UNFORWARDED; len],
    };

    // Roots: the provably-initialized ptr windows of every frame…
    for &(base, n) in windows {
        let Some(window) = ptrs.get_mut(base..base + n) else {
            return Err(MachineError::InvalidState(format!(
                "gc: pointer window {base}+{n} outside the ptr stack"
            )));
        };
        for slot in window {
            *slot = gc.evac(*slot)?;
        }
    }
    // …pending update and argument frames…
    for f in stack.iter_mut() {
        match f {
            BFrame::Upd(a) => *a = gc.evac(*a)?,
            BFrame::Arg(atom) => *atom = gc.fwd_atom(atom)?,
            BFrame::Ret { .. } | BFrame::RetW { .. } => {}
        }
    }
    // …and the accumulator.
    *acc = gc.fwd_value(acc)?;

    // Cheney scan: rewrite interior pointers of evacuated cells,
    // evacuating whatever they reach, until the scan pointer catches
    // the allocation pointer.
    let mut scan = 0;
    let mut words = 0u64;
    while scan < gc.to.len() {
        let cell = std::mem::replace(&mut gc.to[scan], BCell::Blackhole);
        let cell = match cell {
            BCell::Thunk(chunk, caps) => BCell::Thunk(chunk, gc.fwd_atoms(&caps)?),
            BCell::Value(v) => BCell::Value(gc.fwd_value(&v)?),
            BCell::Blackhole => BCell::Blackhole,
        };
        words += cell_words(&cell);
        gc.to[scan] = cell;
        scan += 1;
    }
    let cells_live = gc.to.len() as u64;
    *heap = gc.to;
    Ok(CollectOutcome {
        cells_live,
        words_live: words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use levity_core::rep::Slot;

    use crate::bytecode::{BcEntry, BcProgram, Chunk, Instr, WSrc};
    use crate::syntax::{DataCon, Literal};
    use crate::verify::verify;

    fn lit(n: i64) -> BCell {
        BCell::Value(BValue::Lit(Literal::Int(n)))
    }

    fn lit_of(heap: &[BCell], a: Addr) -> i64 {
        match &heap[a.0 as usize] {
            BCell::Value(BValue::Lit(Literal::Int(n))) => *n,
            other => panic!("expected literal cell, found {other:?}"),
        }
    }

    #[test]
    fn unreachable_cells_are_dropped_and_roots_forwarded() {
        let mut heap = vec![lit(0), lit(1), lit(2), lit(3)];
        let mut ptrs = vec![Addr(3), Addr(1)];
        let mut acc = BValue::Lit(Literal::Int(99));
        let out = collect(&mut heap, &mut ptrs, &[(0, 2)], &mut [], &mut acc).unwrap();
        assert_eq!(out.cells_live, 2);
        assert_eq!(heap.len(), 2);
        assert_eq!(lit_of(&heap, ptrs[0]), 3);
        assert_eq!(lit_of(&heap, ptrs[1]), 1);
    }

    #[test]
    fn sharing_and_cycles_survive_evacuation() {
        // Cell 0: a self-referential thunk; cells 1, 2: a shared pair.
        let mut heap = vec![
            BCell::Thunk(7, [Atom::Addr(Addr(0)), Atom::Addr(Addr(2))].into()),
            lit(10),
            BCell::Thunk(8, [Atom::Addr(Addr(1)), Atom::Addr(Addr(1))].into()),
        ];
        let mut ptrs = vec![Addr(0)];
        let mut acc = BValue::Lit(Literal::Int(0));
        collect(&mut heap, &mut ptrs, &[(0, 1)], &mut [], &mut acc).unwrap();
        assert_eq!(heap.len(), 3);
        let BCell::Thunk(7, caps) = &heap[ptrs[0].0 as usize] else {
            panic!("root must still be the chunk-7 thunk");
        };
        // The cycle points back at the root's new address.
        assert_eq!(caps[0], Atom::Addr(ptrs[0]));
        let Atom::Addr(pair) = caps[1] else {
            panic!("second capture must stay an address");
        };
        let BCell::Thunk(8, shared) = &heap[pair.0 as usize] else {
            panic!("interior thunk must survive");
        };
        // Sharing: both captures forward to the same cell.
        assert_eq!(shared[0], shared[1]);
        let Atom::Addr(leaf) = shared[0] else {
            panic!("shared capture must stay an address");
        };
        assert_eq!(lit_of(&heap, leaf), 10);
    }

    #[test]
    fn update_frames_and_accumulator_are_roots() {
        let mut heap = vec![BCell::Blackhole, lit(42)];
        let mut stack = vec![BFrame::Upd(Addr(0)), BFrame::Arg(Atom::Addr(Addr(1)))];
        let just = DataCon {
            name: "Just".into(),
            tag: 0,
            fields: [Slot::Ptr].into(),
        };
        let mut acc = BValue::Con(Arc::new(just), [Atom::Addr(Addr(1))].into());
        collect(&mut heap, &mut [], &[], &mut stack, &mut acc).unwrap();
        assert_eq!(heap.len(), 2);
        let BFrame::Upd(bh) = stack[0] else {
            panic!("update frame survives");
        };
        assert!(matches!(heap[bh.0 as usize], BCell::Blackhole));
        let BFrame::Arg(Atom::Addr(arg)) = stack[1] else {
            panic!("argument frame survives");
        };
        assert_eq!(lit_of(&heap, arg), 42);
        let BValue::Con(_, fields) = &acc else {
            panic!("accumulator survives");
        };
        assert_eq!(fields[0], Atom::Addr(arg));
    }

    #[test]
    fn dangling_roots_are_structured_errors() {
        let mut heap = vec![lit(0)];
        let mut ptrs = vec![Addr(5)];
        let mut acc = BValue::Lit(Literal::Int(0));
        let err = collect(&mut heap, &mut ptrs, &[(0, 1)], &mut [], &mut acc).unwrap_err();
        assert!(matches!(err, MachineError::InvalidState(_)));
    }

    #[test]
    fn height_lookup_spans_program_and_entry_id_spaces() {
        // Program chunk 0 initialises one word register, entry chunk 1
        // two: the collector's lookup must route each id to its map.
        let words = |label: &str, n: u16| {
            let mut code: Vec<Instr> = (0..n)
                .map(|i| Instr::MovW {
                    dst: i,
                    src: WSrc::K(Literal::Int(0)),
                })
                .collect();
            code.push(Instr::RetW(WSrc::R(n - 1)));
            Arc::new(Chunk {
                label: label.to_owned(),
                code: code.into(),
                frame: [0, n, 0, 0],
                caps: Arc::from([] as [Slot; 0]),
                caps_counts: [0; 4],
                params: Arc::from([] as [crate::syntax::Binder; 0]),
                lam_body: None,
            })
        };
        let program = Arc::new(BcProgram {
            chunks: vec![words("program", 1)],
            generic: Vec::new(),
            fast: Vec::new(),
            names: Vec::new(),
        });
        let entry = BcEntry {
            chunks: vec![words("entry", 2)],
            root: 1,
        };
        let verified = verify(&program).unwrap();
        let ventry = verified.verify_entry(&entry).unwrap();
        assert_eq!(ventry.heights_at(0, 1), Some([0, 1, 0, 0]));
        assert_eq!(ventry.heights_at(1, 2), Some([0, 2, 0, 0]));
        assert_eq!(ventry.heights_at(0, 2), None);
        assert_eq!(ventry.heights_at(2, 0), None);
    }
}
