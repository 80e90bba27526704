//! What a module compiled with the prelude keeps alive.
//!
//! A module compiled after the prelude shares the prelude seed's Core
//! bindings and environments instead of copying them, so a `Compiled`
//! (what the serving cache holds per entry) is the module's own code
//! plus pointers into the seed. A prelude copy creeping back into the
//! elaborated program, its type environment or its class table adds
//! ~120 KiB per compilation and fails here by name.
//!
//! A counting global allocator tracks the bytes requested and not yet
//! freed. This binary has a single test, so no other test's
//! allocations interleave with its readings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use levity::driver::pipeline::compile_with_prelude;
use levity::serve::corpus::{CHURN, MIXED_CORPUS};

/// Requested bytes currently allocated.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting into [`LIVE`].
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` carry over.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller's guarantees for
        // `new_size` carry over.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        new
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// The most live heap a held `Compiled` may add.
const HELD_LIMIT: isize = 48 * 1024;

/// The most that dropping a `Compiled`'s `elaborated` may free.
const ELABORATED_LIMIT: isize = 16 * 1024;

#[test]
fn a_compiled_module_holds_its_own_code_and_shares_the_prelude() {
    let programs: Vec<(&str, &str)> = [("main = 1#", "main :: Int#\nmain = 1#\n")]
        .into_iter()
        .chain(
            MIXED_CORPUS
                .iter()
                .chain([&CHURN])
                .map(|p| (p.name, p.source)),
        )
        .collect();
    // Warm up: build the prelude seed and intern every name the
    // programs use, so the readings below count only the compilation.
    for (name, source) in &programs {
        compile_with_prelude(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    let mut readings = Vec::new();
    let mut over = Vec::new();
    for (name, source) in &programs {
        let before = live();
        let compiled = compile_with_prelude(source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let held = live() - before;
        let elaborated = compiled.elaborated;
        let with_elaborated = live();
        drop(elaborated);
        let freed = with_elaborated - live();
        let reading = format!("{name}: held {held} B, elaborated {freed} B");
        if held > HELD_LIMIT || freed > ELABORATED_LIMIT {
            over.push(reading.clone());
        }
        readings.push(reading);
    }
    eprintln!("{}", readings.join("\n"));
    assert!(
        over.is_empty(),
        "a compilation holds more than {HELD_LIMIT} B, or its elaborated part more than \
         {ELABORATED_LIMIT} B (a prelude copy?):\n{}",
        over.join("\n")
    );
}
