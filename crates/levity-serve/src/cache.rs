//! Content-addressed cache of compiled programs.
//!
//! The key is a 64-bit FNV-1a hash of the source text plus the
//! compilation options; the value is the fully compiled
//! [`Compiled`] (Core, `M` globals, env-engine [`CodeProgram`] and
//! flat bytecode), behind an `Arc` so every worker shares one copy.
//!
//! What an entry holds: the module's elaborated Core, its optimised
//! Core, the `M` globals, `Code`, bytecode and the verifier's witness.
//! A program compiled with the prelude shares the driver's prelude seed
//! rather than copying it: its elaborated program holds the seed's
//! bindings by `Arc`, and its type environment and class table sit over
//! the seed's. An entry is therefore its own module plus pointers into
//! the seed, a few KiB to a few tens of KiB on the serving corpus
//! (`tests/footprint.rs` pins it), and evicting one frees only that.
//!
//! Concurrency contract: when N workers ask for the same uncached
//! program at once, the pipeline runs **once** — the entry is a
//! [`OnceLock`], so the first worker compiles while the rest block on
//! the same cell and then share its result. Hits and misses are
//! counted by whether this call ran the pipeline, so
//! `misses == distinct programs compiled` even under contention.
//!
//! Hash collisions (two distinct sources, one key) are broken by
//! storing the source alongside the cell and comparing on lookup: a
//! colliding request is compiled uncached rather than served the wrong
//! program. With 64-bit FNV this is a formality, but a cache that can
//! hand tenant A tenant B's program is wrong at any probability.
//!
//! Residency contract: the cache holds at most `capacity` entries.
//! Admitting one more evicts — cached compile *failures* first (they
//! are cheap to reproduce and the favourite payload of a tenant
//! spraying distinct invalid programs), then the oldest completed
//! entry. In-flight slots are never torn out from under their
//! compiling workers: every waiter holds its own `Arc` on the slot, so
//! an evicted in-flight compilation still completes for the requests
//! already attached to it — it just is not cached afterwards.
//!
//! [`CodeProgram`]: levity_m::compile::CodeProgram

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use levity_driver::pipeline::{compile_source_opt, compile_with_prelude_opt, Compiled};
use levity_driver::OptLevel;

/// The outcome of one compilation, as stored in the cache. Failures
/// are cached too: a program that does not elaborate will not
/// elaborate on the next request either, and a misbehaving tenant
/// resubmitting a broken program should not cost a pipeline run each
/// time.
pub type CompileResult = Result<Arc<Compiled>, String>;

/// FNV-1a (64-bit) over the source text and the compilation options.
/// Stable across processes — usable as an external cache key or a log
/// correlation id.
pub fn content_hash(source: &str, opt_level: OptLevel, with_prelude: bool) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(source.as_bytes());
    let opt_tag = match opt_level {
        OptLevel::O0 => 0u8,
        OptLevel::O2 => 2u8,
    };
    eat(&[0xff, opt_tag, u8::from(with_prelude)]);
    h
}

/// One cache slot: the source that claimed this key (collision guard)
/// and the compile-once cell.
struct Slot {
    source: Arc<str>,
    cell: OnceLock<CompileResult>,
}

/// Cache counters, snapshotted by [`ProgramCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from an already-compiled entry.
    pub hits: u64,
    /// Requests that ran the elaborate+optimise+lower pipeline.
    pub misses: u64,
    /// Requests whose key collided with a different source (compiled
    /// uncached; counted under `misses` as well).
    pub collisions: u64,
    /// Entries evicted to stay within capacity (failures first).
    pub evictions: u64,
}

/// The map plus its insertion order (oldest first), kept together
/// behind one lock so eviction scans see a consistent view.
#[derive(Default)]
struct Slots {
    map: HashMap<u64, Arc<Slot>>,
    order: VecDeque<u64>,
}

impl Slots {
    /// The eviction victim: the oldest cached *failure* if any, else
    /// the oldest *completed* entry, else (every slot still compiling)
    /// the oldest in-flight slot — waiters keep it alive through their
    /// own `Arc`s, it merely stops being cached.
    fn victim(&self) -> Option<u64> {
        let by = |pred: fn(Option<&CompileResult>) -> bool| {
            self.order
                .iter()
                .copied()
                .find(|k| self.map.get(k).is_some_and(|s| pred(s.cell.get())))
        };
        by(|r| matches!(r, Some(Err(_))))
            .or_else(|| by(|r| matches!(r, Some(Ok(_)))))
            .or_else(|| self.order.front().copied())
    }

    /// Removes `key`'s slot and returns it, for the caller to drop
    /// once the lock is released.
    fn remove(&mut self, key: u64) -> Option<Arc<Slot>> {
        if let Some(ix) = self.order.iter().position(|k| *k == key) {
            self.order.remove(ix);
        }
        self.map.remove(&key)
    }
}

/// A thread-safe compile-once cache keyed by [`content_hash`], bounded
/// at `capacity` resident entries.
pub struct ProgramCache {
    slots: Mutex<Slots>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    collisions: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ProgramCache {
    fn default() -> ProgramCache {
        ProgramCache::with_capacity(ProgramCache::DEFAULT_CAPACITY)
    }
}

impl ProgramCache {
    /// The default residency bound.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// An empty cache with the default capacity.
    pub fn new() -> ProgramCache {
        ProgramCache::default()
    }

    /// An empty cache holding at most `capacity` entries (minimum 1).
    pub fn with_capacity(capacity: usize) -> ProgramCache {
        ProgramCache {
            slots: Mutex::new(Slots::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Locks the slot table, recovering from poisoning: a worker that
    /// panicked while holding the lock (nothing in our critical
    /// sections can, but a serving layer must not turn one crashed
    /// request into permanent failure) costs the cached programs, not
    /// the service — the table is cleared and every later request
    /// compiles as if cold.
    fn lock_slots(&self) -> MutexGuard<'_, Slots> {
        match self.slots.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.map.clear();
                guard.order.clear();
                self.slots.clear_poison();
                guard
            }
        }
    }

    /// Returns the compiled program for `source`, running the pipeline
    /// only if no equivalent request has been compiled before. The
    /// `bool` is `true` on a cache hit (the pipeline did *not* run for
    /// this call).
    pub fn get_or_compile(
        &self,
        source: &str,
        opt_level: OptLevel,
        with_prelude: bool,
    ) -> (CompileResult, bool) {
        let key = content_hash(source, opt_level, with_prelude);
        let mut evicted = Vec::new();
        let slot = {
            let mut slots = self.lock_slots();
            if let Some(slot) = slots.map.get(&key) {
                Arc::clone(slot)
            } else {
                while slots.map.len() >= self.capacity {
                    let Some(victim) = slots.victim() else { break };
                    evicted.extend(slots.remove(victim));
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                let slot = Arc::new(Slot {
                    source: Arc::from(source),
                    cell: OnceLock::new(),
                });
                slots.map.insert(key, Arc::clone(&slot));
                slots.order.push_back(key);
                slot
            }
        };
        // Free the victims now that the lock is released: the cache may
        // hold the last reference to a `Compiled`, and freeing one must
        // not stall every other worker's lookup, cache hits included.
        drop(evicted);
        if &*slot.source != source {
            // A 64-bit collision: never serve the other tenant's
            // program. Compile uncached.
            self.collisions.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return (compile(source, opt_level, with_prelude), false);
        }
        let mut compiled_here = false;
        let result = slot
            .cell
            .get_or_init(|| {
                compiled_here = true;
                compile(source, opt_level, with_prelude)
            })
            .clone();
        if compiled_here {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (result, !compiled_here)
    }

    /// Number of distinct entries resident in the cache.
    pub fn len(&self) -> usize {
        self.lock_slots().map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the hit/miss/collision/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

// The pipeline statically verifies the bytecode as part of
// compilation, so the witness is built once per cache *insert*; a
// request served from the cache verifies only its tiny entry term.
fn compile(source: &str, opt_level: OptLevel, with_prelude: bool) -> CompileResult {
    let result = if with_prelude {
        compile_with_prelude_opt(source, opt_level)
    } else {
        compile_source_opt(source, opt_level)
    };
    result.map(Arc::new).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    const SRC: &str = "main :: Int#\nmain = 40# +# 2#\n";

    #[test]
    fn hash_is_stable_and_option_sensitive() {
        let a = content_hash(SRC, OptLevel::O2, true);
        assert_eq!(a, content_hash(SRC, OptLevel::O2, true));
        assert_ne!(a, content_hash(SRC, OptLevel::O0, true));
        assert_ne!(a, content_hash(SRC, OptLevel::O2, false));
        assert_ne!(
            a,
            content_hash("main :: Int#\nmain = 41#\n", OptLevel::O2, true)
        );
    }

    #[test]
    fn second_request_is_a_hit_and_shares_the_program() {
        let cache = ProgramCache::new();
        let (first, hit1) = cache.get_or_compile(SRC, OptLevel::O2, true);
        let (second, hit2) = cache.get_or_compile(SRC, OptLevel::O2, true);
        assert!(!hit1);
        assert!(hit2);
        let (first, second) = (first.unwrap(), second.unwrap());
        assert!(Arc::ptr_eq(&first, &second), "one shared compilation");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                collisions: 0,
                evictions: 0
            }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn failures_are_cached_too() {
        let cache = ProgramCache::new();
        let bad = "main :: Int#\nmain = notInScope\n";
        let (r1, hit1) = cache.get_or_compile(bad, OptLevel::O2, true);
        let (r2, hit2) = cache.get_or_compile(bad, OptLevel::O2, true);
        assert!(r1.is_err() && r2.is_err());
        assert!(!hit1);
        assert!(hit2, "a cached failure is still a hit");
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn capacity_evicts_failures_before_successes() {
        let cache = ProgramCache::with_capacity(2);
        let good = SRC;
        let bad1 = "main :: Int#\nmain = nopeOne\n";
        let bad2 = "main :: Int#\nmain = nopeTwo\n";
        assert!(cache.get_or_compile(good, OptLevel::O2, false).0.is_ok());
        assert!(cache.get_or_compile(bad1, OptLevel::O2, false).0.is_err());
        // Admitting a third entry at capacity 2 evicts — and the cached
        // failure goes before the older cached success.
        assert!(cache.get_or_compile(bad2, OptLevel::O2, false).0.is_err());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        let (again, hit) = cache.get_or_compile(good, OptLevel::O2, false);
        assert!(again.is_ok());
        assert!(hit, "the success survived the eviction");
        let (refailed, hit) = cache.get_or_compile(bad1, OptLevel::O2, false);
        assert!(refailed.is_err());
        assert!(!hit, "the evicted failure recompiles");
    }

    #[test]
    fn a_spray_of_distinct_failures_stays_bounded() {
        let cache = ProgramCache::with_capacity(4);
        for i in 0..12 {
            let bad = format!("main :: Int#\nmain = nope{i}\n");
            assert!(cache.get_or_compile(&bad, OptLevel::O2, false).0.is_err());
            assert!(cache.len() <= 4, "resident entries exceed capacity");
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evictions, 8);
        assert_eq!(cache.stats().misses, 12);
    }

    #[test]
    fn poisoned_cache_still_serves() {
        let cache = Arc::new(ProgramCache::new());
        assert!(cache.get_or_compile(SRC, OptLevel::O2, true).0.is_ok());
        // Poison the mutex: a thread panics while holding the guard.
        let poisoner = Arc::clone(&cache);
        let _ = thread::spawn(move || {
            let _guard = poisoner.slots.lock().unwrap();
            panic!("worker crash while holding the cache lock");
        })
        .join();
        assert!(cache.slots.is_poisoned() || cache.is_empty());
        // The cache degrades to cold instead of failing forever: the
        // table is rebuilt and requests keep compiling and caching.
        let (first, hit) = cache.get_or_compile(SRC, OptLevel::O2, true);
        assert!(first.is_ok());
        assert!(!hit, "the poisoned table was cleared, so this recompiles");
        let (second, hit) = cache.get_or_compile(SRC, OptLevel::O2, true);
        assert!(second.is_ok());
        assert!(hit, "caching works again after recovery");
    }

    #[test]
    fn concurrent_first_requests_compile_once() {
        let cache = Arc::new(ProgramCache::new());
        let results: Vec<bool> = thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    s.spawn(move || {
                        let (r, hit) = cache.get_or_compile(SRC, OptLevel::O2, true);
                        r.unwrap();
                        hit
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let misses = results.iter().filter(|hit| !**hit).count();
        assert_eq!(misses, 1, "exactly one thread ran the pipeline");
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 7);
    }
}
