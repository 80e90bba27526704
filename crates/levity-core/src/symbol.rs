//! Interned strings.
//!
//! Compilers compare and hash names constantly; interning makes every name a
//! `Copy` integer. The interner is a process-global table, so [`Symbol`]s
//! created anywhere in the workspace are interchangeable.
//!
//! # Examples
//!
//! ```
//! use levity_core::symbol::Symbol;
//!
//! let a = Symbol::intern("sumTo#");
//! let b = Symbol::intern("sumTo#");
//! assert_eq!(a, b);
//! assert_eq!(a.as_str(), "sumTo#");
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned string.
///
/// Two symbols are equal exactly when the strings they intern are equal.
/// Symbols are cheap to copy, compare for equality and hash.
///
/// They are deliberately *not* ordered: the intern index depends on
/// which thread interned a name first, so an order on it would leak
/// thread interleaving into compiler output. Sort by [`Symbol::as_str`]
/// instead.
///
/// ```compile_fail
/// use levity_core::symbol::Symbol;
///
/// let _ = Symbol::intern("a") < Symbol::intern("b");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

struct Interner {
    /// Map from string to index in `strings`.
    table: HashMap<&'static str, u32>,
    /// All interned strings; leaked so `as_str` can hand out `&'static str`.
    strings: Vec<&'static str>,
}

impl Interner {
    fn new() -> Self {
        Interner {
            table: HashMap::new(),
            strings: Vec::new(),
        }
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&ix) = self.table.get(s) {
            return ix;
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let ix = u32::try_from(self.strings.len()).expect("interner overflow");
        self.strings.push(leaked);
        self.table.insert(leaked, ix);
        ix
    }
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(Interner::new()))
}

impl Symbol {
    /// Interns `s`, returning its canonical [`Symbol`].
    pub fn intern(s: &str) -> Symbol {
        Symbol(interner().lock().expect("interner poisoned").intern(s))
    }

    /// Returns the interned string.
    pub fn as_str(self) -> &'static str {
        interner().lock().expect("interner poisoned").strings[self.0 as usize]
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

/// A supply of fresh names, used wherever the compiler must invent a
/// variable (unification variables, ANF temporaries, dictionary binders).
///
/// Names are formed `prefix ++ "$" ++ counter`, a shape the surface lexer
/// rejects, so generated names can never capture user-written ones.
///
/// # Examples
///
/// ```
/// use levity_core::symbol::NameSupply;
///
/// let mut supply = NameSupply::new();
/// let a = supply.fresh("p");
/// let b = supply.fresh("p");
/// assert_ne!(a, b);
/// assert!(a.as_str().starts_with("p$"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct NameSupply {
    next: u64,
}

impl NameSupply {
    /// Creates a supply starting at zero.
    pub fn new() -> Self {
        NameSupply { next: 0 }
    }

    /// Returns a fresh symbol with the given prefix.
    pub fn fresh(&mut self, prefix: &str) -> Symbol {
        let n = self.next;
        self.next += 1;
        Symbol::intern(&format!("{prefix}${n}"))
    }

    /// Number of names handed out so far.
    pub fn names_issued(&self) -> u64 {
        self.next
    }
}

/// A `HashMap` keyed by [`Symbol`] with a multiplicative hasher.
///
/// A symbol is already a dense interner index; running it through
/// SipHash costs more than the table probe it guards. Fibonacci
/// multiplicative hashing scrambles the low bits well enough for the
/// std table and keeps hot lookups (e.g. a global fetched once per loop
/// iteration in the reference machine) to a multiply and a mask.
pub type SymbolMap<V> = HashMap<Symbol, V, BuildSymbolHasher>;

/// Build-side of the [`SymbolMap`] hasher; zero-sized.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildSymbolHasher;

impl std::hash::BuildHasher for BuildSymbolHasher {
    type Hasher = SymbolHasher;

    fn build_hasher(&self) -> SymbolHasher {
        SymbolHasher(0)
    }
}

/// Hashes the symbol's `u32` index by Fibonacci multiplication. Only
/// meant for symbol keys: other write methods are unimplemented so a
/// misuse fails loudly rather than hashing weakly.
#[derive(Debug)]
pub struct SymbolHasher(u64);

impl std::hash::Hasher for SymbolHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, _bytes: &[u8]) {
        unimplemented!("SymbolHasher only hashes Symbol (u32) keys");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("x");
        let b = Symbol::intern("x");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "x");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        assert_ne!(Symbol::intern("x"), Symbol::intern("y"));
    }

    #[test]
    fn display_shows_string() {
        assert_eq!(Symbol::intern("plusInt#").to_string(), "plusInt#");
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Symbol::intern("d")).is_empty());
    }

    #[test]
    fn fresh_names_never_collide_with_source_names() {
        let mut supply = NameSupply::new();
        let s = supply.fresh("x");
        // `$` is not a valid identifier character in the surface language.
        assert!(s.as_str().contains('$'));
    }

    #[test]
    fn fresh_names_are_distinct() {
        let mut supply = NameSupply::new();
        let a = supply.fresh("t");
        let b = supply.fresh("t");
        let c = supply.fresh("u");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(supply.names_issued(), 3);
    }

    #[test]
    fn symbols_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Symbol>();
    }

    #[test]
    fn from_str_and_string() {
        let a: Symbol = "abc".into();
        let b: Symbol = String::from("abc").into();
        assert_eq!(a, b);
    }
}
