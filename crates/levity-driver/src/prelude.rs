//! The prelude, written in the surface language itself, and its
//! once-per-process seed.
//!
//! Everything here elaborates through the ordinary pipeline — nothing is
//! special-cased, which is the paper's own discipline (§2.1: `Int` is an
//! ordinary ADT; §7.2: `($)` and `(.)` are ordinary levity-polymorphic
//! functions; §7.3: `Num` is an ordinary class over `a :: TYPE r`).
//!
//! The §5.1 levity checks and the Core check judge one binding at a time
//! against the global environment, so the prelude's verdict and its
//! elaborated Core are the same for every module compiled after it. A
//! seed built on first use holds them: a compilation with the prelude
//! parses, elaborates and checks only the user's module on top of it,
//! and gets the same result as compiling the concatenated source (GHC
//! typechecks `base` once and loads its interface the same way).

use std::sync::OnceLock;

use levity_infer::elaborate::{Elaborated, ModuleSeed};
use levity_ir::levity::{check_module_levity, check_program_levity};
use levity_ir::terms::{Program, TopBind};
use levity_ir::typecheck::{check_module, check_program, TypeEnv};
use levity_surface::ast::Module;
use levity_surface::parser::{parse_module, parse_module_continuing};

use crate::pipeline::PipelineError;

/// The prelude's front end, done once per process.
///
/// [`PreludeSeed::front_end`] is what a compilation with the prelude
/// runs; its stages are public so they can be timed one by one.
pub struct PreludeSeed {
    /// The prelude elaborated, ready to elaborate a module after it.
    elab: ModuleSeed,
    /// The Core check's environment over the prelude.
    env: TypeEnv,
    /// The fresh-name counter after the prelude's front end. Every
    /// seeded compilation restarts there: the prelude's Core may hold
    /// names freshened below it.
    fresh_mark: u64,
    /// Where a user module starts in the concatenated source, in
    /// characters: after the prelude and the line break that joins them.
    offset: usize,
}

impl PreludeSeed {
    /// The process's seed, built on first use; `None` if the prelude
    /// does not compile cleanly (the concatenated path then reports why).
    pub fn get() -> Option<&'static PreludeSeed> {
        static SEED: OnceLock<Option<PreludeSeed>> = OnceLock::new();
        SEED.get_or_init(PreludeSeed::build).as_ref()
    }

    fn build() -> Option<PreludeSeed> {
        levity_ir::restart_fresh_names();
        let module = parse_module(PRELUDE).ok()?;
        let elab = ModuleSeed::new(&module).ok()?;
        let env = check_program(elab.program()).ok()?;
        if !check_program_levity(&env, elab.program()).is_empty() {
            return None;
        }
        Some(PreludeSeed {
            elab,
            env,
            fresh_mark: levity_ir::fresh_names_mark(),
            offset: PRELUDE.chars().count() + 1,
        })
    }

    /// The front end over `PRELUDE`, a line break and `source`, doing
    /// the work for `source` alone: the elaborated program and the Core
    /// check's environment, or the error the concatenation fails with.
    /// `None` when `source` cannot follow the seed ([`Self::parse`] or
    /// [`Self::elaborate`] declines it): compile the concatenation
    /// instead.
    pub fn front_end(&self, source: &str) -> Option<Result<(Elaborated, TypeEnv), PipelineError>> {
        levity_ir::restart_fresh_names_at(self.fresh_mark);
        let module = match self.parse(source)? {
            Ok(module) => module,
            Err(e) => return Some(Err(e)),
        };
        let elaborated = match self.elaborate(&module)? {
            Ok(elaborated) => elaborated,
            Err(e) => return Some(Err(e)),
        };
        let checked = self
            .check(&elaborated)
            .and_then(|env| self.check_levity(&env, &elaborated).map(|()| env));
        Some(checked.map(|env| (elaborated, env)))
    }

    /// Parses `source` as the module after the prelude, its spans
    /// counted in the concatenated source. `None` when its first token
    /// is indented: it would continue the prelude's last declaration.
    pub fn parse(&self, source: &str) -> Option<Result<Module, PipelineError>> {
        parse_module_continuing(source, self.offset)
            .map_err(PipelineError::Parse)
            .transpose()
    }

    /// Elaborates `module` after the prelude. `None` when
    /// [`ModuleSeed::elaborate`] declines it (it redeclares a name the
    /// prelude binds, say).
    pub fn elaborate(&self, module: &Module) -> Option<Result<Elaborated, PipelineError>> {
        Some(
            self.elab
                .elaborate(module)?
                .map_err(PipelineError::Elaborate),
        )
    }

    /// The Core check of what the module adds to the prelude, its
    /// datatypes and bindings, against the prelude's environment; the
    /// environment over both.
    pub fn check(&self, elaborated: &Elaborated) -> Result<TypeEnv, PipelineError> {
        let program = &elaborated.program;
        let data_decls = program
            .data_decls
            .iter()
            .filter(|d| self.env.datatype(d.tycon.name).is_none());
        let mut env = self.env.clone();
        check_module(&mut env, data_decls, self.own_bindings(program))
            .map_err(|(name, e)| PipelineError::CoreLint(name, e))?;
        Ok(env)
    }

    /// The §5.1 levity checks of the module's bindings, with `env` the
    /// environment [`Self::check`] returned.
    pub fn check_levity(
        &self,
        env: &TypeEnv,
        elaborated: &Elaborated,
    ) -> Result<(), PipelineError> {
        let diags = check_module_levity(env, self.own_bindings(&elaborated.program));
        if diags.has_errors() {
            return Err(PipelineError::Levity(diags));
        }
        Ok(())
    }

    /// The bindings the prelude does not define.
    fn own_bindings<'a>(
        &'a self,
        program: &'a Program,
    ) -> impl Iterator<Item = &'a TopBind> + Clone {
        program
            .bindings
            .iter()
            .filter(|b| self.env.global(b.name).is_none())
    }
}

/// The prelude source code.
pub const PRELUDE: &str = r#"
-- Identity and friends -------------------------------------------------
id :: a -> a
id x = x

const :: a -> b -> a
const x y = x

-- Section 7.2: ($) generalized in its *result* representation.
($) :: forall (r :: Rep) (a :: Type) (b :: TYPE r). (a -> b) -> a -> b
($) f x = f x

-- Section 7.2: (.) generalized only in the final result; generalizing b
-- would require a levity-polymorphic argument (rejected; see tests).
(.) :: forall (r :: Rep) (a :: Type) (b :: Type) (c :: TYPE r). (b -> c) -> (a -> b) -> a -> c
(.) f g x = f (g x)

-- Section 3.3 / 5.2: a user wrapper around error keeps its levity
-- polymorphism because the signature *declares* it.
myError :: forall (r :: Rep) (a :: TYPE r). Bool -> a
myError b = error "myError"

not :: Bool -> Bool
not b = if b then False else True

(&&) :: Bool -> Bool -> Bool
(&&) a b = if a then b else False

(||) :: Bool -> Bool -> Bool
(||) a b = if a then True else b

-- Boxed arithmetic workers (ordinary pattern-matching code, like the
-- paper's plusInt in section 2.1).
plusInt :: Int -> Int -> Int
plusInt a b = case a of { I# x -> case b of { I# y -> I# (x +# y) } }

minusInt :: Int -> Int -> Int
minusInt a b = case a of { I# x -> case b of { I# y -> I# (x -# y) } }

timesInt :: Int -> Int -> Int
timesInt a b = case a of { I# x -> case b of { I# y -> I# (x *# y) } }

negateInt :: Int -> Int
negateInt a = case a of { I# x -> I# (negateInt# x) }

absInt :: Int -> Int
absInt a = case a of { I# x -> case x <# 0# of { 0# -> I# x; _ -> I# (negateInt# x) } }

plusDouble :: Double -> Double -> Double
plusDouble a b = case a of { D# x -> case b of { D# y -> D# (x +## y) } }

minusDouble :: Double -> Double -> Double
minusDouble a b = case a of { D# x -> case b of { D# y -> D# (x -## y) } }

timesDouble :: Double -> Double -> Double
timesDouble a b = case a of { D# x -> case b of { D# y -> D# (x *## y) } }

negateDouble :: Double -> Double
negateDouble a = case a of { D# x -> D# (negateDouble# x) }

absDouble :: Double -> Double
absDouble a = case a of { D# x -> case x <## 0.0## of { 0# -> D# x; _ -> D# (negateDouble# x) } }

-- Unboxed helpers ------------------------------------------------------
absInt# :: Int# -> Int#
absInt# n = case n <# 0# of { 0# -> n; _ -> negateInt# n }

negInt# :: Int# -> Int#
negInt# n = negateInt# n

absDouble# :: Double# -> Double#
absDouble# x = case x <## 0.0## of { 0# -> x; _ -> negateDouble# x }

intToBool :: Int# -> Bool
intToBool n = case n of { 0# -> False; _ -> True }

-- Section 7.3: the levity-polymorphic Num class and its instances at
-- lifted *and* unlifted types. "We can now happily write 3# + 4#."
class Num (a :: TYPE r) where {
  (+) :: a -> a -> a;
  (-) :: a -> a -> a;
  (*) :: a -> a -> a;
  abs :: a -> a;
  negate :: a -> a
}

instance Num Int where {
  (+) = plusInt;
  (-) = minusInt;
  (*) = timesInt;
  abs = absInt;
  negate = negateInt
}

instance Num Int# where {
  (+) x y = x +# y;
  (-) x y = x -# y;
  (*) x y = x *# y;
  abs = absInt#;
  negate n = negateInt# n
}

instance Num Double where {
  (+) = plusDouble;
  (-) = minusDouble;
  (*) = timesDouble;
  abs = absDouble;
  negate = negateDouble
}

instance Num Double# where {
  (+) x y = x +## y;
  (-) x y = x -## y;
  (*) x y = x *## y;
  abs = absDouble#;
  negate x = 0.0## -## x
}

-- A levity-polymorphic Eq (results are Bool: lifted, so only the
-- *arguments* live at the class's representation).
class Eq (a :: TYPE r) where {
  (==) :: a -> a -> Bool;
  (/=) :: a -> a -> Bool
}

instance Eq Int# where {
  (==) x y = intToBool (x ==# y);
  (/=) x y = intToBool (x /=# y)
}

instance Eq Int where {
  (==) a b = case a of { I# x -> case b of { I# y -> intToBool (x ==# y) } };
  (/=) a b = case a of { I# x -> case b of { I# y -> intToBool (x /=# y) } }
}

instance Eq Char# where {
  (==) x y = intToBool (eqChar# x y);
  (/=) x y = not (intToBool (eqChar# x y))
}

instance Eq Double# where {
  (==) x y = intToBool (x ==## y);
  (/=) x y = not (intToBool (x ==## y))
}

class Ord (a :: TYPE r) where {
  (<) :: a -> a -> Bool;
  (<=) :: a -> a -> Bool;
  (>) :: a -> a -> Bool;
  (>=) :: a -> a -> Bool
}

instance Ord Int# where {
  (<) x y = intToBool (x <# y);
  (<=) x y = intToBool (x <=# y);
  (>) x y = intToBool (x ># y);
  (>=) x y = intToBool (x >=# y)
}

instance Ord Int where {
  (<) a b = case a of { I# x -> case b of { I# y -> intToBool (x <# y) } };
  (<=) a b = case a of { I# x -> case b of { I# y -> intToBool (x <=# y) } };
  (>) a b = case a of { I# x -> case b of { I# y -> intToBool (x ># y) } };
  (>=) a b = case a of { I# x -> case b of { I# y -> intToBool (x >=# y) } }
}

instance Ord Double# where {
  (<) x y = intToBool (x <## y);
  (<=) x y = intToBool (x <=## y);
  (>) x y = not (intToBool (x <=## y));
  (>=) x y = not (intToBool (x <## y))
}

-- List utilities (boxed, lifted — ordinary polymorphism) ---------------
map :: (a -> b) -> List a -> List b
map f xs = case xs of { Nil -> Nil; Cons y ys -> Cons (f y) (map f ys) }

foldl :: (b -> a -> b) -> b -> List a -> b
foldl f z xs = case xs of { Nil -> z; Cons y ys -> foldl f (f z y) ys }

sum :: List Int -> Int
sum xs = foldl plusInt 0 xs

length :: List a -> Int
length xs = case xs of { Nil -> 0; Cons y ys -> plusInt 1 (length ys) }

replicate :: Int -> a -> List a
replicate n x = case n of { I# k -> case k <=# 0# of { 0# -> Cons x (replicate (I# (k -# 1#)) x); _ -> Nil } }

enumFromTo :: Int -> Int -> List Int
enumFromTo lo hi = case lo of { I# l -> case hi of { I# h ->
  case l ># h of { 0# -> Cons (I# l) (enumFromTo (I# (l +# 1#)) (I# h)); _ -> Nil } } }

fst :: Pair a b -> a
fst p = case p of { MkPair x y -> x }

snd :: Pair a b -> b
snd p = case p of { MkPair x y -> y }

fromMaybe :: a -> Maybe a -> a
fromMaybe d m = case m of { Nothing -> d; Just x -> x }
"#;
