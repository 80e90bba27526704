//! The prelude, written in the surface language itself, and its
//! once-per-process seed.
//!
//! Everything here elaborates through the ordinary pipeline — nothing is
//! special-cased, which is the paper's own discipline (§2.1: `Int` is an
//! ordinary ADT; §7.2: `($)` and `(.)` are ordinary levity-polymorphic
//! functions; §7.3: `Num` is an ordinary class over `a :: TYPE r`).
//!
//! A module compiled with the prelude is compiled *after* it, the way
//! GHC compiles a module against `base`, which it typechecked once and
//! loads as an interface. The prelude is parsed, elaborated and checked
//! once per process, on first use, and that seed holds the result: a
//! compilation parses, elaborates and checks only its own module, in
//! the scope of everything the prelude binds. The module may not
//! redeclare a prelude name, whatever its kind (`E-duplicate`), and its
//! diagnostics' spans are offsets into its own source. The Core check,
//! and the §5.1 levity checks in the same walk, judge one binding at a
//! time against the global environment, so checking the module's own
//! bindings against the prelude's environment gives the whole program's
//! verdict.
//!
//! The seed is shared, not copied. A compilation's elaborated program
//! holds the prelude's bindings by `Arc`, followed by the module's own;
//! its elaborator's and its Core check's type environments sit over the
//! seed's ([`TypeEnv::over`]); and it shares the seed's class table and
//! type families until the module declares a class, an instance or a
//! type family. A compilation allocates for its own module only, and
//! what it keeps (a serving cache's entry) is that module plus pointers
//! into the seed.

use std::sync::{Arc, OnceLock};

use levity_infer::elaborate::{Elaborated, ModuleSeed};
use levity_ir::terms::{DataDecl, Program, TopBind};
use levity_ir::typecheck::TypeEnv;
use levity_surface::ast::Module;
use levity_surface::parser::parse_module;

use crate::pipeline::{check_core, PipelineError};

/// The prelude's front end, done once per process.
///
/// [`PreludeSeed::front_end`] is what a compilation with the prelude
/// runs; its stages are public so they can be timed one by one.
pub struct PreludeSeed {
    /// The prelude elaborated, ready to elaborate a module after it.
    elab: ModuleSeed,
    /// The Core check's environment over the prelude, the shared base
    /// of every seeded compilation's.
    env: Arc<TypeEnv>,
    /// The fresh-name counter after the prelude's front end. Every
    /// seeded compilation restarts there: the prelude's Core may hold
    /// names freshened below it.
    fresh_mark: u64,
}

impl PreludeSeed {
    /// The process's seed, built on first use; or the prelude's own
    /// error if it does not compile, a bug in the prelude that every
    /// compilation with it then reports.
    pub fn get() -> Result<&'static PreludeSeed, PipelineError> {
        static SEED: OnceLock<Result<PreludeSeed, PipelineError>> = OnceLock::new();
        SEED.get_or_init(PreludeSeed::build)
            .as_ref()
            .map_err(PipelineError::clone)
    }

    fn build() -> Result<PreludeSeed, PipelineError> {
        levity_ir::restart_fresh_names();
        let module = parse_module(PRELUDE).map_err(PipelineError::Parse)?;
        let elab = ModuleSeed::new(&module).map_err(PipelineError::Elaborate)?;
        let mut env = TypeEnv::new();
        let program = elab.program();
        check_core(&mut env, &program.data_decls, &program.bindings)?;
        Ok(PreludeSeed {
            elab,
            env: Arc::new(env),
            fresh_mark: levity_ir::fresh_names_mark(),
        })
    }

    /// The front end of `source` compiled after the prelude: the
    /// elaborated program, the prelude's followed by the module's, and
    /// the Core check's environment over both; or the first stage's
    /// error, its spans offsets into `source`.
    pub fn front_end(&self, source: &str) -> Result<(Elaborated, TypeEnv), PipelineError> {
        levity_ir::restart_fresh_names_at(self.fresh_mark);
        let module = self.parse(source)?;
        let elaborated = self.elaborate(&module)?;
        let env = self.check(&elaborated)?;
        Ok((elaborated, env))
    }

    /// Parses `source` as a module of its own.
    pub fn parse(&self, source: &str) -> Result<Module, PipelineError> {
        parse_module(source).map_err(PipelineError::Parse)
    }

    /// Elaborates `module` after the prelude (see
    /// [`ModuleSeed::elaborate`]): each declaration that redeclares a
    /// prelude name is an `E-duplicate` error.
    pub fn elaborate(&self, module: &Module) -> Result<Elaborated, PipelineError> {
        self.elab
            .elaborate(module)
            .map_err(PipelineError::Elaborate)
    }

    /// The Core check of what the module adds to the prelude, its
    /// datatypes and bindings, against the prelude's environment, with
    /// the §5.1 levity checks in the same walk: a type error first,
    /// otherwise every levity violation. Returns the environment over
    /// both, which shares the prelude's. `elaborated` is
    /// [`Self::elaborate`]'s.
    pub fn check(&self, elaborated: &Elaborated) -> Result<TypeEnv, PipelineError> {
        let (data_decls, bindings) = self.own(&elaborated.program);
        let mut env = TypeEnv::over(Arc::clone(&self.env));
        check_core(&mut env, data_decls, bindings)?;
        Ok(env)
    }

    /// The module's own datatypes and bindings: what follows the
    /// prelude's in a program [`Self::elaborate`] returned.
    fn own<'a>(&self, program: &'a Program) -> (&'a [Arc<DataDecl>], &'a [Arc<TopBind>]) {
        let prelude = self.elab.program();
        (
            &program.data_decls[prelude.data_decls.len()..],
            &program.bindings[prelude.bindings.len()..],
        )
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
