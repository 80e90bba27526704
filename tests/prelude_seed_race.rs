//! The prelude seed is built once per process, on first use. Eight
//! threads that compile at once race to build it; every one must see
//! the same seed and produce the disassembly the concatenated compile
//! produces. This suite holds only this test, so the race really is the
//! process's first use of the seed.

use std::sync::Barrier;
use std::thread;

use levity::driver::pipeline::{compile_source_entries, compile_with_prelude_entries};
use levity::driver::{OptLevel, PRELUDE};

#[test]
fn threads_racing_on_the_seeds_first_use_compile_identically() {
    let source = "square :: Num a => a -> a\n\
                  square x = x * x\n\
                  main :: Int\n\
                  main = square 7 + square 2\n";
    let start = Barrier::new(8);
    let disasms: Vec<String> = thread::scope(|s| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    compile_with_prelude_entries(source, OptLevel::O2, None)
                        .expect("compiles")
                        .bytecode
                        .disasm()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let concatenated = compile_source_entries(&format!("{PRELUDE}\n{source}"), OptLevel::O2, None)
        .expect("compiles")
        .bytecode
        .disasm();
    for (i, d) in disasms.iter().enumerate() {
        assert!(
            *d == concatenated,
            "thread {i}'s disassembly differs from the concatenated compile"
        );
    }
}
