//! Golden-bytecode snapshot tests: the Engine 3 compiler's flat code,
//! pinned.
//!
//! Each golden program (`support/golden.rs`, the same fourteen programs
//! the golden-Core suite pins) compiles at the default level and the
//! disassembly of its whole [`BcProgram`] — every global's chunk, in
//! program order, with resolved jump offsets, frame sizes and fused
//! superinstructions spelled out — is snapshotted into
//! `tests/golden/<name>.bc`. A change anywhere in the bytecode
//! compiler (new fusion, different frame layout, reordered blocks)
//! shows up as a reviewable diff of compiler *output*, not as bench
//! noise three PRs later.
//!
//! The disassembler is deterministic by construction: registers are
//! named by class and slot (`w0`, `p1`, `f2`, `d3`), jump targets are
//! resolved pcs, and binder names in `binds [...]` come from the
//! machine lowering's per-function numbering, not the optimizer's
//! process-global fresh counter (pinned by
//! `disassembly_is_stable_across_recompilations` below). Chunks appear
//! in global-name order, never in symbol-interning order (pinned by
//! `chunk_order_is_independent_of_interning_order`).
//!
//! To regenerate after an intentional bytecode-compiler change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_bytecode
//! ```

mod support;

use std::path::PathBuf;

use levity::core::symbol::Symbol;
use levity::driver::{compile_with_prelude, compile_with_prelude_opt, OptLevel};

use support::golden::GOLDEN;

fn disasm(src: &str, name: &str) -> String {
    compile_with_prelude(src)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .bytecode
        .disasm()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.bc"))
}

#[test]
fn flat_bytecode_matches_the_committed_snapshots() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut mismatches: Vec<String> = Vec::new();
    for (name, src) in GOLDEN {
        let rendered = disasm(src, name);
        let path = golden_path(name);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(expected) if expected == rendered => {}
            Ok(expected) => {
                let diff: Vec<String> = expected
                    .lines()
                    .zip(rendered.lines())
                    .enumerate()
                    .filter(|(_, (a, b))| a != b)
                    .take(5)
                    .map(|(i, (a, b))| format!("  line {}: {a:?}\n       now: {b:?}", i + 1))
                    .collect();
                mismatches.push(format!(
                    "{name}: golden bytecode differs ({} vs {} lines){}{}",
                    expected.lines().count(),
                    rendered.lines().count(),
                    if diff.is_empty() { "" } else { "\n" },
                    diff.join("\n")
                ));
            }
            Err(_) => mismatches.push(format!("{name}: missing golden file {path:?}")),
        }
    }
    assert!(
        mismatches.is_empty(),
        "bytecode-compiler output drifted from the committed golden snapshots:\n{}\n\n\
         If the change is intentional, regenerate with:\n    UPDATE_GOLDEN=1 cargo test --test golden_bytecode\n\
         and commit the updated tests/golden/*.bc files.",
        mismatches.join("\n")
    );
}

/// Two independent compilations of the same source must disassemble
/// byte-identically, even with other compilations interleaved (the
/// optimizer's fresh-name counter must not leak into the flat code's
/// rendering).
#[test]
fn disassembly_is_stable_across_recompilations() {
    let (name, src) = GOLDEN.iter().find(|(n, _)| *n == "cpr_divmod").unwrap();
    let a = disasm(src, name);
    let _ = compile_with_prelude("f :: Int -> Int\nf x = x + x\nmain :: Int\nmain = f 1\n");
    let b = disasm(src, name);
    assert_eq!(a, b, "disassembly must not depend on compilation order");
}

/// Chunk order must not depend on interning order. Test threads intern
/// names in whatever order they first meet them, so ordering globals by
/// intern index made these snapshots flake. The same program compiles
/// under two fresh name prefixes whose globals are interned in opposite
/// orders; apart from the prefix, the disassemblies must be identical.
#[test]
fn chunk_order_is_independent_of_interning_order() {
    let compile = |prefix: &str, first: &str, second: &str| {
        Symbol::intern(&format!("{prefix}{first}"));
        Symbol::intern(&format!("{prefix}{second}"));
        let src = format!(
            "{prefix}ping :: Int# -> Int# -> Int#\n\
             {prefix}ping acc n = case n of {{ 0# -> acc; _ -> {prefix}pong (acc +# n) (n -# 1#) }}\n\
             {prefix}pong :: Int# -> Int# -> Int#\n\
             {prefix}pong acc n = case n of {{ 0# -> acc; _ -> {prefix}ping (acc *# 2#) (n -# 1#) }}\n\
             main :: Int#\n\
             main = {prefix}ping 0# 10#\n"
        );
        // O0 keeps both globals as separate chunks.
        let rendered = compile_with_prelude_opt(&src, OptLevel::O0)
            .unwrap_or_else(|e| panic!("{prefix}: {e}"))
            .bytecode
            .disasm();
        assert!(rendered.contains(&format!("chunk {prefix}pong ")));
        rendered.replace(prefix, "P")
    };
    let a = compile("internorderx", "ping", "pong");
    let b = compile("internordery", "pong", "ping");
    assert_eq!(a, b, "chunk order must not depend on interning order");
}

/// The snapshots must actually contain the shapes they pin: the CPR
/// worker's loop header is the fully fused compare-call, the
/// accumulator's back-edge is a fused tail self-call, and the escaping
/// product keeps its box (no word-stack multi-returns).
#[test]
fn snapshots_contain_the_shapes_they_pin() {
    let by_name = |n: &str| GOLDEN.iter().find(|(g, _)| *g == n).unwrap().1;
    let divmod = disasm(by_name("cpr_divmod"), "cpr_divmod");
    assert!(
        divmod.contains("cmp+br <#") && divmod.contains("; call.fw"),
        "cpr_divmod must pin the fused loop header:\n{divmod}"
    );
    let acc = disasm(by_name("cpr_accumulator"), "cpr_accumulator");
    assert!(
        acc.contains("call.self.w"),
        "cpr_accumulator must pin the fused tail self-call:\n{acc}"
    );
    let escape = disasm(by_name("cpr_escape"), "cpr_escape");
    assert!(
        !escape.contains("ret.multi.w"),
        "cpr_escape's result escapes unscrutinised; it must keep its box:\n{escape}"
    );
}
