//! Golden-Core snapshot tests: the optimizer's O2 output, pinned.
//!
//! Each golden program (`support/golden.rs`) compiles at the default
//! level and its whole post-optimizer Core program is pretty-printed
//! into `tests/golden/<name>.core`. A change anywhere in the pass pipeline
//! shows up as a reviewable diff of compiler *output*, not as bench
//! noise three PRs later.
//!
//! The printer α-normalizes term binders (`x0`, `x1`, … in traversal
//! order): every optimizer pass freshens binders through a counter
//! (`levity_ir::freshen`), so raw names depend on the counter's state
//! while the *structure* — which this suite pins — does not. Global names
//! (workers `$w…`, specialised clones `$s…`) are minted
//! deterministically and print as-is.
//!
//! To regenerate after an intentional optimizer change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_core
//! ```

mod support;

use std::path::PathBuf;

use levity::driver::compile_with_prelude;

use support::golden::{render, GOLDEN};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.core"))
}

#[test]
fn optimized_core_matches_the_committed_snapshots() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut mismatches: Vec<String> = Vec::new();
    for (name, src) in GOLDEN {
        let compiled = compile_with_prelude(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let rendered = render(&compiled.program);
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
                    "{name}: golden Core differs ({} vs {} lines){}{}",
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
        "optimizer output drifted from the committed golden Core:\n{}\n\n\
         If the change is intentional, regenerate with:\n    UPDATE_GOLDEN=1 cargo test --test golden_core\n\
         and commit the updated tests/golden/*.core files.",
        mismatches.join("\n")
    );
}

/// The α-normalizer must make printing deterministic: two independent
/// compilations of the same source must render byte-identically.
#[test]
fn rendering_is_stable_across_recompilations() {
    let src = GOLDEN.iter().find(|(n, _)| *n == "cpr_divmod").unwrap().1;
    let a = render(&compile_with_prelude(src).unwrap().program);
    let b = render(&compile_with_prelude(src).unwrap().program);
    assert_eq!(
        a, b,
        "α-normalized rendering must not depend on the fresh-name counter"
    );
}

/// The CPR and join tentpoles must actually be visible in the pinned
/// snapshots: the divMod worker returns an unboxed tuple, and the
/// diamond's Core binds join points ($j lets survive as `let`s whose
/// lowering emits jumps).
#[test]
fn snapshots_contain_the_shapes_they_pin() {
    let by_name = |n: &str| GOLDEN.iter().find(|(g, _)| *g == n).unwrap().1;
    let divmod = render(&compile_with_prelude(by_name("cpr_divmod")).unwrap().program);
    assert!(
        divmod.contains("$wdivMod# :: Int# -> Int# -> (# Int#, Int# #)"),
        "cpr_divmod must pin a CPR worker:\n{divmod}"
    );
    let escape = render(&compile_with_prelude(by_name("cpr_escape")).unwrap().program);
    assert!(
        !escape.contains("(# Int#, Int# #)"),
        "cpr_escape's result escapes unscrutinised; it must keep its box:\n{escape}"
    );
}
