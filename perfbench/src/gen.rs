//! The seeded workload generator.
//!
//! Every program carries the integer its `main` must evaluate to,
//! computed here in plain Rust (closed-form sums and chain arithmetic),
//! never by running the compiler. The program list and the request
//! schedule are pure functions of the seed: request `i` is derived from
//! `(seed, i)` alone, so any client thread can build it independently.
//!
//! Sizes are drawn from continuous strata rather than a few fixed
//! shapes. Each hot program owns one stratum of a geometric size range,
//! so the mix's cost distribution has no gaps for a percentile to sit
//! in, and it is nearly the same for every seed.

/// Cached programs in each hot workload.
const HOT_PROGRAMS: usize = 16;

/// Cold requests per schedule block: two chain modules and three of
/// each of the six corpus shapes, in a seeded order.
const COLD_BLOCK: u64 = 20;
const COLD_CHAINS_PER_BLOCK: u64 = 2;

/// Chain modules have `CHAIN_MIN..CHAIN_MIN + CHAIN_SPAN` definitions,
/// the range cut into `CHAIN_STRATA` equal strata.
const CHAIN_MIN: u64 = 8;
const CHAIN_SPAN: u64 = 25;
const CHAIN_STRATA: u64 = 10;

/// Literal base for set-up programs, far above any request index, so
/// a set-up program never shares a source with a measured request.
const WARMUP_BASE: i64 = 1 << 40;

/// The three named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cached, non-allocating loops: time goes to engine dispatch.
    HotLoops,
    /// Cached build-and-walk programs: time goes to allocation.
    HotAlloc,
    /// Every request is a program the cache has never seen.
    ColdCompile,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot-loops" => Some(Workload::HotLoops),
            "hot-alloc" => Some(Workload::HotAlloc),
            "cold-compile" => Some(Workload::ColdCompile),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotLoops => "hot-loops",
            Workload::HotAlloc => "hot-alloc",
            Workload::ColdCompile => "cold-compile",
        }
    }

    /// Is the workload served from a cached program set?
    pub fn is_hot(self) -> bool {
        self != Workload::ColdCompile
    }
}

/// One generated program and the value its `main` must produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// Shape and sizes, for mismatch reports.
    pub label: String,
    /// Surface source, compiled with the prelude in scope.
    pub source: String,
    /// The integer `main` evaluates to (boxed or unboxed).
    pub expected: i64,
}

/// SplitMix64: a tiny, well-mixed, dependency-free generator.
#[derive(Clone, Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for stream `tag`, item `index` of seed `seed`.
    fn for_item(seed: u64, tag: u64, index: u64) -> SplitMix64 {
        let mut g = SplitMix64(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        let a = g.next_u64();
        SplitMix64(a ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB))
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A uniformly shuffled `0..n`.
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

const TAG_HOT_SET: u64 = 1;
const TAG_HOT_ORDER: u64 = 2;
const TAG_COLD_ORDER: u64 = 3;
const TAG_COLD_ITEM: u64 = 4;
const TAG_CHAIN_ORDER: u64 = 5;

fn triangle(n: i64) -> i64 {
    n * (n + 1) / 2
}

/// §2.1's unboxed `sumTo#`: a register loop, no allocation.
fn sum_unboxed(acc: i64, n: i64) -> Program {
    Program {
        label: format!("sumTo#/{n}"),
        source: format!(
            "sumTo# :: Int# -> Int# -> Int#\n\
             sumTo# acc n = case n of {{ 0# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }}\n\
             main :: Int#\n\
             main = sumTo# {acc}# {n}#\n"
        ),
        expected: acc + triangle(n),
    }
}

/// §2.1's boxed `sumTo`: worker/wrapper turns it back into a loop.
fn sum_boxed(acc: i64, n: i64) -> Program {
    Program {
        label: format!("sumTo/{n}"),
        source: format!(
            "sumTo :: Int -> Int -> Int\n\
             sumTo acc n = case n of {{ I# k -> case k of {{ 0# -> acc; _ -> sumTo (acc + n) (n - 1) }} }}\n\
             main :: Int\n\
             main = sumTo {acc} {n}\n"
        ),
        expected: acc + triangle(n),
    }
}

/// §7.3 class dispatch at `Int#`, specialised away by the optimizer.
fn class_dispatch(acc: i64, n: i64) -> Program {
    Program {
        label: format!("upto/{n}"),
        source: format!(
            "upto :: Int# -> Int# -> Int#\n\
             upto acc n = case n of {{ 0# -> acc; _ -> upto (acc + n) (n - 1#) }}\n\
             main :: Int#\n\
             main = upto {acc}# {n}#\n"
        ),
        expected: acc + triangle(n),
    }
}

/// A loop over a constructed product result (CPR keeps `QR` unboxed).
fn cpr_pair(acc: i64, n: i64) -> Program {
    Program {
        label: format!("cpr/{n}"),
        source: format!(
            "data QR = QR Int# Int#\n\
             step :: Int# -> QR\n\
             step n = QR (n +# 1#) (n +# n)\n\
             loop :: Int# -> Int# -> Int#\n\
             loop acc n = case n of {{ 0# -> acc; _ -> case step n of {{ QR a b -> loop (acc +# a +# b) (n -# 1#) }} }}\n\
             main :: Int#\n\
             main = loop {acc}# {n}#\n"
        ),
        // Σ_{k=1..n} (k + 1) + 2k = 3·n(n+1)/2 + n.
        expected: acc + 3 * triangle(n) + n,
    }
}

const CHAIN_DECL: &str = "data Chain = End | Link Int Chain\n\
     build :: Int# -> Chain\n\
     build n = case n of { 0# -> End; _ -> Link (I# n) (build (n -# 1#)) }\n\
     len :: Chain -> Int#\n\
     len xs = case xs of { End -> 0#; Link h t -> 1# +# len t }\n";

/// Builds an `n`-cell boxed list, all of it live, and walks it.
fn alloc_heavy(acc: i64, n: i64) -> Program {
    Program {
        label: format!("alloc-heavy/{n}"),
        source: format!(
            "{CHAIN_DECL}\
             main :: Int#\n\
             main = {acc}# +# len (build {n}#)\n"
        ),
        expected: acc + n,
    }
}

/// `rounds` times: build an `m`-cell list, walk it, drop it.
fn churn(acc: i64, m: i64, rounds: i64) -> Program {
    Program {
        label: format!("churn/{m}x{rounds}"),
        source: format!(
            "{CHAIN_DECL}\
             churn :: Int# -> Int# -> Int#\n\
             churn acc r = case r of {{ 0# -> acc; _ -> churn (acc +# len (build {m}#)) (r -# 1#) }}\n\
             main :: Int#\n\
             main = churn {acc}# {rounds}#\n"
        ),
        expected: acc + m * rounds,
    }
}

/// A module of `levels` definitions, each calling the one below it once
/// with a drawn argument transformation: plain primops, class methods at
/// `Int#`, or a branch. The inliner folds the chain into every caller,
/// so optimizer work grows faster than the module.
fn chain_module(levels: u64, x0: i64, rng: &mut SplitMix64) -> Program {
    let mut source = String::new();
    let a0 = rng.below(100) as i64;
    source.push_str(&format!("c0 :: Int# -> Int#\nc0 x = x +# {a0}#\n"));
    // Arguments flow top-down (c{levels-1} first); each level adds its
    // constant on the way back up, so the post constants simply sum.
    let mut pres: Vec<(u64, i64, i64)> = Vec::new();
    let mut post_sum = 0i64;
    for j in 1..levels {
        let kind = rng.below(3);
        let a = 1 + rng.below(50) as i64;
        let b = rng.below(50) as i64;
        let t = rng.below(200) as i64;
        let prev = j - 1;
        let body = match kind {
            0 => {
                post_sum -= b;
                format!("c{prev} (x +# {a}#) -# {b}#")
            }
            1 => {
                post_sum += b;
                format!("c{prev} (x - {a}#) + {b}#")
            }
            _ => {
                post_sum += b;
                format!("c{prev} (case x <# {t}# of {{ 0# -> x -# {a}#; _ -> x +# {a}# }}) +# {b}#")
            }
        };
        source.push_str(&format!("c{j} :: Int# -> Int#\nc{j} x = {body}\n"));
        pres.push((kind, a, t));
    }
    let top = levels - 1;
    source.push_str(&format!("main :: Int#\nmain = c{top} {x0}#\n"));
    let mut v = x0;
    for &(kind, a, t) in pres.iter().rev() {
        v = match kind {
            0 => v + a,
            1 => v - a,
            _ if v < t => v + a,
            _ => v - a,
        };
    }
    Program {
        label: format!("chain/{levels}"),
        source,
        expected: v + a0 + post_sum,
    }
}

/// Loop bounds at the bottom of each hot-loops shape's range, scaled so
/// the four shapes cost about the same per request on the env engine.
const LOOP_BASE: [f64; 4] = [1020.0, 1080.0, 1090.0, 625.0];
/// The hot-alloc bases: `alloc-heavy` cells, and `churn` cells in total
/// (list length × rounds).
const ALLOC_BASE: f64 = 300.0;
const CHURN_BASE: f64 = 300.0;

/// The cached program set of a hot workload: 16 programs, each owning
/// one stratum of a one-octave size range of its shape, with a drawn
/// position inside the stratum and a drawn accumulator start.
pub fn hot_programs(workload: Workload, seed: u64) -> Vec<Program> {
    let mut rng = SplitMix64::for_item(seed, TAG_HOT_SET, workload as u64);
    let mut out = Vec::with_capacity(HOT_PROGRAMS);
    match workload {
        Workload::HotLoops => {
            for (shape, base) in LOOP_BASE.iter().enumerate() {
                for k in 0..4 {
                    let scale = 2f64.powf((k as f64 + rng.unit()) / 4.0);
                    let n = (base * scale).round() as i64;
                    let acc = rng.below(1000) as i64;
                    out.push(match shape {
                        0 => sum_unboxed(acc, n),
                        1 => sum_boxed(acc, n),
                        2 => class_dispatch(acc, n),
                        _ => cpr_pair(acc, n),
                    });
                }
            }
        }
        Workload::HotAlloc => {
            for k in 0..8 {
                let scale = 2f64.powf((k as f64 + rng.unit()) / 8.0);
                let n = (ALLOC_BASE * scale).round() as i64;
                out.push(alloc_heavy(rng.below(1000) as i64, n));
            }
            for k in 0..8 {
                let scale = 2f64.powf((k as f64 + rng.unit()) / 8.0);
                let m = 12 + rng.below(25) as i64;
                let rounds = ((CHURN_BASE * scale) / m as f64).round().max(1.0) as i64;
                out.push(churn(rng.below(1000) as i64, m, rounds));
            }
        }
        Workload::ColdCompile => {}
    }
    out
}

/// Which cached program hot request `i` asks for: each block of 16
/// consecutive requests visits every program once, in a seeded order,
/// so the mix is exactly balanced over any whole block.
pub fn hot_schedule(seed: u64, i: u64) -> usize {
    let block = i / HOT_PROGRAMS as u64;
    let order = SplitMix64::for_item(seed, TAG_HOT_ORDER, block).permutation(HOT_PROGRAMS);
    order[(i % HOT_PROGRAMS as u64) as usize]
}

/// Cold request `i`. Each block of 20 requests holds two chain modules
/// and three of each corpus shape, in a seeded order. Every ten
/// consecutive chain modules take one size from each tenth of the 8–32
/// range, in a seeded order and at a drawn point inside it. Request
/// `i`'s accumulator is `i` itself, so no two cold requests share a
/// source.
pub fn cold_request(seed: u64, i: u64) -> Program {
    let block = i / COLD_BLOCK;
    let slot = SplitMix64::for_item(seed, TAG_COLD_ORDER, block).permutation(COLD_BLOCK as usize)
        [(i % COLD_BLOCK) as usize] as u64;
    let mut rng = SplitMix64::for_item(seed, TAG_COLD_ITEM, i);
    let acc = i as i64;
    if slot < COLD_CHAINS_PER_BLOCK {
        let c = block * COLD_CHAINS_PER_BLOCK + slot;
        let stratum = SplitMix64::for_item(seed, TAG_CHAIN_ORDER, c / CHAIN_STRATA)
            .permutation(CHAIN_STRATA as usize)[(c % CHAIN_STRATA) as usize];
        let frac = (stratum as f64 + rng.unit()) / CHAIN_STRATA as f64;
        let levels = CHAIN_MIN + (frac * CHAIN_SPAN as f64) as u64;
        return chain_module(levels, acc, &mut rng);
    }
    let n = 20 + rng.below(180) as i64;
    match (slot - COLD_CHAINS_PER_BLOCK) % 6 {
        0 => sum_unboxed(acc, n),
        1 => sum_boxed(acc, n),
        2 => class_dispatch(acc, n),
        3 => cpr_pair(acc, n),
        4 => alloc_heavy(acc, n),
        _ => churn(acc, 8 + rng.below(17) as i64, 5 + rng.below(16) as i64),
    }
}

/// The `k`-th set-up program of a cold run: a corpus shape whose
/// literals no measured request uses.
pub fn cold_warmup(k: u64) -> Program {
    sum_unboxed(WARMUP_BASE + k as i64, 100)
}

/// FNV-1a over a byte string, for cheap identity checks.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A digest of a workload's program list and the first `requests`
/// entries of its request schedule.
fn digest(workload: Workload, seed: u64, requests: u64) -> u64 {
    let mut text = String::new();
    if workload.is_hot() {
        for p in hot_programs(workload, seed) {
            text.push_str(&p.source);
            text.push_str(&format!("={}\n", p.expected));
        }
        for i in 0..requests {
            text.push_str(&format!("{},", hot_schedule(seed, i)));
        }
    } else {
        for i in 0..requests {
            let p = cold_request(seed, i);
            text.push_str(&p.source);
            text.push_str(&format!("={}\n", p.expected));
        }
    }
    fnv1a(text.as_bytes())
}

/// The generator's own checks, run before any measurement: the same seed
/// gives a byte-identical program list and schedule, another seed gives
/// a different one, and cold sources are pairwise distinct.
pub fn self_check(workload: Workload, seed: u64) -> Result<(), String> {
    const PREFIX: u64 = 400;
    if digest(workload, seed, PREFIX) != digest(workload, seed, PREFIX) {
        return Err(format!("seed {seed} does not reproduce its programs"));
    }
    if digest(workload, seed, PREFIX) == digest(workload, seed ^ 1, PREFIX) {
        return Err(format!(
            "seeds {seed} and {} give the same programs",
            seed ^ 1
        ));
    }
    if !workload.is_hot() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..PREFIX {
            if !seen.insert(cold_request(seed, i).source) {
                return Err(format!("cold request {i} repeats an earlier source"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Workload; 3] = [
        Workload::HotLoops,
        Workload::HotAlloc,
        Workload::ColdCompile,
    ];

    #[test]
    fn every_seed_passes_the_self_check() {
        for w in ALL {
            for seed in [0, 1, 7, 12345, u64::MAX] {
                self_check(w, seed).unwrap();
            }
        }
    }

    #[test]
    fn hot_sets_have_sixteen_distinct_programs() {
        for w in [Workload::HotLoops, Workload::HotAlloc] {
            let set = hot_programs(w, 3);
            assert_eq!(set.len(), HOT_PROGRAMS);
            let sources: std::collections::HashSet<_> = set.iter().map(|p| &p.source).collect();
            assert_eq!(sources.len(), HOT_PROGRAMS, "{}", w.name());
        }
    }

    #[test]
    fn every_block_of_the_hot_schedule_visits_each_program_once() {
        let mut seen = [0u32; HOT_PROGRAMS];
        for i in 0..(HOT_PROGRAMS as u64 * 5) {
            seen[hot_schedule(9, i)] += 1;
        }
        assert!(seen.iter().all(|&c| c == 5), "{seen:?}");
    }

    #[test]
    fn cold_blocks_hold_two_chains_and_three_of_each_shape() {
        let mut chains = 0;
        let mut shapes = std::collections::HashMap::new();
        for i in 0..COLD_BLOCK {
            let p = cold_request(4, i);
            let shape = p.label.split('/').next().unwrap().to_string();
            if shape == "chain" {
                chains += 1;
            } else {
                *shapes.entry(shape).or_insert(0) += 1;
            }
        }
        assert_eq!(chains, 2);
        assert_eq!(shapes.len(), 6);
        assert!(shapes.values().all(|&c| c == 3), "{shapes:?}");
    }

    #[test]
    fn every_ten_chains_cover_each_tenth_of_the_range() {
        let sizes: Vec<u64> = (0..400)
            .map(|i| cold_request(11, i))
            .filter(|p| p.label.starts_with("chain/"))
            .map(|p| p.label["chain/".len()..].parse().unwrap())
            .collect();
        assert_eq!(sizes.len(), 40);
        for group in sizes.chunks(CHAIN_STRATA as usize) {
            let mut sorted = group.to_vec();
            sorted.sort_unstable();
            for (k, size) in sorted.iter().enumerate() {
                let lo = CHAIN_MIN + k as u64 * CHAIN_SPAN / CHAIN_STRATA;
                let hi = CHAIN_MIN + (k as u64 + 1) * CHAIN_SPAN / CHAIN_STRATA;
                assert!((lo..=hi).contains(size), "{group:?}");
            }
        }
    }

    #[test]
    fn expected_values_follow_the_closed_forms() {
        assert_eq!(sum_unboxed(0, 2000).expected, 2_001_000);
        assert_eq!(class_dispatch(0, 1500).expected, 1_125_750);
        assert_eq!(cpr_pair(0, 500).expected, 376_250);
        assert_eq!(alloc_heavy(0, 300).expected, 300);
        assert_eq!(churn(0, 24, 200).expected, 4_800);
    }
}
