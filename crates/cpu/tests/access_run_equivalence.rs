//! Property test: `ModelExec::access_run` (closed-form counts, O(1)
//! skipped sampling windows, bulk-accounted repeated-line hits) leaves
//! the sink exactly where the per-element expansion of the same run
//! leaves it. The reference feeds an identical `ModelExec` through a
//! wrapper that does not override `access_run`, so it gets the trait's
//! default element-by-element body.
//!
//! Every `finish()` report is compared after every operation, f64s by
//! bits; for the small custom hierarchies so is the whole sink state
//! (tags, LRU stamps, MRU ways, PLRU bits, TLB stamps and hints, RNG),
//! through its `Debug` form.

use mb_cpu::arch::CoreModel;
use mb_cpu::exec_model::{ExecReport, ModelExec};
use mb_cpu::ops::{Exec, FlopKind, Precision, Stream};
use mb_mem::cache::{CacheConfig, Replacement};
use mb_mem::hierarchy::{HierarchyConfig, LevelConfig};
use mb_mem::pages::PageTable;
use mb_mem::tlb::TlbConfig;
use mb_simcore::rng::{Rng, Xoshiro256};
use proptest::prelude::*;

/// Forwards everything but `access_run`, which therefore expands
/// element by element.
struct PerElement(ModelExec);

impl Exec for PerElement {
    fn flop(&mut self, kind: FlopKind, prec: Precision, lanes: u32) {
        self.0.flop(kind, prec, lanes);
    }
    fn int_ops(&mut self, n: u64) {
        self.0.int_ops(n);
    }
    fn load(&mut self, addr: u64, bytes: u32) {
        self.0.load(addr, bytes);
    }
    fn store(&mut self, addr: u64, bytes: u32) {
        self.0.store(addr, bytes);
    }
    fn branch(&mut self, predictable: bool) {
        self.0.branch(predictable);
    }
}

/// One step of a generated program.
#[derive(Debug, Clone)]
enum Op {
    Run(Vec<Stream>, u64),
    Scalar(Vec<(u64, u32, bool)>),
    Reset,
}

const L1_LINE: u64 = 32;

/// A small two-level hierarchy with a `ways`-way 512 B L1 of 32 B lines.
fn small_hierarchy(ways: usize, replacement: Replacement) -> HierarchyConfig {
    HierarchyConfig {
        levels: vec![
            LevelConfig {
                cache: CacheConfig::new(512, L1_LINE as usize, ways, replacement),
                hit_latency_cycles: 3,
                fill_bytes_per_cycle: 8.0,
            },
            LevelConfig {
                cache: CacheConfig::new(4096, 32, 4, Replacement::Lru),
                hit_latency_cycles: 11,
                fill_bytes_per_cycle: 4.0,
            },
        ],
        memory_latency_cycles: 90,
        memory_fill_bytes_per_cycle: 2.0,
    }
}

/// Sink `preset`: 0–2 are the Nehalem, Snowball and Tegra2 presets,
/// 3–8 a 1-way or 2-way small L1 under each replacement policy, with
/// TLB pages of `tlb_page` bytes (possibly smaller than a line).
fn sink(preset: usize, rate: u32, tlb_page: usize) -> ModelExec {
    let e = match preset {
        0 => ModelExec::nehalem(),
        1 => ModelExec::snowball(),
        2 => ModelExec::tegra2(),
        _ => {
            let c = preset - 3;
            let policy = [
                Replacement::Lru,
                Replacement::PseudoLru,
                Replacement::Random,
            ][c % 3];
            ModelExec::new(
                CoreModel::cortex_a9_snowball(),
                small_hierarchy(1 + c / 3, policy),
                TlbConfig::new(4, tlb_page),
                40,
                1,
            )
        }
    };
    e.with_sample_rate(rate)
}

fn pick<T: Copy>(rng: &mut Xoshiro256, xs: &[T]) -> T {
    xs[rng.gen_range(xs.len() as u64) as usize]
}

/// A random page table over the low 16 KiB, with pages of 16 B (smaller
/// than a line), 64 B or 4 KiB.
fn page_table(rng: &mut Xoshiro256) -> PageTable {
    let page = pick(rng, &[16usize, 64, 4096]);
    let pages = (16 * 1024 / page).max(1);
    let frames = (0..pages).map(|_| rng.gen_range(1 << 12)).collect();
    PageTable::new(page, frames)
}

fn stream(rng: &mut Xoshiro256, previous: &[Stream]) -> Stream {
    // A twin: the previous stream's addresses, as daxpy's load and
    // store of one row.
    if let Some(&last) = previous.last() {
        if rng.gen_range(6) == 0 {
            return Stream {
                bytes: 1 + rng.gen_range(16) as u32,
                store: rng.gen_bool(0.5),
                ..last
            };
        }
    }
    let base = match rng.gen_range(4) {
        // Share the line of an earlier stream.
        0 if !previous.is_empty() => {
            let other = pick(rng, previous);
            (other.base & !(L1_LINE - 1)) + rng.gen_range(L1_LINE)
        }
        // Alias the L1 set of an earlier stream (512 B and 32 KiB L1s).
        1 if !previous.is_empty() => {
            let other = pick(rng, previous);
            other.base + pick(rng, &[512u64, 1024, 32 * 1024]) * (1 + rng.gen_range(2))
        }
        _ => rng.gen_range(20 * 1024),
    };
    let magnitude = match rng.gen_range(6) {
        0 => 0,
        1 => pick(rng, &[1u64, 4, 8, 12, 16]),
        2 => L1_LINE,
        3 => 64,
        4 => pick(rng, &[40u64, 48, 100, 200]),
        _ => pick(rng, &[4100u64, 8192 + 8, 3 * 4096]),
    };
    let stride = if rng.gen_bool(0.25) {
        -(magnitude as i64)
    } else {
        magnitude as i64
    };
    Stream {
        // Keep negative strides from wrapping below zero.
        base: base + if stride < 0 { 3000 * magnitude } else { 0 },
        stride,
        bytes: 1 + rng.gen_range(16) as u32,
        store: rng.gen_bool(0.4),
    }
}

fn program(rng: &mut Xoshiro256) -> Vec<Op> {
    (0..1 + rng.gen_range(5))
        .map(|_| match rng.gen_range(8) {
            0 => Op::Reset,
            1 | 2 => Op::Scalar(
                (0..1 + rng.gen_range(40))
                    .map(|_| {
                        (
                            rng.gen_range(20 * 1024),
                            1 + rng.gen_range(16) as u32,
                            rng.gen_bool(0.5),
                        )
                    })
                    .collect(),
            ),
            _ => {
                let mut streams = Vec::new();
                for _ in 0..1 + rng.gen_range(6) {
                    let s = stream(rng, &streams);
                    streams.push(s);
                }
                let n = match rng.gen_range(3) {
                    0 => rng.gen_range(8),
                    1 => rng.gen_range(300),
                    _ => rng.gen_range(3001),
                };
                Op::Run(streams, n)
            }
        })
        .collect()
}

fn assert_same(got: &ExecReport, want: &ExecReport, context: &str) {
    assert_eq!(got.cycles, want.cycles, "cycles, {context}");
    assert_eq!(got.time, want.time, "time, {context}");
    assert_eq!(got.counters, want.counters, "counters, {context}");
    assert_eq!(got.counts, want.counts, "counts, {context}");
    for (name, g, w) in [
        ("compute", got.compute_cycles, want.compute_cycles),
        ("memory", got.memory_cycles, want.memory_cycles),
        ("branch", got.branch_cycles, want.branch_cycles),
    ] {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{name}_cycles {g} vs {w}, {context}"
        );
    }
}

fn check(preset: usize, rate: u32, seed: u64) {
    let mut rng = Xoshiro256::seed_from(seed);
    let tlb_page = pick(&mut rng, &[4096usize, 16]);
    let mut fast = sink(preset, rate, tlb_page);
    if rng.gen_bool(0.5) {
        let table = page_table(&mut rng);
        fast.set_page_table(Some(table));
    }
    let mut slow = PerElement(fast.clone());
    let ops = program(&mut rng);
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Run(streams, n) => {
                fast.access_run(streams, *n);
                slow.access_run(streams, *n);
            }
            Op::Scalar(accesses) => {
                for &(addr, bytes, store) in accesses {
                    if store {
                        fast.store(addr, bytes);
                        slow.store(addr, bytes);
                    } else {
                        fast.load(addr, bytes);
                        slow.load(addr, bytes);
                    }
                }
            }
            Op::Reset => {
                fast.reset();
                slow.0.reset();
            }
        }
        fast.flop(FlopKind::Fma, Precision::F64, 2);
        slow.flop(FlopKind::Fma, Precision::F64, 2);
        let context = format!("preset {preset}, rate {rate}, seed {seed:#x}, step {step}: {op:?}");
        assert_same(&fast.finish(), &slow.0.finish(), &context);
        if preset >= 3 {
            assert_eq!(
                format!("{fast:?}"),
                format!("{:?}", slow.0),
                "sink state, {context}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn access_run_matches_per_element_expansion(
        preset in 0usize..9,
        rate_index in 0usize..4,
        seed in any::<u64>(),
    ) {
        check(preset, [1, 2, 4, 7][rate_index], seed);
    }
}

/// The shapes the fast paths target, pinned explicitly: one unit-stride
/// stream, stride-0 spill pairs, two streams thrashing one 1-way set,
/// a run crossing sampling windows, and lines larger than TLB pages.
#[test]
fn targeted_runs_match_per_element_expansion() {
    let cases: Vec<(usize, u32, usize, Vec<Stream>, u64)> = vec![
        (1, 1, 4096, vec![Stream::load(0, 4, 4)], 3000),
        (
            1,
            1,
            4096,
            vec![
                Stream::store(64, 0, 8),
                Stream::load(64, 0, 8),
                Stream::store(72, 0, 8),
            ],
            3000,
        ),
        (
            3,
            1,
            4096,
            vec![Stream::load(0, 4, 4), Stream::load(512, 4, 4)],
            2000,
        ),
        (
            3,
            1,
            4096,
            vec![Stream::load(0, 4, 4), Stream::store(512, 0, 4)],
            2000,
        ),
        (
            2,
            7,
            4096,
            vec![Stream::load(0, 8, 8), Stream::store(4096, 8, 8)],
            3000,
        ),
        (4, 4, 4096, vec![Stream::load(100, 0, 4)], 3000),
        (
            5,
            1,
            16,
            vec![Stream::load(0, 4, 4), Stream::load(8, 0, 4)],
            1000,
        ),
    ];
    for (preset, rate, tlb_page, streams, n) in cases {
        let mut fast = sink(preset, rate, tlb_page);
        let mut slow = PerElement(fast.clone());
        // Scalar traffic first, so the run starts mid-window.
        for a in 0..100u64 {
            fast.load(a * 24, 4);
            slow.load(a * 24, 4);
        }
        fast.access_run(&streams, n);
        slow.access_run(&streams, n);
        let context = format!("preset {preset}, rate {rate}, {streams:?} × {n}");
        assert_same(&fast.finish(), &slow.0.finish(), &context);
        assert_eq!(format!("{fast:?}"), format!("{:?}", slow.0), "{context}");
    }
}

/// A sink with a 512 B L1 of 32 B lines, `ways`-way under `policy`, and
/// a 4-entry TLB of 4 KiB pages.
fn mixed_sink(ways: usize, policy: Replacement, rate: u32) -> ModelExec {
    ModelExec::new(
        CoreModel::cortex_a9_snowball(),
        small_hierarchy(ways, policy),
        TlbConfig::new(4, 4096),
        40,
        rate,
    )
}

/// A mixed run aliasing one L1 set: `resident` streams that stay on a
/// line for 2 or 4 elements, and `crossing` streams that leave their
/// line every element, for `r = resident + crossing` distinct lines in
/// the set per iteration. Crossing streams either walk the set itself
/// (a new tag each time, so every element misses and evicts), walk
/// lines, or walk pages.
fn mixed_streams(
    rng: &mut Xoshiro256,
    ways: usize,
    resident: usize,
    crossing: usize,
) -> Vec<Stream> {
    let span = 512 / ways as u64; // bytes between lines of one set
    let set = rng.gen_range(span / L1_LINE) * L1_LINE;
    let mut tags: Vec<u64> = (1..40).collect();
    for t in (1..tags.len()).rev() {
        tags.swap(t, rng.gen_range(t as u64 + 1) as usize);
    }
    let mut streams = Vec::new();
    for (n, &tag) in tags.iter().take(resident + crossing).enumerate() {
        let base = set + tag * span;
        let s = if n < resident {
            // 8 B steps: 4 per line; 16 B steps: 2 per line.
            let step = pick(rng, &[8i64, 16, -8, -16]);
            let base = if step < 0 { base + L1_LINE - 1 } else { base };
            Stream {
                base,
                stride: step,
                bytes: 8,
                store: rng.gen_bool(0.3),
            }
        } else {
            let stride = pick(rng, &[span as i64, L1_LINE as i64, 4096 + 32, 3 * 4096]);
            Stream {
                base,
                stride,
                bytes: 8,
                store: rng.gen_bool(0.5),
            }
        };
        if rng.gen_range(4) == 0 {
            // Its twin too: the same addresses, one element later.
            streams.push(s);
        }
        streams.push(s);
    }
    // Interleave crossing and resident streams in a random order.
    for t in (1..streams.len()).rev() {
        streams.swap(t, rng.gen_range(t as u64 + 1) as usize);
    }
    streams
}

fn check_mixed(ways: usize, policy: Replacement, rate: u32, seed: u64) {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut fast = mixed_sink(ways, policy, rate);
    let mut slow = PerElement(fast.clone());
    for step in 0..4 {
        // r = associativity or associativity + 1 lines in the set.
        let r = ways + rng.gen_range(2) as usize;
        let crossing = 1 + rng.gen_range(r.min(2) as u64) as usize;
        let streams = mixed_streams(&mut rng, ways, r - crossing, crossing);
        let n = pick(&mut rng, &[5u64, 40, 300, 1500]);
        fast.access_run(&streams, n);
        slow.access_run(&streams, n);
        let context = format!(
            "{ways}-way {policy:?}, rate {rate}, seed {seed:#x}, step {step}: {streams:?} × {n}"
        );
        assert_same(&fast.finish(), &slow.0.finish(), &context);
        assert_eq!(
            format!("{fast:?}"),
            format!("{:?}", slow.0),
            "sink state, {context}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Crossing and resident streams aliasing one set, with as many
    /// lines in the set per iteration as it has ways, and one more.
    #[test]
    fn mixed_runs_match_per_element_expansion(
        ways_index in 0usize..3,
        policy_index in 0usize..3,
        rate_index in 0usize..3,
        seed in any::<u64>(),
    ) {
        let policy = [Replacement::Lru, Replacement::PseudoLru, Replacement::Random][policy_index];
        check_mixed([1, 2, 4][ways_index], policy, [1, 2, 7][rate_index], seed);
    }
}

/// Mixed shapes pinned explicitly on the 4-way LRU sink: a resident
/// pair re-hit while a crossing stream misses in its set (r = ways and
/// r = ways + 1), a crossing miss evicting a deferred line, daxpy's
/// twin pair at 2 elements per line, and a crossing stream walking more
/// pages than the TLB has entries.
#[test]
fn targeted_mixed_runs_match_per_element_expansion() {
    let span = 128; // 4-way 512 B L1: lines 128 B apart share a set
    let cases: Vec<(u32, Vec<Stream>, u64)> = vec![
        // r = 4: three resident lines and a crossing stream in one set.
        (
            1,
            vec![
                Stream::load(0, 8, 8),
                Stream::load(span, 8, 8),
                Stream::store(2 * span, 8, 8),
                Stream::load(3 * span, span as i64, 8),
            ],
            400,
        ),
        // r = 5: the crossing miss evicts a deferred line every time.
        (
            1,
            vec![
                Stream::load(0, 8, 8),
                Stream::load(span, 16, 8),
                Stream::load(2 * span, 8, 8),
                Stream::load(3 * span, -8, 8),
                Stream::store(4 * span, span as i64, 8),
            ],
            400,
        ),
        // daxpy: a pivot row against a row loaded and stored in place.
        (
            1,
            vec![
                Stream::load(4096, 16, 16),
                Stream::load(0, 16, 16),
                Stream::store(0, 16, 16),
            ],
            500,
        ),
        // The same, sampled, so windows cut between the twins.
        (
            7,
            vec![
                Stream::load(4096, 16, 16),
                Stream::load(0, 16, 16),
                Stream::store(0, 16, 16),
            ],
            3000,
        ),
        // Resident streams while a crossing stream walks 12 pages
        // through a 4-entry TLB.
        (
            1,
            vec![
                Stream::load(0, 8, 8),
                Stream::load(20_000, 4096 + 32, 8),
                Stream::store(span, 8, 8),
            ],
            300,
        ),
    ];
    for (rate, streams, n) in cases {
        let mut fast = mixed_sink(4, Replacement::Lru, rate);
        let mut slow = PerElement(fast.clone());
        fast.load(7, 4);
        slow.load(7, 4);
        fast.access_run(&streams, n);
        slow.access_run(&streams, n);
        let context = format!("rate {rate}, {streams:?} × {n}");
        assert_same(&fast.finish(), &slow.0.finish(), &context);
        assert_eq!(format!("{fast:?}"), format!("{:?}", slow.0), "{context}");
    }
}
