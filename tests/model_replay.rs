//! Exact-count gate on the machine model: `ModelExec`'s memory counters
//! must equal a plain element-by-element replay of the same address
//! stream through a fresh `Tlb` and `Hierarchy`.
//!
//! `ModelExec` accounts most of a strided loop's elements in bulk and
//! writes their cache and TLB state back later; the replay simulates
//! every access. Any shortcut that changed a hit, a miss or a victim
//! would change a count here. The inputs are the Figure 7 quick grid at
//! unrolls 1, 6 and 12 on Nehalem and Tegra2, one paper-grid variant on
//! Tegra2, and unblocked `dgefa` LINPACK on the Snowball, all at sample
//! rate 1; the totals are pinned.

use mb_cpu::counters::Counter;
use mb_cpu::exec_model::ModelExec;
use mb_cpu::ops::{Exec, FlopKind, Precision};
use mb_kernels::linpack::Linpack;
use mb_kernels::magicfilter::{Grid3, MagicfilterWorkspace};
use mb_kernels::membench::spill_traffic;
use mb_mem::hierarchy::Hierarchy;
use mb_mem::tlb::Tlb;
use montblanc::fig7::{self, Fig7Config};
use montblanc::Platform;

/// Replays every load and store through a TLB and a cache hierarchy,
/// one access at a time (`access_run` keeps the trait's per-element
/// body).
struct Replay {
    tlb: Tlb,
    hierarchy: Hierarchy,
}

impl Replay {
    fn new(platform: &Platform) -> Replay {
        Replay {
            tlb: Tlb::new(platform.tlb),
            hierarchy: Hierarchy::new(platform.hierarchy.clone()),
        }
    }

    fn access(&mut self, addr: u64) {
        self.tlb.access(addr);
        self.hierarchy.access(addr);
    }

    /// `[L1 accesses, L1 misses, L2 accesses, L2 misses, TLB misses]`.
    fn counts(&self) -> [u64; 5] {
        let (l1, l2) = (self.hierarchy.level_stats(0), self.hierarchy.level_stats(1));
        [
            l1.accesses,
            l1.misses,
            l2.accesses,
            l2.misses,
            self.tlb.misses(),
        ]
    }
}

impl Exec for Replay {
    fn flop(&mut self, _kind: FlopKind, _prec: Precision, _lanes: u32) {}
    fn int_ops(&mut self, _n: u64) {}
    fn load(&mut self, addr: u64, _bytes: u32) {
        self.access(addr);
    }
    fn store(&mut self, addr: u64, _bytes: u32) {
        self.access(addr);
    }
    fn branch(&mut self, _predictable: bool) {}
}

/// The same five counters from a finished `ModelExec`.
fn model_counts(exec: &mut ModelExec) -> [u64; 5] {
    let c = exec.finish().counters;
    [
        c.get(Counter::L1DataAccesses),
        c.get(Counter::L1DataMisses),
        c.get(Counter::L2DataAccesses),
        c.get(Counter::L2DataMisses),
        c.get(Counter::TlbDataMisses),
    ]
}

/// One Figure 7 variant through `fig7::measure_variant`, and the same
/// traffic (the magicfilter, then the register spills past the core's
/// limit) through the replay.
fn fig7_variant(platform: &Platform, grid: &Grid3, unroll: u32) -> ([u64; 5], [u64; 5]) {
    let mut exec = platform.exec(1);
    fig7::measure_variant(grid, unroll, &mut exec, &mut MagicfilterWorkspace::new());
    let mut replay = Replay::new(platform);
    MagicfilterWorkspace::new().apply(grid, unroll, &mut replay);
    let spills = unroll.saturating_sub(platform.core.unroll_register_limit);
    if spills > 0 {
        let groups = (3 * grid.len() as u64) / unroll as u64;
        let stack_base = (grid.len() as u64 * 8 + 8192) & !4095;
        spill_traffic(&mut replay, stack_base, u64::from(spills), 8, groups * 16);
    }
    (model_counts(&mut exec), replay.counts())
}

/// Unblocked LINPACK (`dgefa` then `dgesl`) of order `n`.
fn dgefa(platform: &Platform, n: usize) -> ([u64; 5], [u64; 5]) {
    let mut exec = platform.exec(1);
    let mut lp = Linpack::new(n, 42);
    lp.factorize(&mut exec);
    lp.solve(&mut exec);
    let mut replay = Replay::new(platform);
    let mut lp = Linpack::new(n, 42);
    lp.factorize(&mut replay);
    lp.solve(&mut replay);
    (model_counts(&mut exec), replay.counts())
}

/// Totals over all inputs of `[L1 accesses, L1 misses, L2 accesses,
/// L2 misses, TLB misses]`.
const TOTALS: [u64; 5] = [1_924_488, 263_200, 263_200, 13_104, 2_102];

#[test]
fn model_counts_equal_a_per_element_replay() {
    let e = Fig7Config::quick().grid_edge;
    let grid = Grid3::random(e, e, e, 0xF167);
    let mut runs = Vec::new();
    for platform in [Platform::xeon_x5550(), Platform::tegra2_node()] {
        for unroll in [1, 6, 12] {
            let label = format!("fig7 {} u{unroll}", platform.name);
            runs.push((label, fig7_variant(&platform, &grid, unroll)));
        }
    }
    // The paper grid's 110 KB buffers overflow Tegra2's 32 KB L1, so
    // misses there evict lines other streams are still re-hitting.
    let e = Fig7Config::paper().grid_edge;
    let paper = Grid3::random(e, e, e, 0xF167);
    runs.push((
        "fig7 paper grid Tegra2 u4".into(),
        fig7_variant(&Platform::tegra2_node(), &paper, 4),
    ));
    runs.push((
        "dgefa n=96 Snowball".into(),
        dgefa(&Platform::snowball(), 96),
    ));
    let mut totals = [0u64; 5];
    for (label, (model, replay)) in &runs {
        assert_eq!(model, replay, "{label}: ModelExec vs replay");
        for (t, c) in totals.iter_mut().zip(model) {
            *t += c;
        }
    }
    assert_eq!(totals, TOTALS, "replayed totals moved: the model changed");
}
