//! The `ModelExec` sink: costs a kernel's operation stream on a machine.
//!
//! [`ModelExec`] combines a [`CoreModel`] with an
//! [`mb_mem::hierarchy::Hierarchy`] and a [`mb_mem::tlb::Tlb`]. Kernels
//! report their operations through the [`Exec`] trait; [`ModelExec::finish`]
//! folds the accumulated evidence into cycles, wall-clock time and a
//! PAPI-style [`CounterSet`].
//!
//! ## Cost model
//!
//! * **Compute cycles** — each flop instruction costs
//!   `lanes·flops / rate(prec, lanes)` cycles (the rate honours the SIMD
//!   capability matrix, so f64 "vector" code on the A9 silently runs at
//!   scalar speed, the Figure 6 effect); divides and square roots add a
//!   long-latency penalty; integer ops cost `n / int_rate`.
//! * **Memory cycles** — every access costs issue bandwidth; misses cost
//!   the hierarchy latency divided by the effective memory-level
//!   parallelism (`min(unroll hint, hardware max)` — the Figure 6/7
//!   unrolling lever).
//! * **Combination** — out-of-order cores overlap compute with memory
//!   (`max`), in-order cores serialise (`sum / issue_efficiency`).
//! * **Branches** — expected mispredictions × penalty.
//!
//! ## Sampling
//!
//! Costing every access through the cache simulator is exact but slow for
//! billion-access kernels. With `sample_rate = k > 1` the hierarchy
//! simulates windows of 1024 consecutive accesses and skips `k−1` windows
//! between them (preserving spatial locality inside a window), then
//! scales miss counts by `k`. `sample_rate = 1` is exact and is the
//! default for every preset.

use mb_mem::cache::{Replacement, Slot};
use mb_mem::hierarchy::{Hierarchy, HierarchyConfig, HitLevel};
use mb_mem::pages::PageTable;
use mb_mem::tlb::{Tlb, TlbConfig};
use mb_simcore::time::{Cycles, SimTime};

use crate::arch::{CoreModel, Overlap};
use crate::counters::{Counter, CounterSet};
use crate::ops::{Exec, FlopKind, OpCounts, Precision, Stream};

/// Size of a simulated window when sampling (accesses).
const SAMPLE_WINDOW: u64 = 1024;

/// One stream's bookkeeping during [`ModelExec::access_run`].
///
/// A lane defers its L1 line while it re-hits the line its last
/// simulated element touched, and its TLB page while it stays on the
/// page. Deferred elements are accounted in bulk; the stamps they would
/// have written are pending until written back.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    /// First iteration whose element needs any simulation: the earlier
    /// of `line_next` and `page_next`.
    next: u64,
    /// First iteration whose element goes through the hierarchy.
    line_next: u64,
    /// First iteration whose element goes through the TLB.
    page_next: u64,
    /// Whether the line is deferred, since iteration `line_from`.
    on_line: bool,
    line_from: u64,
    /// Where the line sits in L1, and a physical address on it.
    slot: Slot,
    paddr: u64,
    /// Whether the page is deferred, in TLB entry `entry`.
    on_page: bool,
    entry: usize,
    /// A virtual address on the page.
    vaddr: u64,
    /// Whether the next lane is this one's twin: a stream at the same
    /// addresses, whose every element re-touches the line and page this
    /// lane's element just touched. Pending touches are the pair's.
    twin: bool,
    /// Whether this lane is the previous one's twin, never simulated
    /// but for a window's first element.
    shadow: bool,
}

impl Lane {
    /// A lane at a window's start, with the run's twin pairing.
    fn fresh(twin: bool, shadow: bool) -> Lane {
        Lane {
            twin,
            shadow,
            next: if shadow { u64::MAX } else { 0 },
            ..Lane::default()
        }
    }
}

/// Where a run's accounting stands: elements before `tlb_at` are in
/// the TLB's clock, elements before `l1_at` in L1's. The elements not
/// simulated in between are hits of deferred lanes, accounted in bulk
/// (`Tlb::repeat_hits`, `Hierarchy::repeat_l1_hits`) just before the
/// next simulated access; their stamps are written back later, and
/// their load latency is charged when their line settles.
struct Cursor {
    tlb_at: u64,
    l1_at: u64,
}

/// The final verdict of a modelled run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Total modelled cycles.
    pub cycles: Cycles,
    /// Wall-clock time at the core's frequency.
    pub time: SimTime,
    /// PAPI-style counters.
    pub counters: CounterSet,
    /// Raw operation counts.
    pub counts: OpCounts,
    /// Cycles attributed to compute issue.
    pub compute_cycles: f64,
    /// Cycles attributed to memory (issue + stalls).
    pub memory_cycles: f64,
    /// Cycles attributed to branch mispredictions.
    pub branch_cycles: f64,
}

impl ExecReport {
    /// Achieved GFLOPS (both precisions pooled) over the modelled run.
    pub fn gflops(&self) -> f64 {
        let secs = self.time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.counts.total_flops() as f64 / secs / 1e9
        }
    }
}

/// An [`Exec`] sink that prices operations on a [`CoreModel`] backed by a
/// simulated memory hierarchy.
#[derive(Debug, Clone)]
pub struct ModelExec {
    model: CoreModel,
    hierarchy: Hierarchy,
    tlb: Tlb,
    tlb_miss_penalty_cycles: u64,
    l1_latency: u64,
    l1_line_bytes: u64,
    /// Per cache level: `(line_bytes / fill_bytes_per_cycle)` — transfer
    /// cycles one line fetched *from* that level occupies.
    fill_cost: Vec<f64>,
    memory_fill_cost: f64,
    sample_rate: u32,
    page_table: Option<PageTable>,

    // Accumulators.
    counts: OpCounts,
    flop_cycles: f64,
    access_index: u64,
    sampled_accesses: u64,
    sampled_latency: u64,
    sampled_fill_cycles: f64,
    sampled_l1_misses: u64,
    sampled_l2_accesses: u64,
    sampled_l2_misses: u64,
    sampled_tlb_misses: u64,
    wide_accesses: u64,
    mlp_hint: u32,
    prefetch_hint: f64,

    // `access_run` scratch, empty and zero between calls.
    lanes: Vec<Lane>,
    /// Lanes with a deferred line, per L1 set.
    lines_in_set: Vec<u32>,
    /// Lanes with a deferred page.
    pages: u32,
}

impl ModelExec {
    /// Creates a sink from explicit parts.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate` is zero.
    pub fn new(
        model: CoreModel,
        hierarchy: HierarchyConfig,
        tlb: TlbConfig,
        tlb_miss_penalty_cycles: u64,
        sample_rate: u32,
    ) -> Self {
        assert!(sample_rate > 0, "sample rate must be at least 1");
        let l1_latency = hierarchy.levels[0].hit_latency_cycles;
        let l1_sets = hierarchy.levels[0].cache.num_sets();
        let l1_line_bytes = hierarchy.l1_line_bytes() as u64;
        let line = l1_line_bytes as f64;
        let fill_cost: Vec<f64> = hierarchy
            .levels
            .iter()
            .map(|l| line / l.fill_bytes_per_cycle)
            .collect();
        let memory_fill_cost = line / hierarchy.memory_fill_bytes_per_cycle;
        let default_mlp = match model.overlap {
            Overlap::OutOfOrder => 4,
            Overlap::InOrder { .. } => 1,
        };
        ModelExec {
            model,
            hierarchy: Hierarchy::new(hierarchy),
            tlb: Tlb::new(tlb),
            tlb_miss_penalty_cycles,
            l1_latency,
            l1_line_bytes,
            fill_cost,
            memory_fill_cost,
            sample_rate,
            page_table: None,
            counts: OpCounts::default(),
            flop_cycles: 0.0,
            access_index: 0,
            sampled_accesses: 0,
            sampled_latency: 0,
            sampled_fill_cycles: 0.0,
            sampled_l1_misses: 0,
            sampled_l2_accesses: 0,
            sampled_l2_misses: 0,
            sampled_tlb_misses: 0,
            wide_accesses: 0,
            mlp_hint: default_mlp,
            prefetch_hint: 0.0,
            lanes: Vec::new(),
            lines_in_set: vec![0; l1_sets],
            pages: 0,
        }
    }

    /// A Nehalem core over the Xeon X5550 hierarchy (exact costing).
    pub fn nehalem() -> Self {
        ModelExec::new(
            CoreModel::nehalem(),
            HierarchyConfig::xeon_x5550(),
            TlbConfig::new(64, 4096),
            30,
            1,
        )
    }

    /// A Cortex-A9 core over the Snowball A9500 hierarchy (exact costing).
    pub fn snowball() -> Self {
        ModelExec::new(
            CoreModel::cortex_a9_snowball(),
            HierarchyConfig::snowball_a9500(),
            TlbConfig::new(32, 4096),
            40,
            1,
        )
    }

    /// A Cortex-A9 core over the Tegra2 hierarchy (exact costing).
    pub fn tegra2() -> Self {
        ModelExec::new(
            CoreModel::cortex_a9_tegra2(),
            HierarchyConfig::tegra2(),
            TlbConfig::new(32, 4096),
            40,
            1,
        )
    }

    /// Sets the window-sampling rate (1 = exact). Returns `self` for
    /// builder-style chaining.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn with_sample_rate(mut self, rate: u32) -> Self {
        assert!(rate > 0, "sample rate must be at least 1");
        self.sample_rate = rate;
        self
    }

    /// Routes virtual addresses through a page table before they reach
    /// the (physically indexed) caches — the Section V.A.1 mechanism.
    /// Addresses reported by the kernel are then interpreted as offsets
    /// into the mapped buffer.
    pub fn with_page_table(mut self, table: PageTable) -> Self {
        self.page_table = Some(table);
        self
    }

    /// Replaces (or clears) the page table routing after construction —
    /// used by experiments that re-allocate their buffer per measurement
    /// (the Section V.A.1 protocol).
    pub fn set_page_table(&mut self, table: Option<PageTable>) {
        self.page_table = table;
    }

    /// Hints the memory-level parallelism the code shape exposes
    /// (typically the unroll degree). Clamped to the hardware ceiling at
    /// evaluation time.
    pub fn set_mlp_hint(&mut self, unroll: u32) {
        self.mlp_hint = unroll.max(1);
    }

    /// Hints how *predictable* the access pattern is for the hardware
    /// prefetcher, in `[0, 1]`: 1.0 for a constant-stride sweep (the
    /// membench kernel), 0.0 (the default) for pointer chasing. The
    /// hidden fraction of miss stalls is
    /// `predictability × prefetch_efficiency`.
    ///
    /// # Panics
    ///
    /// Panics if `predictability` is outside `[0, 1]`.
    pub fn set_prefetch_hint(&mut self, predictability: f64) {
        assert!(
            (0.0..=1.0).contains(&predictability),
            "predictability must be in [0, 1]"
        );
        self.prefetch_hint = predictability;
    }

    /// The core model being used.
    pub fn model(&self) -> &CoreModel {
        &self.model
    }

    fn route(&self, addr: u64) -> u64 {
        match &self.page_table {
            Some(t) => {
                if (addr as usize) < t.span_bytes() {
                    t.translate(addr)
                } else {
                    addr
                }
            }
            None => addr,
        }
    }

    fn mem_access(&mut self, addr: u64, bytes: u32, is_store: bool) {
        // Degenerate accesses corrupt the hierarchy statistics silently;
        // trap them in `validate` builds (kernels issue 1..=4096 B).
        #[cfg(feature = "validate")]
        assert!(
            (1..=4096).contains(&bytes),
            "mem_access({addr:#x}): {bytes} B outside 1..=4096"
        );
        self.access_index += 1;
        if bytes >= 16 {
            self.wide_accesses += 1;
        }
        // Window sampling: simulate window 0, skip windows 1..rate.
        let window = (self.access_index - 1) / SAMPLE_WINDOW;
        if self.sample_rate > 1 && !window.is_multiple_of(self.sample_rate as u64) {
            return;
        }
        self.sampled_accesses += 1;
        self.translate(addr);
        self.cache(self.route(addr), is_store);
    }

    /// Looks a sampled access's virtual `addr` up in the TLB; returns
    /// whether it hit.
    #[inline]
    fn translate(&mut self, addr: u64) -> bool {
        let hit = self.tlb.access(addr);
        if !hit {
            self.sampled_tlb_misses += 1;
            self.sampled_latency += self.tlb_miss_penalty_cycles;
        }
        hit
    }

    /// Costs a sampled access to physical `paddr` through the hierarchy;
    /// returns whether it hit L1.
    #[inline]
    fn cache(&mut self, paddr: u64, is_store: bool) -> bool {
        let (lvl, lat) = self.hierarchy.access(paddr);
        // Stores retire through the write buffer on both target cores:
        // they cost issue slots and fill bandwidth but never stall the
        // pipeline on a miss. Loads pay the full latency.
        if !is_store {
            self.sampled_latency += lat;
        }
        match lvl {
            HitLevel::Cache(i) if i > 0 => {
                self.sampled_fill_cycles += self.fill_cost[i];
            }
            HitLevel::Memory => {
                self.sampled_fill_cycles += self.memory_fill_cost;
            }
            _ => {}
        }
        // Every access probes L1 first, so it missed L1 exactly when it
        // was satisfied anywhere else.
        if lvl != HitLevel::Cache(0) {
            self.sampled_l1_misses += 1;
            self.sampled_l2_accesses += 1;
            if lvl != HitLevel::Cache(1) {
                self.sampled_l2_misses += 1;
            }
            return false;
        }
        true
    }

    /// Whether no L1 line straddles a TLB page or a page-table page, so
    /// that two addresses on one virtual line share a TLB entry and a
    /// physical line.
    fn lines_within_pages(&self) -> bool {
        let line = self.l1_line_bytes as usize;
        self.tlb.config().page_bytes >= line
            && self
                .page_table
                .as_ref()
                .is_none_or(|t| t.page_bytes() >= line)
    }

    /// Writes back the L1 stamp of lane `l`'s latest element before the
    /// run's element `(i, j)`, with every element before that accounted
    /// in L1's clock.
    #[inline]
    fn line_write_back(&mut self, lane: &Lane, l: usize, j: usize, k: usize) {
        let clock = self.hierarchy.l1().clock() - pair_age(lane, l, j, k);
        self.hierarchy.touch_l1_at(lane.slot, clock);
    }

    /// The TLB half of [`ModelExec::line_write_back`].
    fn page_write_back(&mut self, lane: &Lane, l: usize, j: usize, k: usize) {
        let clock = self.tlb.clock() - pair_age(lane, l, j, k);
        self.tlb.touch_at(lane.entry, clock);
    }

    /// Ends lane `l`'s line deferral before the run's element `(i, j)`:
    /// charges its bulk loads, writes back its stamp if the line is still
    /// `resident` (not evicted), and makes its next element go through
    /// L1.
    #[inline]
    fn settle_line(
        &mut self,
        streams: &[Stream],
        lanes: &mut [Lane],
        l: usize,
        (i, j): (u64, usize),
        resident: bool,
    ) {
        let k = streams.len();
        let lane = lanes[l];
        if !streams[l].store {
            self.sampled_latency += (last(l, i, j) - lane.line_from) * self.l1_latency;
        }
        if resident {
            self.line_write_back(&lane, l, j, k);
        }
        self.lines_in_set[lane.slot.set] -= 1;
        let lane = &mut lanes[l];
        lane.on_line = false;
        lane.line_next = first(l, i, j);
        lane.next = lane.line_next.min(lane.page_next);
    }

    /// Ends lane `l`'s page deferral before the run's element `(i, j)`;
    /// the TLB counterpart of [`ModelExec::settle_line`].
    #[inline]
    fn settle_page(
        &mut self,
        streams: &[Stream],
        lanes: &mut [Lane],
        l: usize,
        (i, j): (u64, usize),
        resident: bool,
    ) {
        let lane = lanes[l];
        if resident {
            self.page_write_back(&lane, l, j, streams.len());
        }
        self.pages -= 1;
        let lane = &mut lanes[l];
        lane.on_page = false;
        lane.page_next = first(l, i, j);
        lane.next = lane.line_next.min(lane.page_next);
    }

    /// Looks element `i` of stream `j` up in the TLB, with every element
    /// before it in the TLB's clock; then defers the lane's page if its
    /// next elements stay on it.
    #[inline(never)]
    fn page_event(&mut self, streams: &[Stream], lanes: &mut [Lane], i: u64, j: usize, bulk: bool) {
        let k = streams.len();
        let s = streams[j];
        let vaddr = s.addr(i);
        if lanes[j].on_page {
            self.settle_page(streams, lanes, j, (i, j), true);
        }
        // Before a victim search in the fully associative TLB, every
        // deferred page's stamp must be current: a page touched every
        // iteration would otherwise look old and be evicted.
        if self.pages > 0 && self.tlb.lookup(vaddr).is_none() {
            for (l, lane) in lanes.iter().enumerate() {
                if lane.on_page {
                    self.page_write_back(lane, l, j, k);
                }
            }
        }
        let hit = self.translate(vaddr);
        // A deferred page this miss evicted goes back to simulation.
        if !hit && self.pages > 0 {
            for l in 0..k {
                if lanes[l].on_page && !self.tlb.holds(lanes[l].entry, lanes[l].vaddr) {
                    self.settle_page(streams, lanes, l, (i, j + 1), false);
                }
            }
        }
        let stay = if bulk {
            stay(vaddr, s.stride, self.tlb.config().page_bytes as u64)
        } else {
            0
        };
        let lane = &mut lanes[j];
        lane.page_next = (i + 1).saturating_add(stay);
        // A twin's touch follows this one, so even a last element on the
        // page leaves a touch pending.
        if stay > 0 || lane.twin {
            lane.on_page = true;
            lane.entry = self.tlb.lookup(vaddr).expect("just looked up");
            lane.vaddr = vaddr;
            self.pages += 1;
        }
    }

    /// Writes back the stamps of the lines deferred in L1 set `set`
    /// before a miss there searches it for a victim, with every element
    /// before `(i, j)` in L1's clock.
    #[inline(never)]
    fn guard_set(&mut self, lanes: &[Lane], set: usize, j: usize) {
        let k = lanes.len();
        for (l, lane) in lanes.iter().enumerate() {
            if lane.on_line && lane.slot.set == set {
                self.line_write_back(lane, l, j, k);
            }
        }
    }

    /// Sends the lanes whose deferred line a miss in `set` evicted, just
    /// before the run's element `(i, j)`, back to simulation.
    #[inline(never)]
    fn evicted_lines(
        &mut self,
        streams: &[Stream],
        lanes: &mut [Lane],
        set: usize,
        (i, j): (u64, usize),
    ) {
        for l in 0..lanes.len() {
            let lane = lanes[l];
            if lane.on_line
                && lane.slot.set == set
                && !self.hierarchy.l1().holds(lane.slot, lane.paddr)
            {
                self.settle_line(streams, lanes, l, (i, j), false);
            }
        }
    }

    /// Costs element `i` of stream `j`, the run's element `p`, through
    /// the TLB and L1 where its lane has no deferred page or line, then
    /// defers them where its next elements stay on them.
    #[inline(always)]
    fn simulate_lane(
        &mut self,
        streams: &[Stream],
        lanes: &mut [Lane],
        at: &mut Cursor,
        (p, i, j): (u64, u64, usize),
        bulk: bool,
    ) {
        if i >= lanes[j].page_next {
            self.tlb.repeat_hits(p - at.tlb_at);
            at.tlb_at = p + 1;
            self.page_event(streams, lanes, i, j, bulk);
        }
        if i >= lanes[j].line_next {
            self.hierarchy.repeat_l1_hits(p - at.l1_at);
            at.l1_at = p + 1;
            if lanes[j].on_line {
                self.settle_line(streams, lanes, j, (i, j), true);
            }
            let s = streams[j];
            let vaddr = s.addr(i);
            let paddr = self.route(vaddr);
            // Likewise a miss's victim search in this L1 set must see the
            // current stamps of the lines deferred there.
            let set = self.hierarchy.l1().set_of(paddr);
            let guarded = self.lines_in_set[set] > 0;
            if guarded && self.hierarchy.l1().locate(paddr).is_none() {
                self.guard_set(lanes, set, j);
            }
            let hit = self.cache(paddr, s.store);
            if !hit && guarded {
                self.evicted_lines(streams, lanes, set, (i, j + 1));
            }
            let stay = if bulk {
                stay(vaddr, s.stride, self.l1_line_bytes)
            } else {
                0
            };
            let lane = &mut lanes[j];
            lane.line_next = (i + 1).saturating_add(stay);
            if stay > 0 || lane.twin {
                let slot = self.hierarchy.l1().locate(paddr).expect("just accessed");
                lane.on_line = true;
                lane.line_from = i;
                lane.slot = slot;
                lane.paddr = paddr;
                self.lines_in_set[slot.set] += 1;
            }
        }
        let lane = &mut lanes[j];
        lane.next = lane.line_next.min(lane.page_next);
    }

    /// Costs elements `start..end` of a run, all in one sampled window.
    fn run_window(
        &mut self,
        streams: &[Stream],
        lanes: &mut [Lane],
        start: u64,
        end: u64,
        bulk: bool,
    ) {
        let k = streams.len();
        self.access_index += end - start;
        self.sampled_accesses += end - start;
        let (mut i, mut j) = (start / k as u64, (start % k as u64) as usize);
        let mut p = start;
        // A twin's element whose partner lies before the window is
        // simulated on its own.
        if lanes[j].shadow {
            let s = streams[j];
            self.translate(s.addr(i));
            self.cache(self.route(s.addr(i)), s.store);
            self.twin_loads(streams, lanes, start + 1, end);
            (p, j) = (p + 1, j + 1);
            if j == k {
                (i, j) = (i + 1, 0);
            }
        } else {
            self.twin_loads(streams, lanes, start, end);
        }
        let mut at = Cursor {
            tlb_at: p,
            l1_at: p,
        };
        while p < end {
            if i >= lanes[j].next {
                self.simulate_lane(streams, lanes, &mut at, (p, i, j), bulk);
            }
            p += 1;
            j += 1;
            if j == k {
                j = 0;
                i += 1;
            }
        }
        self.tlb.repeat_hits(end - at.tlb_at);
        self.hierarchy.repeat_l1_hits(end - at.l1_at);
        for l in 0..k {
            if lanes[l].on_line {
                self.settle_line(streams, lanes, l, (i, j), true);
            }
            if lanes[l].on_page {
                self.settle_page(streams, lanes, l, (i, j), true);
            }
            lanes[l] = Lane::fresh(lanes[l].twin, lanes[l].shadow);
        }
    }

    /// Charges the L1 latency of the twin load elements among the run's
    /// elements `start..end`, all accounted as bulk hits.
    fn twin_loads(&mut self, streams: &[Stream], lanes: &[Lane], start: u64, end: u64) {
        let k = streams.len() as u64;
        for (l, s) in streams.iter().enumerate() {
            if lanes[l].shadow && !s.store {
                // The lane's elements `l + m·k` before `x` number
                // `⌈(x − l) / k⌉`.
                let before = |x: u64| x.saturating_sub(l as u64).div_ceil(k);
                self.sampled_latency += (before(end) - before(start)) * self.l1_latency;
            }
        }
    }

    /// Scale factor from sampled events to estimated totals.
    fn scale(&self) -> f64 {
        if self.sampled_accesses == 0 {
            1.0
        } else {
            self.access_index as f64 / self.sampled_accesses as f64
        }
    }

    /// Folds the accumulated evidence into a report and resets nothing —
    /// call once at the end of a run. (Taking `&mut self` rather than
    /// `self` keeps the sink usable behind generic kernels; repeated
    /// calls simply re-evaluate the same totals.)
    pub fn finish(&mut self) -> ExecReport {
        let m = &self.model;
        let scale = self.scale();

        // --- compute ---
        // Branches occupy issue slots like simple ALU ops do; their
        // *misprediction* cost is charged separately below.
        let int_cycles =
            (self.counts.int_ops + self.counts.branches) as f64 / m.int_ops_per_cycle;
        let compute = self.flop_cycles + int_cycles;

        // --- memory ---
        let wide_extra = self.wide_accesses as f64 * (m.mem_penalty_128bit - 1.0);
        let issue = (self.access_index as f64 + wide_extra) / m.mem_issue_per_cycle;
        let est_total_latency = self.sampled_latency as f64 * scale;
        let est_baseline = self.access_index as f64 * self.l1_latency as f64;
        let stall_raw = (est_total_latency - est_baseline).max(0.0);
        let prefetch_hidden = (self.prefetch_hint * m.prefetch_efficiency).clamp(0.0, 1.0);
        let mlp = m.effective_mlp(self.mlp_hint);
        let stall = stall_raw * (1.0 - prefetch_hidden) / mlp;
        // Line-transfer occupancy is pure bandwidth: neither prefetching
        // nor MLP makes the wires wider.
        let fill = self.sampled_fill_cycles * scale;
        let memory = issue.max(fill) + stall;

        // --- branches ---
        let predictable = self.counts.branches - self.counts.unpredictable_branches;
        let expected_misses = predictable as f64 * (1.0 - m.predictable_accuracy)
            + self.counts.unpredictable_branches as f64 * (1.0 - m.unpredictable_accuracy);
        let branch = expected_misses * m.branch_miss_penalty_cycles as f64;

        // --- combine ---
        let core = match m.overlap {
            Overlap::OutOfOrder => compute.max(memory),
            Overlap::InOrder { issue_efficiency } => (compute + memory) / issue_efficiency,
        };
        let total = core + branch;
        let cycles = Cycles::new(total.ceil() as u64);
        let time = m.frequency.cycles(cycles);

        let mut counters = CounterSet::new();
        counters.set(Counter::TotalCycles, cycles.get());
        counters.set(
            Counter::TotalInstructions,
            self.counts.flop_instructions
                + self.counts.int_ops
                + self.counts.loads
                + self.counts.stores
                + self.counts.branches,
        );
        counters.set(Counter::FpOps, self.counts.total_flops());
        counters.set(Counter::L1DataAccesses, self.access_index);
        counters.set(
            Counter::L1DataMisses,
            (self.sampled_l1_misses as f64 * scale) as u64,
        );
        counters.set(
            Counter::L2DataAccesses,
            (self.sampled_l2_accesses as f64 * scale) as u64,
        );
        counters.set(
            Counter::L2DataMisses,
            (self.sampled_l2_misses as f64 * scale) as u64,
        );
        counters.set(
            Counter::TlbDataMisses,
            (self.sampled_tlb_misses as f64 * scale) as u64,
        );
        counters.set(Counter::BranchMispredictions, expected_misses as u64);
        counters.set(Counter::Loads, self.counts.loads);
        counters.set(Counter::Stores, self.counts.stores);

        ExecReport {
            cycles,
            time,
            counters,
            counts: self.counts,
            compute_cycles: compute,
            memory_cycles: memory,
            branch_cycles: branch,
        }
    }

    /// Resets all accumulated state (hierarchy, TLB and tallies) so the
    /// sink can cost a fresh run.
    pub fn reset(&mut self) {
        self.hierarchy.reset();
        self.tlb.reset();
        self.counts = OpCounts::default();
        self.flop_cycles = 0.0;
        self.access_index = 0;
        self.sampled_accesses = 0;
        self.sampled_latency = 0;
        self.sampled_fill_cycles = 0.0;
        self.sampled_l1_misses = 0;
        self.sampled_l2_accesses = 0;
        self.sampled_l2_misses = 0;
        self.sampled_tlb_misses = 0;
        self.wide_accesses = 0;
    }
}

/// How many more elements of a stream with `stride`, at `addr` now,
/// stay in the same aligned `block` (a line or a page).
fn stay(addr: u64, stride: i64, block: u64) -> u64 {
    let step = stride.unsigned_abs();
    if step >= block {
        return 0;
    }
    if step == 0 {
        return u64::MAX;
    }
    let offset = addr & (block - 1);
    let room = if stride > 0 {
        block - 1 - offset
    } else {
        offset
    };
    // Power-of-two strides (every kernel's) shift; `room < block` fits
    // 32 bits, whose division is the cheaper one.
    if step.is_power_of_two() {
        room >> step.trailing_zeros()
    } else {
        u64::from(room as u32 / step as u32)
    }
}

/// Iteration of lane `l`'s last element before the run's element
/// `(i, j)` (with `j` up to the lane count). The lane has an element
/// before it.
fn last(l: usize, i: u64, j: usize) -> u64 {
    if l < j {
        i
    } else {
        i - 1
    }
}

/// Iteration of lane `l`'s first element from the run's element `(i, j)`
/// on.
fn first(l: usize, i: u64, j: usize) -> u64 {
    if l < j {
        i + 1
    } else {
        i
    }
}

/// [`age`] of the latest touch of `lane`'s line or page: its own, or
/// its twin's when that came later.
fn pair_age(lane: &Lane, l: usize, j: usize, k: usize) -> u64 {
    let own = age(l, j, k);
    if lane.twin {
        own.min(age(l + 1, j, k))
    } else {
        own
    }
}

/// How many elements of a run of `k` lanes come after lane `l`'s last
/// element before element `(i, j)` and before `(i, j)` itself.
fn age(l: usize, j: usize, k: usize) -> u64 {
    (if l < j { j - 1 - l } else { k + j - 1 - l }) as u64
}

impl Exec for ModelExec {
    fn flop(&mut self, kind: FlopKind, prec: Precision, lanes: u32) {
        #[cfg(feature = "validate")]
        assert!(lanes >= 1, "flop({kind:?}, {prec:?}) with zero lanes");
        let flops = kind.flops() * lanes as u64;
        match prec {
            Precision::F64 => self.counts.flops_f64 += flops,
            Precision::F32 => self.counts.flops_f32 += flops,
        }
        self.counts.flop_instructions += 1;
        let rate = self.model.flop_rate(prec, lanes);
        self.flop_cycles += flops as f64 / rate;
        if matches!(kind, FlopKind::Div | FlopKind::Sqrt) {
            self.counts.long_latency_flops += lanes as u64;
            self.flop_cycles += self.model.long_latency_penalty_cycles * lanes as f64;
        }
    }

    fn int_ops(&mut self, n: u64) {
        self.counts.int_ops += n;
    }

    fn load(&mut self, addr: u64, bytes: u32) {
        self.counts.loads += 1;
        self.counts.load_bytes += bytes as u64;
        self.mem_access(addr, bytes, false);
    }

    fn store(&mut self, addr: u64, bytes: u32) {
        self.counts.stores += 1;
        self.counts.store_bytes += bytes as u64;
        self.mem_access(addr, bytes, true);
    }

    fn branch(&mut self, predictable: bool) {
        self.counts.branches += 1;
        if !predictable {
            self.counts.unpredictable_branches += 1;
        }
    }

    fn flop_run(&mut self, kind: FlopKind, prec: Precision, lanes: u32, n: u64) {
        // Closed-form batch accounting: one multiply instead of n trait
        // calls. (The cycle total accumulates as `n·(flops/rate)` rather
        // than n separate adds, which is the same real number; the two
        // float orderings are each deterministic.)
        let flops = kind.flops() * lanes as u64;
        match prec {
            Precision::F64 => self.counts.flops_f64 += flops * n,
            Precision::F32 => self.counts.flops_f32 += flops * n,
        }
        self.counts.flop_instructions += n;
        let rate = self.model.flop_rate(prec, lanes);
        self.flop_cycles += n as f64 * (flops as f64 / rate);
        if matches!(kind, FlopKind::Div | FlopKind::Sqrt) {
            self.counts.long_latency_flops += lanes as u64 * n;
            self.flop_cycles += self.model.long_latency_penalty_cycles * (lanes as u64 * n) as f64;
        }
    }

    fn branch_run(&mut self, n: u64, predictable: bool) {
        self.counts.branches += n;
        if !predictable {
            self.counts.unpredictable_branches += n;
        }
    }

    /// Costs the run exactly as its per-element expansion: every
    /// counter, LRU stamp, MRU way, PLRU bit and TLB hint ends where the
    /// expansion leaves it. Two shortcuts make that cheap:
    ///
    /// * elements in skipped sampling windows only advance the access
    ///   index, so a skipped span costs O(1);
    /// * inside a simulated window, each stream is a lane. A lane's
    ///   first element on an L1 line goes through the hierarchy, and its
    ///   first on a TLB page through the TLB, as does every element of a
    ///   stream striding a line (a page) or more. Its later elements on
    ///   that line and page must hit while they stay resident, and are
    ///   accounted in bulk; a stream at the same addresses as the one
    ///   before it is that lane's twin and always hits. The stamps, MRU
    ///   ways and TLB hints the bulk hits would have written are written
    ///   back at their known clock ticks when the lane moves on, when
    ///   the window ends, and before a simulated miss could search the
    ///   lane's L1 set or the TLB for a victim. A miss that evicts a
    ///   deferred line or page sends its lane back to simulation.
    ///
    /// Bulk accounting needs an LRU L1 and lines no larger than TLB and
    /// page-table pages; otherwise every sampled element is simulated.
    /// DESIGN.md §4 ("Model hot path") gives the exactness argument.
    fn access_run(&mut self, streams: &[Stream], n: u64) {
        #[cfg(feature = "validate")]
        for s in streams {
            assert!(
                (1..=4096).contains(&s.bytes),
                "access_run({:#x}): {} B outside 1..=4096",
                s.base,
                s.bytes
            );
        }
        let k = streams.len() as u64;
        if k == 0 || n == 0 {
            return;
        }
        self.counts.add_run(streams, n);
        self.wide_accesses += n * streams.iter().filter(|s| s.bytes >= 16).count() as u64;
        let bulk = self.hierarchy.l1().config().replacement == Replacement::Lru
            && self.lines_within_pages();
        let mut lanes = std::mem::take(&mut self.lanes);
        // Pair each stream with an identical successor; a twin is not
        // paired again.
        let mut j = 0;
        while j < streams.len() {
            let (a, b) = (streams[j], streams.get(j + 1));
            let paired = bulk && b.is_some_and(|b| a.base == b.base && a.stride == b.stride);
            lanes.push(Lane::fresh(paired, false));
            if paired {
                lanes.push(Lane::fresh(false, true));
                j += 1;
            }
            j += 1;
        }
        let rate = u64::from(self.sample_rate);
        let total = n * k;
        // Elements of this run reported so far.
        let mut done = 0u64;
        while done < total {
            let pos = self.access_index;
            let window = pos / SAMPLE_WINDOW;
            if rate > 1 && !window.is_multiple_of(rate) {
                let next = (window / rate + 1) * rate * SAMPLE_WINDOW;
                let skip = (next - pos).min(total - done);
                self.access_index += skip;
                done += skip;
                continue;
            }
            let end = if rate > 1 {
                done + ((window + 1) * SAMPLE_WINDOW - pos).min(total - done)
            } else {
                total
            };
            self.run_window(streams, &mut lanes, done, end, bulk);
            done = end;
        }
        lanes.clear();
        self.lanes = lanes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A simple compute-only loop: n dependent f64 FMAs.
    fn fma_loop(e: &mut ModelExec, n: u64, lanes: u32) {
        for _ in 0..n {
            e.flop(FlopKind::Fma, Precision::F64, lanes);
            e.branch(true);
        }
    }

    #[test]
    fn nehalem_beats_snowball_on_dp_compute() {
        let mut xeon = ModelExec::nehalem();
        fma_loop(&mut xeon, 100_000, 2);
        let rx = xeon.finish();
        let mut arm = ModelExec::snowball();
        fma_loop(&mut arm, 100_000, 2);
        let ra = arm.finish();
        // Same abstract work; Nehalem is faster in both cycles and time.
        assert!(ra.cycles > rx.cycles);
        let ratio = ra.time.as_secs_f64() / rx.time.as_secs_f64();
        assert!(
            ratio > 5.0 && ratio < 60.0,
            "compute ratio should be large but sane, got {ratio}"
        );
    }

    #[test]
    fn f32_simd_helps_nehalem_and_snowball_but_not_tegra2() {
        let run = |mut e: ModelExec| {
            fma_loop(&mut e, 10_000, 4);
            e.finish().cycles.get()
        };
        let run_scalar = |mut e: ModelExec| {
            fma_loop(&mut e, 40_000, 1);
            e.finish().cycles.get()
        };
        // Vectorised f64 on Snowball ≈ scalar (no DP SIMD).
        let mut v = ModelExec::snowball();
        fma_loop(&mut v, 10_000, 2);
        let vec_dp = v.finish().cycles.get();
        let mut s = ModelExec::snowball();
        fma_loop(&mut s, 20_000, 1);
        let scal_dp = s.finish().cycles.get();
        let rel = vec_dp as f64 / scal_dp as f64;
        // The 2-lane version still pays half the loop branches, so it is
        // slightly ahead — but nowhere near the 2× a real DP SIMD gives.
        assert!(rel > 0.8, "A9 f64 'vector' ≈ scalar, got {rel}");
        // Tegra2 f32 lanes don't help either (no NEON).
        let tegra_vec = run(ModelExec::tegra2());
        let tegra_scal = run_scalar(ModelExec::tegra2());
        // Again only loop-overhead savings, not a real SIMD speed-up.
        assert!(tegra_vec as f64 / tegra_scal as f64 > 0.7);
        // But Nehalem f32 SIMD is much faster than scalar.
        let xeon_vec = run(ModelExec::nehalem());
        let xeon_scal = run_scalar(ModelExec::nehalem());
        assert!((xeon_scal as f64 / xeon_vec as f64) > 2.0);
    }

    #[test]
    fn memory_stalls_dominate_strided_misses() {
        let mut e = ModelExec::snowball();
        // 1 MB sweep touching one element per cache line: mostly misses.
        for i in 0..32_768u64 {
            e.load(i * 32, 4);
        }
        let r = e.finish();
        assert!(r.memory_cycles > r.compute_cycles);
        assert!(r.counters.get(Counter::L1DataMisses) > 30_000);
    }

    #[test]
    fn mlp_hint_divides_stalls_on_ooo() {
        let run = |hint: u32| {
            let mut e = ModelExec::nehalem();
            e.set_mlp_hint(hint);
            for i in 0..100_000u64 {
                e.load(i * 64, 4);
            }
            e.finish().cycles.get()
        };
        let serial = run(1);
        let unrolled = run(8);
        assert!(
            serial as f64 / unrolled as f64 > 3.0,
            "unrolling should expose MLP: {serial} vs {unrolled}"
        );
    }

    #[test]
    fn mlp_capped_on_a9() {
        let run = |hint: u32| {
            let mut e = ModelExec::snowball();
            e.set_mlp_hint(hint);
            for i in 0..100_000u64 {
                e.load(i * 32, 4);
            }
            e.finish().cycles.get()
        };
        let u2 = run(2);
        let u8 = run(8);
        // The A9 can only keep 2 misses outstanding: unrolling past 2
        // does not help.
        assert_eq!(u2, u8);
    }

    #[test]
    fn wide_accesses_penalised_on_arm_only() {
        let run = |mut e: ModelExec, bytes: u32| {
            for i in 0..10_000u64 {
                e.load((i * 16) % 8192, bytes);
            }
            e.finish().cycles.get()
        };
        let arm_narrow = run(ModelExec::snowball(), 8);
        let arm_wide = run(ModelExec::snowball(), 16);
        assert!(arm_wide > arm_narrow, "128-bit splits on the A9 bus");
        let xeon_narrow = run(ModelExec::nehalem(), 8);
        let xeon_wide = run(ModelExec::nehalem(), 16);
        assert_eq!(xeon_wide, xeon_narrow, "no penalty on Nehalem");
    }

    #[test]
    fn branch_mispredictions_cost() {
        let mut pred = ModelExec::nehalem();
        for _ in 0..10_000 {
            pred.branch(true);
        }
        let rp = pred.finish();
        let mut unpred = ModelExec::nehalem();
        for _ in 0..10_000 {
            unpred.branch(false);
        }
        let ru = unpred.finish();
        assert!(ru.branch_cycles > 10.0 * rp.branch_cycles);
    }

    #[test]
    fn sampling_approximates_exact() {
        let run = |rate: u32| {
            let mut e = ModelExec::snowball().with_sample_rate(rate);
            // A repetitive sweep, so windows are representative.
            for sweep in 0..8u64 {
                let _ = sweep;
                for i in 0..65_536u64 {
                    e.load(i * 4 % (256 * 1024), 4);
                }
            }
            e.finish().cycles.get() as f64
        };
        let exact = run(1);
        let sampled = run(4);
        let err = (sampled - exact).abs() / exact;
        assert!(err < 0.25, "sampling error {err} too large");
    }

    #[test]
    fn report_gflops_consistent() {
        let mut e = ModelExec::nehalem();
        fma_loop(&mut e, 1_000_000, 2);
        let r = e.finish();
        let g = r.gflops();
        // 4M flops; Nehalem peak 10.64 GFLOPS — must be under peak and
        // over half of it for this pure-FMA loop.
        assert!(g < 10.64 + 1e-6, "gflops {g}");
        assert!(g > 4.0, "gflops {g}");
    }

    #[test]
    fn page_table_routing_affects_caches() {
        use mb_mem::pages::{PageAllocator, PagePolicy};
        // Random pages near the L1 size produce at least as many misses
        // as contiguous ones.
        let run = |policy: PagePolicy, seed: u64| {
            let mut alloc = PageAllocator::new(policy, 4096, 1 << 18, seed);
            let table = alloc.allocate(32 * 1024);
            let mut e = ModelExec::snowball().with_page_table(table);
            for _ in 0..4 {
                for i in 0..(32 * 1024 / 4) as u64 {
                    e.load(i * 4, 4);
                }
            }
            e.finish().counters.get(Counter::L1DataMisses)
        };
        let contiguous = run(PagePolicy::Contiguous, 0);
        let random: u64 = (0..6).map(|s| run(PagePolicy::Random, s)).sum::<u64>() / 6;
        assert!(random >= contiguous);
    }

    #[test]
    fn reset_gives_fresh_run() {
        let mut e = ModelExec::snowball();
        e.load(0, 4);
        e.flop(FlopKind::Add, Precision::F64, 1);
        let r1 = e.finish();
        e.reset();
        let r2 = e.finish();
        assert!(r1.cycles.get() > 0);
        assert_eq!(r2.cycles.get(), 0);
        assert_eq!(r2.counts.loads, 0);
    }

    #[test]
    #[should_panic(expected = "sample rate must be at least 1")]
    fn zero_sample_rate_panics() {
        let _ = ModelExec::snowball().with_sample_rate(0);
    }
}
