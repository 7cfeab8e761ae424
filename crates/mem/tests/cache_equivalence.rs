//! Property test: the flattened `Cache` (parallel tag/stamp arrays,
//! per-set valid words, the MRU-way probe, precomputed shift/masks)
//! behaves identically to the original nested-`Vec` implementation,
//! re-implemented here as a reference oracle — every per-access outcome,
//! the final statistics and residency probes must agree across
//! replacement policies and edge geometries.

use mb_mem::cache::{AccessResult, Cache, CacheConfig, Replacement};
use mb_simcore::rng::{Rng, Xoshiro256};
use proptest::prelude::*;

/// The pre-flattening implementation, verbatim modulo names: one `Vec`
/// of ways per set, division/modulo index extraction, two-pass
/// hit-then-free scanning.
struct RefCache {
    cfg: CacheConfig,
    sets: Vec<Vec<RefWay>>,
    clock: u64,
    rng: Xoshiro256,
    plru: Vec<u64>,
    accesses: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Clone)]
struct RefWay {
    tag: u64,
    valid: bool,
    stamp: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        let sets = (0..cfg.num_sets())
            .map(|_| {
                vec![
                    RefWay {
                        tag: 0,
                        valid: false,
                        stamp: 0,
                    };
                    cfg.associativity
                ]
            })
            .collect();
        let plru = vec![0u64; cfg.num_sets()];
        RefCache {
            cfg,
            sets,
            clock: 0,
            rng: Xoshiro256::seed_from(0xCAC4E),
            plru,
            accesses: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.cfg.line_bytes as u64;
        let set = (line as usize) & (self.cfg.num_sets() - 1);
        let tag = line >> self.cfg.num_sets().trailing_zeros();
        (set, tag)
    }

    fn access(&mut self, addr: u64) -> AccessResult {
        self.clock += 1;
        self.accesses += 1;
        let (set_idx, tag) = self.set_and_tag(addr);
        let ways = self.cfg.associativity;

        if let Some(w) = self.sets[set_idx]
            .iter()
            .position(|w| w.valid && w.tag == tag)
        {
            self.hits += 1;
            self.sets[set_idx][w].stamp = self.clock;
            self.touch_plru(set_idx, w);
            return AccessResult::Hit;
        }

        self.misses += 1;

        if let Some(w) = self.sets[set_idx].iter().position(|w| !w.valid) {
            self.fill(set_idx, w, tag);
            return AccessResult::Miss { evicted: false };
        }

        let victim = match self.cfg.replacement {
            Replacement::Lru => {
                let set = &self.sets[set_idx];
                (0..ways)
                    .min_by_key(|&w| set[w].stamp)
                    .expect("non-empty set")
            }
            Replacement::Random => self.rng.gen_range(ways as u64) as usize,
            Replacement::PseudoLru => self.plru_victim(set_idx),
        };
        self.evictions += 1;
        self.fill(set_idx, victim, tag);
        AccessResult::Miss { evicted: true }
    }

    fn fill(&mut self, set_idx: usize, way: usize, tag: u64) {
        let w = &mut self.sets[set_idx][way];
        w.tag = tag;
        w.valid = true;
        w.stamp = self.clock;
        self.touch_plru(set_idx, way);
    }

    fn touch_plru(&mut self, set_idx: usize, way: usize) {
        let ways = self.cfg.associativity;
        if !ways.is_power_of_two() || ways < 2 {
            return;
        }
        let levels = ways.trailing_zeros();
        let bits = &mut self.plru[set_idx];
        let mut node = 1usize;
        for level in (0..levels).rev() {
            let bit = (way >> level) & 1;
            if bit == 0 {
                *bits |= 1 << node;
            } else {
                *bits &= !(1 << node);
            }
            node = node * 2 + bit;
        }
    }

    fn plru_victim(&self, set_idx: usize) -> usize {
        let ways = self.cfg.associativity;
        let levels = ways.trailing_zeros();
        let bits = self.plru[set_idx];
        let mut node = 1usize;
        let mut way = 0usize;
        for _ in 0..levels {
            let b = ((bits >> node) & 1) as usize;
            way = (way << 1) | b;
            node = node * 2 + b;
        }
        way
    }

    fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.set_and_tag(addr);
        self.sets[set_idx].iter().any(|w| w.valid && w.tag == tag)
    }
}

/// Edge geometries: direct-mapped, tiny 2-way, fully associative
/// (single set), odd non-power-of-two associativity (PLRU degrades to
/// its early-return path), and a realistic L1 shape.
fn geometry(index: usize) -> CacheConfig {
    let (size, line, assoc) = match index % 6 {
        0 => (256, 16, 1),         // direct-mapped
        1 => (128, 16, 2),         // tiny 2-way
        2 => (512, 32, 16),        // fully associative: one set
        3 => (96, 16, 3),          // 3-way: PLRU early-return path
        4 => (4 * 1024, 32, 4),    // Cortex-A9 L1 shape, scaled down
        _ => (2 * 1024, 64, 8),    // Nehalem L1 shape, scaled down
    };
    let replacement = match index / 6 % 3 {
        0 => Replacement::Lru,
        1 => Replacement::Random,
        _ => Replacement::PseudoLru,
    };
    CacheConfig::new(size, line, assoc, replacement)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flattened_cache_matches_nested_reference(
        geo in 0usize..18,
        addrs in prop::collection::vec(0u64..8192, 1..400),
        with_reset in proptest::arbitrary::any::<bool>(),
    ) {
        let cfg = geometry(geo);
        let mut real = Cache::new(cfg);
        let mut oracle = RefCache::new(cfg);
        let split = addrs.len() / 2;
        for (i, &addr) in addrs.iter().enumerate() {
            if with_reset && i == split {
                // `reset` must also agree (it keeps the RNG state).
                real.reset();
                let fresh_rng = std::mem::replace(
                    &mut oracle.rng,
                    Xoshiro256::seed_from(0),
                );
                oracle = RefCache::new(cfg);
                oracle.rng = fresh_rng;
            }
            let got = real.access(addr);
            let want = oracle.access(addr);
            prop_assert_eq!(got, want, "access #{} to {:#x} under {:?}", i, addr, cfg);
        }
        let stats = *real.stats();
        prop_assert_eq!(stats.accesses, oracle.accesses);
        prop_assert_eq!(stats.hits, oracle.hits);
        prop_assert_eq!(stats.misses, oracle.misses);
        prop_assert_eq!(stats.evictions, oracle.evictions);
        // Residency probes over the whole address range agree too.
        for probe in (0..8192u64).step_by(16) {
            prop_assert_eq!(real.contains(probe), oracle.contains(probe));
        }
    }
}

/// Shapes beyond the edge set above: the largest associativity a
/// `CacheConfig` accepts, in one set and in two, and an 8-way L2 shape
/// scaled down (64 sets of 32-byte lines).
fn wide_geometry(index: usize) -> CacheConfig {
    let (size, line, assoc) = match index % 3 {
        0 => (64 * 16, 16, mb_mem::cache::MAX_WAYS), // fully associative
        1 => (2 * 64 * 32, 32, mb_mem::cache::MAX_WAYS),
        _ => (16 * 1024, 32, 8), // Snowball/Tegra2 L2 shape, scaled down
    };
    let replacement = match index / 3 % 3 {
        0 => Replacement::Lru,
        1 => Replacement::Random,
        _ => Replacement::PseudoLru,
    };
    CacheConfig::new(size, line, assoc, replacement)
}

/// An address stream that keeps returning to one "home" line of a set
/// between visits to other lines of the same set — the pattern the
/// MRU-way probe short-circuits, with enough distinct lines
/// (`2 × ways + 1`) to force evictions, home included.
fn same_set_stream(cfg: &CacheConfig, set: usize, picks: &[(bool, u64, u64)]) -> Vec<u64> {
    let sets = cfg.num_sets() as u64;
    let line = cfg.line_bytes as u64;
    let set = set as u64 % sets;
    let others = 2 * cfg.associativity as u64 + 1;
    picks
        .iter()
        .map(|&(home, j, offset)| {
            let k = if home { 0 } else { 1 + j % others };
            (set + k * sets) * line + offset % line
        })
        .collect()
}

/// Runs `addrs` through both implementations, optionally resetting both
/// halfway, and compares every outcome, the statistics, and residency
/// over `0..probe_span`.
fn assert_matches_reference(cfg: CacheConfig, addrs: &[u64], with_reset: bool, probe_span: u64) {
    let mut real = Cache::new(cfg);
    let mut oracle = RefCache::new(cfg);
    let split = addrs.len() / 2;
    for (i, &addr) in addrs.iter().enumerate() {
        if with_reset && i == split {
            real.reset();
            let fresh_rng = std::mem::replace(&mut oracle.rng, Xoshiro256::seed_from(0));
            oracle = RefCache::new(cfg);
            oracle.rng = fresh_rng;
        }
        let got = real.access(addr);
        let want = oracle.access(addr);
        prop_assert_eq!(got, want, "access #{} to {:#x} under {:?}", i, addr, cfg);
    }
    let stats = *real.stats();
    prop_assert_eq!(stats.accesses, oracle.accesses);
    prop_assert_eq!(stats.hits, oracle.hits);
    prop_assert_eq!(stats.misses, oracle.misses);
    prop_assert_eq!(stats.evictions, oracle.evictions);
    for probe in (0..probe_span).step_by(cfg.line_bytes) {
        prop_assert_eq!(real.contains(probe), oracle.contains(probe));
    }
    for &addr in addrs {
        prop_assert_eq!(real.contains(addr), oracle.contains(addr));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn same_set_revisits_match_nested_reference(
        geo in 0usize..27,
        set in 0usize..64,
        picks in prop::collection::vec(
            (proptest::arbitrary::any::<bool>(), 0u64..1024, 0u64..64),
            1..400,
        ),
        with_reset in proptest::arbitrary::any::<bool>(),
    ) {
        // Both the edge geometries and the wide ones.
        let cfg = if geo < 18 { geometry(geo) } else { wide_geometry(geo - 18) };
        let addrs = same_set_stream(&cfg, set, &picks);
        assert_matches_reference(cfg, &addrs, with_reset, 8192);
    }

    #[test]
    fn wide_geometries_match_nested_reference(
        geo in 0usize..9,
        addrs in prop::collection::vec(0u64..65536, 1..600),
        with_reset in proptest::arbitrary::any::<bool>(),
    ) {
        let cfg = wide_geometry(geo);
        assert_matches_reference(cfg, &addrs, with_reset, 65536);
    }
}

/// `reset` leaves LRU stamps in place, which is exact only because a
/// full set's stamps were all written since the reset. Fill a set,
/// stamp its ways far into the future by revisiting them, reset, then
/// refill the same set with other lines in another order and push it
/// past full: every victim must still match the reference's.
#[test]
fn reset_full_set_then_refill_matches_nested_reference() {
    for geo in 0..27 {
        let cfg = if geo < 18 {
            geometry(geo)
        } else {
            wide_geometry(geo - 18)
        };
        let ways = cfg.associativity as u64;
        let sets = cfg.num_sets() as u64;
        let line = |k: u64| k * sets * cfg.line_bytes as u64;
        let mut real = Cache::new(cfg);
        let mut oracle = RefCache::new(cfg);
        let before: Vec<u64> = (0..ways)
            .chain((0..ways).rev())
            .chain(0..ways)
            .map(line)
            .collect();
        let after: Vec<u64> = (ways..3 * ways + 1)
            .rev()
            .chain(ways..2 * ways)
            .map(line)
            .collect();
        for &addr in &before {
            assert_eq!(real.access(addr), oracle.access(addr), "{cfg:?}");
        }
        real.reset();
        let fresh_rng = std::mem::replace(&mut oracle.rng, Xoshiro256::seed_from(0));
        oracle = RefCache::new(cfg);
        oracle.rng = fresh_rng;
        for (i, &addr) in after.iter().enumerate() {
            assert_eq!(
                real.access(addr),
                oracle.access(addr),
                "refill #{i} under {cfg:?}"
            );
        }
        for k in 0..3 * ways + 1 {
            assert_eq!(real.contains(line(k)), oracle.contains(line(k)), "{cfg:?}");
        }
        assert_eq!(real.stats().evictions, oracle.evictions);
    }
}
