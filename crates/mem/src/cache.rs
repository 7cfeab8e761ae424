//! Set-associative cache simulation.
//!
//! A [`Cache`] models one level: geometry (total size, line size,
//! associativity) plus a [`Replacement`] policy. It is deliberately a
//! *functional* model — it tracks which lines are resident and counts
//! hits/misses/evictions; latency is charged by the surrounding
//! [`crate::hierarchy::Hierarchy`].

use mb_simcore::rng::{Rng, Xoshiro256};

/// Replacement policy of a cache set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Replacement {
    /// True least-recently-used.
    Lru,
    /// Pseudo-random victim selection (seeded, deterministic).
    Random,
    /// Tree-based pseudo-LRU, as implemented by most real L1s.
    PseudoLru,
}

/// Largest associativity a [`CacheConfig`] accepts.
pub const MAX_WAYS: usize = 64;

/// Geometry and policy of one cache level.
///
/// # Examples
///
/// ```
/// use mb_mem::cache::{CacheConfig, Replacement};
/// let cfg = CacheConfig::new(32 * 1024, 64, 8, Replacement::Lru);
/// assert_eq!(cfg.num_sets(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line (block) size in bytes; must be a power of two.
    pub line_bytes: usize,
    /// Number of ways per set.
    pub associativity: usize,
    /// Victim-selection policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, `line_bytes` or the resulting
    /// number of sets is not a power of two, the geometry is
    /// inconsistent (`size` not divisible by `line × ways`), or
    /// `associativity` exceeds [`MAX_WAYS`] (a set's valid bits and its
    /// pseudo-LRU tree each fit in one 64-bit word).
    pub fn new(
        size_bytes: usize,
        line_bytes: usize,
        associativity: usize,
        replacement: Replacement,
    ) -> Self {
        assert!(size_bytes > 0 && line_bytes > 0 && associativity > 0);
        assert!(
            associativity <= MAX_WAYS,
            "associativity must be at most {MAX_WAYS}"
        );
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        assert!(
            size_bytes.is_multiple_of(line_bytes * associativity),
            "size must be a multiple of line_bytes * associativity"
        );
        let cfg = CacheConfig {
            size_bytes,
            line_bytes,
            associativity,
            replacement,
        };
        assert!(
            cfg.num_sets().is_power_of_two(),
            "number of sets must be 2^k"
        );
        cfg
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.associativity)
    }
}

/// Hit/miss accounting for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Valid lines evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; 0 when no accesses were made.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hit ratio in `[0, 1]`; 0 when no accesses were made.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was resident.
    Hit,
    /// The line was not resident; `evicted` reports whether a valid line
    /// had to be displaced.
    Miss {
        /// Whether a valid line was evicted to make room.
        evicted: bool,
    },
}

impl AccessResult {
    /// Returns `true` for a hit.
    pub fn is_hit(self) -> bool {
        matches!(self, AccessResult::Hit)
    }
}

/// Where a resident line sits in a [`Cache`]: its set and its way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Slot {
    /// Set index.
    pub set: usize,
    /// Way within the set.
    pub way: usize,
}

/// A set-associative cache.
///
/// Addresses are byte addresses; the cache extracts set index and tag
/// itself. Whether the addresses are *virtual* or *physical* is the
/// caller's choice — the Section V.A.1 experiments feed physical addresses
/// produced by a [`crate::pages::PageTable`], which is what makes page
/// allocation visible to the cache.
///
/// `access` is the hottest loop in the whole model and runs once per
/// simulated memory reference, so the storage is laid out for it:
///
/// * tags and LRU stamps are parallel flat arrays indexed by
///   `set * associativity + way`, and each set's valid bits share one
///   word, so the hit scan reads 8 bytes per way;
/// * each set remembers its most-recently-used way, probed before the
///   scan (a tag is resident in at most one way of a set, so the probe
///   finds exactly the way the scan would);
/// * the scan and the LRU victim search are branch-free over the ways,
///   and the miss path is out of line, so the hit path inlines;
/// * the pseudo-LRU tree is kept only under [`Replacement::PseudoLru`],
///   the one policy that reads it;
/// * index/tag extraction uses shift/mask values precomputed from the
///   power-of-two geometry.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Tag of set `s`, way `w` at `s * cfg.associativity + w`.
    tags: Vec<u64>,
    /// LRU timestamp (higher = more recent), parallel to `tags`.
    stamps: Vec<u64>,
    /// Per-set valid bits, bit `w` for way `w`.
    valid: Vec<u64>,
    /// Per-set most-recently-used way.
    mru: Vec<u8>,
    stats: CacheStats,
    clock: u64,
    rng: Xoshiro256,
    /// Per-set PLRU tree bits; empty unless the policy is `PseudoLru`.
    plru: Vec<u64>,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `num_sets - 1`.
    set_mask: u64,
    /// `log2(num_sets)` — bits dropped from the line number to get the tag.
    tag_shift: u32,
    /// Valid-bit pattern of a full set.
    full: u64,
}

impl Cache {
    /// Creates an empty cache with the given configuration.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.num_sets();
        let lines = sets * cfg.associativity;
        let plru_sets = if cfg.replacement == Replacement::PseudoLru {
            sets
        } else {
            0
        };
        Cache {
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            tag_shift: sets.trailing_zeros(),
            full: u64::MAX >> (u64::BITS as usize - cfg.associativity),
            cfg,
            tags: vec![0; lines],
            stamps: vec![0; lines],
            valid: vec![0; sets],
            mru: vec![0; sets],
            stats: CacheStats::default(),
            clock: 0,
            rng: Xoshiro256::seed_from(0xCAC4E),
            plru: vec![0; plru_sets],
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets contents and statistics.
    ///
    /// Tags and stamps are left as they are: lookups mask by the valid
    /// word, and the LRU victim scan only runs on full sets, every way of
    /// which was filled (and stamped) since the reset.
    pub fn reset(&mut self) {
        self.valid.fill(0);
        self.mru.fill(0);
        self.plru.fill(0);
        self.stats = CacheStats::default();
        self.clock = 0;
    }

    #[inline]
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.tag_shift;
        (set, tag)
    }

    /// The way of `set_idx` holding `tag`, if resident.
    #[inline(always)]
    fn find(&self, set_idx: usize, tag: u64) -> Option<usize> {
        let assoc = self.cfg.associativity;
        let valid = self.valid[set_idx];
        let tags = &self.tags[set_idx * assoc..(set_idx + 1) * assoc];
        let mru = self.mru[set_idx] as usize;
        if tags[mru] == tag && valid >> mru & 1 != 0 {
            return Some(mru);
        }
        // Branch-free over the ways: which way hits varies access to
        // access, so an early-exit scan mispredicts.
        let mut matches = 0u64;
        for (w, &t) in tags.iter().enumerate() {
            matches |= u64::from(t == tag) << w;
        }
        let hit = matches & valid;
        (hit != 0).then(|| hit.trailing_zeros() as usize)
    }

    /// Accesses one byte address (loads and stores are treated alike:
    /// write-allocate, and dirty write-back traffic is not modelled).
    #[inline]
    pub fn access(&mut self, addr: u64) -> AccessResult {
        self.clock += 1;
        self.stats.accesses += 1;
        let (set_idx, tag) = self.set_and_tag(addr);

        if let Some(w) = self.find(set_idx, tag) {
            self.stats.hits += 1;
            self.touch(set_idx, w);
            return AccessResult::Hit;
        }
        self.miss(set_idx, tag)
    }

    /// Accounts `n` accesses that hit lines already resident, without
    /// touching them: the clock and the hit counters advance exactly as
    /// `n` hitting [`Cache::access`] calls would advance them.
    ///
    /// The stamps and MRU ways those hits would have written are left
    /// stale. Under [`Replacement::Lru`] the caller writes them back
    /// with [`Cache::touch_at`] before any miss in their set can search
    /// for a victim, and before the state is read.
    #[inline]
    pub fn repeat_hits(&mut self, n: u64) {
        self.clock += n;
        self.stats.accesses += n;
        self.stats.hits += n;
    }

    /// The LRU clock: the number of accesses since the last reset.
    #[inline]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The set `addr` maps to.
    #[inline]
    pub fn set_of(&self, addr: u64) -> usize {
        self.set_and_tag(addr).0
    }

    /// Where the line containing `addr` sits, if it is resident.
    #[inline]
    pub fn locate(&self, addr: u64) -> Option<Slot> {
        let (set, tag) = self.set_and_tag(addr);
        self.find(set, tag).map(|way| Slot { set, way })
    }

    /// Whether `slot` still holds the line containing `addr`.
    #[inline]
    pub fn holds(&self, slot: Slot, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        set == slot.set
            && self.valid[set] >> slot.way & 1 != 0
            && self.tags[set * self.cfg.associativity + slot.way] == tag
    }

    /// Records a hit on the line in `slot` at the earlier tick `clock`
    /// (one accounted by [`Cache::repeat_hits`]), writing the LRU stamp
    /// and MRU way that hit would have left, unless a later access to
    /// the set has already written them.
    ///
    /// Exact under [`Replacement::Lru`] when the line has been resident
    /// since `clock` and no victim search in its set ran in between.
    /// (The MRU way of a set is always the valid way with the highest
    /// stamp, so comparing stamps decides which touch came last.)
    #[inline]
    pub fn touch_at(&mut self, slot: Slot, clock: u64) {
        let base = slot.set * self.cfg.associativity;
        if clock > self.stamps[base + slot.way] {
            self.stamps[base + slot.way] = clock;
        }
        if clock > self.stamps[base + self.mru[slot.set] as usize] {
            // `way < MAX_WAYS`, which fits a byte.
            self.mru[slot.set] = slot.way as u8;
        }
    }

    /// The miss path of [`Cache::access`], kept out of line so the hit
    /// path stays small enough to inline.
    #[inline(never)]
    fn miss(&mut self, set_idx: usize, tag: u64) -> AccessResult {
        self.stats.misses += 1;

        let free = !self.valid[set_idx] & self.full;
        if free != 0 {
            // The lowest invalid way.
            let w = free.trailing_zeros() as usize;
            self.fill(set_idx, w, tag);
            return AccessResult::Miss { evicted: false };
        }

        // Evict a victim.
        let assoc = self.cfg.associativity;
        let victim = match self.cfg.replacement {
            Replacement::Lru => {
                // First way with the minimum stamp, as `min_by_key` picks
                // (written to compile to conditional moves).
                let set = &self.stamps[set_idx * assoc..(set_idx + 1) * assoc];
                let (mut best, mut oldest) = (0, set[0]);
                for (w, &stamp) in set.iter().enumerate().skip(1) {
                    let older = stamp < oldest;
                    best = if older { w } else { best };
                    oldest = if older { stamp } else { oldest };
                }
                best
            }
            Replacement::Random => self.rng.gen_range(assoc as u64) as usize,
            Replacement::PseudoLru => self.plru_victim(set_idx),
        };
        self.stats.evictions += 1;
        self.fill(set_idx, victim, tag);
        AccessResult::Miss { evicted: true }
    }

    fn fill(&mut self, set_idx: usize, way: usize, tag: u64) {
        self.tags[set_idx * self.cfg.associativity + way] = tag;
        self.valid[set_idx] |= 1 << way;
        self.touch(set_idx, way);
    }

    /// Marks `way` of `set_idx` most recently used.
    #[inline(always)]
    fn touch(&mut self, set_idx: usize, way: usize) {
        self.stamps[set_idx * self.cfg.associativity + way] = self.clock;
        // `way < MAX_WAYS`, which fits a byte.
        self.mru[set_idx] = way as u8;
        if self.cfg.replacement == Replacement::PseudoLru {
            self.touch_plru(set_idx, way);
        }
    }

    /// Marks `way` most-recently-used in the PLRU tree: set the bits on
    /// the root-to-leaf path to point *away* from it.
    fn touch_plru(&mut self, set_idx: usize, way: usize) {
        let ways = self.cfg.associativity;
        if !ways.is_power_of_two() || ways < 2 {
            return;
        }
        let mut node = 1usize; // 1-based heap index
        let levels = ways.trailing_zeros();
        let mut bits = self.plru[set_idx];
        for level in (0..levels).rev() {
            let bit = (way >> level) & 1;
            // Point the node away from the path taken.
            if bit == 0 {
                bits |= 1 << node;
            } else {
                bits &= !(1 << node);
            }
            node = node * 2 + bit;
        }
        self.plru[set_idx] = bits;
    }

    /// Follows the PLRU tree bits to the current victim way.
    fn plru_victim(&self, set_idx: usize) -> usize {
        let ways = self.cfg.associativity;
        if !ways.is_power_of_two() || ways < 2 {
            return 0;
        }
        let bits = self.plru[set_idx];
        let levels = ways.trailing_zeros();
        let mut node = 1usize;
        let mut way = 0usize;
        for _ in 0..levels {
            let b = ((bits >> node) & 1) as usize;
            way = (way << 1) | b;
            node = node * 2 + b;
        }
        way
    }

    /// Returns `true` if the line containing `addr` is resident.
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.set_and_tag(addr);
        self.find(set_idx, tag).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(repl: Replacement) -> Cache {
        // 4 sets × 2 ways × 16-byte lines = 128 bytes.
        Cache::new(CacheConfig::new(128, 16, 2, repl))
    }

    #[test]
    fn config_geometry() {
        let cfg = CacheConfig::new(32 * 1024, 32, 4, Replacement::Lru);
        assert_eq!(cfg.num_sets(), 256); // Snowball L1: 32K/4/32
        let cfg = CacheConfig::new(8 * 1024 * 1024, 64, 16, Replacement::Lru);
        assert_eq!(cfg.num_sets(), 8192); // Xeon L3
    }

    #[test]
    #[should_panic]
    fn bad_geometry_rejected() {
        let _ = CacheConfig::new(100, 16, 2, Replacement::Lru);
    }

    #[test]
    #[should_panic(expected = "associativity must be at most 64")]
    fn plru_beyond_one_tree_word_rejected() {
        // 128 ways would need PLRU tree nodes 64..127: past one word.
        let _ = CacheConfig::new(128 * 16, 16, 128, Replacement::PseudoLru);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny(Replacement::Lru);
        assert_eq!(c.access(0), AccessResult::Miss { evicted: false });
        assert_eq!(c.access(0), AccessResult::Hit);
        assert_eq!(c.access(15), AccessResult::Hit, "same 16-byte line");
        assert_eq!(c.access(16), AccessResult::Miss { evicted: false });
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(Replacement::Lru);
        // Set 0 holds lines whose (line index % 4 == 0): addresses 0, 64, 128...
        c.access(0); // way A
        c.access(64); // way B
        c.access(0); // touch A → B is LRU
        let r = c.access(128); // must evict B
        assert_eq!(r, AccessResult::Miss { evicted: true });
        assert!(c.contains(0), "recently used line survives");
        assert!(!c.contains(64), "LRU line evicted");
    }

    #[test]
    fn working_set_within_capacity_has_no_capacity_misses() {
        // 32 KB cache, sequential sweep of 16 KB, twice.
        let mut c = Cache::new(CacheConfig::new(32 * 1024, 32, 4, Replacement::Lru));
        for round in 0..2 {
            for addr in (0..16 * 1024u64).step_by(32) {
                let r = c.access(addr);
                if round == 1 {
                    assert!(r.is_hit(), "second sweep must hit at {addr}");
                }
            }
        }
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_with_lru() {
        // Classic LRU pathology: sweep 1.5× capacity repeatedly — every
        // access misses after warm-up.
        let mut c = Cache::new(CacheConfig::new(1024, 32, 2, Replacement::Lru));
        let span = 2048u64;
        for _ in 0..4 {
            for addr in (0..span).step_by(32) {
                c.access(addr);
            }
        }
        // After warm-up the sweep misses every time under LRU.
        let misses_before = c.stats().misses;
        for addr in (0..span).step_by(32) {
            c.access(addr);
        }
        let new_misses = c.stats().misses - misses_before;
        assert_eq!(new_misses, span / 32);
    }

    #[test]
    fn random_replacement_is_deterministic_per_seed() {
        let mut a = tiny(Replacement::Random);
        let mut b = tiny(Replacement::Random);
        let addrs: Vec<u64> = (0..1000).map(|i| (i * 37) % 4096).collect();
        let ra: Vec<bool> = addrs.iter().map(|&x| a.access(x).is_hit()).collect();
        let rb: Vec<bool> = addrs.iter().map(|&x| b.access(x).is_hit()).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn plru_behaves_like_lru_for_two_ways() {
        // With 2 ways PLRU degenerates to exact LRU.
        let mut lru = tiny(Replacement::Lru);
        let mut plru = tiny(Replacement::PseudoLru);
        let addrs: Vec<u64> = (0..500).map(|i| (i * 61) % 1024).collect();
        for &a in &addrs {
            assert_eq!(lru.access(a).is_hit(), plru.access(a).is_hit());
        }
    }

    #[test]
    fn plru_victim_valid_range() {
        let mut c = Cache::new(CacheConfig::new(1024, 16, 8, Replacement::PseudoLru));
        for i in 0..10_000u64 {
            c.access(i * 16 % 65536);
        }
        // No panic == victims always in range; also check sanity of stats.
        assert_eq!(c.stats().accesses, 10_000);
        assert_eq!(c.stats().hits + c.stats().misses, 10_000);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny(Replacement::Lru);
        c.access(0);
        c.access(0);
        c.reset();
        assert_eq!(c.stats().accesses, 0);
        assert!(!c.contains(0));
        assert_eq!(c.access(0), AccessResult::Miss { evicted: false });
    }

    #[test]
    fn stats_ratios() {
        let mut c = tiny(Replacement::Lru);
        assert_eq!(c.stats().miss_ratio(), 0.0);
        c.access(0);
        c.access(0);
        c.access(0);
        c.access(0);
        assert!((c.stats().miss_ratio() - 0.25).abs() < 1e-12);
        assert!((c.stats().hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn conflict_misses_same_set() {
        // 4 sets: lines 0, 4, 8 all map to set 0 in a 2-way set — the
        // third conflicts.
        let mut c = tiny(Replacement::Lru);
        c.access(0); // line 0, set 0
        c.access(64); // line 4, set 0
        c.access(128); // line 8, set 0 → eviction
        assert_eq!(c.stats().evictions, 1);
    }
}
