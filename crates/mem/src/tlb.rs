//! A small fully-associative TLB model.
//!
//! Stride benchmarks on the A9500 with large strides incur TLB pressure
//! well before cache capacity is exhausted; the [`Tlb`] lets the
//! [`crate::stream::StreamEngine`] charge translation misses.

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: usize,
    /// Page size covered by one entry, in bytes.
    pub page_bytes: usize,
}

impl TlbConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `page_bytes` is not a power of two.
    pub fn new(entries: usize, page_bytes: usize) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        assert!(page_bytes.is_power_of_two(), "page size must be 2^k");
        TlbConfig {
            entries,
            page_bytes,
        }
    }
}

/// Slots in the direct-mapped lookup hint (a power of two).
const HINT_SLOTS: usize = 64;

/// A fully-associative, LRU translation look-aside buffer.
///
/// Entries live in two parallel arrays (page numbers and LRU stamps) in
/// install order. A lookup first checks the most-recently-used entry,
/// then a direct-mapped hint from the page number's low bits to an entry
/// index, and only then scans. Both shortcuts are verified against the
/// stored page number before use, and a page number is installed at most
/// once, so they find exactly the entry the scan would.
///
/// # Examples
///
/// ```
/// use mb_mem::tlb::{Tlb, TlbConfig};
/// let mut tlb = Tlb::new(TlbConfig::new(32, 4096));
/// assert!(!tlb.access(0x0));      // cold miss
/// assert!(tlb.access(0xFFF));     // same page: hit
/// assert!(!tlb.access(0x1000));   // next page: miss
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    /// `log2(page_bytes)`.
    page_shift: u32,
    /// Virtual page number of each installed entry.
    vpns: Vec<u64>,
    /// LRU stamp of each entry (higher = more recent), parallel to `vpns`.
    stamps: Vec<u64>,
    /// Index of the most recently used entry.
    mru: usize,
    /// Entry index last seen for each `vpn % HINT_SLOTS`; may be stale.
    hint: [usize; HINT_SLOTS],
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(cfg: TlbConfig) -> Self {
        Tlb {
            cfg,
            page_shift: cfg.page_bytes.trailing_zeros(),
            vpns: Vec::with_capacity(cfg.entries),
            stamps: Vec::with_capacity(cfg.entries),
            mru: 0,
            hint: [0; HINT_SLOTS],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    /// Looks up the page of `vaddr`; returns `true` on a hit. Misses
    /// install the translation (evicting LRU if full).
    #[inline]
    pub fn access(&mut self, vaddr: u64) -> bool {
        self.clock += 1;
        let vpn = vaddr >> self.page_shift;
        let slot = vpn as usize % HINT_SLOTS;
        if let Some(i) = self.find(vpn, slot) {
            self.stamps[i] = self.clock;
            self.hits += 1;
            self.remember(slot, i);
            return true;
        }
        self.misses += 1;
        let i = if self.vpns.len() < self.cfg.entries {
            self.vpns.push(vpn);
            self.stamps.push(self.clock);
            self.vpns.len() - 1
        } else {
            let lru = self
                .stamps
                .iter()
                .enumerate()
                .min_by_key(|&(_, &stamp)| stamp)
                .map(|(j, _)| j)
                .expect("a full TLB has entries");
            self.vpns[lru] = vpn;
            self.stamps[lru] = self.clock;
            lru
        };
        self.remember(slot, i);
        false
    }

    /// The entry holding page `vpn` (whose hint slot is `slot`): the
    /// MRU entry, then the hinted one, then a scan.
    #[inline(always)]
    fn find(&self, vpn: u64, slot: usize) -> Option<usize> {
        let hinted = self.hint[slot];
        if self.vpns.get(self.mru) == Some(&vpn) {
            Some(self.mru)
        } else if self.vpns.get(hinted) == Some(&vpn) {
            Some(hinted)
        } else {
            self.vpns.iter().position(|&v| v == vpn)
        }
    }

    /// Accounts `n` lookups that hit pages already resident, without
    /// touching their entries: the clock and the hit counter advance
    /// exactly as `n` hitting [`Tlb::access`] calls would advance them.
    ///
    /// The stamps, MRU entry and hints those hits would have written are
    /// left stale; the caller writes them back with [`Tlb::touch_at`]
    /// before any miss can search for a victim, and before the state is
    /// read.
    #[inline]
    pub fn repeat_hits(&mut self, n: u64) {
        self.clock += n;
        self.hits += n;
    }

    /// The LRU clock: the number of lookups since the last reset.
    #[inline]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The entry holding the page of `vaddr`, if it is resident.
    #[inline]
    pub fn lookup(&self, vaddr: u64) -> Option<usize> {
        let vpn = vaddr >> self.page_shift;
        self.find(vpn, vpn as usize % HINT_SLOTS)
    }

    /// Whether `entry` still holds the page of `vaddr`.
    #[inline]
    pub fn holds(&self, entry: usize, vaddr: u64) -> bool {
        self.vpns.get(entry) == Some(&(vaddr >> self.page_shift))
    }

    /// Records a hit on `entry` at the earlier tick `clock` (one
    /// accounted by [`Tlb::repeat_hits`]), writing the LRU stamp, MRU
    /// entry and hint that hit would have left, unless a later lookup
    /// has already written them.
    ///
    /// Exact when no miss happened since `clock`. Then no entry changed
    /// page since, so every later lookup of a page in the same hint slot
    /// wrote that slot and stamped its entry past `clock`, and the MRU
    /// entry is the one with the highest stamp. A hint naming an entry
    /// whose page is in another slot was written before the last miss.
    #[inline]
    pub fn touch_at(&mut self, entry: usize, clock: u64) {
        if clock > self.stamps[entry] {
            self.stamps[entry] = clock;
        }
        if clock > self.stamps[self.mru] {
            self.mru = entry;
        }
        let slot = self.vpns[entry] as usize % HINT_SLOTS;
        let hinted = self.hint[slot];
        let current = self
            .vpns
            .get(hinted)
            .is_some_and(|&v| v as usize % HINT_SLOTS == slot);
        if !current || clock > self.stamps[hinted] {
            self.hint[slot] = entry;
        }
    }

    fn remember(&mut self, slot: usize, entry: usize) {
        self.mru = entry;
        self.hint[slot] = entry;
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        self.vpns.clear();
        self.stamps.clear();
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_within_page_miss_across() {
        let mut t = Tlb::new(TlbConfig::new(4, 4096));
        assert!(!t.access(0));
        assert!(t.access(4095));
        assert!(!t.access(4096));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(TlbConfig::new(2, 4096));
        t.access(0); // page 0
        t.access(4096); // page 1
        t.access(0); // touch page 0
        t.access(8192); // page 2: evicts page 1
        assert!(t.access(0), "page 0 retained");
        assert!(!t.access(4096), "page 1 evicted");
    }

    #[test]
    fn capacity_working_set_all_hits() {
        let mut t = Tlb::new(TlbConfig::new(32, 4096));
        for round in 0..3 {
            for p in 0..32u64 {
                let hit = t.access(p * 4096);
                if round > 0 {
                    assert!(hit);
                }
            }
        }
    }

    #[test]
    fn reset_clears() {
        let mut t = Tlb::new(TlbConfig::new(2, 4096));
        t.access(0);
        t.reset();
        assert_eq!(t.misses(), 0);
        assert!(!t.access(0));
    }
}
