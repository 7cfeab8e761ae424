//! Property test: the `Tlb` (parallel page/stamp arrays, MRU entry and
//! direct-mapped hint checked before the scan, shift-based page number)
//! behaves identically to a plain reference oracle — a `Vec` of
//! `(vpn, stamp)` pairs with a linear `find` and a `min_by_key` victim.
//! Every access result and the final hit/miss counters must agree.

use mb_mem::tlb::{Tlb, TlbConfig};
use proptest::prelude::*;

/// The reference TLB: one `(vpn, stamp)` pair per entry, found by a
/// linear scan, evicted by the first minimum stamp.
struct RefTlb {
    cfg: TlbConfig,
    entries: Vec<(u64, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl RefTlb {
    fn new(cfg: TlbConfig) -> Self {
        RefTlb {
            cfg,
            entries: Vec::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, vaddr: u64) -> bool {
        self.clock += 1;
        let vpn = vaddr / self.cfg.page_bytes as u64;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == vpn) {
            e.1 = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.entries.len() < self.cfg.entries {
            self.entries.push((vpn, self.clock));
        } else {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .map(|(i, _)| i)
                .expect("non-empty");
            self.entries[lru] = (vpn, self.clock);
        }
        false
    }
}

/// Geometries: a single entry, tiny, the two presets' shapes (32 and 64
/// entries of 4 KiB) and odd page sizes at both ends.
fn geometry(index: usize) -> TlbConfig {
    let (entries, page_bytes) = match index % 6 {
        0 => (1, 4096),
        1 => (2, 16),
        2 => (32, 4096),
        3 => (64, 4096),
        4 => (5, 1),
        _ => (64, 1 << 16),
    };
    TlbConfig::new(entries, page_bytes)
}

/// Page number of one stream element under `mode`:
/// 0 stays within capacity, 1 evicts heavily, 2 puts every page on
/// the same hint slot (multiples of 64), 3 roams a wide range.
fn vpn(mode: usize, raw: u64, entries: u64) -> u64 {
    match mode % 4 {
        0 => raw % entries,
        1 => raw % (entries * 4 + 3),
        2 => (raw % (entries * 2 + 1)) * 64,
        _ => raw,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tlb_matches_linear_reference(
        geo in 0usize..6,
        mode in 0usize..4,
        stream in prop::collection::vec((0u64..1 << 20, 0u64..1 << 16), 1..600),
        reset_at in 0usize..600,
        with_reset in proptest::arbitrary::any::<bool>(),
    ) {
        let cfg = geometry(geo);
        let mut real = Tlb::new(cfg);
        let mut oracle = RefTlb::new(cfg);
        let page_shift = cfg.page_bytes.trailing_zeros();
        for (i, &(raw, offset)) in stream.iter().enumerate() {
            if with_reset && i == reset_at {
                real.reset();
                oracle = RefTlb::new(cfg);
            }
            let addr = (vpn(mode, raw, cfg.entries as u64) << page_shift)
                | (offset % cfg.page_bytes as u64);
            let got = real.access(addr);
            let want = oracle.access(addr);
            prop_assert_eq!(got, want, "access #{} to {:#x} under {:?}", i, addr, cfg);
        }
        prop_assert_eq!(real.hits(), oracle.hits);
        prop_assert_eq!(real.misses(), oracle.misses);
    }
}
