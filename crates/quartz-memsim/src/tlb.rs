//! A small fully-associative TLB with LRU replacement.
//!
//! Entries are laid out structure-of-arrays: the hot lookup scans one
//! contiguous page-number array (a batched compare, no tuple striding),
//! and the recency stamps live in a parallel array touched only on the
//! slot that hit.

use crate::addr::Addr;
use crate::config::TlbConfig;

/// Per-core TLB. With hugepages configured it indexes 2 MiB pages,
/// otherwise 4 KiB pages.
#[derive(Clone, Debug)]
pub struct Tlb {
    config: TlbConfig,
    /// Resident page numbers (at most `capacity()`, no duplicates).
    pages: Vec<u64>,
    /// Recency stamps, parallel to `pages`; larger = more recent.
    ticks: Vec<u64>,
    tick: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(config: TlbConfig) -> Self {
        Tlb {
            config,
            pages: Vec::new(),
            ticks: Vec::new(),
            tick: 0,
        }
    }

    /// Entry budget of the active page size.
    pub fn capacity(&self) -> usize {
        if self.config.hugepages {
            self.config.entries_2m
        } else {
            self.config.entries_4k
        }
    }

    /// Resident entry count. The insertion path keeps this bounded by
    /// [`Tlb::capacity`] and free of duplicate pages — a duplicate would
    /// both inflate occupancy past the configured reach and skew hit
    /// rates by double-counting one page's residency.
    pub fn occupancy(&self) -> usize {
        self.pages.len()
    }

    fn page_of(&self, addr: Addr) -> u64 {
        if self.config.hugepages {
            addr.page_2m()
        } else {
            addr.page_4k()
        }
    }

    /// Translates an address; returns `true` on TLB hit. On a miss the
    /// entry is installed (page-walk cost is charged by the caller).
    pub fn translate(&mut self, addr: Addr) -> bool {
        if !self.config.enabled {
            return true;
        }
        self.tick += 1;
        let tick = self.tick;
        let page = self.page_of(addr);
        // Batched probe over the contiguous page array.
        if let Some(i) = self.pages.iter().position(|&p| p == page) {
            self.ticks[i] = tick;
            return true;
        }
        let capacity = self.capacity();
        if capacity == 0 {
            // Degenerate configuration: every access misses and nothing
            // is cached (previously this path evicted from an empty
            // table and panicked).
            return false;
        }
        // The probe above missed, so `page` is not resident: pushing it
        // cannot create a duplicate. Evict until a slot is free — the
        // `while` (not `if`) also restores the invariant if a config
        // ever shrank the capacity under a populated table.
        while self.pages.len() >= capacity {
            let lru = self
                .ticks
                .iter()
                .enumerate()
                .min_by_key(|&(_, &t)| t)
                .map(|(i, _)| i)
                .expect("occupancy >= capacity >= 1");
            self.pages.swap_remove(lru);
            self.ticks.swap_remove(lru);
        }
        self.pages.push(page);
        self.ticks.push(tick);
        debug_assert!(self.occupancy() <= capacity);
        false
    }

    /// Empties the TLB (context switch / trial reset).
    pub fn flush(&mut self) {
        self.pages.clear();
        self.ticks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_platform::NodeId;

    fn addr(off: u64) -> Addr {
        Addr::on_node(NodeId(0), off)
    }

    fn small_tlb(hugepages: bool) -> Tlb {
        Tlb::new(TlbConfig {
            enabled: true,
            entries_4k: 2,
            entries_2m: 2,
            walk_ns: 30.0,
            hugepages,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut t = small_tlb(false);
        assert!(!t.translate(addr(0)));
        assert!(t.translate(addr(100)), "same 4k page");
        assert!(!t.translate(addr(4096)), "next page");
    }

    #[test]
    fn lru_eviction() {
        let mut t = small_tlb(false);
        t.translate(addr(0)); // page 0
        t.translate(addr(4096)); // page 1
        t.translate(addr(0)); // refresh page 0
        t.translate(addr(8192)); // page 2 evicts page 1
        assert!(t.translate(addr(0)));
        assert!(!t.translate(addr(4096)), "page 1 was evicted");
    }

    #[test]
    fn hugepages_cover_more() {
        let mut t = small_tlb(true);
        assert!(!t.translate(addr(0)));
        // Anywhere in the same 2 MiB page hits.
        assert!(t.translate(addr(1024 * 1024)));
        assert!(!t.translate(addr(2 * 1024 * 1024)));
    }

    #[test]
    fn disabled_tlb_always_hits() {
        let mut t = Tlb::new(TlbConfig {
            enabled: false,
            ..TlbConfig::default()
        });
        assert!(t.translate(addr(0)));
        assert!(t.translate(addr(1 << 30)));
    }

    #[test]
    fn flush_empties() {
        let mut t = small_tlb(false);
        t.translate(addr(0));
        t.flush();
        assert!(!t.translate(addr(0)));
    }

    /// Hammers a 4K-page TLB with a reuse-heavy page mix and checks the
    /// structural invariants after every single translate: occupancy
    /// never exceeds capacity and the table never holds a page twice.
    #[test]
    fn occupancy_bounded_and_duplicate_free_4k() {
        let mut t = small_tlb(false);
        // Alternate between a small hot set (re-translations of already
        // present pages — the re-insertion hazard) and a cold sweep.
        for round in 0..200u64 {
            let page = match round % 4 {
                0 | 1 => round % 2,    // hot pages 0 and 1, repeatedly
                2 => 10 + (round / 4), // cold sweep
                _ => round % 2,        // hot again, immediately
            };
            t.translate(addr(page * 4096));
            assert!(
                t.occupancy() <= t.capacity(),
                "round {round}: occupancy {} > capacity {}",
                t.occupancy(),
                t.capacity()
            );
            let mut sorted = t.pages.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), t.pages.len(), "duplicate page entries");
        }
    }

    /// Same invariants under a hugepage configuration, where many
    /// distinct addresses collapse onto one 2 MiB page — the densest
    /// re-translation pattern.
    #[test]
    fn occupancy_bounded_and_duplicate_free_hugepages() {
        let mut t = small_tlb(true);
        const MIB2: u64 = 2 * 1024 * 1024;
        for round in 0..200u64 {
            // Three 2 MiB pages, visited at scattered inner offsets.
            let page = round % 3;
            let offset = (round * 4097) % MIB2;
            t.translate(addr(page * MIB2 + offset));
            assert!(t.occupancy() <= t.capacity());
            let mut sorted = t.pages.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), t.pages.len(), "duplicate page entries");
        }
        // The three pages thrash a 2-entry TLB but never overfill it.
        assert_eq!(t.occupancy(), 2);
    }

    /// A zero-entry TLB is a degenerate but representable config: every
    /// access must miss without panicking (the old eviction path popped
    /// from an empty table).
    #[test]
    fn zero_capacity_always_misses_without_panicking() {
        for hugepages in [false, true] {
            let mut t = Tlb::new(TlbConfig {
                enabled: true,
                entries_4k: 0,
                entries_2m: 0,
                walk_ns: 30.0,
                hugepages,
            });
            for i in 0..10 {
                assert!(!t.translate(addr(i * 4096)), "hugepages={hugepages}");
                assert_eq!(t.occupancy(), 0);
            }
        }
    }
}
