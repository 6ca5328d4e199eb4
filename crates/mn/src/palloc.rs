//! The physical-page allocator (slow path).
//!
//! Keeps the free list of on-board physical pages and feeds the fast path's
//! async free-page buffer (paper §4.3). Because Clio allows memory
//! over-commitment (§4.7), virtual allocation never consumes physical pages
//! here — only page faults (via the async buffer) and migration do.

/// Free-list allocator over the MN's physical pages.
#[derive(Debug, Clone)]
pub struct PhysAllocator {
    free: Vec<u64>,
    total_pages: u64,
}

impl PhysAllocator {
    /// An allocator owning pages `0..total_pages`.
    ///
    /// # Panics
    ///
    /// Panics if `total_pages == 0`.
    pub fn new(total_pages: u64) -> Self {
        assert!(total_pages > 0, "no physical pages to manage");
        // Hand out low pages first (deterministic, debuggable).
        let free = (0..total_pages).rev().collect();
        PhysAllocator { free, total_pages }
    }

    /// Total pages managed.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Pages currently free.
    pub fn free_pages(&self) -> u64 {
        self.free.len() as u64
    }

    /// Pages currently in use (faulted in or buffered for faulting).
    pub fn used_pages(&self) -> u64 {
        self.total_pages - self.free_pages()
    }

    /// Utilization in `[0, 1]` — the x-axis of Figure 13 and the trigger
    /// for migration (§4.7).
    pub fn utilization(&self) -> f64 {
        self.used_pages() as f64 / self.total_pages as f64
    }

    /// Reserves one page.
    pub fn alloc(&mut self) -> Option<u64> {
        self.free.pop()
    }

    /// Reserves up to `n` pages (fewer if memory is nearly full).
    pub fn alloc_many(&mut self, n: usize) -> Vec<u64> {
        let take = n.min(self.free.len());
        self.free.split_off(self.free.len() - take)
    }

    /// Returns a page to the free list.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the page is out of range.
    pub fn free(&mut self, ppn: u64) {
        debug_assert!(ppn < self.total_pages, "freeing out-of-range page {ppn}");
        debug_assert!(!self.free.contains(&ppn), "double free of page {ppn}");
        self.free.push(ppn);
    }

    /// Returns many pages at once.
    pub fn free_many<I: IntoIterator<Item = u64>>(&mut self, pages: I) {
        for p in pages {
            self.free(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut p = PhysAllocator::new(4);
        assert_eq!(p.free_pages(), 4);
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(p.used_pages(), 2);
        assert_eq!(p.utilization(), 0.5);
        p.free(a);
        assert_eq!(p.free_pages(), 3);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut p = PhysAllocator::new(2);
        assert!(p.alloc().is_some());
        assert!(p.alloc().is_some());
        assert!(p.alloc().is_none());
        assert_eq!(p.utilization(), 1.0);
    }

    #[test]
    fn alloc_many_is_bounded() {
        let mut p = PhysAllocator::new(3);
        let got = p.alloc_many(5);
        assert_eq!(got.len(), 3);
        assert!(p.alloc().is_none());
        p.free_many(got);
        assert_eq!(p.free_pages(), 3);
    }

    #[test]
    fn pages_are_unique() {
        let mut p = PhysAllocator::new(100);
        let mut seen = std::collections::HashSet::new();
        while let Some(ppn) = p.alloc() {
            assert!(seen.insert(ppn), "duplicate page {ppn}");
            assert!(ppn < 100);
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    #[should_panic(expected = "double free")]
    #[cfg(debug_assertions)] // the guard is a debug_assert
    fn double_free_caught_in_debug() {
        let mut p = PhysAllocator::new(2);
        let a = p.alloc().unwrap();
        p.free(a);
        p.free(a);
    }
}
