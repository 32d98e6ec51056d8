//! Set-associative LRU cache simulator.
//!
//! Used to model the CPU per-core caches (and the GPU's shared L2): every
//! global-memory transaction is filtered through the cache; only misses
//! contribute DRAM bytes to the roofline's memory term. This is what makes
//! cache-blocked (tiled) kernels win on the simulated CPUs, reproducing the
//! Fig. 8/9 behaviour of the paper's tiling DGEMM.

/// A classic set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct CacheSim {
    sets: usize,
    assoc: usize,
    line_bytes: usize,
    /// `tags[set * assoc + way]`; u64::MAX means invalid. LRU order is kept
    /// per set in `lru` (lower value = more recently used stamp).
    tags: Vec<u64>,
    stamp: Vec<u64>,
    /// Per-set way of the most recent scan hit or fill — which is therefore
    /// the set's MRU way. Streaming kernels re-touch a set's MRU line many
    /// times in a row, so trying this way first turns most hits into a single
    /// tag compare; and because the way is already MRU, re-stamping it cannot
    /// change within-set LRU order, so the hinted path skips the stamp store
    /// entirely. Hit/miss outcomes and eviction order are unaffected.
    hint: Vec<u16>,
    tick: u64,
    pub hits: u64,
    pub misses: u64,
}

#[cfg(test)]
thread_local! {
    /// Caches built on this thread (a one-worker launch runs on its caller's).
    pub(crate) static BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl CacheSim {
    /// Build a cache of `capacity_kib` KiB with `assoc` ways and
    /// `line_bytes` lines. Set count is rounded up to a power of two.
    pub fn new(capacity_kib: usize, assoc: usize, line_bytes: usize) -> Self {
        #[cfg(test)]
        BUILT.with(|n| n.set(n.get() + 1));
        let assoc = assoc.max(1);
        let lines = (capacity_kib * 1024 / line_bytes).max(assoc);
        let sets = (lines / assoc).next_power_of_two();
        CacheSim {
            sets,
            assoc,
            line_bytes,
            tags: vec![u64::MAX; sets * assoc],
            stamp: vec![0; sets * assoc],
            hint: vec![0; sets],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The stand-in for an SM's cache until a block lands there
    /// (`Machine::enter_block`): no storage, `line_bytes() == 0`, never
    /// accessed.
    pub(crate) fn unbuilt() -> Self {
        CacheSim {
            sets: 0,
            assoc: 0,
            line_bytes: 0,
            tags: Vec::new(),
            stamp: Vec::new(),
            hint: Vec::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Access the line containing `byte_addr`; returns true on hit.
    pub fn access(&mut self, byte_addr: u64) -> bool {
        self.access_line(byte_addr / self.line_bytes as u64)
    }

    /// Access by line index directly (callers that already work in line
    /// units skip the byte-address division).
    pub fn access_line(&mut self, line: u64) -> bool {
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.assoc;
        let hinted = self.hint[set] as usize;
        if hinted < self.assoc && self.tags[base + hinted] == line {
            // Already the MRU way of its set: stamps order ways only within
            // a set, so refreshing the maximum is a no-op — skip it (and the
            // tick, which only exists to feed stamps).
            self.hits += 1;
            return true;
        }
        self.tick += 1;
        let ways = &self.tags[base..base + self.assoc];
        if let Some(way) = ways.iter().position(|&t| t == line) {
            self.stamp[base + way] = self.tick;
            self.hint[set] = way as u16;
            self.hits += 1;
            return true;
        }
        // Miss: evict the LRU way.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.assoc {
            let s = self.stamp[base + w];
            if self.tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if s < oldest {
                oldest = s;
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamp[base + victim] = self.tick;
        self.hint[set] = victim as u16;
        self.misses += 1;
        false
    }

    /// Drop all contents (between launches).
    pub fn invalidate(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamp.fill(0);
        self.hint.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = CacheSim::new(32, 4, 64);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(8)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn capacity_eviction() {
        // 1 KiB, 1-way, 64B lines -> 16 lines direct mapped.
        let mut c = CacheSim::new(1, 1, 64);
        for i in 0..16 {
            assert!(!c.access(i * 64));
        }
        for i in 0..16 {
            assert!(c.access(i * 64), "line {i} should still be resident");
        }
        // A conflicting line (maps to set 0) evicts line 0.
        assert!(!c.access(16 * 64));
        assert!(!c.access(0));
    }

    #[test]
    fn lru_keeps_hot_lines() {
        // 2-way set: A, B, touch A again, insert C (same set) -> B evicted.
        let mut c = CacheSim::new(1, 2, 64);
        let sets = c.sets as u64;
        let a = 0u64;
        let b = sets * 64; // same set 0, different tag
        let d = 2 * sets * 64;
        c.access(a);
        c.access(b);
        c.access(a); // refresh A
        c.access(d); // evicts B (LRU)
        assert!(c.access(a), "A must have survived");
        assert!(!c.access(b), "B must have been evicted");
    }

    #[test]
    fn working_set_within_capacity_streams_once() {
        let mut c = CacheSim::new(256, 8, 64);
        let n = 1000u64;
        // Two passes over a small array: second pass all hits.
        for pass in 0..2 {
            for i in 0..n {
                let hit = c.access(i * 8);
                if pass == 1 {
                    assert!(hit);
                }
            }
        }
    }

    #[test]
    fn invalidate_clears() {
        let mut c = CacheSim::new(32, 4, 64);
        c.access(0);
        c.invalidate();
        assert!(!c.access(0));
    }
}
