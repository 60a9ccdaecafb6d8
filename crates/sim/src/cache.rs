//! Set-associative L2 cache slice with LRU replacement.
//!
//! The GV100 L2 is physically sliced: each FB partition owns the slice that
//! caches its share of the address space. One [`L2Slice`] therefore lives
//! inside each simulated FB partition.

use crate::config::Divisor;

/// Result of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Line present.
    Hit,
    /// Line absent; it has been filled (possibly evicting a victim, whose
    /// dirtiness is reported for write-back accounting).
    Miss {
        /// True when the evicted victim was dirty and must be written back.
        dirty_writeback: bool,
    },
}

/// Tag of an empty way. A line number is a byte address divided by the
/// line size, so only the last byte of the address space with 1-byte
/// lines could collide with it.
const INVALID: u64 = u64::MAX;

/// One L2 slice: `sets × ways` lines, LRU within a set.
///
/// Invariant: a way is invalid exactly when its stamp is 0. Every probe
/// advances `tick` before stamping, so valid ways carry distinct stamps
/// ≥ 1, and the first way with the smallest stamp is the first invalid
/// way if there is one and the least recently used way otherwise.
#[derive(Debug, Clone)]
pub struct L2Slice {
    line_bytes: u64,
    line_shift: u32,
    sets: Divisor,
    num_sets: usize,
    ways: usize,
    /// tags[set * ways + way]; [`INVALID`] = empty.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags` (larger = more recent, 0 = empty).
    stamps: Vec<u64>,
    /// Dirty bits parallel to `tags`.
    dirty: Vec<bool>,
    tick: u64,
}

impl L2Slice {
    /// Build a slice of `capacity_bytes` with the given line size and
    /// associativity. Panics if geometry does not divide evenly (the
    /// [`GpuConfig`](crate::GpuConfig) validator checks this upstream).
    pub fn new(capacity_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines >= ways && lines.is_multiple_of(ways),
            "capacity must divide into whole sets"
        );
        let sets = lines / ways;
        Self {
            line_bytes: line_bytes as u64,
            line_shift: line_bytes.trailing_zeros(),
            sets: Divisor::new(sets as u64),
            num_sets: sets,
            ways,
            // nmt-lint: allow(hot-alloc) — constructor, once per simulated partition
            tags: vec![INVALID; lines],
            // nmt-lint: allow(hot-alloc) — constructor, once per simulated partition
            stamps: vec![0; lines],
            // nmt-lint: allow(hot-alloc) — constructor, once per simulated partition
            dirty: vec![false; lines],
            tick: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.num_sets
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Probe the line containing `addr`; fill on miss. `write` marks the
    /// line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> Probe {
        self.access_line(addr >> self.line_shift, write)
    }

    /// [`L2Slice::access`] for line number `line` (`addr / line_bytes`).
    ///
    /// One pass over the set finds the hit, or else the first way with
    /// the smallest stamp: by the stamp invariant, the first invalid way
    /// if any, else the least recently used one.
    #[inline]
    pub(crate) fn access_line(&mut self, line: u64, write: bool) -> Probe {
        debug_assert_ne!(line, INVALID, "line number collides with the empty tag");
        self.tick += 1;
        let base = self.sets.rem(line) as usize * self.ways;
        let end = base + self.ways;
        let tags = &mut self.tags[base..end];
        let stamps = &mut self.stamps[base..end];
        let dirty = &mut self.dirty[base..end];
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (way, (&tag, &stamp)) in tags.iter().zip(stamps.iter()).enumerate() {
            if tag == line {
                stamps[way] = self.tick;
                dirty[way] |= write;
                return Probe::Hit;
            }
            if stamp < oldest {
                oldest = stamp;
                victim = way;
            }
        }
        let dirty_writeback = tags[victim] != INVALID && dirty[victim];
        tags[victim] = line;
        stamps[victim] = self.tick;
        dirty[victim] = write;
        Probe::Miss { dirty_writeback }
    }

    /// Drop all contents (between kernels, when desired).
    pub fn flush(&mut self) -> usize {
        let dirty_lines = self.dirty.iter().filter(|&&d| d).count();
        self.tags.fill(INVALID);
        self.dirty.fill(false);
        self.stamps.fill(0);
        dirty_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> L2Slice {
        // 4 lines of 64 B, 2-way => 2 sets.
        L2Slice::new(256, 64, 2)
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.sets(), 2);
        assert_eq!(c.line_bytes(), 64);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(matches!(c.access(0, false), Probe::Miss { .. }));
        assert_eq!(c.access(0, false), Probe::Hit);
        assert_eq!(c.access(63, false), Probe::Hit); // same line
        assert!(matches!(c.access(64, false), Probe::Miss { .. })); // next line
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (line % 2 == 0).
        c.access(0, false);
        c.access(2 * 64, false);
        c.access(0, false); // refresh line 0
        c.access(4 * 64, false); // evicts line 2 (LRU)
        assert_eq!(c.access(0, false), Probe::Hit);
        assert!(matches!(c.access(2 * 64, false), Probe::Miss { .. }));
    }

    #[test]
    fn dirty_writeback_reported() {
        let mut c = tiny();
        c.access(0, true); // dirty line 0 in set 0
        c.access(2 * 64, false);
        // Fill a third even line: evicts dirty line 0.
        match c.access(4 * 64, false) {
            Probe::Miss { dirty_writeback } => assert!(dirty_writeback),
            Probe::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0, false);
        c.access(2 * 64, false);
        match c.access(4 * 64, false) {
            Probe::Miss { dirty_writeback } => assert!(!dirty_writeback),
            Probe::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn flush_counts_dirty() {
        let mut c = tiny();
        c.access(0, true);
        c.access(64, false);
        assert_eq!(c.flush(), 1);
        assert!(matches!(c.access(0, false), Probe::Miss { .. }));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = tiny();
        let mut misses = 0;
        for round in 0..3 {
            for line in 0..8u64 {
                if matches!(c.access(line * 64, false), Probe::Miss { .. }) {
                    misses += 1;
                }
            }
            let _ = round;
        }
        // 8 lines through a 4-line cache with LRU: every access misses.
        assert_eq!(misses, 24);
    }
}
