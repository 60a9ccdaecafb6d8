//! Property test: the L2 slice agrees with a brute-force reference model
//! of a set-associative LRU cache on arbitrary access sequences, over
//! power-of-two and non-power-of-two set counts and across flushes.

use nmt_sim::cache::{L2Slice, Probe};
use proptest::prelude::*;

/// Reference model: per-set vector of (line, dirty) in LRU order
/// (front = least recent).
struct RefCache {
    sets: usize,
    ways: usize,
    line_bytes: u64,
    content: Vec<Vec<(u64, bool)>>,
}

impl RefCache {
    fn new(capacity: usize, line_bytes: usize, ways: usize) -> Self {
        let sets = capacity / line_bytes / ways;
        Self {
            sets,
            ways,
            line_bytes: line_bytes as u64,
            content: vec![Vec::new(); sets],
        }
    }

    fn access(&mut self, addr: u64, write: bool) -> (bool, bool) {
        let line = addr / self.line_bytes;
        let set = (line % self.sets as u64) as usize;
        let entries = &mut self.content[set];
        if let Some(pos) = entries.iter().position(|&(l, _)| l == line) {
            let (l, d) = entries.remove(pos);
            entries.push((l, d || write));
            (true, false)
        } else {
            let mut wb = false;
            if entries.len() == self.ways {
                let (_, dirty) = entries.remove(0);
                wb = dirty;
            }
            entries.push((line, write));
            (false, wb)
        }
    }

    /// Empty every set; returns the number of dirty lines dropped.
    fn flush(&mut self) -> usize {
        let dirty = self.content.iter().flatten().filter(|&&(_, d)| d).count();
        for set in &mut self.content {
            set.clear();
        }
        dirty
    }
}

/// One step of a cache workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64, bool),
    Flush,
}

/// Drive `ops` through an `L2Slice` and the reference model of the same
/// geometry, requiring identical hit/miss, write-back and flush results.
fn agree(capacity: usize, line_bytes: usize, ways: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut dut = L2Slice::new(capacity, line_bytes, ways);
    let mut reference = RefCache::new(capacity, line_bytes, ways);
    prop_assert_eq!(dut.sets(), reference.sets);
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Access(addr, write) => {
                let (hit, wb) = reference.access(addr, write);
                match dut.access(addr, write) {
                    Probe::Hit => prop_assert!(hit, "op {i} (addr {addr}): dut hit, ref miss"),
                    Probe::Miss { dirty_writeback } => {
                        prop_assert!(!hit, "op {i} (addr {addr}): dut miss, ref hit");
                        prop_assert_eq!(dirty_writeback, wb, "writeback mismatch at op {}", i);
                    }
                }
            }
            Op::Flush => {
                prop_assert_eq!(dut.flush(), reference.flush(), "flush count at op {}", i);
            }
        }
    }
    Ok(())
}

fn accesses(addrs: Vec<(u64, bool)>) -> Vec<Op> {
    addrs.into_iter().map(|(a, w)| Op::Access(a, w)).collect()
}

/// Addresses that crowd a few of `sets` sets with more lines than
/// `ways`, so a slice with many sets still sees hits and evictions.
fn crowded(sets: u64, ways: u64, line_bytes: u64) -> impl Strategy<Value = (u64, bool)> {
    (
        0..4u64,
        0..ways + ways / 2 + 1,
        0..line_bytes,
        proptest::bool::ANY,
    )
        .prop_map(move |(set, j, byte, write)| (((j * sets + set) * line_bytes) + byte, write))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn l2_matches_reference_lru(
        addrs in proptest::collection::vec((0u64..8192, proptest::bool::ANY), 1..400)
    ) {
        // 1 KB cache, 64 B lines, 4 ways => 4 sets.
        agree(1024, 64, 4, &accesses(addrs))?;
    }

    #[test]
    fn single_set_small_suite_slice_matches_reference(
        addrs in proptest::collection::vec((0u64..8192, proptest::bool::ANY), 1..400)
    ) {
        // The small suite's slice: 2 KiB, 128 B lines, 16 ways => 1 set.
        agree(2048, 128, 16, &accesses(addrs))?;
    }

    #[test]
    fn three_set_slice_matches_reference(
        addrs in proptest::collection::vec((0u64..4096, proptest::bool::ANY), 1..400)
    ) {
        // 768 B, 64 B lines, 4 ways => 3 sets (the `%` set-index path).
        agree(768, 64, 4, &accesses(addrs))?;
    }

    #[test]
    fn gv100_slice_matches_reference(
        addrs in proptest::collection::vec(crowded(48, 16, 128), 1..600)
    ) {
        // GV100's slice: 96 KiB, 128 B lines, 16 ways => 48 sets.
        agree(96 * 1024, 128, 16, &accesses(addrs))?;
    }

    #[test]
    fn flush_mid_sequence_matches_reference(
        addrs in proptest::collection::vec((0u64..4096, proptest::bool::ANY), 1..300),
        flush_at in proptest::collection::vec(0usize..300, 1..4),
    ) {
        // Flushes interleaved with accesses on a 3-set slice: refills after
        // a flush must pick victims exactly like a cold cache.
        let mut ops = accesses(addrs);
        for &at in &flush_at {
            ops.insert(at.min(ops.len()), Op::Flush);
        }
        agree(768, 64, 4, &ops)?;
        agree(2048, 128, 16, &ops)?;
    }

    #[test]
    fn flush_resets_everything(
        accesses in proptest::collection::vec((0u64..4096, proptest::bool::ANY), 1..100)
    ) {
        let mut dut = L2Slice::new(512, 64, 2);
        let mut dirty_lines = std::collections::BTreeSet::new();
        let mut resident = std::collections::BTreeSet::new();
        // Mirror residency coarsely to bound the flush() dirty count.
        for &(addr, write) in &accesses {
            dut.access(addr, write);
            let line = addr / 64;
            resident.insert(line);
            if write {
                dirty_lines.insert(line);
            }
        }
        let flushed = dut.flush();
        // At most `ways * sets` lines can be dirty at once.
        prop_assert!(flushed <= 8);
        prop_assert!(flushed <= dirty_lines.len());
        // After a flush every previously-resident line misses on its first
        // re-access (probing distinct lines only — the probe loop itself
        // refills the cache).
        let mut probed = std::collections::BTreeSet::new();
        for &(addr, _) in accesses.iter().take(8) {
            if probed.insert(addr / 64) {
                let miss = matches!(dut.access(addr, false), Probe::Miss { .. });
                prop_assert!(miss, "post-flush access must miss");
            }
        }
    }
}
