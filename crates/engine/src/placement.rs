//! Data layout and load balancing across FB partitions (§6.1, Figure 17).
//!
//! The engine can only transform data resident in its own FB partition, so
//! the layout of the CSC strips determines load balance. Allocating one
//! whole strip per partition "causes a camping problem where multiple SMs
//! pound on the same FB partition". The fix is to split strips into tiles
//! and rotate the tile→partition mapping so consecutive tiles of a strip
//! live in different partitions (Figure 17, right); an SM moving to the
//! next tile pays a small hand-off (`next_fb_ptr` + `col_idx_frontier`).

use serde::{Deserialize, Serialize};

/// Errors from placement queries. These used to be `assert!`s, but a
/// malformed request must not abort a whole corpus sweep — callers turn
/// them into per-matrix error rows instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// A layout query was made with zero FB partitions.
    NoPartitions,
    /// A switch-overhead query with `rows_per_switch == 0` (the overhead
    /// ratio would divide by zero).
    ZeroSwitchGranularity,
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoPartitions => write!(f, "need at least one FB partition"),
            PlacementError::ZeroSwitchGranularity => {
                write!(f, "rows_per_switch must be positive")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// How strip data maps onto FB partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Layout {
    /// Naive: strip `s` lives entirely in partition `s % P`
    /// (Figure 17, left — the camping pathology).
    StripPerPartition,
    /// Tiles of each strip rotate across partitions with a per-strip
    /// offset (Figure 17, right).
    TileRotated,
}

impl Layout {
    /// The partition owning tile `tile` of strip `strip` under this layout.
    /// `num_partitions` must be positive: the farm, the one public route to
    /// this function, rejects a zero count with
    /// [`PlacementError::NoPartitions`] before it routes any tile.
    pub(crate) fn partition_index(self, strip: usize, tile: usize, num_partitions: usize) -> usize {
        match self {
            Layout::StripPerPartition => strip % num_partitions,
            Layout::TileRotated => (strip + tile) % num_partitions,
        }
    }
}

/// Cost of advancing from one tile of a strip to the next when the next
/// tile lives in a different FB partition: the current partition returns
/// `next_fb_ptr` (8 bytes) and the live `col_idx_frontier` (4 bytes per
/// engine lane), which must reach the next partition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwitchCost {
    /// Engine width (columns per strip).
    pub lanes: usize,
}

impl SwitchCost {
    /// Bytes transferred per partition switch.
    pub fn bytes_per_switch(&self) -> u64 {
        8 + 4 * self.lanes as u64
    }

    /// The relative traffic overhead of switching partitions every
    /// `rows_per_switch` non-zero tile rows, when an average non-zero row
    /// carries `avg_row_bytes` of useful DCSR payload (metadata + data).
    ///
    /// §6.1's finding: "the overhead … adds negligible performance impacts
    /// if the number of non-zero tile rows stored in an FB partition is
    /// not less than 64" — i.e. this ratio is ≪ 1 at
    /// `rows_per_switch ≥ 64`.
    ///
    /// Errors with [`PlacementError::ZeroSwitchGranularity`] when
    /// `rows_per_switch == 0` (previously a panic).
    pub fn overhead_fraction(
        &self,
        rows_per_switch: usize,
        avg_row_bytes: f64,
    ) -> Result<f64, PlacementError> {
        if rows_per_switch == 0 {
            return Err(PlacementError::ZeroSwitchGranularity);
        }
        let useful = rows_per_switch as f64 * avg_row_bytes;
        Ok(self.bytes_per_switch() as f64 / useful)
    }
}

/// Max-over-mean load imbalance of a partition load vector (1.0 = perfect).
pub fn imbalance(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    if total == 0 || loads.is_empty() {
        return 1.0;
    }
    let mean = total as f64 / loads.len() as f64;
    let max = loads.iter().max().copied().unwrap_or(0) as f64;
    max / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_index_is_stable_and_in_range() {
        for layout in [Layout::StripPerPartition, Layout::TileRotated] {
            for s in 0..10 {
                for t in 0..10 {
                    let p = layout.partition_index(s, t, 4);
                    assert!(p < 4);
                    assert_eq!(p, layout.partition_index(s, t, 4));
                }
            }
        }
        assert_eq!(Layout::StripPerPartition.partition_index(1, 5, 4), 1);
        assert_eq!(Layout::TileRotated.partition_index(1, 5, 4), 2);
    }

    #[test]
    fn degenerate_switch_granularity_errors_instead_of_panicking() {
        let c = SwitchCost { lanes: 64 };
        assert_eq!(
            c.overhead_fraction(0, 24.0),
            Err(PlacementError::ZeroSwitchGranularity)
        );
    }

    #[test]
    fn switch_cost_bytes() {
        // 64-lane engine: 8 + 256 = 264 bytes per hand-off.
        let c = SwitchCost { lanes: 64 };
        assert_eq!(c.bytes_per_switch(), 264);
    }

    #[test]
    fn overhead_negligible_at_64_rows() {
        // A typical non-zero DCSR tile row: rowidx + rowptr entry (8 B) and
        // a couple of elements (2 x 8 B) ≈ 24 B of useful payload.
        let c = SwitchCost { lanes: 64 };
        let at64 = c.overhead_fraction(64, 24.0).unwrap();
        assert!(at64 < 0.2, "overhead at 64 rows should be small: {at64}");
        let at1 = c.overhead_fraction(1, 24.0).unwrap();
        assert!(at1 > 1.0, "switching every row must be expensive: {at1}");
        // Monotone decreasing in the switch granularity.
        assert!(c.overhead_fraction(128, 24.0).unwrap() < at64);
    }

    #[test]
    fn imbalance_degenerate_cases() {
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0, 0]), 1.0);
        assert!((imbalance(&[5, 5, 5, 5]) - 1.0).abs() < 1e-12);
    }
}
