//! Lightweight allocation-accounting counters for the partitioned data path.
//!
//! The zero-copy data path's whole point is that a protocol run copies the
//! edge set **once** (the machine-sorted permutation inside
//! [`crate::partition::PartitionedGraph`]) and never again into per-machine
//! owned graphs. That claim is hard to see from wall-clock alone, so this
//! module keeps a process-wide counter of *edges materialized into owned
//! per-machine graphs* — incremented exactly when
//! [`crate::view::GraphView::to_graph`] copies a piece out of an arena.
//!
//! The retired experiment E12 recorded both readings in
//! `BENCH_datapath.json`: the legacy path reported `m` edges per run, the
//! arena path 0. Experiment E18 (`exp_dynamic_churn`) asserts the churn
//! service keeps it at 0.
//!
//! A second pair of counters backs the out-of-core experiment E16
//! (`exp_tree_compose`): [`resident_edges`] tracks how many edge records are
//! currently held in memory by accounted holders (arena segment buffers,
//! live coresets and merge scratch in the tree-composition runner), and
//! [`peak_resident_edges`] is its high-water mark. The flat in-memory path
//! loads the whole arena, so its peak is `m`; the hierarchical out-of-core
//! path only ever holds one segment plus the live coresets of `log k`
//! levels, and E16 asserts the measured peak against that bound.

use std::sync::atomic::{AtomicU64, Ordering};

static PIECE_EDGES_MATERIALIZED: AtomicU64 = AtomicU64::new(0);
static RESIDENT_EDGES: AtomicU64 = AtomicU64::new(0);
static PEAK_RESIDENT_EDGES: AtomicU64 = AtomicU64::new(0);

/// Records that `edges` edges were copied into an owned per-machine graph.
#[inline]
pub fn record_piece_edges_materialized(edges: usize) {
    PIECE_EDGES_MATERIALIZED.fetch_add(edges as u64, Ordering::Relaxed);
}

/// Total edges materialized into owned per-machine graphs since process
/// start (process-wide; read deltas through [`MetricsScope`]).
#[inline]
pub fn piece_edges_materialized() -> u64 {
    PIECE_EDGES_MATERIALIZED.load(Ordering::Relaxed)
}

/// Records that `edges` edge records became resident in an accounted buffer
/// (an arena segment load, a coreset entering the composition tree, or merge
/// scratch), and pushes the high-water mark if the new total exceeds it.
#[inline]
pub fn record_resident_edges_acquired(edges: usize) {
    let now = RESIDENT_EDGES.fetch_add(edges as u64, Ordering::Relaxed) + edges as u64;
    PEAK_RESIDENT_EDGES.fetch_max(now, Ordering::Relaxed);
}

/// Records that `edges` previously-acquired edge records were dropped.
/// Saturates at zero so a stray release can never wrap the counter.
#[inline]
pub fn record_resident_edges_released(edges: usize) {
    let _ = RESIDENT_EDGES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
        Some(cur.saturating_sub(edges as u64))
    });
}

/// Edge records currently resident in accounted buffers (process-wide).
#[inline]
pub fn resident_edges() -> u64 {
    RESIDENT_EDGES.load(Ordering::Relaxed)
}

/// High-water mark of [`resident_edges`] since the last
/// [`reset_peak_resident_edges`] (process-wide).
#[inline]
pub fn peak_resident_edges() -> u64 {
    PEAK_RESIDENT_EDGES.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the *current* resident count (benchmarks
/// call this between phases; anything still held keeps counting).
#[inline]
pub fn reset_peak_resident_edges() {
    PEAK_RESIDENT_EDGES.store(RESIDENT_EDGES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// A point-in-time reading of every process-wide counter.
///
/// Snapshots turn the monotone counters into *scoped deltas*: subtract two
/// snapshots instead of resetting the globals, so independent measurement
/// scopes never clobber each other's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Reading of [`piece_edges_materialized`].
    pub piece_edges_materialized: u64,
    /// Reading of [`resident_edges`].
    pub resident_edges: u64,
    /// Reading of [`peak_resident_edges`].
    pub peak_resident_edges: u64,
}

impl MetricsSnapshot {
    /// Reads all counters now.
    pub fn take() -> Self {
        MetricsSnapshot {
            piece_edges_materialized: piece_edges_materialized(),
            resident_edges: resident_edges(),
            peak_resident_edges: peak_resident_edges(),
        }
    }
}

/// A scoped counter guard: snapshot at entry, read per-scope deltas on
/// demand — no manual reset bookkeeping.
///
/// The monotone counter ([`piece_edges_materialized`]) is handled purely by
/// subtraction, so any number of scopes may overlap (each sees its own delta,
/// plus whatever concurrent scopes added — the counters are process-wide by
/// design).
///
/// The one counter that *cannot* be scoped by subtraction is the high-water
/// mark: before this type, `reset_peak_resident_edges` was the only counter
/// a measurement had to remember to reset, and a forgotten reset silently
/// reported a stale peak. [`MetricsScope::enter`] performs that reset
/// itself, so [`MetricsScope::peak_resident_edges`] is the peak reached
/// *since entry* — with the documented caveat that the peak (unlike the
/// deltas) is only meaningful when measurement scopes do not overlap.
#[derive(Debug)]
pub struct MetricsScope {
    start: MetricsSnapshot,
}

impl MetricsScope {
    /// Opens a scope: resets the resident-edge high-water mark to the
    /// current resident count and snapshots every counter.
    pub fn enter() -> Self {
        reset_peak_resident_edges();
        MetricsScope {
            start: MetricsSnapshot::take(),
        }
    }

    /// The snapshot taken at entry.
    #[inline]
    pub fn start(&self) -> MetricsSnapshot {
        self.start
    }

    /// Edges materialized into owned per-machine graphs since entry.
    pub fn piece_edges_materialized(&self) -> u64 {
        piece_edges_materialized().saturating_sub(self.start.piece_edges_materialized)
    }

    /// High-water mark of resident edges since entry (the scope reset the
    /// mark to the then-current resident count at entry). Only meaningful
    /// when no other measurement scope overlaps this one.
    pub fn peak_resident_edges(&self) -> u64 {
        peak_resident_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        // The counter is process-wide and tests run concurrently, so assert
        // only monotone relative movement.
        let before = piece_edges_materialized();
        record_piece_edges_materialized(7);
        record_piece_edges_materialized(3);
        assert!(piece_edges_materialized() >= before + 10);
    }

    #[test]
    fn resident_accounting_moves_peak_monotonically() {
        // Process-wide counters and concurrent tests: assert only relative,
        // monotone movement from this test's own acquire/release pairs.
        let peak_before = peak_resident_edges();
        record_resident_edges_acquired(1000);
        let peak_mid = peak_resident_edges();
        assert!(peak_mid >= peak_before + 1000 || peak_mid >= 1000);
        record_resident_edges_released(1000);
        // The peak never goes down on release.
        assert!(peak_resident_edges() >= peak_mid);
    }

    #[test]
    fn scope_reports_deltas_without_resetting_globals() {
        let global_before = piece_edges_materialized();
        let scope = MetricsScope::enter();
        record_piece_edges_materialized(11);
        // Scoped deltas move by at least this test's contributions (other
        // concurrent tests can only add).
        assert!(scope.piece_edges_materialized() >= 11);
        // The globals were never reset: monotone from the caller's view.
        assert!(piece_edges_materialized() >= global_before + 11);
        // A nested scope starts from the current reading, so it does not see
        // the outer scope's earlier contributions.
        let inner = MetricsScope::enter();
        record_piece_edges_materialized(2);
        assert!(inner.piece_edges_materialized() >= 2);
        assert!(inner.start().piece_edges_materialized >= global_before + 11);
    }

    #[test]
    fn scope_resets_the_peak_on_entry() {
        record_resident_edges_acquired(500);
        record_resident_edges_released(500);
        let scope = MetricsScope::enter();
        record_resident_edges_acquired(50);
        // The peak observed by the scope includes the 50 acquired inside it;
        // process-wide concurrency can only push it higher.
        assert!(scope.peak_resident_edges() >= 50);
        record_resident_edges_released(50);
    }

    #[test]
    fn release_saturates_instead_of_wrapping() {
        record_resident_edges_released(u64::MAX as usize / 2);
        // Whatever other tests hold, the counter must not have wrapped into
        // an astronomically large value.
        assert!(resident_edges() < u64::MAX / 4);
    }
}
