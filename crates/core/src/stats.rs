//! Per-domain instrumentation counters, **sharded per thread**.
//!
//! The paper's evaluation reports, besides throughput: *max retire-list
//! size* (Figs 1–4), *max resident memory* and *total unreclaimed nodes*
//! (Figs 5–11). These counters feed all three: live bytes are sampled by
//! the workload runner for the resident-memory high-water mark, and
//! `retired - freed` at the end of a run is the unreclaimed-node count.
//!
//! ## Sharding model
//!
//! Every reclamation scheme counts events on its *hot* paths — `retire`
//! and `note_alloc` run once per update operation. A single shared counter
//! block would make every worker thread in every scheme bounce the same
//! cache lines on every operation, drowning the very effects (one relaxed
//! store per read, no fence) the schemes are measured for. Instead,
//! [`DomainStats`] holds one [`ShardStats`] block per domain thread id,
//! each padded to its own cache line (pair):
//!
//! * **Writers** increment only `shard(tid)` — an uncontended RMW on a
//!   line owned by that thread. The shard a counter lands on is whichever
//!   thread *performed the event*: a reclaimer freeing another thread's
//!   garbage counts the free on its own shard. Totals are what matter.
//! * **Readers** ([`DomainStats::snapshot`], [`DomainStats::live_bytes`],
//!   …) aggregate lazily by summing the shards at read time. Aggregation
//!   is O(threads) and runs only on sampling/reporting paths.
//! * **One overflow shard** (index `max_threads`) serves contexts with no
//!   registered tid — domain teardown accounting in `DomainBase::drop` and
//!   any future signal-handler counting that cannot name a tid.
//!
//! All increments are `Relaxed`: the counters are monotonic event tallies
//! whose exact interleaving is irrelevant. Aggregated differences
//! (`retired - freed`, `allocated - freed`) use saturating subtraction:
//! a racing reader may observe a free (counted on the reclaimer's shard)
//! before the matching retire (counted earlier on another shard it has
//! already read), transiently seeing `freed > retired`.

use core::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

use crate::pressure::PressureGauge;

/// One thread's private counter block (a single cache line pair).
#[derive(Default)]
pub struct ShardStats {
    /// Nodes allocated through [`crate::smr::Smr::note_alloc`].
    pub allocated_nodes: AtomicU64,
    /// Bytes allocated.
    pub allocated_bytes: AtomicU64,
    /// Nodes whose deallocation function ran (or that entered quarantine).
    pub freed_nodes: AtomicU64,
    /// Bytes freed.
    pub freed_bytes: AtomicU64,
    /// Nodes passed to `retire`. Counted once per sealed batch (one RMW
    /// per `retire_batch` nodes), so a thread's in-progress fill block is
    /// not yet included; every seal point (threshold, flush, unregister)
    /// brings the total exact.
    pub retired_nodes: AtomicU64,
    /// Retirement batches sealed into retire lists.
    pub batches_sealed: AtomicU64,
    /// Adaptive-controller events: epoch-cadence decay deepened one step
    /// (a barren pass on an already-quiet domain).
    pub epoch_decay_steps: AtomicU64,
    /// Sealed blocks freed whole by the sweep fast path (every member
    /// failed the keep predicate).
    pub blocks_freed_whole: AtomicU64,
    /// Sealed blocks retained whole by the sweep fast path (every member
    /// survived; no records moved).
    pub blocks_kept_whole: AtomicU64,
    /// Orphaned nodes adopted from the domain list at registration.
    pub orphans_adopted: AtomicU64,
    /// Orphaned nodes stolen by reclaimer passes (sweep-time adoption,
    /// which drains orphans even on static thread memberships).
    pub orphans_stolen: AtomicU64,
    /// Signals sent by reclaimers (`pingAllToPublish`).
    pub pings_sent: AtomicU64,
    /// Pings elided because the target was provably quiescent with empty
    /// published reservations (the quiescent-thread filter).
    pub pings_skipped: AtomicU64,
    /// Publisher executions (signal handler or self-publish).
    pub publishes: AtomicU64,
    /// Epoch-mode reclamation passes (EBR / EpochPOP fast path).
    pub epoch_passes: AtomicU64,
    /// Publish-on-ping reclamation passes (HazardPtrPOP / escalations).
    pub pop_passes: AtomicU64,
    /// Operation restarts forced by neutralization (NBR).
    pub restarts: AtomicU64,
    /// High-water mark of this thread's retire-list length.
    pub max_retire_len: AtomicU64,
    /// Asymmetric heavy barriers executed via `membarrier(2)` (both the
    /// `HPAsym` baseline and the POP membarrier publish mode land here —
    /// the one counting site is `PopShared::heavy_membarrier`).
    pub membarriers: AtomicU64,
    /// POP reclamation passes whose entire signal fan-out was replaced by
    /// one membarrier heavy barrier (`PublishMode::Membarrier` fast path).
    pub membarrier_passes: AtomicU64,
    /// Per-peer signals a membarrier pass would otherwise have had to
    /// send: the registered-peer count of each membarrier pass, summed.
    /// The membarrier-mode analogue of `pings_skipped` — under this mode
    /// the fan-out is elided *whole*, so the per-peer skip counter stays
    /// untouched and this one carries the savings.
    pub signals_avoided: AtomicU64,
    /// Publish waits abandoned by the watchdog: the deadline expired with
    /// at least one pinged peer unpublished, and the pass completed on
    /// conservative re-snapshots instead.
    pub publish_wait_timeouts: AtomicU64,
    /// Pings whose send failed outright (target dead or `pthread_kill`
    /// errored) — the peer was skipped, never waited on.
    pub pings_failed: AtomicU64,
    /// Dead participants reaped: registration slot recovered and their
    /// pending retirements orphaned for adoption.
    pub participants_reaped: AtomicU64,
    /// Faults injected on this domain's publish paths (the `PublishDelay`
    /// site; always 0 without the `fault-injection` feature).
    pub faults_injected: AtomicU64,
    /// Upward crossings of the soft pressure watermark
    /// ([`crate::pressure::PressureRung::Soft`]).
    pub pressure_soft_trips: AtomicU64,
    /// Upward crossings of the hard pressure watermark.
    pub pressure_hard_trips: AtomicU64,
    /// Upward crossings of the emergency pressure watermark.
    pub pressure_emergency_trips: AtomicU64,
    /// Sealed blocks moved into the stalled-reader quarantine (provably
    /// pinned only by a known-stalled participant).
    pub blocks_quarantined: AtomicU64,
    /// Quarantined blocks released back into a retire list (their blocker
    /// advanced, went quiescent, or was reaped).
    pub blocks_unquarantined: AtomicU64,
    /// Recycled retire-batch boxes returned to the allocator by free-pool
    /// trimming (the [`crate::config::SmrConfig::free_pool_cap`] cap, or
    /// pressure-driven trims to zero).
    pub pool_blocks_trimmed: AtomicU64,
    /// Nodes placed in owned slab slots by [`crate::smr::alloc_node`]
    /// (Box-backed allocations of types larger than the top slab class are
    /// the difference to `allocated_nodes`).
    pub slab_allocs: AtomicU64,
    /// Sealed blocks freed whole whose members all lived in one slab —
    /// settlement was a single range test against the slab base, the
    /// owned-arena fast path the slab allocator exists to maximize.
    pub slab_frees_whole: AtomicU64,
    /// Operations restarted by VBR because the announced version lagged the
    /// domain version past the tolerance window (the scheme's substitute
    /// for per-node sweeps: the reader re-announces and retries).
    pub version_aborts: AtomicU64,
}

impl ShardStats {
    /// Records a retire-list length observation (reclamation events only,
    /// so the `fetch_max` stays off the per-operation path).
    pub fn observe_retire_len(&self, len: usize) {
        self.max_retire_len.fetch_max(len as u64, Ordering::Relaxed);
    }
}

/// Event counters for one reclamation domain, sharded per thread, plus
/// the domain's [`PressureGauge`] (a point-in-time level, not an event
/// tally, so it lives beside the shards rather than inside them).
pub struct DomainStats {
    /// `max_threads` per-tid shards plus one trailing overflow shard.
    shards: Box<[CachePadded<ShardStats>]>,
    /// The domain's memory-pressure gauge (disabled unless constructed
    /// with [`DomainStats::with_pressure`]).
    pressure: PressureGauge,
}

impl DomainStats {
    /// Creates counters for a domain of `max_threads` participants, with
    /// a disabled pressure gauge (standalone/diagnostic use).
    pub fn new(max_threads: usize) -> Self {
        Self::with_pressure(max_threads, PressureGauge::disabled())
    }

    /// Creates counters for a domain of `max_threads` participants with
    /// the given pressure gauge (how `DomainBase` builds its stats from
    /// the [`crate::config::SmrConfig`] watermarks).
    pub fn with_pressure(max_threads: usize, pressure: PressureGauge) -> Self {
        let mut shards = Vec::with_capacity(max_threads + 1);
        shards.resize_with(max_threads + 1, CachePadded::default);
        DomainStats {
            shards: shards.into_boxed_slice(),
            pressure,
        }
    }

    /// The domain's memory-pressure gauge.
    #[inline]
    pub fn pressure(&self) -> &PressureGauge {
        &self.pressure
    }

    /// The counter block owned by domain thread `tid`.
    ///
    /// Hot paths write here and nowhere else; `tid` must be a valid domain
    /// thread id (callers already hold one for every counting operation).
    #[inline(always)]
    pub fn shard(&self, tid: usize) -> &ShardStats {
        debug_assert!(
            tid < self.shards.len() - 1,
            "tid {tid} out of range for {} stat shards",
            self.shards.len() - 1
        );
        &self.shards[tid]
    }

    /// The overflow block for contexts without a registered tid (domain
    /// teardown, diagnostics).
    #[inline]
    pub fn overflow(&self) -> &ShardStats {
        &self.shards[self.shards.len() - 1]
    }

    fn sum(&self, f: impl Fn(&ShardStats) -> u64) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(f(s)))
    }

    /// Nodes currently allocated and not yet freed (live + retired).
    pub fn live_nodes(&self) -> u64 {
        self.sum(|s| s.allocated_nodes.load(Ordering::Relaxed))
            .saturating_sub(self.sum(|s| s.freed_nodes.load(Ordering::Relaxed)))
    }

    /// Bytes currently allocated and not yet freed.
    pub fn live_bytes(&self) -> u64 {
        self.sum(|s| s.allocated_bytes.load(Ordering::Relaxed))
            .saturating_sub(self.sum(|s| s.freed_bytes.load(Ordering::Relaxed)))
    }

    /// Nodes retired but not yet freed — the paper's "unreclaimed garbage".
    pub fn unreclaimed_nodes(&self) -> u64 {
        self.sum(|s| s.retired_nodes.load(Ordering::Relaxed))
            .saturating_sub(self.sum(|s| s.freed_nodes.load(Ordering::Relaxed)))
    }

    /// Point-in-time aggregate of every counter across all shards.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut out = StatsSnapshot::default();
        for s in self.shards.iter() {
            out.allocated_nodes = out
                .allocated_nodes
                .wrapping_add(s.allocated_nodes.load(Ordering::Relaxed));
            out.allocated_bytes = out
                .allocated_bytes
                .wrapping_add(s.allocated_bytes.load(Ordering::Relaxed));
            out.freed_nodes = out
                .freed_nodes
                .wrapping_add(s.freed_nodes.load(Ordering::Relaxed));
            out.freed_bytes = out
                .freed_bytes
                .wrapping_add(s.freed_bytes.load(Ordering::Relaxed));
            out.retired_nodes = out
                .retired_nodes
                .wrapping_add(s.retired_nodes.load(Ordering::Relaxed));
            out.batches_sealed = out
                .batches_sealed
                .wrapping_add(s.batches_sealed.load(Ordering::Relaxed));
            out.epoch_decay_steps = out
                .epoch_decay_steps
                .wrapping_add(s.epoch_decay_steps.load(Ordering::Relaxed));
            out.blocks_freed_whole = out
                .blocks_freed_whole
                .wrapping_add(s.blocks_freed_whole.load(Ordering::Relaxed));
            out.blocks_kept_whole = out
                .blocks_kept_whole
                .wrapping_add(s.blocks_kept_whole.load(Ordering::Relaxed));
            out.orphans_adopted = out
                .orphans_adopted
                .wrapping_add(s.orphans_adopted.load(Ordering::Relaxed));
            out.orphans_stolen = out
                .orphans_stolen
                .wrapping_add(s.orphans_stolen.load(Ordering::Relaxed));
            out.pings_sent = out
                .pings_sent
                .wrapping_add(s.pings_sent.load(Ordering::Relaxed));
            out.pings_skipped = out
                .pings_skipped
                .wrapping_add(s.pings_skipped.load(Ordering::Relaxed));
            out.publishes = out
                .publishes
                .wrapping_add(s.publishes.load(Ordering::Relaxed));
            out.epoch_passes = out
                .epoch_passes
                .wrapping_add(s.epoch_passes.load(Ordering::Relaxed));
            out.pop_passes = out
                .pop_passes
                .wrapping_add(s.pop_passes.load(Ordering::Relaxed));
            out.restarts = out
                .restarts
                .wrapping_add(s.restarts.load(Ordering::Relaxed));
            out.max_retire_len = out
                .max_retire_len
                .max(s.max_retire_len.load(Ordering::Relaxed));
            out.membarriers = out
                .membarriers
                .wrapping_add(s.membarriers.load(Ordering::Relaxed));
            out.membarrier_passes = out
                .membarrier_passes
                .wrapping_add(s.membarrier_passes.load(Ordering::Relaxed));
            out.signals_avoided = out
                .signals_avoided
                .wrapping_add(s.signals_avoided.load(Ordering::Relaxed));
            out.publish_wait_timeouts = out
                .publish_wait_timeouts
                .wrapping_add(s.publish_wait_timeouts.load(Ordering::Relaxed));
            out.pings_failed = out
                .pings_failed
                .wrapping_add(s.pings_failed.load(Ordering::Relaxed));
            out.participants_reaped = out
                .participants_reaped
                .wrapping_add(s.participants_reaped.load(Ordering::Relaxed));
            out.faults_injected = out
                .faults_injected
                .wrapping_add(s.faults_injected.load(Ordering::Relaxed));
            out.pressure_soft_trips = out
                .pressure_soft_trips
                .wrapping_add(s.pressure_soft_trips.load(Ordering::Relaxed));
            out.pressure_hard_trips = out
                .pressure_hard_trips
                .wrapping_add(s.pressure_hard_trips.load(Ordering::Relaxed));
            out.pressure_emergency_trips = out
                .pressure_emergency_trips
                .wrapping_add(s.pressure_emergency_trips.load(Ordering::Relaxed));
            out.blocks_quarantined = out
                .blocks_quarantined
                .wrapping_add(s.blocks_quarantined.load(Ordering::Relaxed));
            out.blocks_unquarantined = out
                .blocks_unquarantined
                .wrapping_add(s.blocks_unquarantined.load(Ordering::Relaxed));
            out.pool_blocks_trimmed = out
                .pool_blocks_trimmed
                .wrapping_add(s.pool_blocks_trimmed.load(Ordering::Relaxed));
            out.slab_allocs = out
                .slab_allocs
                .wrapping_add(s.slab_allocs.load(Ordering::Relaxed));
            out.slab_frees_whole = out
                .slab_frees_whole
                .wrapping_add(s.slab_frees_whole.load(Ordering::Relaxed));
            out.version_aborts = out
                .version_aborts
                .wrapping_add(s.version_aborts.load(Ordering::Relaxed));
        }
        out.slab_released_bytes = crate::slab::released_bytes();
        out
    }
}

/// Plain-data aggregate of [`DomainStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// See [`ShardStats::allocated_nodes`].
    pub allocated_nodes: u64,
    /// See [`ShardStats::allocated_bytes`].
    pub allocated_bytes: u64,
    /// See [`ShardStats::freed_nodes`].
    pub freed_nodes: u64,
    /// See [`ShardStats::freed_bytes`].
    pub freed_bytes: u64,
    /// See [`ShardStats::retired_nodes`].
    pub retired_nodes: u64,
    /// See [`ShardStats::batches_sealed`].
    pub batches_sealed: u64,
    /// See [`ShardStats::epoch_decay_steps`].
    pub epoch_decay_steps: u64,
    /// See [`ShardStats::blocks_freed_whole`].
    pub blocks_freed_whole: u64,
    /// See [`ShardStats::blocks_kept_whole`].
    pub blocks_kept_whole: u64,
    /// See [`ShardStats::orphans_adopted`].
    pub orphans_adopted: u64,
    /// See [`ShardStats::orphans_stolen`].
    pub orphans_stolen: u64,
    /// See [`ShardStats::pings_sent`].
    pub pings_sent: u64,
    /// See [`ShardStats::pings_skipped`].
    pub pings_skipped: u64,
    /// See [`ShardStats::publishes`].
    pub publishes: u64,
    /// See [`ShardStats::epoch_passes`].
    pub epoch_passes: u64,
    /// See [`ShardStats::pop_passes`].
    pub pop_passes: u64,
    /// See [`ShardStats::restarts`].
    pub restarts: u64,
    /// Maximum over all shards of [`ShardStats::max_retire_len`].
    pub max_retire_len: u64,
    /// See [`ShardStats::membarriers`].
    pub membarriers: u64,
    /// See [`ShardStats::membarrier_passes`].
    pub membarrier_passes: u64,
    /// See [`ShardStats::signals_avoided`].
    pub signals_avoided: u64,
    /// See [`ShardStats::publish_wait_timeouts`].
    pub publish_wait_timeouts: u64,
    /// See [`ShardStats::pings_failed`].
    pub pings_failed: u64,
    /// See [`ShardStats::participants_reaped`].
    pub participants_reaped: u64,
    /// See [`ShardStats::faults_injected`].
    pub faults_injected: u64,
    /// See [`ShardStats::pressure_soft_trips`].
    pub pressure_soft_trips: u64,
    /// See [`ShardStats::pressure_hard_trips`].
    pub pressure_hard_trips: u64,
    /// See [`ShardStats::pressure_emergency_trips`].
    pub pressure_emergency_trips: u64,
    /// See [`ShardStats::blocks_quarantined`].
    pub blocks_quarantined: u64,
    /// See [`ShardStats::blocks_unquarantined`].
    pub blocks_unquarantined: u64,
    /// See [`ShardStats::pool_blocks_trimmed`].
    pub pool_blocks_trimmed: u64,
    /// See [`ShardStats::slab_allocs`].
    pub slab_allocs: u64,
    /// See [`ShardStats::slab_frees_whole`].
    pub slab_frees_whole: u64,
    /// See [`ShardStats::version_aborts`].
    pub version_aborts: u64,
    /// **Process-wide** bytes the slab allocator has handed back to the OS
    /// (`madvise(MADV_DONTNEED)` on the fully-empty slabs its warm cache
    /// had no room for) — sampled from
    /// [`crate::slab::released_bytes`] at snapshot time. Unlike the other
    /// fields this is a global gauge shared by every domain in the process,
    /// not a per-domain tally.
    pub slab_released_bytes: u64,
}

impl StatsSnapshot {
    /// Unreclaimed garbage in this snapshot.
    pub fn unreclaimed_nodes(&self) -> u64 {
        self.retired_nodes.saturating_sub(self.freed_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_accounting_aggregates_across_shards() {
        let s = DomainStats::new(2);
        s.shard(0).allocated_nodes.fetch_add(10, Ordering::Relaxed);
        s.shard(0).allocated_bytes.fetch_add(640, Ordering::Relaxed);
        // Frees land on a different shard (reclaimer ≠ allocator).
        s.shard(1).freed_nodes.fetch_add(4, Ordering::Relaxed);
        s.shard(1).freed_bytes.fetch_add(256, Ordering::Relaxed);
        assert_eq!(s.live_nodes(), 6);
        assert_eq!(s.live_bytes(), 384);
    }

    #[test]
    fn unreclaimed_saturates() {
        let s = DomainStats::new(1);
        s.shard(0).freed_nodes.fetch_add(3, Ordering::Relaxed);
        assert_eq!(s.unreclaimed_nodes(), 0, "must not underflow");
    }

    #[test]
    fn retire_len_high_water_is_max_over_shards() {
        let s = DomainStats::new(2);
        s.shard(0).observe_retire_len(5);
        s.shard(1).observe_retire_len(17);
        s.shard(0).observe_retire_len(9);
        assert_eq!(s.snapshot().max_retire_len, 17);
    }

    #[test]
    fn overflow_shard_counts_toward_totals() {
        let s = DomainStats::new(1);
        s.shard(0).retired_nodes.fetch_add(2, Ordering::Relaxed);
        s.overflow().freed_nodes.fetch_add(1, Ordering::Relaxed);
        assert_eq!(s.snapshot().freed_nodes, 1);
        assert_eq!(s.unreclaimed_nodes(), 1);
    }

    #[test]
    fn robustness_counters_aggregate_across_shards() {
        let s = DomainStats::new(2);
        s.shard(0)
            .publish_wait_timeouts
            .fetch_add(2, Ordering::Relaxed);
        s.shard(1).pings_failed.fetch_add(3, Ordering::Relaxed);
        s.overflow()
            .participants_reaped
            .fetch_add(1, Ordering::Relaxed);
        s.shard(0).faults_injected.fetch_add(5, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.publish_wait_timeouts, 2);
        assert_eq!(snap.pings_failed, 3);
        assert_eq!(snap.participants_reaped, 1);
        assert_eq!(snap.faults_injected, 5);
    }

    #[test]
    fn pressure_counters_aggregate_across_shards() {
        let s = DomainStats::new(2);
        s.shard(0)
            .pressure_soft_trips
            .fetch_add(1, Ordering::Relaxed);
        s.shard(1)
            .pressure_hard_trips
            .fetch_add(2, Ordering::Relaxed);
        s.overflow()
            .pressure_emergency_trips
            .fetch_add(3, Ordering::Relaxed);
        s.shard(0)
            .blocks_quarantined
            .fetch_add(4, Ordering::Relaxed);
        s.shard(1)
            .blocks_unquarantined
            .fetch_add(5, Ordering::Relaxed);
        s.overflow()
            .pool_blocks_trimmed
            .fetch_add(6, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.pressure_soft_trips, 1);
        assert_eq!(snap.pressure_hard_trips, 2);
        assert_eq!(snap.pressure_emergency_trips, 3);
        assert_eq!(snap.blocks_quarantined, 4);
        assert_eq!(snap.blocks_unquarantined, 5);
        assert_eq!(snap.pool_blocks_trimmed, 6);
    }

    #[test]
    fn slab_and_version_counters_aggregate_across_shards() {
        let s = DomainStats::new(2);
        s.shard(0).slab_allocs.fetch_add(7, Ordering::Relaxed);
        s.shard(1).slab_frees_whole.fetch_add(2, Ordering::Relaxed);
        s.overflow().version_aborts.fetch_add(3, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.slab_allocs, 7);
        assert_eq!(snap.slab_frees_whole, 2);
        assert_eq!(snap.version_aborts, 3);
    }

    #[test]
    fn default_stats_carry_a_disabled_gauge() {
        let s = DomainStats::new(1);
        assert!(!s.pressure().enabled());
        s.pressure().on_retired(1 << 20);
        assert_eq!(
            s.pressure().rung(),
            crate::pressure::PressureRung::Normal,
            "disabled gauge never escalates"
        );
    }

    #[test]
    fn shards_do_not_share_cache_lines() {
        let s = DomainStats::new(4);
        let a = s.shard(0) as *const _ as usize;
        let b = s.shard(1) as *const _ as usize;
        assert!(b - a >= 64, "adjacent shards must be on distinct lines");
    }
}
