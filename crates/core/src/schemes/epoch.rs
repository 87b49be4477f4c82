//! The epoch engine: EBR, EpochPOP, VBR and IBR are one generic domain,
//! [`Epoch<L>`] (paper Appendix C, §4.2 and the version-based and
//! interval-based baselines).
//!
//! All four announce the global epoch on operation entry (one ordered
//! instruction per *operation*, not per read), announce `QUIESCENT` on
//! exit, and — but for IBR — free what was retired strictly before the
//! minimum announced epoch. They differ in one respect only: what happens
//! to a reader that stops advancing — the laggard `L`. The announcement
//! row, the clock, the pass, `retire`, `flush` and registration are
//! written once.
//!
//! | alias | `Smr::NAME` | laggard | announce | `protect` | a laggard… |
//! |-------|-------------|---------|----------|-----------|------------|
//! | [`Ebr`] | `EBR` | [`Wait`] | one `SeqCst` store | plain load | pins the whole retire pool until it leaves |
//! | [`EpochPop`] | `EpochPOP` | [`Ping`] | activity word + relaxed store + one fence | HazardPtrPOP's private reservation | is pinged; passes fall back to pointer reservations |
//! | [`Vbr`] | `VBR` | [`Abort`] | one `SeqCst` store | lag check, then plain load | aborts itself on its next read |
//! | [`Ibr`] | `IBR` | [`Interval`] | lower bound relaxed, then upper bound `SeqCst` | raises the upper bound when the epoch moved | pins only the nodes whose lifespan meets its interval |
//!
//! **The clock.** The global epoch is one word, `EpochClock`, which the
//! operation path never writes. Every pass advances it first, and every
//! other seal is a retire tick that advances it, so all but the newest
//! block of the batch that triggers a pass predate the reclaimer's own
//! operation and the pass frees them. VBR opts out of the tick
//! (`Laggard::RETIRE_TICK`): `VBR_MAX_LAG` counts bumps, so its version
//! moves on passes alone.
//!
//! **The pass.** Take the domain's retire pool, advance the clock, fence,
//! scan the announcements and sweep. Every triggered pass runs: nothing
//! thins or paces it. The laggard sees what the pass kept
//! (`Laggard::after_sweep`) before the survivors go back to the pool. The
//! sweep is the laggard's one override of the pass (`Laggard::sweep`): by
//! default everything retired before the floor (whole blocks by their era
//! summary, straddling blocks member by member); IBR's tests each member's
//! `[birth, retire]` lifespan against every announced `[lower, upper]`
//! interval instead, and so frees nodes born after a stalled reader's
//! last read, which the floor keeps. `retire` is push → tick or pass;
//! `flush` is a pass.
//!
//! **IBR** (2GE, Wen et al. 2018) announces an interval: the engine's
//! word is its lower bound, and [`Interval`] keeps the upper bounds. Each
//! read raises `upper` (one ordered store) only when the epoch moved since
//! the last — the amortization of hazard eras, with one interval per
//! thread. A reader stalled inside an operation pins only what was born
//! before its last read, so garbage stays bounded without signals.
//!
//! **EpochPOP** (paper §4.2, Alg. 3) runs both protocols at once. Epoch
//! mode is the common case: an EBR pass, fast, never a signal. Every read
//! *also* records a private pointer reservation (a relaxed store, no
//! fence). A triggered epoch pass that keeps `reclaim_freq` or more of the
//! nodes it took means some thread is stuck in an old epoch, and the
//! reclaimer escalates at once to a HazardPtrPOP pass over the same set —
//! ping everyone, free everything not pointer-reserved — skipping only the
//! bounded `N × H` reserved set. What a triggered pass keeps, if under
//! `reclaim_freq`, counts toward the domain's next trigger, so the next
//! epoch pass falls due when the pool holds `reclaim_freq` nodes again: a
//! reader that pins part of one pass's set is escalated past at the next.
//! Garbage is therefore bounded as for HazardPtrPOP,
//! `reclaim_freq + N × H` domain-wide. Only when the reservations
//! themselves pin `reclaim_freq` nodes (possible only if
//! `reclaim_freq ≤ N × H`) does the next pass wait for `reclaim_freq` new
//! retires — HazardPtrPOP's pacing — rather than come at every seal. No
//! global mode switch: different threads may reclaim in different modes
//! concurrently (unlike QSense).
//!
//! **VBR** inverts the ping: a reader whose announced version has fallen
//! [`VBR_MAX_LAG`] or more bumps behind the global is **version-aborted** —
//! `protect` (outside write phases) refreshes the announcement to the
//! current version and returns [`Restart`] before loading the pointer. One
//! read by the laggard therefore unpins everything it held, so VBR needs
//! neither signals nor membarrier, and its publish mode is moot. Garbage
//! is bounded by `VBR_MAX_LAG` bumps for every reader that keeps reading;
//! a reader parked *inside* an operation that never reads again pins its
//! announcement until it wakes (hence `ROBUST = false`, as for EBR) — but
//! its first read after waking aborts instead of resuming on stale
//! protection. Write phases (`begin_write`..`end_write`) suspend the abort:
//! a writer holding validated references must not be restarted mid-CAS,
//! so lag is checked once more in `begin_write` itself.
//!
//! Every alias is monomorphized: no dispatch on any path.

// The laggard trait is crate-internal; the four aliases are the public
// surface.
#![allow(private_bounds)]

use core::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;

use crate::base::{
    free_before_epoch, keep_mask, node_count, push_retired, scan_epoch_reservations, sweep_blocks,
    BlockPlan, DomainBase, EpochClock, ReclaimScratch, RetireList, RetireSlot, ScratchSlot,
    Verdict,
};
use crate::config::SmrConfig;
use crate::header::{Header, Retired};
use crate::smr::{ReadResult, Restart, Row, Smr};
use crate::stats::DomainStats;

use super::hazard::{self, publish_and_free, Kind, Ptr, Publish};

/// `EBR` — RCU-style epoch-based reclamation (paper Appendix C, Alg. 6).
/// Fast, but **not robust**: one delayed reader pins the whole retire pool
/// — the failure mode EpochPOP repairs.
pub type Ebr = Epoch<Wait>;
/// **`EpochPOP`** — epoch-based reclamation fused with HazardPtrPOP (paper
/// §4.2, Alg. 3).
pub type EpochPop = Epoch<Ping>;
/// `VBR` — version-based reclamation: readers abort themselves past
/// [`VBR_MAX_LAG`] version bumps instead of being pinged.
pub type Vbr = Epoch<Abort>;
/// `IBR` — interval-based reclamation, 2GE variant (Wen et al. 2018): a
/// reader pins only the nodes whose lifespan meets its announced interval.
pub type Ibr = Epoch<Interval>;

/// Epoch announced while quiescent (between operations).
pub(crate) const QUIESCENT: u64 = u64::MAX;

/// Maximum tolerated announcement lag, in version bumps. A VBR reader whose
/// announced version trails the global version by at least this much is
/// version-aborted on its next `protect` (outside write phases). Small
/// enough to bound garbage to a few retire batches per thread; large
/// enough that a reader racing one concurrent pass never aborts.
pub const VBR_MAX_LAG: u64 = 8;

/// What a scheme does about a reader that stops advancing (module docs).
/// Every hook receives the whole domain.
pub(crate) trait Laggard: Sized + Send + Sync + 'static {
    /// `Smr::NAME`.
    const NAME: &'static str;
    /// `Smr::ROBUST`.
    const ROBUST: bool;
    /// `Smr::NEEDS_SIGNALS`.
    const NEEDS_SIGNALS: bool;
    /// Whether a retire tick advances the epoch (module docs, "The
    /// clock").
    const RETIRE_TICK: bool = true;

    /// The policy's state for `base`'s domain.
    fn new(base: &DomainBase) -> Self;

    /// Stores `tid`'s announcement of the current epoch, ordered before
    /// the operation's first read: one `SeqCst` store unless overridden.
    #[inline]
    fn announce(e: &Epoch<Self>, tid: usize) {
        e.announced[tid].store(e.clock.current(), Ordering::SeqCst);
    }

    /// Runs after `end_op` withdrew the announcement.
    #[inline]
    fn end_op(_e: &Epoch<Self>, _tid: usize) {}

    /// The words `tid`'s reads reserve in (`Smr::row`): none unless
    /// overridden.
    #[inline]
    fn row(_e: &Epoch<Self>, _tid: usize) -> &[AtomicU64] {
        &[]
    }

    /// The paper's `read()` through `row`: the announcement already
    /// protects it.
    #[inline]
    fn protect<T>(
        _e: &Epoch<Self>,
        _row: &Row<'_>,
        _slot: usize,
        src: &AtomicPtr<T>,
    ) -> ReadResult<T> {
        Ok(src.load(Ordering::Acquire))
    }

    /// `Smr::check_restart`.
    #[inline]
    fn check_restart(_e: &Epoch<Self>, _tid: usize) -> Result<(), Restart> {
        Ok(())
    }

    /// `Smr::begin_write`.
    #[inline]
    fn begin_write(_e: &Epoch<Self>, _tid: usize) -> Result<(), Restart> {
        Ok(())
    }

    /// `Smr::end_write`.
    #[inline]
    fn end_write(_e: &Epoch<Self>, _tid: usize) {}

    /// Runs at the end of every pass while it still holds what it kept,
    /// `scratch.taken`.
    fn after_sweep(_e: &Epoch<Self>, _tid: usize, _scratch: &mut ReclaimScratch, _cause: Cause) {}

    /// The pass's sweep of what it took (`scratch.taken`), recycling
    /// emptied boxes into `tid`'s `list`: by default everything retired
    /// before the floor `min`.
    ///
    /// # Safety
    ///
    /// As for [`free_before_epoch`]: `min` is the floor of every
    /// registered announcement, loaded after the pass's fence.
    unsafe fn sweep(
        e: &Epoch<Self>,
        tid: usize,
        list: &mut RetireList,
        scratch: &mut ReclaimScratch,
        min: u64,
    ) {
        let taken = &mut scratch.taken;
        // SAFETY: forwarded contract.
        unsafe { free_before_epoch(&e.base, tid, list, taken, min) };
    }

    /// Runs when `tid` is bound to signalable thread `gtid`.
    fn bind(_e: &Epoch<Self>, _tid: usize, _gtid: usize) {}

    /// Runs just before `tid` is released.
    fn unregister(_e: &Epoch<Self>, _tid: usize) {}
}

struct ThreadState {
    retire: RetireSlot,
    scratch: ScratchSlot,
}

/// Why an epoch pass runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Cause {
    /// A seal crossed the domain trigger.
    Trigger,
    /// `flush` (and so `unregister`): drain all that can be drained.
    Flush,
}

/// An epoch domain: `L` says what happens to a reader that stops
/// advancing. Use it through the four aliases (module docs).
pub struct Epoch<L: Laggard> {
    // First, so EpochPOP's signal dispatch stops before anything else of
    // the domain is torn down.
    lag: L,
    base: DomainBase,
    clock: EpochClock,
    /// `reservedEpoch[tid]` (Alg. 3 and 6, line 4): the epoch `tid`
    /// entered its operation at, [`QUIESCENT`] between operations.
    announced: Box<[CachePadded<AtomicU64>]>,
    threads: Box<[CachePadded<ThreadState>]>,
}

/// EBR's policy: none. A reader parked in an old epoch pins the whole
/// retire pool until it leaves.
pub struct Wait;

impl Laggard for Wait {
    const NAME: &'static str = "EBR";
    const ROBUST: bool = false;
    const NEEDS_SIGNALS: bool = false;

    fn new(_base: &DomainBase) -> Self {
        Wait
    }
}

/// EpochPOP's policy: every read also reserves privately, HazardPtrPOP
/// style, and a pass that epochs could not drain pings everyone and frees
/// around the published reservations.
pub struct Ping {
    /// HazardPtrPOP's publisher, in the mode the config resolves.
    publish: hazard::Ping,
}

impl Laggard for Ping {
    const NAME: &'static str = "EpochPOP";
    const ROBUST: bool = true;
    const NEEDS_SIGNALS: bool = true;

    fn new(base: &DomainBase) -> Self {
        Ping {
            publish: hazard::Ping::new(base),
        }
    }

    /// Alg. 3 `startOp`: EBR's announcement plus the activity word, both
    /// plain stores, then the one ordered instruction POP pays per
    /// operation. The fence orders both announcements at once: the epoch
    /// against the reclaimer's fence before its min-scan, the activity
    /// word against the one before its ping filter. It is unconditional —
    /// `PopShared::note_active` skips its fence in membarrier mode, but
    /// the epoch min-scan needs this one in every mode.
    #[inline]
    fn announce(e: &Epoch<Self>, tid: usize) {
        e.lag.publish.pop.note_active_unfenced(tid);
        e.announced[tid].store(e.clock.current(), Ordering::Relaxed);
        fence(Ordering::SeqCst);
    }

    /// Alg. 3 `endOp`: the activity word follows the epoch into
    /// quiescence. The private row is left as is — a ping that finds the
    /// thread quiescent publishes nothing.
    #[inline]
    fn end_op(e: &Epoch<Self>, tid: usize) {
        e.lag.publish.end_op(tid);
    }

    /// HazardPtrPOP's owner-side row.
    #[inline]
    fn row(e: &Epoch<Self>, tid: usize) -> &[AtomicU64] {
        e.lag.publish.row(tid)
    }

    /// Alg. 3 `read()`: HazardPtrPOP's — a private reservation, no fence.
    /// Ignored in epoch mode; load-bearing the moment a reclaimer
    /// escalates.
    #[inline]
    fn protect<T>(
        _e: &Epoch<Self>,
        row: &Row<'_>,
        slot: usize,
        src: &AtomicPtr<T>,
    ) -> ReadResult<T> {
        Ptr.protect::<T, hazard::Ping>(row.word(slot), src)
    }

    /// Alg. 3 line 26: a triggered epoch pass that keeps `reclaim_freq`
    /// of the nodes it took implicates a delayed thread, and escalates on
    /// that set (module docs); a flush escalates on anything kept. What a
    /// triggered pass finally keeps, if under `reclaim_freq`, counts toward
    /// the next trigger: the next epoch pass falls due when the pool holds
    /// `reclaim_freq` nodes again, not after `reclaim_freq` new ones.
    fn after_sweep(e: &Epoch<Self>, tid: usize, scratch: &mut ReclaimScratch, cause: Cause) {
        let freq = e.base.cfg.reclaim_freq;
        let kept = node_count(&scratch.taken);
        let escalate = match cause {
            Cause::Trigger => kept >= freq,
            Cause::Flush => kept > 0,
        };
        if escalate {
            Self::escalate(e, tid, scratch);
        }
        let kept = node_count(&scratch.taken);
        if cause == Cause::Trigger && kept < freq {
            e.base.count_kept(kept);
        }
    }

    fn bind(e: &Epoch<Self>, tid: usize, gtid: usize) {
        e.lag.publish.bind(tid, gtid);
    }

    fn unregister(e: &Epoch<Self>, tid: usize) {
        e.lag.publish.unregister(tid);
    }
}

impl Ping {
    /// Alg. 3 lines 26–30: a HazardPtrPOP pass over the set the epoch
    /// pass took and kept. Reaping a dead participant here also unpins the
    /// epoch min-scan, which gates on `is_registered`.
    fn escalate(e: &Epoch<Self>, tid: usize, scratch: &mut ReclaimScratch) {
        publish_and_free(&Ptr, &e.lag.publish, &e.base, tid, scratch, |t| {
            // SAFETY: `tid`'s own list by ownership; a dead peer's after
            // `reap_one_dead` established exclusivity.
            unsafe { e.threads[t].retire.get() }
        });
    }
}

/// VBR's policy: the laggard aborts itself on its next read outside a
/// write phase.
pub struct Abort {
    /// Inside `begin_write`..`end_write`: version aborts are suppressed.
    in_write: Box<[CachePadded<AtomicBool>]>,
}

impl Abort {
    /// Lag check + re-announce: `Err(Restart)` (counting a version abort)
    /// when `tid`'s announcement had gone stale.
    #[inline]
    fn check_lag(e: &Epoch<Self>, tid: usize) -> Result<(), Restart> {
        let cur = e.clock.current();
        let mine = e.announced[tid].load(Ordering::Relaxed);
        if mine != QUIESCENT && cur.wrapping_sub(mine) >= VBR_MAX_LAG {
            // Stale: refresh the announcement so the retried operation
            // starts current, then abort the read.
            e.announced[tid].store(cur, Ordering::SeqCst);
            e.base
                .stats
                .shard(tid)
                .version_aborts
                .fetch_add(1, Ordering::Relaxed);
            return Err(Restart);
        }
        Ok(())
    }
}

impl Laggard for Abort {
    const NAME: &'static str = "VBR";
    const ROBUST: bool = false;
    const NEEDS_SIGNALS: bool = false;
    const RETIRE_TICK: bool = false;

    fn new(base: &DomainBase) -> Self {
        Abort {
            in_write: (0..base.cfg.max_threads)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
        }
    }

    #[inline]
    fn end_op(e: &Epoch<Self>, tid: usize) {
        e.lag.in_write[tid].store(false, Ordering::Relaxed);
    }

    /// Pre-protected by the announcement — but only while it is fresh.
    #[inline]
    fn protect<T>(
        e: &Epoch<Self>,
        row: &Row<'_>,
        _slot: usize,
        src: &AtomicPtr<T>,
    ) -> ReadResult<T> {
        Self::check_restart(e, row.tid())?;
        Ok(src.load(Ordering::Acquire))
    }

    #[inline]
    fn check_restart(e: &Epoch<Self>, tid: usize) -> Result<(), Restart> {
        if e.lag.in_write[tid].load(Ordering::Relaxed) {
            return Ok(());
        }
        Self::check_lag(e, tid)
    }

    /// The last abort window: once in the write phase, `tid` is not
    /// restarted until `end_write`.
    fn begin_write(e: &Epoch<Self>, tid: usize) -> Result<(), Restart> {
        Self::check_lag(e, tid)?;
        e.lag.in_write[tid].store(true, Ordering::Relaxed);
        Ok(())
    }

    fn end_write(e: &Epoch<Self>, tid: usize) {
        e.lag.in_write[tid].store(false, Ordering::Relaxed);
    }
}

/// IBR's policy: the announcement is an interval. The engine's word is
/// its lower bound, the epoch the operation began in; `upper` follows the
/// epoch of the operation's latest read. A node is freeable once its
/// `[birth, retire]` lifespan meets no announced interval, so a stalled
/// reader pins only what was born before its last read.
pub struct Interval {
    /// The interval's upper bound, [`QUIESCENT`] between operations.
    upper: Box<[CachePadded<AtomicU64>]>,
}

impl Laggard for Interval {
    const NAME: &'static str = "IBR";
    const ROBUST: bool = true;
    const NEEDS_SIGNALS: bool = false;

    fn new(base: &DomainBase) -> Self {
        Interval {
            upper: (0..base.cfg.max_threads)
                .map(|_| CachePadded::new(AtomicU64::new(QUIESCENT)))
                .collect(),
        }
    }

    /// Both bounds at the current epoch. The `SeqCst` store of the second
    /// orders the whole announcement before the operation's reads (one
    /// ordered store per operation, as for EBR).
    #[inline]
    fn announce(e: &Epoch<Self>, tid: usize) {
        let now = e.clock.current();
        e.announced[tid].store(now, Ordering::Relaxed);
        e.lag.upper[tid].store(now, Ordering::SeqCst);
    }

    #[inline]
    fn end_op(e: &Epoch<Self>, tid: usize) {
        e.lag.upper[tid].store(QUIESCENT, Ordering::Release);
    }

    /// The tagged read: raise `upper` (an ordered store) only when the
    /// epoch moved since the last one — hazard eras' amortization with one
    /// interval per thread — and re-read, so the interval covers the load
    /// that returns.
    #[inline]
    fn protect<T>(
        e: &Epoch<Self>,
        row: &Row<'_>,
        _slot: usize,
        src: &AtomicPtr<T>,
    ) -> ReadResult<T> {
        let upper = &e.lag.upper[row.tid()];
        let mut cur = upper.load(Ordering::Relaxed);
        loop {
            let p = src.load(Ordering::Acquire);
            let now = e.clock.current();
            if now == cur {
                return Ok(p);
            }
            upper.store(now, Ordering::SeqCst);
            cur = now;
        }
    }

    /// Interval versus lifespan, node by node. Unlike the default, a block
    /// retired at or after the floor is not kept whole: its members born
    /// after every live upper bound are free.
    unsafe fn sweep(
        e: &Epoch<Self>,
        tid: usize,
        list: &mut RetireList,
        scratch: &mut ReclaimScratch,
        _min: u64,
    ) {
        let intervals = &mut scratch.intervals;
        intervals.clear();
        for t in (0..e.base.cfg.max_threads).filter(|&t| e.base.is_registered(t)) {
            let lo = e.announced[t].load(Ordering::SeqCst);
            let hi = e.lag.upper[t].load(Ordering::SeqCst);
            if lo != QUIESCENT {
                intervals.push((lo, hi));
            }
        }
        let intervals = &*intervals;
        // SAFETY: a node whose lifespan meets no interval announced after
        // the pass's fence cannot have been acquired by any thread.
        unsafe {
            sweep_blocks(&e.base, tid, list, &mut scratch.taken, |b| {
                BlockPlan::Mask(keep_mask(b, |r| {
                    let (birth, retire) = (r.birth_era(), r.retire_era());
                    intervals
                        .iter()
                        .any(|&(lo, hi)| birth <= hi && retire >= lo)
                }))
            });
        }
    }
}

impl<L: Laggard> Epoch<L> {
    /// One epoch pass (module docs).
    fn pass(&self, tid: usize, cause: Cause) {
        let base = &self.base;
        // SAFETY: tid ownership per the registration contract.
        let scratch = unsafe { self.threads[tid].scratch.get() };
        // SAFETY: as above; the laggard's escalation borrows the list
        // afresh, after the sweep's last use of this borrow.
        let list = unsafe { self.threads[tid].retire.get() };
        // Take before the advance: a taken block's retire eras must
        // predate the announcement scan below.
        base.take(tid, list, &mut scratch.taken);
        let shard = base.stats.shard(tid);
        shard.epoch_passes.fetch_add(1, Ordering::Relaxed);
        // Advance first: what this thread retired since its last tick now
        // predates the epoch its next operation announces.
        self.clock.advance();
        // Order the announcement scan after this thread's preceding
        // unlinks.
        fence(Ordering::SeqCst);
        let min = scan_epoch_reservations(base, |t| self.announced[t].load(Ordering::SeqCst));
        shard.observe_retire_len(node_count(&scratch.taken));
        // SAFETY: a node retired before every announced epoch is
        // unreachable — every thread that could hold a reference has left
        // the operation it was in.
        unsafe { L::sweep(self, tid, list, scratch, min) };
        L::after_sweep(self, tid, scratch, cause);
        base.put_back(tid, &mut scratch.taken);
    }
}

impl<L: Laggard> Smr for Epoch<L> {
    const NAME: &'static str = L::NAME;
    const ROBUST: bool = L::ROBUST;
    const NEEDS_SIGNALS: bool = L::NEEDS_SIGNALS;

    fn new(cfg: SmrConfig) -> Arc<Self> {
        let base = DomainBase::new(cfg);
        let n = base.cfg.max_threads;
        let threads = (0..n)
            .map(|_| {
                CachePadded::new(ThreadState {
                    retire: RetireSlot::for_cfg(&base.cfg),
                    scratch: ScratchSlot::new(),
                })
            })
            .collect();
        Arc::new(Epoch {
            lag: L::new(&base),
            clock: EpochClock::new(),
            announced: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(QUIESCENT)))
                .collect(),
            threads,
            base,
        })
    }

    fn config(&self) -> &SmrConfig {
        &self.base.cfg
    }

    fn stats(&self) -> &DomainStats {
        &self.base.stats
    }

    fn bind_gtid(&self, tid: usize, gtid: usize) {
        L::bind(self, tid, gtid);
    }

    fn register_raw(&self, tid: usize) {
        self.base.claim(tid);
        self.announced[tid].store(QUIESCENT, Ordering::SeqCst);
    }

    fn unregister(&self, tid: usize) {
        // Leave any open operation first: the flush self-publishes, and a
        // quiescent owner publishes nothing.
        self.end_op(tid);
        self.flush(tid);
        // SAFETY: tid ownership until release.
        let list = unsafe { self.threads[tid].retire.get() };
        self.base.orphan_remaining(tid, list);
        L::unregister(self, tid);
        self.base.release(tid);
    }

    /// The announcement; no clock word is written.
    #[inline]
    fn begin_op(&self, tid: usize) {
        L::announce(self, tid);
    }

    #[inline]
    fn end_op(&self, tid: usize) {
        self.announced[tid].store(QUIESCENT, Ordering::Release);
        L::end_op(self, tid);
    }

    #[inline]
    fn protect<T>(&self, tid: usize, slot: usize, src: &AtomicPtr<T>) -> ReadResult<T> {
        self.protect_in(&self.row(tid), slot, src)
    }

    #[inline]
    fn row(&self, tid: usize) -> Row<'_> {
        Row::new(tid, L::row(self, tid))
    }

    #[inline]
    fn protect_in<T>(&self, row: &Row<'_>, slot: usize, src: &AtomicPtr<T>) -> ReadResult<T> {
        L::protect(self, row, slot, src)
    }

    fn check_restart(&self, tid: usize) -> Result<(), Restart> {
        L::check_restart(self, tid)
    }

    fn begin_write(&self, tid: usize, _protected: &[*mut Header]) -> Result<(), Restart> {
        L::begin_write(self, tid)
    }

    fn end_write(&self, tid: usize) {
        L::end_write(self, tid);
    }

    unsafe fn retire(&self, tid: usize, retired: Retired) {
        // SAFETY: tid ownership.
        let list = unsafe { self.threads[tid].retire.get() };
        match push_retired(&self.base, tid, list, retired) {
            Verdict::Fill => {}
            Verdict::Tick => {
                if L::RETIRE_TICK {
                    self.clock.advance();
                }
            }
            Verdict::Pass => self.pass(tid, Cause::Trigger),
        }
    }

    fn current_era(&self) -> u64 {
        self.clock.current()
    }

    fn flush(&self, tid: usize) {
        self.pass(tid, Cause::Flush);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PublishMode;
    use crate::header::HasHeader;
    use crate::smr::{alloc_node, retire_node};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[repr(C)]
    struct N {
        hdr: Header,
        v: u64,
    }
    unsafe impl HasHeader for N {}

    fn node<S: Smr>(smr: &S, v: u64) -> *mut N {
        let hdr = Header::new(smr.current_era(), core::mem::size_of::<N>());
        alloc_node(smr, 0, N { hdr, v })
    }

    /// Tid 0 runs `n` operations of one retire each.
    fn churn<S: Smr>(smr: &S, n: u64) {
        for i in 0..n {
            smr.begin_op(0);
            unsafe { retire_node(smr, 0, node(smr, i)) };
            smr.end_op(0);
        }
    }

    // -----------------------------------------------------------------
    // Shared scenarios, run over the aliases they apply to.
    // -----------------------------------------------------------------

    fn quiescent_single_thread_reclaims<S: Smr>() {
        let smr = S::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        churn(&*smr, 100);
        smr.flush(0);
        let s = smr.stats().snapshot();
        assert_eq!(s.retired_nodes, 100, "{}", S::NAME);
        assert!(
            s.freed_nodes >= 90,
            "{}: quiescent single thread frees nearly everything, freed = {}",
            S::NAME,
            s.freed_nodes
        );
        drop(reg);
    }

    #[test]
    fn single_thread_reclaims_after_quiescence() {
        quiescent_single_thread_reclaims::<Ebr>();
        quiescent_single_thread_reclaims::<EpochPop>();
        quiescent_single_thread_reclaims::<Vbr>();
        quiescent_single_thread_reclaims::<Ibr>();
    }

    /// The operation path writes no clock word: only retire ticks and
    /// passes move the epoch.
    fn op_path_writes_no_clock<L: Laggard>() {
        let smr = Epoch::<L>::new(SmrConfig::for_tests(2));
        let reg = smr.register(0);
        let e0 = smr.current_era();
        for _ in 0..1000 {
            smr.begin_op(0);
            smr.end_op(0);
        }
        assert_eq!(smr.current_era(), e0, "{}: ops moved the epoch", L::NAME);
        smr.flush(0);
        assert!(smr.current_era() > e0, "{}: a pass advances", L::NAME);
        drop(reg);
    }

    #[test]
    fn op_path_writes_no_clock_word() {
        op_path_writes_no_clock::<Wait>();
        op_path_writes_no_clock::<Ping>();
        op_path_writes_no_clock::<Abort>();
        op_path_writes_no_clock::<Interval>();
    }

    /// Epoch advances over `retires` unbatched retires, none of which
    /// reaches a pass (`reclaim_freq` 64): every retire seals, so each is
    /// a tick.
    fn epoch_steps<L: Laggard>(retires: u64) -> u64 {
        let smr = Epoch::<L>::new(SmrConfig::for_tests(2).with_retire_batch(1));
        let reg = smr.register(0);
        let e0 = smr.current_era();
        churn(&*smr, retires);
        let steps = smr.current_era() - e0;
        assert_eq!(smr.stats().snapshot().epoch_passes, 0, "no pass ran");
        smr.flush(0);
        drop(reg);
        steps
    }

    #[test]
    fn every_seal_advances_the_epoch_once() {
        assert_eq!(epoch_steps::<Wait>(8), 8);
        assert_eq!(epoch_steps::<Ping>(63), 63);
        assert_eq!(epoch_steps::<Interval>(15), 15);
        assert_eq!(epoch_steps::<Abort>(63), 0, "VBR opts out");
    }

    #[test]
    fn an_epoch_pass_keeps_one_block_under_its_own_announcement() {
        let cfg = SmrConfig::for_tests(1).with_reclaim_freq(1024);
        crate::schemes::assert_own_pass_keeps_one_block::<Ibr>(cfg.clone());
        crate::schemes::assert_own_pass_keeps_one_block::<Ebr>(cfg.clone());
        crate::schemes::assert_own_pass_keeps_one_block::<EpochPop>(cfg);
    }

    // -----------------------------------------------------------------
    // Wait (EBR): a stalled reader pins everything.
    // -----------------------------------------------------------------

    #[test]
    fn stalled_reader_blocks_reclamation() {
        let smr = Ebr::new(SmrConfig::for_tests(2));
        let reg0 = smr.register(0);
        let stalled = std::thread::spawn({
            let smr = Arc::clone(&smr);
            move || {
                let reg1 = smr.register(1);
                smr.begin_op(1); // enter and never leave
                std::thread::sleep(Duration::from_millis(300));
                smr.end_op(1);
                drop(reg1);
            }
        });
        std::thread::sleep(Duration::from_millis(50));
        // Reader parked in an old epoch: nothing retired after its entry
        // may be freed.
        let freed_before = smr.stats().snapshot().freed_nodes;
        churn(&*smr, 500);
        smr.flush(0);
        assert_eq!(
            smr.stats().snapshot().freed_nodes,
            freed_before,
            "EBR must not free past a stalled reader (the robustness gap)"
        );
        stalled.join().unwrap();
        smr.flush(0);
        assert!(
            smr.stats().snapshot().freed_nodes > freed_before,
            "after the reader leaves, garbage drains"
        );
        drop(reg0);
    }

    #[test]
    fn barren_triggers_still_run_full_passes() {
        let smr = Ebr::new(
            SmrConfig::for_tests(2)
                .with_reclaim_freq(32)
                .with_retire_batch(1),
        );
        let reg0 = smr.register(0);
        let reg1 = smr.register(1);
        smr.begin_op(1); // stalled reader: every pass is barren
        let triggers = 16u64;
        churn(&*smr, 32 * triggers);
        let s = smr.stats().snapshot();
        assert_eq!(s.freed_nodes, 0, "everything pinned by the reader");
        assert_eq!(
            s.epoch_passes, triggers,
            "nothing thins a barren domain's passes"
        );
        smr.end_op(1);
        smr.flush(0);
        drop(reg1);
        drop(reg0);
    }

    // -----------------------------------------------------------------
    // Ping (EpochPOP): epochs first, publish-on-ping when delayed.
    // -----------------------------------------------------------------

    #[test]
    fn epoch_mode_reclaims_without_signals() {
        let smr = EpochPop::new(SmrConfig::for_tests(1).with_reclaim_freq(16));
        let reg = smr.register(0);
        churn(&*smr, 200);
        let s = smr.stats().snapshot();
        assert!(s.epoch_passes >= 1, "epoch fast path ran");
        assert_eq!(
            s.pings_sent, 0,
            "undelayed workload must never escalate to signals — the \
             paper's headline property of EpochPOP"
        );
        assert!(s.freed_nodes > 0);
        drop(reg);
    }

    #[test]
    fn stalled_thread_triggers_pop_escalation_and_bounded_garbage() {
        // Signal path pinned — the escalation assertion counts pings.
        let cfg = SmrConfig::for_tests(2)
            .with_reclaim_freq(16)
            .with_publish_mode(PublishMode::Futex);
        let smr = EpochPop::new(cfg);
        let reg0 = smr.register(0);
        let hot = node(&*smr, 9);
        let src = Arc::new(AtomicPtr::new(hot));
        let hold = Arc::new(AtomicBool::new(true));
        let (tx, rx) = std::sync::mpsc::channel();
        let stalled = std::thread::spawn({
            let smr = Arc::clone(&smr);
            let src = Arc::clone(&src);
            let hold = Arc::clone(&hold);
            move || {
                let reg1 = smr.register(1);
                smr.begin_op(1); // announce an epoch and never advance
                let p = smr.protect(1, 0, &src).unwrap();
                tx.send(()).unwrap();
                while hold.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                // The protected node must still be readable even though
                // thousands of epoch-mode frees were blocked and POP
                // reclaimed around us.
                assert_eq!(unsafe { (*p).v }, 9);
                smr.end_op(1);
                drop(reg1);
            }
        });
        rx.recv().unwrap();
        src.store(core::ptr::null_mut(), Ordering::SeqCst);
        unsafe { retire_node(&*smr, 0, hot) };
        churn(&*smr, 4000);
        let s = smr.stats().snapshot();
        assert!(s.pop_passes >= 1, "stall must engage publish-on-ping");
        assert!(s.pings_sent >= 1);
        let cfg = smr.config();
        let bound = (cfg.reclaim_freq + cfg.max_threads * cfg.slots) as u64;
        assert!(
            s.unreclaimed_nodes() <= bound,
            "garbage {} exceeds EpochPOP bound {} despite stalled reader",
            s.unreclaimed_nodes(),
            bound
        );
        hold.store(false, Ordering::Release);
        stalled.join().unwrap();
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg0);
    }

    /// Allocates and retires one node as `tid`.
    fn retire_one<S: Smr>(smr: &S, tid: usize, v: u64) {
        let hdr = Header::new(smr.current_era(), core::mem::size_of::<N>());
        let p = alloc_node(smr, tid, N { hdr, v });
        unsafe { retire_node(smr, tid, p) };
    }

    /// Spawns a thread that registers as `tid`, retires `retires` nodes,
    /// enters an operation if `in_op`, and parks until the returned sender
    /// fires (pings still land). Returns once it is parked.
    fn parked(
        smr: &Arc<EpochPop>,
        tid: usize,
        in_op: bool,
        retires: u64,
    ) -> (std::thread::JoinHandle<()>, std::sync::mpsc::Sender<()>) {
        let smr = Arc::clone(smr);
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::spawn(move || {
            let reg = smr.register(tid);
            for i in 0..retires {
                retire_one(&*smr, tid, i);
            }
            if in_op {
                smr.begin_op(tid);
            }
            ready_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            smr.end_op(tid);
            drop(reg);
        });
        ready_rx.recv().unwrap();
        (h, go_tx)
    }

    #[test]
    fn escalation_holds_the_bound_between_triggers() {
        // Every trigger whose epoch pass keeps `reclaim_freq` of what it
        // took behind a pinned epoch escalates on that set: whichever
        // thread retires, the pool never holds more than `reclaim_freq`
        // (+ seal slack) after a retire returns.
        let smr = EpochPop::new(
            SmrConfig::for_tests(3)
                .with_reclaim_freq(64)
                .with_retire_batch(1),
        );
        let cfg = smr.config();
        // One block of seal slack; unbatched, so the fill bins stay empty.
        let bound = cfg.reclaim_freq + cfg.effective_batch();
        let reg0 = smr.register(0);
        // 1. tid 0 enters an operation and retires 10 nodes.
        smr.begin_op(0);
        for i in 0..10 {
            retire_one(&*smr, 0, i);
        }
        // 2. tid 2 retires 64 nodes behind tid 0's open operation: the
        //    domain's 64th retire is its 54th, whose epoch pass frees none
        //    of the 64 it took, so it escalates; 10 stay pooled.
        let (t2, go2) = parked(&smr, 2, false, 64);
        assert_eq!(smr.base.pool_len(), 10, "tid 2's last ten");
        assert_eq!(smr.stats().snapshot().pop_passes, 1, "tid 2 escalated");
        // 3. tid 1 enters an operation and parks.
        let (t1, go1) = parked(&smr, 1, true, 0);
        // 4. tid 0 retires 54 nodes, then leaves its operation; 5. it
        //    retires on to 200 nodes. Triggers fall at the domain's 128th,
        //    192nd and 256th retire, and every epoch pass is barren.
        let mut peak = 0;
        for i in 10..200 {
            if i == 64 {
                smr.end_op(0);
            }
            retire_one(&*smr, 0, i);
            peak = peak.max(smr.base.pool_len());
        }
        assert!(peak <= bound, "the pool held {peak} nodes, over {bound}");
        assert_eq!(smr.stats().snapshot().pop_passes, 4, "one per trigger");
        go1.send(()).unwrap();
        go2.send(()).unwrap();
        t1.join().unwrap();
        t2.join().unwrap();
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg0);
    }

    #[test]
    fn a_reader_pinning_part_of_a_pass_set_is_escalated_past_at_the_next() {
        // The reader parks half-way through a pass period, so the trigger's
        // epoch pass frees the half retired before its epoch and keeps the
        // rest, short of `reclaim_freq`: no escalation. Those survivors
        // count toward the next trigger, which therefore falls due when
        // the pool holds `reclaim_freq` nodes again — and escalates.
        let smr = EpochPop::new(
            SmrConfig::for_tests(2)
                .with_reclaim_freq(64)
                .with_retire_batch(1)
                .with_publish_mode(PublishMode::Futex),
        );
        let reg0 = smr.register(0);
        for i in 0..32 {
            retire_one(&*smr, 0, i);
        }
        let (t1, go1) = parked(&smr, 1, true, 0);
        let mut peak = 0;
        for i in 32..256 {
            retire_one(&*smr, 0, i);
            peak = peak.max(smr.base.pool_len());
        }
        assert!(peak <= 64, "the pool held {peak} nodes, over reclaim_freq");
        let s = smr.stats().snapshot();
        assert_eq!(s.freed_nodes, 32 + 192, "the escalations free the rest");
        go1.send(()).unwrap();
        t1.join().unwrap();
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg0);
    }

    #[test]
    fn parked_reader_costs_one_escalation_per_reclaim_freq_retires() {
        // A reader parked inside an operation makes every epoch pass
        // barren. Each trigger's pass then escalates once, on the set it
        // took, and the escalation frees all of it.
        let smr = EpochPop::new(
            SmrConfig::for_tests(2)
                .with_reclaim_freq(64)
                .with_retire_batch(1)
                .with_publish_mode(PublishMode::Futex),
        );
        let reg0 = smr.register(0);
        let (t1, go1) = parked(&smr, 1, true, 0);
        let triggers = 20u64;
        for i in 0..64 * triggers {
            retire_one(&*smr, 0, i);
        }
        let s = smr.stats().snapshot();
        assert_eq!(s.epoch_passes, triggers, "one epoch pass per trigger");
        assert_eq!(s.pop_passes, triggers, "one escalation per trigger");
        assert_eq!(s.freed_nodes, 64 * triggers, "each escalation frees all");
        assert!(
            s.pings_sent >= triggers,
            "every escalation pings the reader"
        );
        go1.send(()).unwrap();
        t1.join().unwrap();
        drop(reg0);
    }

    #[test]
    fn pinned_list_escalates_once_per_trigger_not_per_seal() {
        // `reclaim_freq` 4 ≤ N × H = 16: the parked reader's reservations
        // can pin the whole threshold. Escalations that free nothing of
        // those 8 nodes must then wait for the trigger, every 4 retires,
        // instead of pinging at every seal.
        let smr = EpochPop::new(
            SmrConfig::for_tests(2)
                .with_reclaim_freq(4)
                .with_retire_batch(1)
                .with_publish_mode(PublishMode::Futex),
        );
        let reg0 = smr.register(0);
        let pinned: Vec<*mut N> = (0..8).map(|i| node(&*smr, i)).collect();
        let srcs: Arc<Vec<AtomicPtr<N>>> =
            Arc::new(pinned.iter().map(|&p| AtomicPtr::new(p)).collect());
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let reader = std::thread::spawn({
            let smr = Arc::clone(&smr);
            let srcs = Arc::clone(&srcs);
            move || {
                let reg1 = smr.register(1);
                smr.begin_op(1);
                for (slot, src) in srcs.iter().enumerate() {
                    smr.protect(1, slot, src).unwrap();
                }
                ready_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                smr.end_op(1);
                drop(reg1);
            }
        });
        ready_rx.recv().unwrap();
        for (src, &p) in srcs.iter().zip(&pinned) {
            src.store(core::ptr::null_mut(), Ordering::SeqCst);
            unsafe { retire_node(&*smr, 0, p) };
        }
        let fresh = 64;
        for i in 0..fresh {
            retire_one(&*smr, 0, i);
        }
        let s = smr.stats().snapshot();
        let retires = pinned.len() as u64 + fresh;
        assert_eq!(s.pop_passes, retires / 4, "one escalation per trigger");
        assert!(
            s.pings_sent <= s.pop_passes,
            "{} pings over {retires} retires",
            s.pings_sent
        );
        assert_eq!(smr.base.pool_len(), pinned.len(), "the reserved 8 survive");
        go_tx.send(()).unwrap();
        reader.join().unwrap();
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg0);
    }

    #[test]
    fn idle_reader_pinged_after_end_op_pins_nothing() {
        use crate::pop_shared::testing::pinged_mid_op_keeps_node_then_idle_ping_publishes_nothing;
        pinged_mid_op_keeps_node_then_idle_ping_publishes_nothing(|smr: &EpochPop| {
            smr.lag.publish.pop
        });
    }

    #[test]
    fn flush_drains_via_both_modes() {
        let smr = EpochPop::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        smr.begin_op(0);
        for i in 0..10 {
            unsafe { retire_node(&*smr, 0, node(&*smr, i)) };
        }
        // Still inside an op: the epoch pass can't free everything, the
        // flush escalates to POP, which skips only the (empty) reserved
        // set.
        smr.end_op(0);
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg);
    }

    // -----------------------------------------------------------------
    // Abort (VBR): the laggard restarts itself; passes bump the version.
    // -----------------------------------------------------------------

    #[test]
    fn stalled_reader_aborts_and_unpins_on_next_read() {
        // Every retire trigger runs a full pass, so the version advances
        // deterministically past VBR_MAX_LAG.
        let smr = Vbr::new(SmrConfig::for_tests(2));
        let reg0 = smr.register(0);
        let reg1 = smr.register(1);
        // Reader enters at the current version and stalls.
        smr.begin_op(1);
        let slot = AtomicPtr::new(core::ptr::null_mut::<N>());
        assert!(
            smr.protect(1, 0, &slot).is_ok(),
            "fresh announcement must not abort"
        );
        // Writer churns: every full pass bumps the version. The parked
        // announcement pins the backlog retired after the pin.
        churn(&*smr, 2000);
        smr.flush(0);
        let s1 = smr.stats().snapshot();
        assert!(
            s1.unreclaimed_nodes() > 0,
            "a parked announcement is honored until the reader's next read"
        );
        // The stalled reader's next read aborts with a version restart —
        // and the abort itself re-announces a fresh version.
        assert!(
            smr.protect(1, 0, &slot).is_err(),
            "stale announcement must version-abort"
        );
        assert!(smr.stats().snapshot().version_aborts >= 1);
        // The retry proceeds, and the refreshed announcement unpins the
        // backlog: one read by the laggard is the whole ping.
        assert!(smr.protect(1, 0, &slot).is_ok(), "retry runs current");
        smr.flush(0);
        assert!(
            smr.stats().snapshot().freed_nodes > s1.freed_nodes,
            "the backlog drains as soon as the laggard reads once"
        );
        smr.end_op(1);
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg1);
        drop(reg0);
    }

    #[test]
    fn write_phase_suppresses_version_aborts() {
        let smr = Vbr::new(SmrConfig::for_tests(2));
        let reg0 = smr.register(0);
        let reg1 = smr.register(1);
        smr.begin_op(1);
        assert!(smr.begin_write(1, &[]).is_ok());
        churn(&*smr, 2000);
        let slot = AtomicPtr::new(core::ptr::null_mut::<N>());
        assert!(
            smr.protect(1, 0, &slot).is_ok(),
            "writers are never restarted mid-write-phase"
        );
        assert!(smr.check_restart(1).is_ok());
        smr.end_write(1);
        // Outside the write phase the stale announcement aborts again.
        assert!(smr.protect(1, 0, &slot).is_err());
        smr.end_op(1);
        drop(reg1);
        drop(reg0);
    }

    #[test]
    fn reclamation_is_a_version_bump() {
        let smr = Vbr::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        let v0 = smr.current_era();
        // The op path alone never moves the version word.
        for _ in 0..64 {
            smr.begin_op(0);
            smr.end_op(0);
        }
        assert_eq!(smr.current_era(), v0, "ops do not bump the version");
        smr.flush(0);
        assert!(
            smr.current_era() > v0,
            "a reclamation pass is exactly a version bump"
        );
        drop(reg);
    }

    // -----------------------------------------------------------------
    // Interval (IBR): a stalled reader pins only what its interval meets.
    // -----------------------------------------------------------------

    #[test]
    fn quiescent_thread_blocks_nothing() {
        let smr = Ibr::new(SmrConfig::for_tests(2).with_reclaim_freq(8));
        let reg0 = smr.register(0);
        let reg1 = smr.register(1); // registered but quiescent
        churn(&*smr, 32);
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg1);
        drop(reg0);
    }

    #[test]
    fn old_interval_blocks_intersecting_nodes() {
        let smr = Ibr::new(SmrConfig::for_tests(2).with_reclaim_freq(4));
        let reg0 = smr.register(0);
        let reg1 = smr.register(1);
        // Thread 1 opens an interval at the current epoch and stays in-op.
        smr.begin_op(1);
        let hot = node(&*smr, 7);
        let src = AtomicPtr::new(hot);
        let _ = smr.protect(1, 0, &src).unwrap();
        // Thread 0 retires `hot`: its lifespan meets t1's interval, so it
        // must be retained.
        src.store(core::ptr::null_mut(), Ordering::SeqCst);
        unsafe { retire_node(&*smr, 0, hot) };
        churn(&*smr, 8);
        smr.flush(0);
        assert!(smr.stats().snapshot().unreclaimed_nodes() >= 1);
        // Thread 1 leaves; everything drains.
        smr.end_op(1);
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg1);
        drop(reg0);
    }

    #[test]
    fn interval_extends_on_epoch_change() {
        let smr = Ibr::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        smr.begin_op(0);
        let lo0 = smr.announced[0].load(Ordering::SeqCst);
        // Advance the epoch underneath the running op, as retire ticks
        // and passes do.
        for _ in 0..5 {
            smr.clock.advance();
        }
        let src = AtomicPtr::new(core::ptr::null_mut::<N>());
        let _ = smr.protect(0, 0, &src).unwrap();
        let hi = smr.lag.upper[0].load(Ordering::SeqCst);
        assert!(hi >= lo0 + 5, "upper bound must chase the epoch");
        assert_eq!(smr.announced[0].load(Ordering::SeqCst), lo0, "lower pinned");
        smr.end_op(0);
        drop(reg);
    }

    /// A reader enters, protects a node and stays in its operation; the
    /// writer then moves the epoch past the reader's upper bound and
    /// allocates, retires and flushes 16 nodes. Returns how many of them
    /// were freed.
    fn freed_past_stalled_reader<L: Laggard>() -> u64 {
        let smr = Epoch::<L>::new(SmrConfig::for_tests(2));
        let reg0 = smr.register(0);
        let reg1 = smr.register(1);
        let hot = node(&*smr, 7);
        let src = AtomicPtr::new(hot);
        smr.begin_op(1);
        assert_eq!(smr.protect(1, 0, &src).unwrap(), hot);
        smr.flush(0); // the pass advances the epoch
        assert!(smr.current_era() > smr.announced[1].load(Ordering::SeqCst));
        let before = smr.stats().snapshot().freed_nodes;
        churn(&*smr, 16);
        smr.flush(0);
        let freed = smr.stats().snapshot().freed_nodes - before;
        assert_eq!(unsafe { (*hot).v }, 7, "the reader's node is untouched");
        smr.end_op(1);
        src.store(core::ptr::null_mut(), Ordering::SeqCst);
        unsafe { retire_node(&*smr, 0, hot) };
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg1);
        drop(reg0);
        freed
    }

    #[test]
    fn interval_frees_past_a_stalled_reader_and_epochs_do_not() {
        assert_eq!(
            freed_past_stalled_reader::<Interval>(),
            16,
            "IBR frees what was born after every live upper bound"
        );
        assert_eq!(
            freed_past_stalled_reader::<Wait>(),
            0,
            "EBR's floor is the stalled reader's epoch"
        );
    }
}
