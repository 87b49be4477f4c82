//! The hazard engine: HP, HPAsym, HazardPtrPOP, HE and HazardEraPOP are one
//! generic domain, [`Hazard<K, P>`] (paper §2.1, §4.1 and Appendix B).
//!
//! Publish-on-ping transforms hazard pointers and hazard eras in exactly
//! one respect: *how a reservation becomes visible* to a reclaimer. That is
//! the publisher `P`; *what* is reserved is the kind `K`. Retire and the
//! pass are the shared driver's (`crate::pass`), over `Hooks<K, P>`.
//!
//! | alias | `Smr::NAME` | kind | publisher | per-read reserve (into the traversal's row) | visibility step |
//! |-------|-------------|------|-----------|------------------|---------------|
//! | [`HazardPtr`] | `HP` | [`Ptr`] | [`Fence`] | Release store to the shared row + `SeqCst` fence | one fence |
//! | [`HazardPtrAsym`] | `HPAsym` | [`Ptr`] | [`Asym`] | relaxed store to the shared row | one `membarrier(2)` |
//! | [`HazardPtrPop`] | `HazardPtrPOP` | [`Ptr`] | [`Ping`] | relaxed store to the private row | ping, wait for publishes |
//! | [`HazardEra`] | `HE` | [`Era`] | [`Fence`] | as HP, only when the era moved | one fence |
//! | [`HazardEraPop`] | `HazardEraPOP` | [`Era`] | [`Ping`] | as HazardPtrPOP, only when the era moved | ping, wait for publishes |
//!
//! **Rows.** A traversal resolves its owner-side row once
//! (`Smr::row`: the publisher's `Publish::row`) and every read after
//! that reserves into `row[slot]` (`Smr::protect_in`), so the read is the
//! kind's load → reserve → validate and nothing else: no walk from the
//! domain to the row, whose dependent loads the reserve's compiler fence
//! would otherwise pin inside the loop. `protect(tid, …)` is the same read
//! through a row resolved on the spot.
//!
//! **Kinds.** [`Ptr`] reserves the unmarked pointer: `protect` is load →
//! reserve → validate, and a pass frees every record no reserved word
//! names. [`Era`] reserves the domain's era: `protect` reserves only when
//! the era differs from the slot's word, passes and retire ticks advance
//! the era (`crate::base`), and a record is freed when no reserved era
//! meets its `[birth, retire]` lifespan. A parked reader holds the
//! domain's garbage below `reclaim_freq` + one block + the open fill bins
//! of each retiring thread, plus the nodes alive at its era.
//!
//! **Publishers.** [`Fence`] is the eager baseline: the owner's row is the
//! shared row, every reserve fences, and `end_op` zeroes the row. [`Ping`]
//! is the paper's contribution: reserves are private relaxed stores that
//! the owner's signal handler publishes when a reclaimer pings it
//! (`PopShared`, in the mode `SmrConfig::resolved_publish_mode` picks).
//! [`Asym`] is the same `PopShared` always built in its membarrier mode —
//! Folly's asymmetric fence: relaxed stores straight to the shared slots
//! and one process-wide barrier per pass. Where that barrier is unavailable
//! or fails, the domain downgrades stickily to the signal fan-out.
//!
//! Robustness (paper Property 3): a pointer pass exempts at most `N × H`
//! nodes (threads × slots), and passes fall due every `reclaim_freq`
//! retires domain-wide, so the domain's garbage stays below
//! `reclaim_freq + N × H` plus the retiring threads' open fill bins. Every
//! alias is monomorphized: no dispatch.

// The kind and publisher traits are crate-internal; the five aliases are
// the public surface.
#![allow(private_bounds)]

use core::sync::atomic::{compiler_fence, fence, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use pop_runtime::signal::register_publisher;
use pop_runtime::PublisherHandle;

use crate::base::{free_era_unreserved, free_unreserved, DomainBase};
use crate::config::{PublishMode, SmrConfig};
use crate::header::{unmark_word, Retired};
use crate::pass::{self, Cause, Engine, Pass};
use crate::pop_shared::{PopShared, Rows};
use crate::smr::{ReadResult, Row, Smr};
use crate::stats::DomainStats;

/// `HP` — classic hazard pointers (Michael 2004; paper §2.1): a fence on
/// every read, the overhead publish-on-ping removes.
pub type HazardPtr = Hazard<Ptr, Fence>;
/// `HPAsym` — hazard pointers with an asymmetric process-wide barrier (the
/// Folly / `membarrier(2)` design the paper benchmarks).
pub type HazardPtrAsym = Hazard<Ptr, Asym>;
/// **`HazardPtrPOP`** — hazard pointers that publish reservations on ping
/// (paper §4.1, Algorithms 1–2).
pub type HazardPtrPop = Hazard<Ptr, Ping>;
/// `HE` — hazard eras with fenced era publication (Ramalhete & Correia
/// 2017; paper Appendix B.1, Algorithm 4).
pub type HazardEra = Hazard<Era, Fence>;
/// **`HazardEraPOP`** — hazard eras that publish on ping (paper Appendix
/// B.2, Algorithm 5).
pub type HazardEraPop = Hazard<Era, Ping>;

/// What a reservation word names (module docs, "Kinds").
pub(crate) trait Kind: Send + Sync + 'static {
    /// Whether the word is an era: picks the scheme name.
    const ERA: bool;

    /// The kind's domain-wide state.
    fn new() -> Self;

    /// The paper's `read()` of `src`, reserving in `cell` — a word of the
    /// caller's row, resolved before the read.
    fn protect<T, P: Publish>(&self, cell: &AtomicU64, src: &AtomicPtr<T>) -> ReadResult<T>;

    /// Runs first in every pass, before reservations are made visible,
    /// and on every retire tick.
    fn advance(&self) {}

    /// The pass's sweep: frees what the scan's `reserved` words leave
    /// unprotected of what the pass took.
    ///
    /// # Safety
    ///
    /// `p.scratch.reserved` holds every word a reader may still rely on.
    unsafe fn sweep(&self, p: &mut Pass);

    /// The era allocations are birth-tagged with (`0` for pointers).
    fn current_era(&self) -> u64 {
        0
    }
}

/// How a reservation becomes visible to a reclaimer (module docs,
/// "Publishers").
pub(crate) trait Publish: Send + Sync + 'static {
    /// Whether participants must be signalable.
    const NEEDS_SIGNALS: bool;
    /// `Smr::NAME` with the pointer kind and with the era kind.
    const NAMES: [&'static str; 2];

    /// The publisher's state for `base`'s domain.
    fn new(base: &DomainBase) -> Self;

    /// The row `tid`'s owner reserves in: `cfg.slots` words.
    fn row(&self, tid: usize) -> &[AtomicU64];

    /// Stores `word` into a word of the owner's row, ordered before the
    /// caller's validation load.
    fn reserve(cell: &AtomicU64, word: u64);

    /// Operation prologue.
    #[inline]
    fn begin_op(&self, _tid: usize) {}

    /// Operation epilogue — the paper's `clear()`.
    fn end_op(&self, tid: usize);

    /// Runs right after `tid` is claimed.
    fn register(&self, _tid: usize) {}

    /// Runs when `tid` is bound to signalable thread `gtid`.
    fn bind(&self, _tid: usize, _gtid: usize) {}

    /// Runs just before `tid` is released.
    fn unregister(&self, _tid: usize) {}

    /// The pass's visibility step: makes every reservation visible to the
    /// reclaimer's scan, then reaps at most one confirmed-dead participant.
    fn make_visible(&self, p: &mut Pass);

    /// The pass's scan: the visible reservations of every registered
    /// thread, into `p.scratch.reserved`, sorted and deduplicated.
    fn scan(&self, p: &mut Pass);
}

/// A hazard-pointer or hazard-era domain: `K` says what a reservation word
/// names, `P` how it becomes visible to a reclaimer. Use it through the
/// five aliases (module docs).
pub struct Hazard<K: Kind, P: Publish> {
    // First, so a publisher's signal dispatch stops before anything else
    // of the domain is torn down.
    pub(crate) hooks: Hooks<K, P>,
    base: DomainBase,
}

/// A reservation pass's hooks (`crate::pass`): the kind advances and sweeps,
/// the publisher makes visible and scans. Also EpochPOP's escalation.
pub(crate) struct Hooks<K, P> {
    pub(crate) publish: P,
    pub(crate) kind: K,
}

impl<K: Kind, P: Publish> Engine for Hooks<K, P> {
    /// A tick is not a pass: the era moves, nothing is published.
    #[inline]
    fn tick(&self) {
        self.kind.advance();
    }

    fn advance(&self, _p: &mut Pass) {
        self.kind.advance();
    }

    fn make_visible(&self, p: &mut Pass) -> bool {
        self.publish.make_visible(p);
        true
    }

    fn scan(&self, p: &mut Pass) {
        self.publish.scan(p);
    }

    unsafe fn sweep(&self, p: &mut Pass) {
        // SAFETY: the driver ran phases 1–4, so `reserved` is complete.
        unsafe { self.kind.sweep(p) }
    }
}

/// Reservation words are unmarked pointers.
pub struct Ptr;

impl Kind for Ptr {
    const ERA: bool = false;

    fn new() -> Self {
        Ptr
    }

    /// Alg. 1 `read()`: load, reserve, validate.
    #[inline]
    fn protect<T, P: Publish>(&self, cell: &AtomicU64, src: &AtomicPtr<T>) -> ReadResult<T> {
        loop {
            let p = src.load(Ordering::Acquire);
            P::reserve(cell, unmark_word(p as u64));
            if src.load(Ordering::Acquire) == p {
                return Ok(p);
            }
        }
    }

    unsafe fn sweep(&self, p: &mut Pass) {
        let taken = &mut p.scratch.taken;
        // SAFETY: forwarded contract — `reserved` names every pointer a
        // reader may still dereference.
        unsafe { free_unreserved(p.base, p.tid, p.list, taken, &p.scratch.reserved) };
    }
}

/// Reservation words are eras of the domain's era clock.
pub struct Era {
    /// The global era, starting at 1 (0 is the empty word).
    era: CachePadded<AtomicU64>,
}

impl Kind for Era {
    const ERA: bool = true;

    fn new() -> Self {
        Era {
            era: CachePadded::new(AtomicU64::new(1)),
        }
    }

    /// Alg. 4/5 `read()`: no store at all while the slot already holds the
    /// current era (left by this operation or an earlier one).
    #[inline]
    fn protect<T, P: Publish>(&self, cell: &AtomicU64, src: &AtomicPtr<T>) -> ReadResult<T> {
        let mut prev = cell.load(Ordering::Relaxed);
        loop {
            let p = src.load(Ordering::Acquire);
            let e = self.era.load(Ordering::Acquire);
            if e == prev {
                return Ok(p);
            }
            P::reserve(cell, e);
            prev = e;
        }
    }

    /// Alg. 4 line 21: nodes retired from now on get lifespans disjoint
    /// from long-held reservations, and no reservation made after a
    /// pass's publish can cover the nodes it frees.
    fn advance(&self) {
        self.era.fetch_add(1, Ordering::AcqRel);
    }

    unsafe fn sweep(&self, p: &mut Pass) {
        let taken = &mut p.scratch.taken;
        // SAFETY: forwarded contract — a node whose lifespan misses every
        // reserved era is unreachable.
        unsafe { free_era_unreserved(p.base, p.tid, p.list, taken, &p.scratch.reserved) };
    }

    fn current_era(&self) -> u64 {
        self.era.load(Ordering::Acquire)
    }
}

/// The eager publisher (HP, HE): the owner's row is the shared row.
pub struct Fence {
    /// `sharedReservations[tid][slot]`, stored to on every reserve.
    pub(crate) rows: Rows,
}

impl Publish for Fence {
    const NEEDS_SIGNALS: bool = false;
    const NAMES: [&'static str; 2] = ["HP", "HE"];

    fn new(base: &DomainBase) -> Self {
        Fence {
            rows: Rows::new(base.cfg.max_threads, base.cfg.slots),
        }
    }

    #[inline(always)]
    fn row(&self, tid: usize) -> &[AtomicU64] {
        self.rows.row(tid)
    }

    /// The fence every read pays in classic HP (paper §2.1.1 step 2): the
    /// reservation is visible before the validation re-read.
    #[inline(always)]
    fn reserve(cell: &AtomicU64, word: u64) {
        cell.store(word, Ordering::Release);
        fence(Ordering::SeqCst);
    }

    #[inline]
    fn end_op(&self, tid: usize) {
        for cell in self.rows.row(tid) {
            cell.store(0, Ordering::Release);
        }
    }

    fn register(&self, tid: usize) {
        self.end_op(tid);
    }

    /// Orders the scan after this thread's unlinks (pairs with the
    /// readers' per-read fences). Nothing to reap: without pings or probes
    /// nothing ever confirms a death.
    fn make_visible(&self, _p: &mut Pass) {
        fence(Ordering::SeqCst);
    }

    fn scan(&self, p: &mut Pass) {
        let out = &mut p.scratch.reserved;
        out.clear();
        for t in 0..p.base.cfg.max_threads {
            if p.base.is_registered(t) {
                self.rows.push_words(t, out);
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// The publishers over one leaked `PopShared`: [`Ping`] runs it in the
/// mode the config resolves, [`Asym`] always in membarrier mode.
pub struct Pop<const ASYM: bool> {
    /// Leaked shared state reachable from the signal handler.
    pub(crate) pop: &'static PopShared,
    publisher: PublisherHandle,
}

/// HazardPtrPOP's and HazardEraPOP's publisher: publish on ping.
pub type Ping = Pop<false>;

/// HPAsym's publisher: `PopShared`'s membarrier mode, always on.
pub type Asym = Pop<true>;

impl<const ASYM: bool> Publish for Pop<ASYM> {
    // Asym needs them too: its fallback is the signal fan-out.
    const NEEDS_SIGNALS: bool = true;
    const NAMES: [&'static str; 2] = if ASYM {
        ["HPAsym", "HEAsym"]
    } else {
        ["HazardPtrPOP", "HazardEraPOP"]
    };

    fn new(base: &DomainBase) -> Self {
        let membarrier = ASYM || base.cfg.resolved_publish_mode() == PublishMode::Membarrier;
        let pop = PopShared::for_domain(base, membarrier);
        Pop {
            publisher: register_publisher(pop),
            pop,
        }
    }

    /// `PopShared::owner`'s row: the private one under the signal modes,
    /// the shared one in membarrier mode.
    #[inline(always)]
    fn row(&self, tid: usize) -> &[AtomicU64] {
        self.pop.owner.row(tid)
    }

    /// Alg. 1 line 12, "no store load fence needed": the `compiler_fence`
    /// pins program order in codegen but emits no instruction — the ping
    /// (or the reclaimer's heavy barrier) is the synchronization point.
    #[inline(always)]
    fn reserve(cell: &AtomicU64, word: u64) {
        cell.store(word, Ordering::Relaxed);
        compiler_fence(Ordering::SeqCst);
    }

    /// Activity word → odd, so reclaimers ping us (the quiescent filter);
    /// its fence is the one ordered instruction per *operation*. Empty for
    /// `Asym` — membarrier mode has neither.
    #[inline]
    fn begin_op(&self, tid: usize) {
        if !ASYM {
            self.pop.note_active(tid);
        }
    }

    /// The paper's `clear()`, made as lazy as its publish: one Release
    /// store of the activity word, and whoever pings a quiescent owner
    /// publishes an empty row. Membarrier mode zeroes the row instead.
    #[inline]
    fn end_op(&self, tid: usize) {
        self.pop.end_op(tid);
    }

    fn bind(&self, tid: usize, gtid: usize) {
        self.pop.register(tid, gtid);
    }

    fn unregister(&self, tid: usize) {
        self.pop.unregister(tid);
    }

    /// The paper's threshold path (Alg. 1 lines 18–21):
    /// `collectPublishedCounters; pingAllToPublish; waitForAllPublished`,
    /// or one heavy barrier in membarrier mode.
    fn make_visible(&self, p: &mut Pass) {
        let shard = p.base.stats.shard(p.tid);
        shard.pop_passes.fetch_add(1, Ordering::Relaxed);
        self.pop.ping_all_and_wait(p.tid, &mut p.scratch.counters);
        // Reap a confirmed-dead participant (flagged by the wait's
        // watchdog, a failed ping or the membarrier probe) before
        // scanning: its reservations protect nothing, and removing it now
        // recovers its slot and parks its retires this pass, not next.
        let pop = self.pop;
        pop.peers
            .reap_one_dead(p.base, p.tid, |t| pop.force_unregister(t));
    }

    fn scan(&self, p: &mut Pass) {
        self.pop.collect_reserved_into(&mut p.scratch.reserved);
    }
}

impl<const ASYM: bool> Drop for Pop<ASYM> {
    fn drop(&mut self) {
        // Stop handler dispatches; the PopShared arrays stay leaked by
        // design (a dispatch may be in flight on another thread).
        self.publisher.deactivate();
    }
}

impl<K: Kind, P: Publish> Smr for Hazard<K, P> {
    const NAME: &'static str = P::NAMES[K::ERA as usize];
    const ROBUST: bool = true;
    const NEEDS_SIGNALS: bool = P::NEEDS_SIGNALS;

    fn new(cfg: SmrConfig) -> Arc<Self> {
        let base = DomainBase::new(cfg);
        Arc::new(Hazard {
            hooks: Hooks {
                publish: P::new(&base),
                kind: K::new(),
            },
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
        self.hooks.publish.bind(tid, gtid);
    }

    fn register_raw(&self, tid: usize) {
        self.base.claim(tid);
        self.hooks.publish.register(tid);
    }

    fn unregister(&self, tid: usize) {
        // Leave any open operation first: the flush self-publishes, and a
        // quiescent owner publishes nothing.
        self.end_op(tid);
        self.flush(tid);
        self.hooks.publish.unregister(tid);
        self.base.release(tid);
    }

    #[inline]
    fn begin_op(&self, tid: usize) {
        self.hooks.publish.begin_op(tid);
    }

    #[inline]
    fn end_op(&self, tid: usize) {
        self.hooks.publish.end_op(tid);
    }

    #[inline]
    fn protect<T>(&self, tid: usize, slot: usize, src: &AtomicPtr<T>) -> ReadResult<T> {
        self.protect_in(&self.row(tid), slot, src)
    }

    #[inline]
    fn row(&self, tid: usize) -> Row<'_> {
        Row::new(tid, self.hooks.publish.row(tid))
    }

    #[inline]
    fn protect_in<T>(&self, row: &Row<'_>, slot: usize, src: &AtomicPtr<T>) -> ReadResult<T> {
        self.hooks.kind.protect::<T, P>(row.word(slot), src)
    }

    #[inline]
    unsafe fn retire(&self, tid: usize, retired: Retired) {
        pass::retire(&self.hooks, &self.base, tid, retired);
    }

    fn current_era(&self) -> u64 {
        self.hooks.kind.current_era()
    }

    fn flush(&self, tid: usize) {
        pass::run(&self.hooks, &self.base, tid, Cause::Flush);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{HasHeader, Header};
    use crate::pass::testing::{phases_of, PASS};
    use crate::smr::{alloc_node, dealloc_node_unpublished, retire_node};
    use crate::stats::StatsSnapshot;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

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

    /// Test config with the signal path pinned: the assertions made under
    /// it count pings and handler publishes.
    fn futex(n: usize) -> SmrConfig {
        SmrConfig::for_tests(n).with_publish_mode(PublishMode::Futex)
    }

    // -----------------------------------------------------------------
    // Shared scenarios, run over every alias.
    // -----------------------------------------------------------------

    /// A reader (tid 1, its own thread) protects a node inside an operation
    /// and spins holding it; tid 0 unlinks and retires it plus `filler`
    /// nodes and flushes — promptly, whatever the reader does — then
    /// `check`s the stats. Once the reader lets go, the node must still
    /// have been intact and one more flush must drain everything.
    fn held_node_survives<S: Smr>(cfg: SmrConfig, filler: u64, check: impl FnOnce(StatsSnapshot)) {
        let smr = S::new(cfg);
        let reg0 = smr.register(0);
        let hot = node(&*smr, 7);
        let src = Arc::new(AtomicPtr::new(hot));
        let hold = Arc::new(AtomicBool::new(true));
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn({
            let smr = Arc::clone(&smr);
            let src = Arc::clone(&src);
            let hold = Arc::clone(&hold);
            move || {
                let reg1 = smr.register(1);
                smr.begin_op(1);
                let p = smr.protect(1, 0, &src).unwrap();
                tx.send(()).unwrap();
                // Spin, not block: pings must land in a running thread
                // exactly as they do mid-traversal.
                while hold.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                assert_eq!(unsafe { (*p).v }, 7, "node alive under the reservation");
                smr.end_op(1);
                drop(reg1);
            }
        });
        rx.recv().unwrap();
        src.store(core::ptr::null_mut(), Ordering::SeqCst);
        unsafe { retire_node(&*smr, 0, hot) };
        for i in 0..filler {
            unsafe { retire_node(&*smr, 0, node(&*smr, i)) };
        }
        let t0 = Instant::now();
        smr.flush(0);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the pass must not wedge on the holding reader"
        );
        check(smr.stats().snapshot());
        hold.store(false, Ordering::Release);
        reader.join().unwrap();
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg0);
    }

    #[test]
    fn hp_keeps_exactly_the_held_node() {
        held_node_survives::<HazardPtr>(SmrConfig::for_tests(2).with_reclaim_freq(8), 16, |s| {
            assert!(s.freed_nodes >= 16, "unreserved filler freed");
            assert_eq!(s.unreclaimed_nodes(), 1, "exactly the held node survives");
        });
    }

    #[test]
    fn hp_asym_barrier_respects_cross_thread_reservation() {
        held_node_survives::<HazardPtrAsym>(SmrConfig::for_tests(2).with_reclaim_freq(4), 8, |s| {
            assert_eq!(s.unreclaimed_nodes(), 1)
        });
    }

    #[test]
    fn hp_pop_cross_thread_ping_publishes_and_protects() {
        held_node_survives::<HazardPtrPop>(futex(2).with_reclaim_freq(4), 8, |s| {
            assert!(s.pings_sent >= 1, "reclaimer pinged the reader");
            assert!(s.publishes >= 1, "reader's handler published");
            assert_eq!(
                s.unreclaimed_nodes(),
                1,
                "pinged reader's reservation honored"
            );
        });
    }

    #[test]
    fn he_era_reservation_blocks_intersecting_lifespans() {
        // Fillers born in the reserved era may survive too; at minimum the
        // held node does.
        held_node_survives::<HazardEra>(SmrConfig::for_tests(2).with_reclaim_freq(4), 8, |s| {
            assert!(s.unreclaimed_nodes() >= 1, "reserved-era node retained")
        });
    }

    #[test]
    fn he_pop_pinged_reader_era_blocks_freeing() {
        held_node_survives::<HazardEraPop>(futex(2).with_reclaim_freq(4), 8, |s| {
            assert!(s.pings_sent >= 1);
            assert!(
                s.unreclaimed_nodes() >= 1,
                "hot node's lifespan intersects the reader's published era"
            );
        });
    }

    /// The reclaimer holds a reservation itself across its own pass: the
    /// pass must honor it (a traversal may retire mid-walk), and free the
    /// node once the operation ends.
    fn own_reservation_survives<S: Smr>(check: impl FnOnce(StatsSnapshot)) {
        let smr = S::new(futex(1).with_reclaim_freq(4));
        let reg = smr.register(0);
        let hot = node(&*smr, 42);
        let src = AtomicPtr::new(hot);
        smr.begin_op(0);
        let _ = smr.protect(0, 0, &src).unwrap();
        src.store(core::ptr::null_mut(), Ordering::SeqCst);
        unsafe { retire_node(&*smr, 0, hot) };
        for i in 0..8 {
            unsafe { retire_node(&*smr, 0, node(&*smr, i)) };
        }
        smr.flush(0); // drain sub-threshold leftovers
        check(smr.stats().snapshot());
        smr.end_op(0);
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg);
    }

    #[test]
    fn single_thread_reclaim_respects_own_reservations() {
        let exactly_one = |s: StatsSnapshot| assert_eq!(s.unreclaimed_nodes(), 1);
        let pop_pass = |s: StatsSnapshot| {
            assert!(s.pop_passes >= 1, "threshold reclaim ran");
            assert_eq!(
                s.unreclaimed_nodes(),
                1,
                "own reservation protects the node"
            );
        };
        own_reservation_survives::<HazardPtr>(exactly_one);
        own_reservation_survives::<HazardPtrAsym>(pop_pass);
        own_reservation_survives::<HazardPtrPop>(pop_pass);
        let at_least_one = |s: StatsSnapshot| assert!(s.unreclaimed_nodes() >= 1);
        own_reservation_survives::<HazardEra>(at_least_one);
        own_reservation_survives::<HazardEraPop>(at_least_one);
    }

    #[test]
    fn an_era_pass_keeps_one_block_under_its_own_reservation() {
        let cfg = SmrConfig::for_tests(1).with_reclaim_freq(1024);
        crate::schemes::assert_own_pass_keeps_one_block::<HazardEra>(cfg.clone());
        crate::schemes::assert_own_pass_keeps_one_block::<HazardEraPop>(cfg);
    }

    /// Also checks the driver's phase order: eight triggered passes and
    /// the flush.
    fn quiescent_single_thread_drains_completely<S: Smr>() {
        let smr = S::new(SmrConfig::for_tests(1).with_reclaim_freq(8));
        let reg = smr.register(0);
        let phases = phases_of(|| {
            for i in 0..64 {
                smr.begin_op(0);
                unsafe { retire_node(&*smr, 0, node(&*smr, i)) };
                smr.end_op(0);
            }
            smr.flush(0);
        });
        assert_eq!(phases, PASS.repeat(9), "{}", S::NAME);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0, "{}", S::NAME);
        drop(reg);
    }

    #[test]
    fn quiescent_single_thread_drains_every_alias() {
        quiescent_single_thread_drains_completely::<HazardPtr>();
        quiescent_single_thread_drains_completely::<HazardPtrAsym>();
        quiescent_single_thread_drains_completely::<HazardPtrPop>();
        quiescent_single_thread_drains_completely::<HazardEra>();
        quiescent_single_thread_drains_completely::<HazardEraPop>();
    }

    fn check_live_catches_freed_node<S: Smr>() {
        let smr = S::new(SmrConfig::for_tests(1).with_quarantine());
        let reg = smr.register(0);
        let dead = node(&*smr, 5);
        unsafe { retire_node(&*smr, 0, dead) };
        smr.flush(0); // frees into quarantine (not reserved)
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            smr.check_live(dead);
        }));
        assert!(
            r.is_err(),
            "{}: check_live of a freed node must panic",
            S::NAME
        );
        // A live node passes.
        let live = node(&*smr, 6);
        smr.check_live(live);
        unsafe { dealloc_node_unpublished(&*smr, 0, live) };
        drop(reg);
    }

    #[test]
    fn quarantine_check_live_catches_freed_node() {
        check_live_catches_freed_node::<HazardPtr>();
        check_live_catches_freed_node::<HazardPtrAsym>();
        check_live_catches_freed_node::<HazardPtrPop>();
        check_live_catches_freed_node::<HazardEra>();
        check_live_catches_freed_node::<HazardEraPop>();
    }

    fn reservation_recorded_unmarked<P: Publish>() {
        let smr = Hazard::<Ptr, P>::new(futex(1));
        let reg = smr.register(0);
        let n = node(&*smr, 7);
        let src = AtomicPtr::new((n as u64 | 1) as *mut N);
        smr.begin_op(0);
        let got = smr.protect(0, 0, &src).unwrap();
        assert_eq!(got as u64, n as u64 | 1, "mark returned to the caller");
        assert_eq!(
            smr.hooks.publish.row(0)[0].load(Ordering::Relaxed),
            n as u64,
            "reservation recorded unmarked"
        );
        smr.end_op(0);
        unsafe { dealloc_node_unpublished(&*smr, 0, n) };
        drop(reg);
    }

    #[test]
    fn marked_pointers_are_unmarked_in_reservations() {
        reservation_recorded_unmarked::<Fence>();
        reservation_recorded_unmarked::<Asym>();
        reservation_recorded_unmarked::<Ping>();
    }

    fn era_advances_on_pass<P: Publish>() {
        let smr = Hazard::<Era, P>::new(SmrConfig::for_tests(1).with_reclaim_freq(2));
        let reg = smr.register(0);
        let e0 = smr.current_era();
        for i in 0..4 {
            unsafe { retire_node(&*smr, 0, node(&*smr, i)) };
        }
        assert!(smr.current_era() > e0, "reclaim must advance the era");
        drop(reg);
    }

    #[test]
    fn era_advances_on_reclaim() {
        era_advances_on_pass::<Fence>();
        era_advances_on_pass::<Ping>();
    }

    // -----------------------------------------------------------------
    // Fence: eager visibility.
    // -----------------------------------------------------------------

    #[test]
    fn fence_protect_publishes_eagerly_and_end_op_clears() {
        let smr = HazardPtr::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        let n = node(&*smr, 1);
        let src = AtomicPtr::new(n);
        let got = smr.protect(0, 0, &src).unwrap();
        assert_eq!(got, n);
        assert_eq!(
            smr.hooks.publish.rows.row(0)[0].load(Ordering::Acquire),
            n as u64,
            "reservation published eagerly"
        );
        smr.end_op(0);
        assert_eq!(smr.hooks.publish.rows.row(0)[0].load(Ordering::Acquire), 0);
        unsafe { dealloc_node_unpublished(&*smr, 0, n) };
        drop(reg);
    }

    #[test]
    fn fence_stable_era_needs_no_republication() {
        let smr = HazardEra::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        let n = node(&*smr, 1);
        let src = AtomicPtr::new(n);
        let _ = smr.protect(0, 0, &src).unwrap();
        let published = smr.hooks.publish.rows.row(0)[0].load(Ordering::Acquire);
        assert_eq!(published, smr.current_era());
        // Era unchanged: repeated protects must keep the same reservation.
        for _ in 0..10 {
            let _ = smr.protect(0, 0, &src).unwrap();
        }
        assert_eq!(
            smr.hooks.publish.rows.row(0)[0].load(Ordering::Acquire),
            published
        );
        unsafe { dealloc_node_unpublished(&*smr, 0, n) };
        drop(reg);
    }

    // -----------------------------------------------------------------
    // Asym: eager visibility without a fence, one barrier per pass.
    // -----------------------------------------------------------------

    #[test]
    fn asym_protect_publishes_eagerly_without_fence() {
        let smr = HazardPtrAsym::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        let n = node(&*smr, 1);
        let src = AtomicPtr::new(n);
        smr.begin_op(0);
        let _ = smr.protect(0, 0, &src).unwrap();
        assert_eq!(
            smr.hooks.publish.pop.collect_reserved(),
            vec![n as u64],
            "reservation must be in the shared slot immediately"
        );
        smr.end_op(0);
        assert!(
            smr.hooks.publish.pop.collect_reserved().is_empty(),
            "end_op clears the shared row"
        );
        unsafe { dealloc_node_unpublished(&*smr, 0, n) };
        drop(reg);
    }

    #[test]
    fn asym_heavy_barrier_ran_and_never_pings_under_membarrier() {
        let smr = HazardPtrAsym::new(SmrConfig::for_tests(1).with_reclaim_freq(2));
        let reg = smr.register(0);
        for i in 0..8 {
            unsafe { retire_node(&*smr, 0, node(&*smr, i)) };
        }
        let s = smr.stats().snapshot();
        assert!(
            s.membarriers > 0 || s.publishes > 0,
            "either membarrier or the signal fallback must have executed"
        );
        assert!(s.pop_passes >= 1, "HPAsym passes are POP passes");
        if pop_runtime::membarrier::is_available() {
            assert!(s.membarrier_passes >= 1, "the pass took the barrier");
            assert_eq!(s.pings_sent, 0, "membarrier mode never signals");
        }
        drop(reg);
    }

    // -----------------------------------------------------------------
    // Ping: private until pinged, filtered, the publish wait, membarrier.
    // -----------------------------------------------------------------

    fn private_until_ping<K: Kind>(word: impl FnOnce(&Hazard<K, Ping>, *mut N) -> u64) {
        let smr = Hazard::<K, Ping>::new(futex(1));
        let reg = smr.register(0);
        let n = node(&*smr, 1);
        let src = AtomicPtr::new(n);
        smr.begin_op(0);
        let _ = smr.protect(0, 0, &src).unwrap();
        assert_eq!(
            smr.hooks.publish.pop.local_at(0, 0),
            word(&smr, n),
            "reserved privately"
        );
        assert!(
            smr.hooks.publish.pop.collect_reserved().is_empty(),
            "no eager publication — the defining property of POP"
        );
        smr.end_op(0);
        unsafe { dealloc_node_unpublished(&*smr, 0, n) };
        drop(reg);
    }

    #[test]
    fn ping_reservations_stay_private_until_ping() {
        private_until_ping::<Ptr>(|_, n| n as u64);
        private_until_ping::<Era>(|smr, _| smr.current_era());
    }

    #[test]
    fn idle_reader_pinged_after_end_op_pins_nothing() {
        use crate::pop_shared::testing::pinged_mid_op_keeps_node_then_idle_ping_publishes_nothing;
        pinged_mid_op_keeps_node_then_idle_ping_publishes_nothing(|smr: &HazardPtrPop| {
            smr.hooks.publish.pop
        });
        pinged_mid_op_keeps_node_then_idle_ping_publishes_nothing(|smr: &HazardEraPop| {
            smr.hooks.publish.pop
        });
    }

    #[test]
    fn ping_membarrier_mode_protects_without_any_signals() {
        // The reader's reservation reaches the reclaimer through the shared
        // slots + one heavy barrier — no ping, no handler publish — and is
        // honored identically.
        if !pop_runtime::membarrier::is_available() {
            return;
        }
        let cfg = SmrConfig::for_tests(2)
            .with_reclaim_freq(4)
            .with_publish_mode(PublishMode::Membarrier);
        held_node_survives::<HazardPtrPop>(cfg, 8, |s| {
            assert_eq!(s.pings_sent, 0, "membarrier mode must not signal");
            assert_eq!(s.publishes, 0, "no handler publishes either");
            assert!(s.membarrier_passes >= 1, "the pass took the fast path");
            assert!(s.signals_avoided >= 1, "the elided fan-out is accounted");
            assert_eq!(
                s.unreclaimed_nodes(),
                1,
                "shared-slot reservation honored without any publication step"
            );
        });
    }

    /// Blocks (`true`) or unblocks the ping signal on the calling thread
    /// only. Unblocking delivers a pending ping before it returns.
    fn block_pings(block: bool) {
        let how = if block {
            libc::SIG_BLOCK
        } else {
            libc::SIG_UNBLOCK
        };
        let mut set = core::mem::MaybeUninit::<libc::sigset_t>::uninit();
        // SAFETY: `set` is initialized by `sigemptyset` before any other
        // use, and `pthread_sigmask` only reads it.
        let rc = unsafe {
            libc::sigemptyset(set.as_mut_ptr());
            libc::sigaddset(set.as_mut_ptr(), pop_runtime::signal::PING_SIGNAL);
            libc::pthread_sigmask(how, set.as_ptr(), core::ptr::null_mut())
        };
        assert_eq!(rc, 0, "pthread_sigmask");
    }

    /// A reader that cannot answer (it blocks the ping signal on its own
    /// thread, mid-operation, holding `hot`): the first pass waits out the
    /// deadline, the other `PASSES - 1` find its publish counter unmoved
    /// and skip the wait, and its private word keeps `hot` out of the
    /// quarantine throughout.
    fn unanswering_reader_costs_one_deadline<S: Smr>() {
        const DEADLINE_NS: u64 = 50_000_000;
        const PASSES: u64 = 10;
        let smr = S::new(
            futex(2)
                .with_reclaim_freq(16)
                .with_retire_batch(1)
                .with_publish_deadline_ns(DEADLINE_NS)
                .with_quarantine(),
        );
        let reg0 = smr.register(0);
        let hot = node(&*smr, 7);
        let src = Arc::new(AtomicPtr::new(hot));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let reader = std::thread::spawn({
            let smr = Arc::clone(&smr);
            let src = Arc::clone(&src);
            move || {
                let reg1 = smr.register(1);
                smr.begin_op(1);
                let p = smr.protect(1, 0, &src).unwrap();
                block_pings(true);
                ready_tx.send(()).unwrap();
                go_rx.recv().unwrap(); // blocked: every ping stays pending
                block_pings(false);
                smr.check_live(p);
                assert_eq!(unsafe { (*p).v }, 7, "node alive under the reservation");
                smr.end_op(1);
                drop(reg1);
            }
        });
        ready_rx.recv().unwrap();
        src.store(core::ptr::null_mut(), Ordering::SeqCst);
        unsafe { retire_node(&*smr, 0, hot) };
        let start = Instant::now();
        for i in 1..PASSES * smr.config().reclaim_freq as u64 {
            unsafe { retire_node(&*smr, 0, node(&*smr, i)) };
        }
        let total = start.elapsed();
        let s = smr.stats().snapshot();
        let deadline = Duration::from_nanos(DEADLINE_NS);
        assert_eq!(s.pop_passes, PASSES, "{}: {s:?}", S::NAME);
        assert_eq!(
            s.publish_wait_timeouts,
            1,
            "{}: one timeout per stuck episode: {s:?}",
            S::NAME
        );
        assert!(
            total < 2 * deadline,
            "{}: {PASSES} passes took {total:?}, not under two {deadline:?} deadlines",
            S::NAME
        );
        assert!(
            !unsafe { (*hot).hdr.is_poisoned() },
            "{}: the unanswering reader's node was freed",
            S::NAME
        );
        assert!(s.freed_nodes > 0, "{}: the fillers were freed", S::NAME);
        go_tx.send(()).unwrap();
        reader.join().unwrap();
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0, "{}", S::NAME);
        drop(reg0);
    }

    #[test]
    fn unanswering_reader_costs_one_deadline_pop() {
        unanswering_reader_costs_one_deadline::<HazardPtrPop>();
        unanswering_reader_costs_one_deadline::<HazardEraPop>();
    }

    #[test]
    fn ping_quiescent_idle_thread_is_not_pinged() {
        // A registered but quiescent peer with an empty published row must
        // be skipped by pingAllToPublish — the quiescent-thread filter —
        // whatever its finished operation left in its private row.
        let smr = HazardPtrPop::new(futex(2).with_reclaim_freq(4));
        let reg0 = smr.register(0);
        let hold = Arc::new(AtomicBool::new(true));
        let (tx, rx) = std::sync::mpsc::channel();
        let idler = std::thread::spawn({
            let smr = Arc::clone(&smr);
            let hold = Arc::clone(&hold);
            move || {
                let reg1 = smr.register(1);
                // One full op cycle, then stay registered but idle.
                let n = node(&*smr, 5);
                let src = AtomicPtr::new(n);
                smr.begin_op(1);
                let _ = smr.protect(1, 0, &src).unwrap();
                smr.end_op(1);
                assert_ne!(
                    smr.hooks.publish.pop.local_at(1, 0),
                    0,
                    "end_op clears nothing"
                );
                tx.send(()).unwrap();
                while hold.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                unsafe { dealloc_node_unpublished(&*smr, 0, n) };
                drop(reg1);
            }
        });
        rx.recv().unwrap();
        for i in 0..16 {
            unsafe { retire_node(&*smr, 0, node(&*smr, i)) };
        }
        smr.flush(0);
        let s = smr.stats().snapshot();
        assert_eq!(s.pings_sent, 0, "idle quiescent peer must not be signalled");
        assert!(s.pings_skipped >= 1, "the filter must record the elision");
        assert_eq!(s.unreclaimed_nodes(), 0, "skipping must not block frees");
        hold.store(false, Ordering::Release);
        idler.join().unwrap();
        drop(reg0);
    }

    #[test]
    fn ping_robustness_bound_holds_with_stalled_reader() {
        // A reader stalls inside an operation while holding one
        // protection; the writer keeps retiring. Unlike EBR, garbage must
        // stay bounded — and the pinned node must survive, because every
        // pass pings the reader and it publishes its live word.
        let smr = HazardPtrPop::new(futex(2).with_reclaim_freq(32));
        let reg0 = smr.register(0);
        let hot = node(&*smr, 9);
        let src = Arc::new(AtomicPtr::new(hot));
        let hold = Arc::new(AtomicBool::new(true));
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn({
            let smr = Arc::clone(&smr);
            let src = Arc::clone(&src);
            let hold = Arc::clone(&hold);
            move || {
                let reg1 = smr.register(1);
                smr.begin_op(1);
                let p = smr.protect(1, 0, &src).unwrap();
                tx.send(()).unwrap();
                while hold.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                assert_eq!(unsafe { (*p).v }, 9, "pinned node outlived the stall");
                smr.end_op(1);
                drop(reg1);
            }
        });
        rx.recv().unwrap();
        src.store(core::ptr::null_mut(), Ordering::SeqCst);
        unsafe { retire_node(&*smr, 0, hot) };
        for i in 0..2000u64 {
            unsafe { retire_node(&*smr, 0, node(&*smr, i)) };
        }
        let s = smr.stats().snapshot();
        let cfg = smr.config();
        let bound = (cfg.reclaim_freq + cfg.max_threads * cfg.slots) as u64;
        assert!(
            s.unreclaimed_nodes() <= bound,
            "garbage {} exceeds robustness bound {}",
            s.unreclaimed_nodes(),
            bound
        );
        assert!(
            s.unreclaimed_nodes() >= 1,
            "the stalled reader's node must be kept: {s:?}"
        );
        assert!(
            s.pings_sent >= 1,
            "the stalled reader must be pinged: {s:?}"
        );
        hold.store(false, Ordering::Release);
        reader.join().unwrap();
        drop(reg0);
    }

    #[test]
    fn ping_unchanged_era_costs_the_next_operation_no_store_yet_is_published_on_ping() {
        // The era word survives end_op in the private row, so a second
        // operation in the same era takes `protect`'s no-store fast path;
        // a ping in the middle of that operation still publishes the era
        // (the row is copied whole) and blocks the free.
        let smr = HazardEraPop::new(futex(2).with_reclaim_freq(4));
        let reg0 = smr.register(0);
        let hot = node(&*smr, 7);
        let src = Arc::new(AtomicPtr::new(hot));
        let hold = Arc::new(AtomicBool::new(true));
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn({
            let smr = Arc::clone(&smr);
            let src = Arc::clone(&src);
            let hold = Arc::clone(&hold);
            move || {
                let reg1 = smr.register(1);
                let pop = smr.hooks.publish.pop;
                smr.begin_op(1);
                let _ = smr.protect(1, 0, &src).unwrap();
                smr.end_op(1);
                let era = smr.current_era();
                assert_eq!(pop.local_at(1, 0), era, "end_op kept the word");
                // Slot == era going in, so `protect` returns from its
                // first comparison without reaching `reserve`.
                smr.begin_op(1);
                let p = smr.protect(1, 0, &src).unwrap();
                assert_eq!(smr.current_era(), era, "no pass ran in between");
                assert_eq!(pop.local_at(1, 0), era);
                tx.send(era).unwrap();
                while hold.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                assert_eq!(unsafe { (*p).v }, 7, "node alive under the kept era");
                smr.end_op(1);
                drop(reg1);
            }
        });
        let era = rx.recv().unwrap();
        src.store(core::ptr::null_mut(), Ordering::SeqCst);
        unsafe { retire_node(&*smr, 0, hot) };
        for i in 0..8 {
            unsafe { retire_node(&*smr, 0, node(&*smr, i)) };
        }
        smr.flush(0);
        let s = smr.stats().snapshot();
        assert!(s.pings_sent >= 1);
        assert_eq!(
            smr.hooks.publish.pop.collect_reserved(),
            vec![era],
            "era published"
        );
        assert!(s.unreclaimed_nodes() >= 1, "hot node pinned by that era");
        hold.store(false, Ordering::Release);
        reader.join().unwrap();
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg0);
    }
}
