//! `EBR` — RCU-style epoch-based reclamation (paper Appendix C, Alg. 6).
//!
//! Readers announce the global epoch on operation entry (one ordered store
//! per *operation*, not per read) and announce `u64::MAX` on exit.
//! Reclaimers free objects retired strictly before the minimum announced
//! epoch. Fast, but **not robust**: one delayed reader pins every retire
//! list in the system — the failure mode EpochPOP repairs.
//!
//! The global epoch is advanced by reclaimer passes only (per-thread clock
//! ticks + max-aggregation, `EpochClocks`); the op path performs no
//! shared RMW. Retirement is batched (`base::push_retired`).

use core::sync::atomic::{fence, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;

use crate::base::{
    free_before_epoch_with_stalled, push_retired, scan_epoch_reservations, DomainBase, EpochClocks,
    RelaxedMin, RetireSlot,
};
use crate::config::SmrConfig;
use crate::controller::{PassAction, PassController};
use crate::header::Retired;
use crate::pressure::{PressureRung, HARD_RETRY_LIMIT};
use crate::smr::{ReadResult, Smr};
use crate::stats::DomainStats;

/// Epoch announced while quiescent.
pub(crate) const QUIESCENT: u64 = u64::MAX;

struct ThreadState {
    retire: RetireSlot,
    /// Operations since registration; drives the periodic clock tick.
    op_count: AtomicU64,
}

/// RCU-style epoch-based reclamation.
pub struct Ebr {
    base: DomainBase,
    clocks: EpochClocks,
    /// Epoch-cadence decay (adaptive controller).
    ctl: PassController,
    /// `reservedEpoch[tid]` (Alg. 6 line 4).
    reserved: Box<[CachePadded<AtomicU64>]>,
    threads: Box<[CachePadded<ThreadState>]>,
}

impl Ebr {
    /// One epoch pass. Retire-triggered passes (`forced = false`) are
    /// subject to the controller's decay thinning: on a decayed (long
    /// barren) domain only every `2^decay`-th trigger pays the scan and
    /// sweep. Flush/unregister passes are always full — draining is never
    /// thinned, so the first freeable sweep resets the decay instantly.
    fn reclaim_epoch_freeable(&self, tid: usize, forced: bool) {
        let rung = self.base.stats.pressure().rung();
        if rung >= PressureRung::Soft {
            // Ladder rung 1: accumulating garbage overrides the barren-pass
            // economy — every trigger pays a full scan until the gauge
            // de-escalates.
            self.ctl.cancel_decay();
        }
        let action = if forced || rung >= PressureRung::Soft {
            self.ctl.begin_forced_pass()
        } else {
            self.ctl.begin_pass()
        };
        if action == PassAction::Thinned {
            return;
        }
        let shard = self.base.stats.shard(tid);
        shard.epoch_passes.fetch_add(1, Ordering::Relaxed);
        // Reclaimer-side epoch advance: the only writer of the global word.
        self.clocks.advance_max_scan(tid);
        // Order the announcement scan after this thread's preceding unlinks.
        fence(Ordering::SeqCst);
        let (min, relaxed) = self.scan_reserved_epochs();
        // SAFETY: tid ownership per the registration contract.
        let list = unsafe { self.threads[tid].retire.get() };
        // Ladder rung 3 unwind: parked blocks whose blocker's announcement
        // moved (or whose blocker is gone) rejoin this list and are
        // re-filtered against *current* reservations by the sweep below.
        self.base.reclaim_released_quarantine(tid, list, |t, w| {
            self.reserved[t].load(Ordering::SeqCst) == w
        });
        shard.observe_retire_len(list.len());
        // SAFETY: nodes retired before every announced epoch are
        // unreachable — no thread that could hold a reference is still in
        // its operation. Block-granular in-place sweep: no allocation. The
        // relaxed floor (emergency rung only) never frees: it parks blocks
        // pinned solely by the known-stalled blocker.
        let freed =
            unsafe { free_before_epoch_with_stalled(&self.base, tid, list, min, relaxed.as_ref()) };
        if self.ctl.note_pass_outcome(freed) {
            shard.epoch_decay_steps.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn min_reserved_epoch(&self) -> u64 {
        let mut min = u64::MAX;
        for t in 0..self.base.cfg.max_threads {
            if self.base.is_registered(t) {
                min = min.min(self.reserved[t].load(Ordering::SeqCst));
            }
        }
        min
    }

    /// Stall-aware announcement scan (see [`scan_epoch_reservations`]).
    fn scan_reserved_epochs(&self) -> (u64, Option<RelaxedMin>) {
        scan_epoch_reservations(&self.base, QUIESCENT, |t| {
            self.reserved[t].load(Ordering::SeqCst)
        })
    }

    /// Current minimum announced epoch (test/diagnostic use).
    pub fn min_epoch(&self) -> u64 {
        self.min_reserved_epoch()
    }
}

impl Smr for Ebr {
    const NAME: &'static str = "EBR";
    const ROBUST: bool = false;
    const NEEDS_SIGNALS: bool = false;

    fn new(cfg: SmrConfig) -> Arc<Self> {
        let n = cfg.max_threads;
        let mut reserved = Vec::with_capacity(n);
        reserved.resize_with(n, || CachePadded::new(AtomicU64::new(QUIESCENT)));
        let mut threads = Vec::with_capacity(n);
        threads.resize_with(n, || {
            CachePadded::new(ThreadState {
                retire: RetireSlot::for_cfg(&cfg),
                op_count: AtomicU64::new(0),
            })
        });
        Arc::new(Ebr {
            clocks: EpochClocks::new(n),
            ctl: PassController::new(cfg.adaptive),
            reserved: reserved.into_boxed_slice(),
            threads: threads.into_boxed_slice(),
            base: DomainBase::new(cfg),
        })
    }

    fn config(&self) -> &SmrConfig {
        &self.base.cfg
    }

    fn stats(&self) -> &DomainStats {
        &self.base.stats
    }

    fn register_raw(&self, tid: usize) {
        self.base.claim(tid);
        self.reserved[tid].store(QUIESCENT, Ordering::SeqCst);
        // SAFETY: tid was just claimed; this thread owns the slot.
        let list = unsafe { self.threads[tid].retire.get() };
        self.base.adopt_orphan_chunk(tid, list);
    }

    fn unregister(&self, tid: usize) {
        self.reserved[tid].store(QUIESCENT, Ordering::SeqCst);
        self.flush(tid);
        // SAFETY: tid ownership until release.
        let list = unsafe { self.threads[tid].retire.get() };
        self.base.orphan_remaining(tid, list);
        self.base.release(tid);
    }

    #[inline]
    fn begin_op(&self, tid: usize) {
        let ts = &self.threads[tid];
        let c = ts.op_count.load(Ordering::Relaxed) + 1;
        ts.op_count.store(c, Ordering::Relaxed);
        if self.ctl.tick_due(c, self.base.cfg.epoch_freq as u64) {
            // Private clock tick on this thread's own line — no shared RMW
            // (the controller stretches the period to `epoch_freq << decay`
            // on idle domains; the decay word is only consulted on the
            // 1-in-epoch_freq candidates).
            self.clocks.tick(tid);
        }
        // SeqCst: the announcement must be globally visible before this
        // thread reads any data-structure pointer (the one fence EBR pays
        // per operation).
        self.reserved[tid].store(self.clocks.current(), Ordering::SeqCst);
    }

    #[inline]
    fn end_op(&self, tid: usize) {
        self.reserved[tid].store(QUIESCENT, Ordering::Release);
    }

    #[inline]
    fn protect<T>(&self, _tid: usize, _slot: usize, src: &AtomicPtr<T>) -> ReadResult<T> {
        // Epoch readers are pre-protected by their announcement.
        Ok(src.load(Ordering::Acquire))
    }

    unsafe fn retire(&self, tid: usize, retired: Retired) {
        // SAFETY: tid ownership.
        let list = unsafe { self.threads[tid].retire.get() };
        if push_retired(&self.base, tid, list, retired) {
            self.reclaim_epoch_freeable(tid, false);
            // Ladder rung 2: the hard watermark converts retirement into
            // synchronous reclamation — bounded forced retries with a
            // growing spin backoff, giving laggards a window to advance.
            let mut tries = 0u32;
            while tries < HARD_RETRY_LIMIT
                && self.base.stats.pressure().rung() >= PressureRung::Hard
            {
                for _ in 0..(64u32 << tries) {
                    core::hint::spin_loop();
                }
                self.reclaim_epoch_freeable(tid, true);
                tries += 1;
            }
        }
    }

    fn current_era(&self) -> u64 {
        self.clocks.current()
    }

    fn flush(&self, tid: usize) {
        self.reclaim_epoch_freeable(tid, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{HasHeader, Header};
    use crate::smr::retire_node;

    #[repr(C)]
    struct N {
        hdr: Header,
        v: u64,
    }
    unsafe impl HasHeader for N {}

    fn alloc(smr: &Ebr, v: u64) -> *mut N {
        smr.note_alloc(0, core::mem::size_of::<N>());
        Box::into_raw(Box::new(N {
            hdr: Header::new(smr.current_era(), core::mem::size_of::<N>()),
            v,
        }))
    }

    #[test]
    fn single_thread_reclaims_after_quiescence() {
        let smr = Ebr::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        for i in 0..100 {
            smr.begin_op(0);
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
            smr.end_op(0);
        }
        smr.flush(0);
        let s = smr.stats().snapshot();
        assert_eq!(s.retired_nodes, 100);
        assert!(
            s.freed_nodes >= 90,
            "quiescent single thread frees nearly everything, freed = {}",
            s.freed_nodes
        );
        drop(reg);
    }

    #[test]
    fn stalled_reader_blocks_reclamation() {
        let smr = Ebr::new(SmrConfig::for_tests(2));
        let reg0 = smr.register(0);
        let stalled = std::thread::spawn({
            let smr = Arc::clone(&smr);
            move || {
                let reg1 = smr.register(1);
                smr.begin_op(1); // enter and never leave
                std::thread::sleep(std::time::Duration::from_millis(300));
                smr.end_op(1);
                drop(reg1);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Reader parked in an old epoch: nothing retired after its entry
        // may be freed.
        let freed_before = smr.stats().snapshot().freed_nodes;
        for i in 0..500 {
            smr.begin_op(0);
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
            smr.end_op(0);
        }
        smr.flush(0);
        let s = smr.stats().snapshot();
        assert_eq!(
            s.freed_nodes, freed_before,
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
    fn op_path_ticks_private_clock_only() {
        // The epoch max-aggregation invariant, scheme-level: operations
        // advance a private clock; the global word moves only when a
        // reclaimer pass aggregates.
        let smr = Ebr::new(SmrConfig::for_tests(2).with_epoch_freq(2));
        let reg = smr.register(0);
        let e0 = smr.current_era();
        let c0 = smr.clocks.local_of(0);
        for _ in 0..10 {
            smr.begin_op(0);
            smr.end_op(0);
        }
        assert_eq!(
            smr.current_era(),
            e0,
            "no reclaimer pass ran: the shared epoch word must not move"
        );
        assert!(
            smr.clocks.local_of(0) >= c0 + 5,
            "private clock ticks every 2 ops"
        );
        smr.flush(0); // a pass aggregates
        assert!(
            smr.current_era() >= c0 + 5,
            "max-aggregation publishes the ticked clock"
        );
        drop(reg);
    }

    #[test]
    fn barren_passes_decay_and_thin_triggered_passes() {
        // A stalled reader makes every pass barren: the controller must
        // deepen the decay (counted) and thin retire-triggered passes, so
        // the pinned regime stops paying a full scan per trigger.
        let smr = Ebr::new(
            SmrConfig::for_tests(2)
                .with_reclaim_freq(32)
                .with_retire_batch(1) // unbatched: deterministic seal/trigger points
                .with_adaptive(true), // pin against the POP_ADAPTIVE=0 CI leg
        );
        let reg0 = smr.register(0);
        let reg1 = smr.register(1);
        smr.begin_op(1); // reader parks in the current epoch
        let triggers = 64u64;
        for i in 0..32 * triggers {
            smr.begin_op(0);
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
            smr.end_op(0);
        }
        let s = smr.stats().snapshot();
        assert_eq!(s.freed_nodes, 0, "everything pinned by the reader");
        assert!(
            s.epoch_decay_steps >= crate::controller::MAX_EPOCH_DECAY as u64,
            "barren passes must deepen the decay, saw {}",
            s.epoch_decay_steps
        );
        assert!(
            s.epoch_passes < triggers,
            "decay must thin triggered passes: {} full of {} triggers",
            s.epoch_passes,
            triggers
        );
        // No reclamation-latency cliff: the reader leaves, and the very
        // next (forced) pass frees everything and resets the decay.
        smr.end_op(1);
        smr.flush(0);
        let s = smr.stats().snapshot();
        assert_eq!(s.unreclaimed_nodes(), 0, "first freeable sweep drains");
        assert_eq!(smr.ctl.decay_level(), 0, "decay resets on the free");
        // And with the decay reset, triggered passes run full again.
        let full_before = smr.stats().snapshot().epoch_passes;
        for i in 0..64 {
            smr.begin_op(0);
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
            smr.end_op(0);
        }
        assert!(
            smr.stats().snapshot().epoch_passes > full_before,
            "post-reset triggers execute full passes"
        );
        drop(reg1);
        drop(reg0);
    }

    #[test]
    fn adaptive_off_never_decays_or_thins() {
        let smr = Ebr::new(
            SmrConfig::for_tests(2)
                .with_reclaim_freq(32)
                .with_retire_batch(1)
                .with_adaptive(false),
        );
        let reg0 = smr.register(0);
        let reg1 = smr.register(1);
        smr.begin_op(1); // stalled reader: every pass is barren
        let triggers = 16u64;
        for i in 0..32 * triggers {
            smr.begin_op(0);
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
            smr.end_op(0);
        }
        let s = smr.stats().snapshot();
        assert_eq!(s.epoch_decay_steps, 0, "static config never decays");
        assert_eq!(
            s.epoch_passes, triggers,
            "every trigger runs a full pass when adaptive is off"
        );
        smr.end_op(1);
        smr.flush(0);
        drop(reg1);
        drop(reg0);
    }

    #[test]
    fn min_epoch_ignores_unregistered_slots() {
        let smr = Ebr::new(SmrConfig::for_tests(4));
        let reg = smr.register(2);
        smr.begin_op(2);
        assert_eq!(smr.min_epoch(), smr.reserved[2].load(Ordering::SeqCst));
        smr.end_op(2);
        assert_eq!(smr.min_epoch(), QUIESCENT);
        drop(reg);
    }
}
