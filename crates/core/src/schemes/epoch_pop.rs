//! **`EpochPOP`** — epoch-based reclamation fused with HazardPtrPOP (paper
//! §4.2, Alg. 3).
//!
//! Threads run *both* protocols simultaneously:
//!
//! * **Epoch mode** (the common case): operations announce the global epoch
//!   like EBR; reclaimers free nodes retired before the minimum announced
//!   epoch. Fast — one fence per operation, shared with the ping filter.
//! * **POP mode** (delay suspected): every read has *also* been recording a
//!   private pointer reservation (relaxed store, no fence). When an
//!   epoch-mode pass leaves the retire list above `C × reclaim_freq`, the
//!   reclaimer concludes some thread is stuck in an old epoch, pings all
//!   threads, and frees everything not ptr-reserved — skipping only the
//!   bounded `N × H` reserved set. No global mode switch; different threads
//!   may reclaim in different modes concurrently (unlike QSense).

use core::sync::atomic::{compiler_fence, fence, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use pop_runtime::signal::register_publisher;
use pop_runtime::PublisherHandle;

use crate::base::{
    free_before_epoch_with_stalled, free_unreserved, push_retired, scan_epoch_reservations,
    DomainBase, EpochClocks, RetireSlot, ScratchSlot,
};
use crate::config::SmrConfig;
use crate::controller::{PassAction, PassController};
use crate::header::{unmark_word, Retired};
use crate::pop_shared::PopShared;
use crate::pressure::{PressureRung, HARD_RETRY_LIMIT};
use crate::smr::{ReadResult, Smr};
use crate::stats::DomainStats;

use super::ebr::QUIESCENT;

struct ThreadState {
    retire: RetireSlot,
    scratch: ScratchSlot,
    op_count: AtomicU64,
}

/// Dual-mode epoch + publish-on-ping reclamation.
pub struct EpochPop {
    base: DomainBase,
    clocks: EpochClocks,
    /// Epoch-cadence decay (adaptive controller). Thinning never applies
    /// to the POP escalation — robustness is exempt from pacing.
    ctl: PassController,
    /// `reservedEpoch[tid]` (Alg. 3 line 4).
    reserved_epoch: Box<[CachePadded<AtomicU64>]>,
    /// Private pointer reservations published on ping (Alg. 3 lines 6–8).
    pop: &'static PopShared,
    publisher: PublisherHandle,
    threads: Box<[CachePadded<ThreadState>]>,
}

impl EpochPop {
    /// Alg. 3 `reclaimEpochFreeable`: the EBR fast path. In-place sweep —
    /// no allocation. Retire-triggered passes (`forced = false`) honor the
    /// controller's decay thinning; flush passes are always full.
    fn reclaim_epoch_freeable(&self, tid: usize, forced: bool) {
        let rung = self.base.stats.pressure().rung();
        if rung >= PressureRung::Soft {
            // Ladder rung 1: pressure overrides the barren-pass economy.
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
        // Reclaimer-side epoch advance by max-aggregation (the op path
        // only ticks a private clock).
        self.clocks.advance_max_scan(tid);
        fence(Ordering::SeqCst);
        let (min, relaxed) = scan_epoch_reservations(&self.base, QUIESCENT, |t| {
            self.reserved_epoch[t].load(Ordering::SeqCst)
        });
        // SAFETY: tid ownership per the registration contract.
        let list = unsafe { self.threads[tid].retire.get() };
        // Ladder rung 3 unwind: blocks parked on a blocker that moved (or
        // was reaped) rejoin the list for re-filtering below.
        self.base.reclaim_released_quarantine(tid, list, |t, w| {
            self.reserved_epoch[t].load(Ordering::SeqCst) == w
        });
        shard.observe_retire_len(list.len());
        // SAFETY: nodes retired before every announced epoch are
        // unreachable. The relaxed floor never frees: it parks blocks
        // pinned solely by the known-stalled blocker.
        let freed =
            unsafe { free_before_epoch_with_stalled(&self.base, tid, list, min, relaxed.as_ref()) };
        if self.ctl.note_pass_outcome(freed) {
            shard.epoch_decay_steps.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Alg. 3 lines 26–30: the robust POP escalation. Allocation-free via
    /// the thread's scratch buffers. Never thinned — the escalation check
    /// in `retire` runs after every trigger regardless of decay, so the
    /// garbage bound `C × reclaim_freq + N × H` survives an idle spell.
    fn reclaim_pop_freeable(&self, tid: usize) {
        self.base
            .stats
            .shard(tid)
            .pop_passes
            .fetch_add(1, Ordering::Relaxed);
        // SAFETY: tid ownership.
        let scratch = unsafe { self.threads[tid].scratch.get() };
        self.pop.ping_all_and_wait(tid, &mut scratch.counters);
        // Reap a confirmed-dead participant before scanning. Releasing
        // its domain tid also unpins the epoch min-scan (which gates on
        // `is_registered`) — a thread that died mid-op stops stalling the
        // epoch fast path the moment it is reaped; `register_raw` resets
        // `reserved_epoch` for the next claimant.
        self.pop.reap_one_dead(&self.base, tid, |t| {
            // SAFETY: `reap_one_dead` established exclusivity (won reap
            // CAS + registry-confirmed death of the owner).
            unsafe { self.threads[t].retire.get() }
        });
        self.pop.collect_reserved_into(&mut scratch.reserved);
        // SAFETY: tid ownership.
        let list = unsafe { self.threads[tid].retire.get() };
        // SAFETY: every thread published its private reservations,
        // deregistered, or was provably quiescent holding none; anything
        // unreserved is unreachable — even for threads stuck in ancient
        // epochs, because they too record local reservations on every read.
        let freed = unsafe { free_unreserved(&self.base, tid, list, &scratch.reserved) };
        // A freeing POP pass un-decays the domain (garbage is moving
        // again); a barren one deepens like any other barren pass.
        if self.ctl.note_pass_outcome(freed) {
            self.base
                .stats
                .shard(tid)
                .epoch_decay_steps
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Smr for EpochPop {
    const NAME: &'static str = "EpochPOP";
    const ROBUST: bool = true;
    const NEEDS_SIGNALS: bool = true;

    fn new(cfg: SmrConfig) -> Arc<Self> {
        let n = cfg.max_threads;
        let base = DomainBase::new(cfg);
        let pop = PopShared::for_domain(
            &base,
            base.cfg.resolved_publish_mode() == crate::config::PublishMode::Membarrier,
        );
        let publisher = register_publisher(pop);
        let mut reserved = Vec::with_capacity(n);
        reserved.resize_with(n, || CachePadded::new(AtomicU64::new(QUIESCENT)));
        let mut threads = Vec::with_capacity(n);
        threads.resize_with(n, || {
            CachePadded::new(ThreadState {
                retire: RetireSlot::for_cfg(&base.cfg),
                scratch: ScratchSlot::new(),
                op_count: AtomicU64::new(0),
            })
        });
        Arc::new(EpochPop {
            clocks: EpochClocks::new(n),
            ctl: PassController::new(base.cfg.adaptive),
            reserved_epoch: reserved.into_boxed_slice(),
            pop,
            publisher,
            threads: threads.into_boxed_slice(),
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
        self.base.bind_gtid(tid, gtid);
        self.pop.register(tid, gtid);
    }

    fn register_raw(&self, tid: usize) {
        self.base.claim(tid);
        self.reserved_epoch[tid].store(QUIESCENT, Ordering::SeqCst);
        // SAFETY: tid was just claimed; this thread owns the slot.
        let list = unsafe { self.threads[tid].retire.get() };
        self.base.adopt_orphan_chunk(tid, list);
    }

    fn unregister(&self, tid: usize) {
        // Leave any open operation first: the flush self-publishes, and a
        // quiescent owner publishes nothing.
        self.end_op(tid);
        self.flush(tid);
        // SAFETY: tid ownership until release.
        let list = unsafe { self.threads[tid].retire.get() };
        self.base.orphan_remaining(tid, list);
        self.pop.unregister(tid);
        self.base.clear_gtid(tid);
        self.base.release(tid);
    }

    /// Alg. 3 `startOp`: periodic private clock tick + announcement (no
    /// shared RMW on the op path). EBR's bracket plus three plain stores:
    /// the single fence is the one ordered instruction POP pays per
    /// operation, and it orders both announcements at once — the epoch
    /// (against the reclaimer's fence before its min-scan) and the
    /// activity word (against the one before its ping filter).
    #[inline]
    fn begin_op(&self, tid: usize) {
        let ts = &self.threads[tid];
        let c = ts.op_count.load(Ordering::Relaxed) + 1;
        ts.op_count.store(c, Ordering::Relaxed);
        if self.ctl.tick_due(c, self.base.cfg.epoch_freq as u64) {
            self.clocks.tick(tid);
        }
        self.pop.note_active_unfenced(tid);
        self.reserved_epoch[tid].store(self.clocks.current(), Ordering::Relaxed);
        fence(Ordering::SeqCst);
    }

    /// Alg. 3 `endOp`: announce quiescence twice over (epoch, activity
    /// word). The private row is left as is — a ping that finds us
    /// quiescent publishes nothing.
    #[inline]
    fn end_op(&self, tid: usize) {
        self.reserved_epoch[tid].store(QUIESCENT, Ordering::Release);
        self.pop.end_op(tid);
    }

    /// Alg. 3 `read()`: identical to HazardPtrPOP — private reservation,
    /// no fence. In epoch mode these reservations are ignored; they become
    /// load-bearing the moment a reclaimer escalates.
    #[inline]
    fn protect<T>(&self, tid: usize, slot: usize, src: &AtomicPtr<T>) -> ReadResult<T> {
        loop {
            let p = src.load(Ordering::Acquire);
            self.pop.set_local(tid, slot, unmark_word(p as u64));
            compiler_fence(Ordering::SeqCst);
            if src.load(Ordering::Acquire) == p {
                return Ok(p);
            }
        }
    }

    /// Alg. 3 `retire`: batched push; at the reclaim threshold an epoch
    /// pass, with POP escalation when the list stays above
    /// `C × reclaim_freq`.
    unsafe fn retire(&self, tid: usize, retired: Retired) {
        // SAFETY: tid ownership.
        let list = unsafe { self.threads[tid].retire.get() };
        if push_retired(&self.base, tid, list, retired) {
            self.reclaim_epoch_freeable(tid, false);
            // Re-check *after* the epoch pass (Alg. 3 line 26): a long list
            // that epochs could not drain implicates a delayed thread. The
            // check runs even when decay thinned the epoch pass, so the
            // robust escalation is never delayed by the controller.
            // SAFETY: tid ownership; the pass above released its borrow.
            let still = unsafe { self.threads[tid].retire.get() }.len();
            if still >= self.base.cfg.pop_c * self.base.cfg.reclaim_freq {
                self.reclaim_pop_freeable(tid);
            }
            // Ladder rung 2: the hard watermark converts retirement into
            // synchronous reclamation — nudge the suspects whose
            // conservatively-kept reservations inflate the keep set, then
            // bounded forced retries with a growing spin backoff.
            let mut tries = 0u32;
            while tries < HARD_RETRY_LIMIT
                && self.base.stats.pressure().rung() >= PressureRung::Hard
            {
                self.pop.reping_suspects(tid);
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
        // SAFETY: tid ownership (flush runs on the owning thread).
        if !unsafe { self.threads[tid].retire.get() }.is_empty() {
            self.reclaim_pop_freeable(tid);
        }
    }
}

impl Drop for EpochPop {
    fn drop(&mut self) {
        self.publisher.deactivate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{HasHeader, Header};
    use crate::smr::retire_node;
    use std::sync::atomic::AtomicBool;

    #[repr(C)]
    struct N {
        hdr: Header,
        v: u64,
    }
    unsafe impl HasHeader for N {}

    fn alloc(smr: &EpochPop, v: u64) -> *mut N {
        smr.note_alloc(0, core::mem::size_of::<N>());
        Box::into_raw(Box::new(N {
            hdr: Header::new(smr.current_era(), core::mem::size_of::<N>()),
            v,
        }))
    }

    #[test]
    fn epoch_mode_reclaims_without_signals() {
        let smr = EpochPop::new(SmrConfig::for_tests(1).with_reclaim_freq(16));
        let reg = smr.register(0);
        for i in 0..200 {
            smr.begin_op(0);
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
            smr.end_op(0);
        }
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
            .with_pop_c(2)
            .with_publish_mode(crate::config::PublishMode::Futex);
        let smr = EpochPop::new(cfg);
        let reg0 = smr.register(0);
        let hot = alloc(&smr, 9);
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
        for i in 0..4000u64 {
            smr.begin_op(0);
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
            smr.end_op(0);
        }
        let s = smr.stats().snapshot();
        assert!(s.pop_passes >= 1, "stall must engage publish-on-ping");
        assert!(s.pings_sent >= 1);
        let bound = (smr.config().pop_c * smr.config().reclaim_freq
            + smr.config().max_threads * smr.config().slots) as u64;
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

    #[test]
    fn idle_reader_pinged_after_end_op_pins_nothing() {
        use crate::pop_shared::testing::pinged_mid_op_keeps_node_then_idle_ping_publishes_nothing;
        pinged_mid_op_keeps_node_then_idle_ping_publishes_nothing(|smr: &EpochPop| smr.pop);
    }

    #[test]
    fn flush_drains_via_both_modes() {
        let smr = EpochPop::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        smr.begin_op(0);
        for i in 0..10 {
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
        // Still inside an op: epoch pass can't free everything, flush
        // escalates to POP which skips only the (empty) reserved set.
        smr.end_op(0);
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg);
    }
}
