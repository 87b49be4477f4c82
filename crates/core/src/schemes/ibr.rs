//! `IBR` — interval-based reclamation, 2GE variant (Wen et al. 2018).
//!
//! Each thread publishes one reservation *interval* `[lower, upper]` of
//! epochs instead of per-slot eras. `begin_op` announces the current epoch
//! as both bounds; each protected read raises `upper` to the current epoch
//! (with an ordered store only when the epoch changed — the same
//! amortization as hazard eras, but with a single interval per thread).
//! A node is freeable when its `[birth_era, retire_era]` lifespan
//! intersects no thread's interval.

use core::sync::atomic::{fence, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;

use crate::base::{
    keep_mask, push_retired, sweep_blocks, BlockPlan, DomainBase, EpochClocks, RetireSlot,
    ScratchSlot,
};
use crate::config::SmrConfig;
use crate::controller::PassController;
use crate::header::Retired;
use crate::pressure::{PressureRung, STALLED_AFTER_PASSES};
use crate::smr::{ReadResult, Smr};
use crate::stats::DomainStats;

use super::epoch::QUIESCENT;

struct ThreadState {
    retire: RetireSlot,
    scratch: ScratchSlot,
    op_count: AtomicU64,
}

/// 2GE interval-based reclamation.
pub struct Ibr {
    base: DomainBase,
    clocks: EpochClocks,
    /// Epoch-cadence decay (adaptive controller).
    ctl: PassController,
    lower: Box<[CachePadded<AtomicU64>]>,
    upper: Box<[CachePadded<AtomicU64>]>,
    threads: Box<[CachePadded<ThreadState>]>,
}

impl Ibr {
    /// Stall-aware interval collection: every registered lower bound feeds
    /// the domain stall tracker (ages accrue before the emergency rung
    /// engages). Under the emergency rung the non-stalled intervals are
    /// split into `active` and the stalled reader with the lowest pinned
    /// bound is elected blocker; otherwise `active` is left empty and no
    /// blocker is returned.
    fn collect_intervals_into(
        &self,
        out: &mut Vec<(u64, u64)>,
        active: &mut Vec<(u64, u64)>,
    ) -> Option<(usize, u64)> {
        let emergency = self.base.stats.pressure().rung() >= PressureRung::Emergency;
        out.clear();
        active.clear();
        let mut blocker: Option<(usize, u64)> = None;
        for t in 0..self.base.cfg.max_threads {
            if !self.base.is_registered(t) {
                continue;
            }
            let lo = self.lower[t].load(Ordering::SeqCst);
            let hi = self.upper[t].load(Ordering::SeqCst);
            // Quiescent is idle, never stalled; live lower bounds shift by
            // one so a reader pinned at epoch 0 stays distinguishable.
            let sig = if lo == QUIESCENT {
                0
            } else {
                lo.wrapping_add(1)
            };
            let stalled =
                self.base.stall.observe(t, sig) >= STALLED_AFTER_PASSES && lo != QUIESCENT;
            if lo == QUIESCENT {
                continue;
            }
            out.push((lo, hi));
            if !emergency {
                continue;
            }
            if stalled {
                if blocker.is_none_or(|(_, bw)| lo < bw) {
                    blocker = Some((t, lo));
                }
            } else {
                active.push((lo, hi));
            }
        }
        blocker
    }

    /// One interval pass. Retire-triggered passes honor decay thinning;
    /// flush/unregister passes are always full.
    fn reclaim(&self, tid: usize, forced: bool) {
        if !self.ctl.admit(self.base.stats.pressure().rung(), forced) {
            return;
        }
        // Advance the epoch (reclaimer-side max-aggregation; the self-tick
        // keeps nodes retired from now on separable from old intervals).
        self.clocks.advance_max_scan(tid);
        fence(Ordering::SeqCst);
        // SAFETY: tid ownership per the registration contract.
        let scratch = unsafe { self.threads[tid].scratch.get() };
        let blocker =
            self.collect_intervals_into(&mut scratch.intervals, &mut scratch.active_intervals);
        let intervals = &scratch.intervals;
        let active = &scratch.active_intervals;
        // SAFETY: tid ownership.
        let list = unsafe { self.threads[tid].retire.get() };
        // Ladder rung 3 unwind: blocks parked on a lower bound that moved
        // (or a reaped blocker) rejoin the list for re-filtering below.
        self.base.reclaim_released_quarantine(tid, list, |t, w| {
            self.lower[t].load(Ordering::SeqCst) == w
        });
        self.base.stats.shard(tid).observe_retire_len(list.len());
        // SAFETY: a node whose lifespan intersects no announced interval
        // cannot have been acquired by any thread. Quarantine (emergency
        // rung) parks blocks that some interval pins but no *non-stalled*
        // interval touches — the envelope test is sound because every
        // member lifespan lies inside the block envelope.
        let freed = unsafe {
            sweep_blocks(&self.base, tid, list, |b| {
                let mask = keep_mask(b, |r| {
                    let (birth, retire) = (r.birth_era(), r.retire_era());
                    intervals
                        .iter()
                        .any(|&(lo, hi)| birth <= hi && retire >= lo)
                });
                if mask == 0 {
                    // Fully freeable: never quarantine what can be freed.
                    return BlockPlan::Mask(0);
                }
                if let Some((blocker_tid, word)) = blocker {
                    let (min_birth, _, max_retire) = b.era_ranges();
                    if active
                        .iter()
                        .all(|&(lo, hi)| !(min_birth <= hi && max_retire >= lo))
                    {
                        return BlockPlan::Quarantine { blocker_tid, word };
                    }
                }
                BlockPlan::Mask(mask)
            })
        };
        self.ctl
            .note_pass_outcome(self.base.stats.shard(tid), freed);
    }
}

impl Smr for Ibr {
    const NAME: &'static str = "IBR";
    const ROBUST: bool = true;
    const NEEDS_SIGNALS: bool = false;

    fn new(cfg: SmrConfig) -> Arc<Self> {
        let n = cfg.max_threads;
        let mut lower = Vec::with_capacity(n);
        lower.resize_with(n, || CachePadded::new(AtomicU64::new(QUIESCENT)));
        let mut upper = Vec::with_capacity(n);
        upper.resize_with(n, || CachePadded::new(AtomicU64::new(QUIESCENT)));
        let mut threads = Vec::with_capacity(n);
        threads.resize_with(n, || {
            CachePadded::new(ThreadState {
                retire: RetireSlot::for_cfg(&cfg),
                scratch: ScratchSlot::new(),
                op_count: AtomicU64::new(0),
            })
        });
        Arc::new(Ibr {
            clocks: EpochClocks::new(n),
            ctl: PassController::new(cfg.adaptive),
            lower: lower.into_boxed_slice(),
            upper: upper.into_boxed_slice(),
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
        self.lower[tid].store(QUIESCENT, Ordering::SeqCst);
        self.upper[tid].store(QUIESCENT, Ordering::SeqCst);
        // SAFETY: tid was just claimed; this thread owns the slot.
        let list = unsafe { self.threads[tid].retire.get() };
        self.base.adopt_orphan_chunk(tid, list);
    }

    fn unregister(&self, tid: usize) {
        self.end_op(tid);
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
            // Private clock tick — no shared RMW on the op path.
            self.clocks.tick(tid);
        }
        let e = self.clocks.current();
        self.lower[tid].store(e, Ordering::Relaxed);
        // SeqCst on the second bound orders the whole announcement before
        // subsequent reads (one fence per operation, as in EBR).
        self.upper[tid].store(e, Ordering::SeqCst);
    }

    #[inline]
    fn end_op(&self, tid: usize) {
        self.lower[tid].store(QUIESCENT, Ordering::Release);
        self.upper[tid].store(QUIESCENT, Ordering::Release);
    }

    /// IBR's tagged read: raise `upper` (with an ordered store) only when
    /// the global epoch moved since this thread's last announcement.
    #[inline]
    fn protect<T>(&self, tid: usize, _slot: usize, src: &AtomicPtr<T>) -> ReadResult<T> {
        let upper = &self.upper[tid];
        let mut cur = upper.load(Ordering::Relaxed);
        loop {
            let p = src.load(Ordering::Acquire);
            let e = self.clocks.current();
            if e == cur {
                return Ok(p);
            }
            // Epoch changed mid-read: extend the interval and re-read so
            // the returned pointer's read is covered by the reservation.
            upper.store(e, Ordering::SeqCst);
            cur = e;
        }
    }

    unsafe fn retire(&self, tid: usize, retired: Retired) {
        // SAFETY: tid ownership.
        let list = unsafe { self.threads[tid].retire.get() };
        if push_retired(&self.base, tid, list, retired) {
            self.reclaim(tid, false);
            self.base
                .hard_rung_retries(|| {}, || self.reclaim(tid, true));
        }
    }

    fn current_era(&self) -> u64 {
        self.clocks.current()
    }

    fn flush(&self, tid: usize) {
        self.reclaim(tid, true);
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

    fn alloc(smr: &Ibr, v: u64) -> *mut N {
        smr.note_alloc(0, core::mem::size_of::<N>());
        Box::into_raw(Box::new(N {
            hdr: Header::new(smr.current_era(), core::mem::size_of::<N>()),
            v,
        }))
    }

    #[test]
    fn quiescent_thread_blocks_nothing() {
        let smr = Ibr::new(SmrConfig::for_tests(2).with_reclaim_freq(8));
        let reg0 = smr.register(0);
        let reg1 = smr.register(1); // registered but quiescent
        for i in 0..32 {
            smr.begin_op(0);
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
            smr.end_op(0);
        }
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
        let hot = alloc(&smr, 7);
        let src = AtomicPtr::new(hot);
        let _ = smr.protect(1, 0, &src).unwrap();
        // Thread 0 retires `hot`: lifespan [now, now] intersects t1's
        // interval → must be retained.
        src.store(core::ptr::null_mut(), Ordering::SeqCst);
        unsafe { retire_node(&*smr, 0, hot) };
        for i in 0..8 {
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
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
        let smr = Ibr::new(SmrConfig::for_tests(1).with_epoch_freq(1));
        let reg = smr.register(0);
        smr.begin_op(0);
        let lo0 = smr.lower[0].load(Ordering::SeqCst);
        // Advance the epoch underneath the running op, through the
        // sanctioned path: tick the clock, aggregate as a reclaimer would.
        for _ in 0..5 {
            smr.clocks.tick(0);
        }
        smr.clocks.advance_max_scan(0);
        let node = alloc(&smr, 1);
        let src = AtomicPtr::new(node);
        let _ = smr.protect(0, 0, &src).unwrap();
        let hi = smr.upper[0].load(Ordering::SeqCst);
        assert!(hi >= lo0 + 5, "upper bound must chase the epoch");
        assert_eq!(smr.lower[0].load(Ordering::SeqCst), lo0, "lower pinned");
        smr.end_op(0);
        unsafe { drop(Box::from_raw(node)) };
        drop(reg);
    }
}
