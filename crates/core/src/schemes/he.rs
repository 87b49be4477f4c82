//! `HE` — hazard eras (Ramalhete & Correia 2017; paper Appendix B.1,
//! Alg. 4).
//!
//! Readers reserve the current *era* (a global monotonically increasing
//! timestamp) instead of individual pointers. A fence is needed only when
//! the era changed since the slot's last publication, which amortizes the
//! per-read cost of classic HP. A node is freeable when no reserved era
//! intersects its `[birth_era, retire_era]` lifespan.

use core::sync::atomic::{fence, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;

use crate::base::{
    free_era_unreserved_with_stalled, push_retired, DomainBase, RetireSlot, ScratchSlot,
};
use crate::config::SmrConfig;
use crate::header::Retired;
use crate::pop_shared::Rows;
use crate::pressure::{PressureRung, HARD_RETRY_LIMIT, STALLED_AFTER_PASSES};
use crate::smr::{ReadResult, Smr};
use crate::stats::DomainStats;

/// Era slot value meaning "nothing reserved".
pub(crate) const NONE: u64 = 0;

struct ThreadState {
    retire: RetireSlot,
    scratch: ScratchSlot,
}

/// Hazard eras with eager (fenced) era publication.
pub struct HazardEra {
    base: DomainBase,
    /// Global era clock, starts at 1 (0 is the NONE sentinel).
    era: CachePadded<AtomicU64>,
    /// `sharedReservations[tid][slot]` holding era numbers.
    pub(crate) shared: Rows,
    threads: Box<[CachePadded<ThreadState>]>,
}

impl HazardEra {
    /// Stall-aware era collection: gathers the union of published eras
    /// into `reserved` (sorted, deduplicated) while feeding each thread's
    /// minimum published era into the domain stall tracker. Under the
    /// emergency rung the non-stalled threads' eras are additionally split
    /// into `active`, and the stalled reader with the lowest pinned era is
    /// elected blocker.
    fn collect_eras_stalled(
        &self,
        reserved: &mut Vec<u64>,
        active: &mut Vec<u64>,
    ) -> Option<(usize, u64)> {
        let emergency = self.base.stats.pressure().rung() >= PressureRung::Emergency;
        reserved.clear();
        active.clear();
        let mut blocker: Option<(usize, u64)> = None;
        for t in 0..self.base.cfg.max_threads {
            if !self.base.is_registered(t) {
                continue;
            }
            // Signature = minimum published era (NONE == 0 means idle): a
            // stalled reader re-publishing the same pinned era keeps it
            // constant; any progress moves it.
            let mut sig = 0u64;
            let start = reserved.len();
            for cell in self.shared.row(t) {
                let w = cell.load(Ordering::Acquire);
                if w != 0 {
                    reserved.push(w);
                    if sig == 0 || w < sig {
                        sig = w;
                    }
                }
            }
            let stalled = self.base.stall.observe(t, sig) >= STALLED_AFTER_PASSES && sig != 0;
            if !emergency {
                continue;
            }
            if stalled {
                if blocker.is_none_or(|(_, bw)| sig < bw) {
                    blocker = Some((t, sig));
                }
            } else {
                let end = reserved.len();
                active.extend_from_within(start..end);
            }
        }
        reserved.sort_unstable();
        reserved.dedup();
        active.sort_unstable();
        active.dedup();
        blocker
    }

    fn reclaim(&self, tid: usize) {
        // Alg. 4 line 21: advance the era so nodes retired from now on have
        // disjoint lifespans from long-held reservations.
        self.era.fetch_add(1, Ordering::AcqRel);
        fence(Ordering::SeqCst);
        // SAFETY: tid ownership per the registration contract.
        let scratch = unsafe { self.threads[tid].scratch.get() };
        let blocker = self.collect_eras_stalled(&mut scratch.reserved, &mut scratch.active);
        // SAFETY: tid ownership.
        let list = unsafe { self.threads[tid].retire.get() };
        // Ladder rung 3 unwind: blocks parked on an era the blocker no
        // longer publishes (or a reaped blocker) rejoin the list and are
        // re-filtered against the full union below.
        self.base.reclaim_released_quarantine(tid, list, |t, w| {
            self.shared
                .row(t)
                .any(|cell| cell.load(Ordering::Acquire) == w)
        });
        self.base.stats.shard(tid).observe_retire_len(list.len());
        let active = blocker.map(|(t, w)| (scratch.active.as_slice(), t, w));
        // SAFETY: `reserved` contains every published era; a node whose
        // lifespan misses all of them cannot be reachable from any reader.
        // The active split never frees: blocks pinned only by the stalled
        // blocker's eras are parked, not freed.
        unsafe {
            free_era_unreserved_with_stalled(&self.base, tid, list, &scratch.reserved, active)
        };
    }
}

impl Smr for HazardEra {
    const NAME: &'static str = "HE";
    const ROBUST: bool = true;
    const NEEDS_SIGNALS: bool = false;

    fn new(cfg: SmrConfig) -> Arc<Self> {
        let shared = Rows::new(cfg.max_threads, cfg.slots); // all `NONE`
        let n = cfg.max_threads;
        let mut threads = Vec::with_capacity(n);
        threads.resize_with(n, || {
            CachePadded::new(ThreadState {
                retire: RetireSlot::for_cfg(&cfg),
                scratch: ScratchSlot::new(),
            })
        });
        Arc::new(HazardEra {
            base: DomainBase::new(cfg),
            era: CachePadded::new(AtomicU64::new(1)),
            shared,
            threads: threads.into_boxed_slice(),
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
        for cell in self.shared.row(tid) {
            cell.store(NONE, Ordering::Release);
        }
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
    fn begin_op(&self, _tid: usize) {}

    #[inline]
    fn end_op(&self, tid: usize) {
        for cell in self.shared.row(tid) {
            cell.store(NONE, Ordering::Release);
        }
    }

    /// Alg. 4 `read()`: fence only when the era advanced since this slot's
    /// last publication.
    #[inline]
    fn protect<T>(&self, tid: usize, slot: usize, src: &AtomicPtr<T>) -> ReadResult<T> {
        let cell = self.shared.word(tid, slot);
        let mut prev_era = cell.load(Ordering::Relaxed);
        loop {
            let p = src.load(Ordering::Acquire);
            let e = self.era.load(Ordering::Acquire);
            if e == prev_era {
                return Ok(p);
            }
            cell.store(e, Ordering::Release);
            // The amortized StoreLoad fence (only on era change).
            fence(Ordering::SeqCst);
            prev_era = e;
        }
    }

    unsafe fn retire(&self, tid: usize, retired: Retired) {
        // SAFETY: tid ownership.
        let list = unsafe { self.threads[tid].retire.get() };
        if push_retired(&self.base, tid, list, retired) {
            self.reclaim(tid);
            // Ladder rung 2: bounded synchronous retries while the hard
            // watermark stays breached (HE has no pass controller, so the
            // soft rung is inert here; the hard rung is the first to act).
            let mut tries = 0u32;
            while tries < HARD_RETRY_LIMIT
                && self.base.stats.pressure().rung() >= PressureRung::Hard
            {
                for _ in 0..(64u32 << tries) {
                    core::hint::spin_loop();
                }
                self.reclaim(tid);
                tries += 1;
            }
        }
    }

    fn current_era(&self) -> u64 {
        self.era.load(Ordering::Acquire)
    }

    fn flush(&self, tid: usize) {
        self.reclaim(tid);
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

    fn alloc(smr: &HazardEra, v: u64) -> *mut N {
        smr.note_alloc(0, core::mem::size_of::<N>());
        Box::into_raw(Box::new(N {
            hdr: Header::new(smr.current_era(), core::mem::size_of::<N>()),
            v,
        }))
    }

    #[test]
    fn era_reservation_blocks_intersecting_lifespans() {
        let smr = HazardEra::new(SmrConfig::for_tests(2).with_reclaim_freq(4));
        let reg0 = smr.register(0);
        let reg1 = smr.register(1);
        // Thread 1 reserves the current era by protecting something.
        let hot = alloc(&smr, 7);
        let src = AtomicPtr::new(hot);
        let _ = smr.protect(1, 0, &src).unwrap();
        // Thread 0 retires `hot` (its lifespan covers t1's reserved era).
        src.store(core::ptr::null_mut(), Ordering::SeqCst);
        unsafe { retire_node(&*smr, 0, hot) };
        for i in 0..8 {
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
        smr.flush(0);
        let s = smr.stats().snapshot();
        // `hot` must survive; the fillers were born after the reserved era
        // but their lifespans *also* intersect it only if retired while it
        // was current — at minimum `hot` survives.
        assert!(s.unreclaimed_nodes() >= 1, "reserved-era node retained");
        smr.end_op(1);
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg1);
        drop(reg0);
    }

    #[test]
    fn era_advances_on_reclaim() {
        let smr = HazardEra::new(SmrConfig::for_tests(1).with_reclaim_freq(2));
        let reg = smr.register(0);
        let e0 = smr.current_era();
        for i in 0..8 {
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
        assert!(smr.current_era() > e0);
        drop(reg);
    }

    #[test]
    fn stable_era_needs_no_republication() {
        let smr = HazardEra::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        let node = alloc(&smr, 1);
        let src = AtomicPtr::new(node);
        let _ = smr.protect(0, 0, &src).unwrap();
        let published = smr.shared.word(0, 0).load(Ordering::Acquire);
        assert_eq!(published, smr.current_era());
        // Era unchanged: repeated protects must keep the same reservation.
        for _ in 0..10 {
            let _ = smr.protect(0, 0, &src).unwrap();
        }
        assert_eq!(smr.shared.word(0, 0).load(Ordering::Acquire), published);
        unsafe { drop(Box::from_raw(node)) };
        drop(reg);
    }

    #[test]
    fn quiescent_single_thread_drains_completely() {
        let smr = HazardEra::new(SmrConfig::for_tests(1).with_reclaim_freq(8));
        let reg = smr.register(0);
        for i in 0..64 {
            smr.begin_op(0);
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
            smr.end_op(0);
        }
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg);
    }
}
