//! `HP` — classic hazard pointers (Michael 2004; paper §2.1).
//!
//! Every protected read stores the pointer to a shared SWMR slot, executes
//! a **full memory fence**, and re-reads the source to validate
//! reachability. The per-read fence is the overhead publish-on-ping
//! removes; this implementation is the faithful baseline.

use core::sync::atomic::{fence, AtomicPtr, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;

use crate::base::{
    collect_slot_words_into, free_unreserved, push_retired, DomainBase, RetireSlot, ScratchSlot,
};
use crate::config::SmrConfig;
use crate::header::{unmark_word, Retired};
use crate::pop_shared::Rows;
use crate::smr::{ReadResult, Smr};
use crate::stats::DomainStats;

struct ThreadState {
    retire: RetireSlot,
    scratch: ScratchSlot,
}

/// Classic eager-publishing hazard pointers.
pub struct HazardPtr {
    base: DomainBase,
    /// `sharedReservations[tid][slot]` — eagerly published on every read.
    pub(crate) shared: Rows,
    threads: Box<[CachePadded<ThreadState>]>,
}

impl HazardPtr {
    fn reclaim(&self, tid: usize) {
        // Order the reservation scan after this thread's preceding unlinks
        // (pairs with readers' per-read fences).
        fence(Ordering::SeqCst);
        // SAFETY: tid ownership per the registration contract.
        let scratch = unsafe { self.threads[tid].scratch.get() };
        collect_slot_words_into(&self.base, &self.shared, &mut scratch.reserved);
        // SAFETY: tid ownership.
        let list = unsafe { self.threads[tid].retire.get() };
        self.base.stats.shard(tid).observe_retire_len(list.len());
        // SAFETY: `reserved` covers every published reservation; HP readers
        // publish (with a fence) before dereferencing.
        unsafe { free_unreserved(&self.base, tid, list, &scratch.reserved) };
    }
}

impl Smr for HazardPtr {
    const NAME: &'static str = "HP";
    const ROBUST: bool = true;
    const NEEDS_SIGNALS: bool = false;

    fn new(cfg: SmrConfig) -> Arc<Self> {
        let shared = Rows::new(cfg.max_threads, cfg.slots);
        let n = cfg.max_threads;
        let mut threads = Vec::with_capacity(n);
        threads.resize_with(n, || {
            CachePadded::new(ThreadState {
                retire: RetireSlot::for_cfg(&cfg),
                scratch: ScratchSlot::new(),
            })
        });
        Arc::new(HazardPtr {
            base: DomainBase::new(cfg),
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
            cell.store(0, Ordering::Release);
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
            cell.store(0, Ordering::Release);
        }
    }

    #[inline]
    fn protect<T>(&self, tid: usize, slot: usize, src: &AtomicPtr<T>) -> ReadResult<T> {
        let cell = self.shared.word(tid, slot);
        loop {
            let p = src.load(Ordering::Acquire);
            cell.store(unmark_word(p as u64), Ordering::Release);
            // The fence every read pays in classic HP (paper §2.1.1 step 2):
            // makes the reservation visible before the validation re-read.
            fence(Ordering::SeqCst);
            if src.load(Ordering::Acquire) == p {
                return Ok(p);
            }
        }
    }

    unsafe fn retire(&self, tid: usize, retired: Retired) {
        // SAFETY: tid ownership.
        let list = unsafe { self.threads[tid].retire.get() };
        if push_retired(&self.base, tid, list, retired) {
            self.reclaim(tid);
        }
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

    fn alloc(smr: &HazardPtr, v: u64) -> *mut N {
        smr.note_alloc(0, core::mem::size_of::<N>());
        Box::into_raw(Box::new(N {
            hdr: Header::new(0, core::mem::size_of::<N>()),
            v,
        }))
    }

    #[test]
    fn protect_records_and_validates() {
        let smr = HazardPtr::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        let node = alloc(&smr, 1);
        let src = AtomicPtr::new(node);
        let got = smr.protect(0, 0, &src).unwrap();
        assert_eq!(got, node);
        assert_eq!(
            smr.shared.word(0, 0).load(Ordering::Acquire),
            node as u64,
            "reservation published eagerly"
        );
        smr.end_op(0);
        assert_eq!(smr.shared.word(0, 0).load(Ordering::Acquire), 0);
        unsafe { drop(Box::from_raw(node)) };
        drop(reg);
    }

    #[test]
    fn reserved_nodes_survive_reclaim() {
        let smr = HazardPtr::new(SmrConfig::for_tests(2).with_reclaim_freq(8));
        let reg0 = smr.register(0);
        let reg1 = smr.register(1);
        // Thread 1 protects a node...
        let hot = alloc(&smr, 42);
        let src = AtomicPtr::new(hot);
        let got = smr.protect(1, 0, &src).unwrap();
        assert_eq!(got, hot);
        // ...thread 0 retires it (simulating an unlink) plus filler.
        src.store(core::ptr::null_mut(), Ordering::SeqCst);
        unsafe { retire_node(&*smr, 0, hot) };
        for i in 0..16 {
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
        smr.flush(0);
        let s = smr.stats().snapshot();
        assert!(s.freed_nodes >= 16, "unreserved filler freed");
        assert_eq!(
            s.unreclaimed_nodes(),
            1,
            "exactly the protected node survives"
        );
        // Release the protection: next pass frees it.
        smr.end_op(1);
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg1);
        drop(reg0);
    }

    #[test]
    fn marked_pointers_are_unmarked_in_reservations() {
        let smr = HazardPtr::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        let node = alloc(&smr, 7);
        let marked = (node as u64 | 1) as *mut N;
        let src = AtomicPtr::new(marked);
        let got = smr.protect(0, 0, &src).unwrap();
        assert_eq!(got as u64, node as u64 | 1, "mark returned to the caller");
        assert_eq!(
            smr.shared.word(0, 0).load(Ordering::Acquire),
            node as u64,
            "reservation recorded unmarked"
        );
        unsafe { drop(Box::from_raw(node)) };
        drop(reg);
    }

    #[test]
    fn quarantine_check_live_catches_freed_node() {
        let smr = HazardPtr::new(SmrConfig::for_tests(1).with_quarantine());
        let reg = smr.register(0);
        let node = alloc(&smr, 5);
        unsafe { retire_node(&*smr, 0, node) };
        smr.flush(0); // frees into quarantine (not reserved)
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            smr.check_live(node);
        }));
        assert!(r.is_err(), "check_live of a freed node must panic");
        // A live node passes.
        let live = alloc(&smr, 6);
        smr.check_live(live);
        unsafe { drop(Box::from_raw(live)) };
        drop(reg);
    }
}
