//! `HPAsym` — hazard pointers with an asymmetric process-wide barrier
//! (the Folly / `sys_membarrier` design the paper benchmarks as `HPAsym`).
//!
//! Readers publish reservations to the shared slots with **relaxed** stores
//! (no fence) and validate with a re-read; the StoreLoad ordering that
//! classic HP pays per read is executed *once per reclamation pass* by the
//! reclaimer as a process-wide barrier:
//!
//! * `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)` when the kernel
//!   supports it, or
//! * a signal-driven barrier otherwise (every registered thread's handler
//!   executes a fence and bumps a counter — liburcu's "signal flavor"),
//!   reusing the publish-on-ping engine with the copy step degenerate
//!   (reservations are already shared).
//!
//! Correctness of the relaxed-store fast path: the reclaimer's barrier sits
//! between unlink and scan. Any reader whose reservation store was not yet
//! visible at the barrier must execute its validation load after the
//! barrier, and therefore observes the unlink and retries (paper §2.1.2
//! discussion of [Dice et al.] and Folly).

use core::sync::atomic::{compiler_fence, fence, AtomicPtr, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use pop_runtime::membarrier;
use pop_runtime::signal::register_publisher;
use pop_runtime::PublisherHandle;

use crate::base::{
    collect_slot_words_into, free_unreserved, push_retired, DomainBase, RetireSlot, ScratchSlot,
};
use crate::config::SmrConfig;
use crate::header::{unmark_word, Retired};
use crate::pop_shared::{PopShared, Rows};
use crate::smr::{ReadResult, Smr};
use crate::stats::DomainStats;

struct ThreadState {
    retire: RetireSlot,
    scratch: ScratchSlot,
}

/// Folly-style hazard pointers with asymmetric fences.
pub struct HazardPtrAsym {
    base: DomainBase,
    /// Eagerly-shared reservations (relaxed stores).
    pub(crate) shared: Rows,
    /// Signal fallback barrier (0 copy slots: reservations are already
    /// shared; the handler contributes its fence + counter increment).
    barrier: &'static PopShared,
    publisher: PublisherHandle,
    threads: Box<[CachePadded<ThreadState>]>,
}

impl HazardPtrAsym {
    /// The heavy side of the asymmetric barrier. `counters` is the caller's
    /// reusable scratch for the signal fallback.
    fn heavy_barrier(&self, tid: usize, counters: &mut Vec<u64>) {
        // `heavy_membarrier` is the runtime service's single probe +
        // counting site, shared with the POP membarrier publish mode.
        if !self.barrier.heavy_membarrier(tid) {
            // Signal fallback: each handler fences and bumps its counter;
            // waiting for all counters gives the same process-wide ordering.
            self.barrier.ping_all_and_wait(tid, counters);
        }
    }

    fn reclaim(&self, tid: usize) {
        fence(Ordering::SeqCst);
        // SAFETY: tid ownership per the registration contract.
        let scratch = unsafe { self.threads[tid].scratch.get() };
        self.heavy_barrier(tid, &mut scratch.counters);
        // Reap a confirmed-dead participant (signal-fallback barriers flag
        // one via the publish-wait watchdog; the membarrier path never
        // pings, so detection rides the fallback or another domain). The
        // eager reservation words are zeroed inside the closure — i.e.
        // before `reap_one_dead` releases the tid for reuse — so the store
        // can never clobber a new claimant's live reservation.
        self.barrier.reap_one_dead(&self.base, tid, |t| {
            for cell in self.shared.row(t) {
                cell.store(0, Ordering::Release);
            }
            // SAFETY: `reap_one_dead` established exclusivity (won reap
            // CAS + registry-confirmed death of the owner).
            unsafe { self.threads[t].retire.get() }
        });
        collect_slot_words_into(&self.base, &self.shared, &mut scratch.reserved);
        // SAFETY: tid ownership.
        let list = unsafe { self.threads[tid].retire.get() };
        self.base.stats.shard(tid).observe_retire_len(list.len());
        // SAFETY: post-barrier, every reader either has its reservation
        // visible in `reserved` or will fail validation against the unlink.
        unsafe { free_unreserved(&self.base, tid, list, &scratch.reserved) };
    }

    /// Whether this process reclaims via `membarrier(2)` (vs signals).
    pub fn uses_membarrier(&self) -> bool {
        membarrier::is_available()
    }
}

impl Smr for HazardPtrAsym {
    const NAME: &'static str = "HPAsym";
    const ROBUST: bool = true;
    // Register with the signal registry for the fallback barrier.
    const NEEDS_SIGNALS: bool = true;

    fn new(cfg: SmrConfig) -> Arc<Self> {
        let shared = Rows::new(cfg.max_threads, cfg.slots);
        let n = cfg.max_threads;
        let base = DomainBase::new(cfg);
        // Zero copy-slots: the barrier publisher only fences and counts.
        // Quiescent filtering stays OFF — the reservations this barrier
        // orders live in `self.shared`, not in the PopShared slots, so
        // every handler execution is load-bearing.
        let barrier = PopShared::leak(
            n,
            0,
            Arc::clone(&base.stats),
            false,
            base.cfg.publish_spin,
            base.cfg.publish_deadline_ns,
            // Not membarrier-*configured*: the PopShared here is only the
            // signal fallback engine. The membarrier fast path is taken
            // explicitly in `heavy_barrier` via `heavy_membarrier`.
            false,
        );
        let publisher = register_publisher(barrier);
        let mut threads = Vec::with_capacity(n);
        threads.resize_with(n, || {
            CachePadded::new(ThreadState {
                retire: RetireSlot::for_cfg(&base.cfg),
                scratch: ScratchSlot::new(),
            })
        });
        Arc::new(HazardPtrAsym {
            base,
            shared,
            barrier,
            publisher,
            threads: threads.into_boxed_slice(),
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
        self.barrier.register(tid, gtid);
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
        self.barrier.unregister(tid);
        self.base.clear_gtid(tid);
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

    /// Fence-free protected read: relaxed reservation store + validation.
    #[inline]
    fn protect<T>(&self, tid: usize, slot: usize, src: &AtomicPtr<T>) -> ReadResult<T> {
        let cell = self.shared.word(tid, slot);
        loop {
            let p = src.load(Ordering::Acquire);
            cell.store(unmark_word(p as u64), Ordering::Relaxed);
            // Keep the store before the validation load in program order;
            // free at run time — the reclaimer's barrier does the real work.
            compiler_fence(Ordering::SeqCst);
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

impl Drop for HazardPtrAsym {
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

    fn alloc(smr: &HazardPtrAsym, v: u64) -> *mut N {
        smr.note_alloc(0, core::mem::size_of::<N>());
        Box::into_raw(Box::new(N {
            hdr: Header::new(0, core::mem::size_of::<N>()),
            v,
        }))
    }

    #[test]
    fn protect_publishes_eagerly_without_fence() {
        let smr = HazardPtrAsym::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        let node = alloc(&smr, 1);
        let src = AtomicPtr::new(node);
        let _ = smr.protect(0, 0, &src).unwrap();
        assert_eq!(
            smr.shared.word(0, 0).load(Ordering::Acquire),
            node as u64,
            "reservation must be in the shared slot immediately"
        );
        unsafe { drop(Box::from_raw(node)) };
        drop(reg);
    }

    #[test]
    fn barrier_reclaim_respects_cross_thread_reservation() {
        let smr = HazardPtrAsym::new(SmrConfig::for_tests(2).with_reclaim_freq(4));
        let reg0 = smr.register(0);
        let hot = alloc(&smr, 7);
        let src = Arc::new(AtomicPtr::new(hot));
        let hold = Arc::new(AtomicBool::new(true));
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn({
            let smr = Arc::clone(&smr);
            let src = Arc::clone(&src);
            let hold = Arc::clone(&hold);
            move || {
                let reg1 = smr.register(1);
                let p = smr.protect(1, 0, &src).unwrap();
                tx.send(()).unwrap();
                while hold.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                assert_eq!(unsafe { (*p).v }, 7);
                smr.end_op(1);
                drop(reg1);
            }
        });
        rx.recv().unwrap();
        src.store(core::ptr::null_mut(), Ordering::SeqCst);
        unsafe { retire_node(&*smr, 0, hot) };
        for i in 0..8 {
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 1);
        hold.store(false, Ordering::Release);
        reader.join().unwrap();
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg0);
    }

    #[test]
    fn some_heavy_barrier_mechanism_ran() {
        let smr = HazardPtrAsym::new(SmrConfig::for_tests(1).with_reclaim_freq(2));
        let reg = smr.register(0);
        for i in 0..8 {
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
        let s = smr.stats().snapshot();
        assert!(
            s.membarriers > 0 || s.publishes > 0,
            "either membarrier or the signal fallback must have executed"
        );
        drop(reg);
    }
}
