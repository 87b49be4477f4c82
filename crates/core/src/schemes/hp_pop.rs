//! **`HazardPtrPOP`** — hazard pointers with publish-on-ping (paper §4.1,
//! Algorithms 1–2). The primary contribution.
//!
//! Reads record reservations with a relaxed store into thread-private slots
//! — *no fence* (Alg. 1 line 12: "no store load fence needed"). When a
//! reclaimer's retire list reaches the threshold it pings every registered
//! thread with a POSIX signal; each handler copies local → shared
//! reservations, fences once, and bumps its publish counter. The reclaimer
//! waits for all counters to advance, scans the shared slots, and frees
//! everything unreserved.
//!
//! Robustness (paper Property 3): at most `N × H` nodes (threads × slots)
//! can ever be exempted from a reclamation pass, so per-thread garbage is
//! bounded by `reclaim_freq + N × H`.

use core::sync::atomic::{compiler_fence, AtomicPtr, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use pop_runtime::signal::register_publisher;
use pop_runtime::PublisherHandle;

use crate::base::{free_unreserved, push_retired, DomainBase, RetireSlot, ScratchSlot};
use crate::config::SmrConfig;
use crate::header::{unmark_word, Retired};
use crate::pop_shared::PopShared;
use crate::smr::{ReadResult, Smr};
use crate::stats::DomainStats;

struct ThreadState {
    retire: RetireSlot,
    scratch: ScratchSlot,
}

/// Hazard pointers that publish reservations on ping.
pub struct HazardPtrPop {
    base: DomainBase,
    /// Leaked shared state reachable from the signal handler.
    pop: &'static PopShared,
    publisher: PublisherHandle,
    threads: Box<[CachePadded<ThreadState>]>,
}

impl HazardPtrPop {
    /// The paper's `retire` threshold path (Alg. 1 lines 18–22):
    /// `collectPublishedCounters; pingAllToPublish; waitForAllPublished;
    /// reclaimHPFreeable`. Allocation-free in steady state: all buffers
    /// come from the thread's [`ScratchSlot`].
    fn pop_reclaim(&self, tid: usize) {
        let shard = self.base.stats.shard(tid);
        shard.pop_passes.fetch_add(1, Ordering::Relaxed);
        // SAFETY: tid ownership per the registration contract.
        let scratch = unsafe { self.threads[tid].scratch.get() };
        self.pop.ping_all_and_wait(tid, &mut scratch.counters);
        // Reap a confirmed-dead participant (flagged by the wait's
        // watchdog) before scanning: a dead thread's reservations protect
        // nothing, and removing it now recovers its slot and parks its
        // retires this pass instead of next.
        self.pop.reap_one_dead(&self.base, tid, |t| {
            // SAFETY: `reap_one_dead` established exclusivity (won reap
            // CAS + registry-confirmed death of the owner).
            unsafe { self.threads[t].retire.get() }
        });
        self.pop.collect_reserved_into(&mut scratch.reserved);
        // SAFETY: tid ownership.
        let list = unsafe { self.threads[tid].retire.get() };
        shard.observe_retire_len(list.len());
        // SAFETY: every thread published (counter advanced), deregistered
        // (flushing empty reservations), or was provably quiescent holding
        // no reservations; `reserved` therefore covers every pointer any
        // thread can still dereference.
        unsafe { free_unreserved(&self.base, tid, list, &scratch.reserved) };
    }

    /// Test observability: currently published (shared) reservations.
    #[doc(hidden)]
    pub fn published_reservations(&self) -> Vec<u64> {
        self.pop.collect_reserved()
    }
}

impl Smr for HazardPtrPop {
    const NAME: &'static str = "HazardPtrPOP";
    const ROBUST: bool = true;
    const NEEDS_SIGNALS: bool = true;

    fn new(cfg: SmrConfig) -> Arc<Self> {
        let n = cfg.max_threads;
        let base = DomainBase::new(cfg);
        let pop = PopShared::for_domain(&base);
        let publisher = register_publisher(pop);
        let mut threads = Vec::with_capacity(n);
        threads.resize_with(n, || {
            CachePadded::new(ThreadState {
                retire: RetireSlot::for_cfg(&base.cfg),
                scratch: ScratchSlot::new(),
            })
        });
        Arc::new(HazardPtrPop {
            base,
            pop,
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
        self.pop.register(tid, gtid);
    }

    fn register_raw(&self, tid: usize) {
        self.base.claim(tid);
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

    #[inline]
    fn begin_op(&self, tid: usize) {
        // Activity word → odd: reclaimers must ping us from here on. The
        // fence inside is the one ordered instruction HazardPtrPOP pays
        // per *operation* (reads stay fence-free); it buys eliding signals
        // to quiescent threads.
        self.pop.note_active(tid);
    }

    #[inline]
    fn end_op(&self, tid: usize) {
        // Paper's clear(), made as lazy as its publish: one Release store
        // of the activity word. The row is cleared by whoever pings a
        // quiescent owner — publishing nothing — not here.
        self.pop.end_op(tid);
    }

    /// Alg. 1 `read()`: load, reserve locally (relaxed), validate. The
    /// `compiler_fence` pins program order in codegen but emits no
    /// instruction — signal delivery is the synchronization point.
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

    unsafe fn retire(&self, tid: usize, retired: Retired) {
        // SAFETY: tid ownership.
        let list = unsafe { self.threads[tid].retire.get() };
        if push_retired(&self.base, tid, list, retired) {
            self.pop_reclaim(tid);
        }
    }

    fn flush(&self, tid: usize) {
        self.pop_reclaim(tid);
    }
}

impl Drop for HazardPtrPop {
    fn drop(&mut self) {
        // Stop handler dispatches; the PopShared arrays stay leaked by
        // design (a dispatch may be in flight on another thread).
        self.publisher.deactivate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{HasHeader, Header};
    use crate::smr::retire_node;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[repr(C)]
    struct N {
        hdr: Header,
        v: u64,
    }
    unsafe impl HasHeader for N {}

    fn alloc(smr: &HazardPtrPop, v: u64) -> *mut N {
        smr.note_alloc(0, core::mem::size_of::<N>());
        Box::into_raw(Box::new(N {
            hdr: Header::new(0, core::mem::size_of::<N>()),
            v,
        }))
    }

    #[test]
    fn reservations_stay_private_until_ping() {
        let smr = HazardPtrPop::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        let node = alloc(&smr, 1);
        let src = AtomicPtr::new(node);
        let _ = smr.protect(0, 0, &src).unwrap();
        assert!(
            smr.published_reservations().is_empty(),
            "no eager publication — the defining property of POP"
        );
        unsafe { drop(Box::from_raw(node)) };
        drop(reg);
    }

    #[test]
    fn single_thread_reclaim_respects_own_reservations() {
        let smr = HazardPtrPop::new(SmrConfig::for_tests(1).with_reclaim_freq(4));
        let reg = smr.register(0);
        let hot = alloc(&smr, 42);
        let src = AtomicPtr::new(hot);
        smr.begin_op(0);
        let _ = smr.protect(0, 0, &src).unwrap();
        src.store(core::ptr::null_mut(), Ordering::SeqCst);
        unsafe { retire_node(&*smr, 0, hot) };
        for i in 0..8 {
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
        smr.flush(0); // drain sub-threshold leftovers
        let s = smr.stats().snapshot();
        assert!(s.pop_passes >= 1, "threshold reclaim ran");
        assert_eq!(
            s.unreclaimed_nodes(),
            1,
            "self-published reservation protects the hot node"
        );
        smr.end_op(0);
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg);
    }

    #[test]
    fn cross_thread_ping_publishes_and_protects() {
        // Pin the signal path: the assertions below are about pings and
        // handler publishes, which a POP_PUBLISH_MODE=membarrier CI leg
        // would (correctly) elide.
        let smr = HazardPtrPop::new(
            SmrConfig::for_tests(2)
                .with_reclaim_freq(4)
                .with_publish_mode(crate::config::PublishMode::Futex),
        );
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
                smr.begin_op(1);
                let p = smr.protect(1, 0, &src).unwrap();
                tx.send(()).unwrap();
                // Keep the protection while spinning; the reclaimer's ping
                // interrupts this loop and publishes our reservation.
                while hold.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                // Node must still be dereferenceable here.
                assert_eq!(unsafe { (*p).v }, 7);
                smr.end_op(1);
                drop(reg1);
            }
        });

        rx.recv().unwrap();
        // Unlink and retire the protected node plus filler, forcing a
        // publish-on-ping reclamation pass.
        src.store(core::ptr::null_mut(), Ordering::SeqCst);
        unsafe { retire_node(&*smr, 0, hot) };
        for i in 0..8 {
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
        smr.flush(0);
        let s = smr.stats().snapshot();
        assert!(s.pings_sent >= 1, "reclaimer pinged the reader");
        assert!(s.publishes >= 1, "reader's handler published");
        assert_eq!(
            s.unreclaimed_nodes(),
            1,
            "pinged reader's reservation was honored"
        );
        hold.store(false, Ordering::Release);
        reader.join().unwrap();
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg0);
    }

    #[test]
    fn idle_reader_pinged_after_end_op_pins_nothing() {
        use crate::pop_shared::testing::pinged_mid_op_keeps_node_then_idle_ping_publishes_nothing;
        pinged_mid_op_keeps_node_then_idle_ping_publishes_nothing(|smr: &HazardPtrPop| smr.pop);
    }

    #[test]
    fn membarrier_mode_protects_without_any_signals() {
        // Same cross-thread shape as above, but under the membarrier
        // publish mode: the reader's reservation reaches the reclaimer
        // through the shared slots + one heavy barrier — no ping, no
        // handler publish — and is honored identically.
        if !pop_runtime::membarrier::is_available() {
            return;
        }
        let smr = HazardPtrPop::new(
            SmrConfig::for_tests(2)
                .with_reclaim_freq(4)
                .with_publish_mode(crate::config::PublishMode::Membarrier),
        );
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
        let s = smr.stats().snapshot();
        assert_eq!(s.pings_sent, 0, "membarrier mode must not signal");
        assert_eq!(s.publishes, 0, "no handler publishes either");
        assert!(s.membarrier_passes >= 1, "the pass took the fast path");
        assert!(s.signals_avoided >= 1, "the elided fan-out is accounted");
        assert_eq!(
            s.unreclaimed_nodes(),
            1,
            "shared-slot reservation honored without any publication step"
        );
        hold.store(false, Ordering::Release);
        reader.join().unwrap();
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg0);
    }

    #[test]
    fn quiescent_idle_thread_is_not_pinged() {
        // A registered but quiescent peer with an empty published row must
        // be skipped by pingAllToPublish — the quiescent-thread filter —
        // whatever its finished operation left in its private row.
        let smr = HazardPtrPop::new(
            SmrConfig::for_tests(2)
                .with_reclaim_freq(4)
                // Signal path pinned: the filter counters only move there.
                .with_publish_mode(crate::config::PublishMode::Futex),
        );
        let reg0 = smr.register(0);
        let hold = Arc::new(AtomicBool::new(true));
        let (tx, rx) = std::sync::mpsc::channel();
        let idler = std::thread::spawn({
            let smr = Arc::clone(&smr);
            let hold = Arc::clone(&hold);
            move || {
                let reg1 = smr.register(1);
                // One full op cycle, then stay registered but idle.
                let node = alloc(&smr, 5);
                let src = AtomicPtr::new(node);
                smr.begin_op(1);
                let _ = smr.protect(1, 0, &src).unwrap();
                smr.end_op(1);
                assert_ne!(smr.pop.local_at(1, 0), 0, "end_op clears nothing");
                tx.send(()).unwrap();
                while hold.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                unsafe { drop(Box::from_raw(node)) };
                drop(reg1);
            }
        });
        rx.recv().unwrap();
        for i in 0..16 {
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
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
    fn parked_reclaimer_is_woken_by_pinged_readers_handler() {
        // Zero spin budget: the reclaimer parks on the reader's publish
        // word immediately after pinging. The reader's signal handler must
        // publish and FUTEX_WAKE the reclaimer — the pass completes well
        // before the wait-timeout backstop could accumulate.
        let smr = HazardPtrPop::new(
            SmrConfig::for_tests(2)
                .with_reclaim_freq(4)
                .with_publish_spin(0)
                // Futex mode pinned: this test is about the park/wake pair.
                .with_publish_mode(crate::config::PublishMode::Futex),
        );
        let reg0 = smr.register(0);
        let hot = alloc(&smr, 11);
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
                let _ = smr.protect(1, 0, &src).unwrap();
                tx.send(()).unwrap();
                while hold.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
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
        let t0 = std::time::Instant::now();
        smr.flush(0);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "handler wake must release the parked reclaimer"
        );
        let s = smr.stats().snapshot();
        assert!(s.pings_sent >= 1, "reader was pinged");
        assert!(s.publishes >= 1, "handler published");
        assert_eq!(s.unreclaimed_nodes(), 1, "reservation honored");
        hold.store(false, Ordering::Release);
        reader.join().unwrap();
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg0);
    }

    #[test]
    fn robustness_bound_holds_with_stalled_reader() {
        // A reader stalls inside an operation while holding one
        // protection; the writer keeps retiring. Unlike EBR, garbage must
        // stay bounded — and the pinned node must survive, because every
        // pass pings the reader and it publishes its live word.
        let cfg = SmrConfig::for_tests(2)
            .with_reclaim_freq(32)
            // Signal path pinned: the assertions count pings.
            .with_publish_mode(crate::config::PublishMode::Futex);
        let smr = HazardPtrPop::new(cfg);
        let reg0 = smr.register(0);
        let hot = alloc(&smr, 9);
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
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
        let s = smr.stats().snapshot();
        let bound =
            (smr.config().reclaim_freq + smr.config().max_threads * smr.config().slots) as u64;
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
}
