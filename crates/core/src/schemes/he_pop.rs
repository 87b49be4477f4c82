//! **`HazardEraPOP`** — hazard eras with publish-on-ping (paper Appendix
//! B.2, Alg. 5).
//!
//! Like [`crate::schemes::he::HazardEra`], readers reserve eras — but
//! privately, with relaxed stores and *no fence even on era change*
//! (Alg. 5 line 16: "no store load fence needed"). Reservations reach
//! reclaimers through the ping → signal-handler → publish path shared with
//! HazardPtrPOP. Before pinging, the reclaimer advances the global era so
//! that reservations made after the ping cannot cover the retiring nodes'
//! lifespans (the safety argument of Property 6 relies on this advance).

use core::sync::atomic::{compiler_fence, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use pop_runtime::signal::register_publisher;
use pop_runtime::PublisherHandle;

use crate::base::{
    free_era_unreserved_with_stalled, push_retired, DomainBase, RetireSlot, ScratchSlot,
};
use crate::config::SmrConfig;
use crate::header::Retired;
use crate::pop_shared::PopShared;
use crate::pressure::{PressureRung, HARD_RETRY_LIMIT, STALLED_AFTER_PASSES};
use crate::smr::{ReadResult, Smr};
use crate::stats::DomainStats;

struct ThreadState {
    retire: RetireSlot,
    scratch: ScratchSlot,
}

/// Hazard eras that publish reservations on ping.
pub struct HazardEraPop {
    base: DomainBase,
    era: CachePadded<AtomicU64>,
    /// Era words (0 = NONE) flowing local → shared on ping.
    pop: &'static PopShared,
    publisher: PublisherHandle,
    threads: Box<[CachePadded<ThreadState>]>,
}

impl HazardEraPop {
    fn pop_reclaim(&self, tid: usize) {
        let shard = self.base.stats.shard(tid);
        shard.pop_passes.fetch_add(1, Ordering::Relaxed);
        // Advance the era before pinging (see module docs).
        self.era.fetch_add(1, Ordering::AcqRel);
        // SAFETY: tid ownership per the registration contract.
        let scratch = unsafe { self.threads[tid].scratch.get() };
        self.pop.ping_all_and_wait(tid, &mut scratch.counters);
        // Reap a confirmed-dead participant before scanning — its era
        // reservations protect nothing and its slot is recovered now.
        self.pop.reap_one_dead(&self.base, tid, |t| {
            // SAFETY: `reap_one_dead` established exclusivity (won reap
            // CAS + registry-confirmed death of the owner).
            unsafe { self.threads[t].retire.get() }
        });
        self.pop.collect_reserved_into(&mut scratch.reserved);
        // Stall tracking over *published* words: a pinged reader stuck on
        // one era keeps republishing the same signature. Under the
        // emergency rung, split out the non-stalled threads' reservations
        // and elect the stalled reader with the lowest pinned era.
        let emergency = self.base.stats.pressure().rung() >= PressureRung::Emergency;
        let mut blocker: Option<(usize, u64)> = None;
        for t in 0..self.base.cfg.max_threads {
            if !self.base.is_registered(t) {
                continue;
            }
            let sig = self.pop.shared_word_signature(t);
            let stalled = self.base.stall.observe(t, sig) >= STALLED_AFTER_PASSES && sig != 0;
            if emergency && stalled && blocker.is_none_or(|(_, bw)| sig < bw) {
                blocker = Some((t, sig));
            }
        }
        let active = blocker.map(|(bt, bw)| {
            self.pop
                .collect_reserved_into_filtered(&mut scratch.active, |t| {
                    !self.base.stall.is_stalled(t)
                });
            (scratch.active.as_slice(), bt, bw)
        });
        // SAFETY: tid ownership.
        let list = unsafe { self.threads[tid].retire.get() };
        // Ladder rung 3 unwind: blocks parked on an era the blocker no
        // longer publishes (or a reaped blocker) rejoin the list and are
        // re-filtered against the full union below.
        self.base
            .reclaim_released_quarantine(tid, list, |t, w| self.pop.holds_shared_word(t, w));
        shard.observe_retire_len(list.len());
        // SAFETY: all threads published, deregistered, or were provably
        // quiescent holding no era reservations; `reserved` holds every era
        // any thread may rely on. The active split never frees: blocks
        // pinned only by the stalled blocker's eras are parked, not freed.
        unsafe {
            free_era_unreserved_with_stalled(&self.base, tid, list, &scratch.reserved, active)
        };
    }
}

impl Smr for HazardEraPop {
    const NAME: &'static str = "HazardEraPOP";
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
        Arc::new(HazardEraPop {
            base,
            era: CachePadded::new(AtomicU64::new(1)),
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
        // Activity word → odd so reclaimers ping us (quiescent filter);
        // the fence inside is the one ordered instruction per operation.
        self.pop.note_active(tid);
    }

    #[inline]
    fn end_op(&self, tid: usize) {
        // Alg. 5 clear(), made lazy: one Release store of the activity
        // word. The era words stay in the private row — a ping that finds
        // us quiescent publishes NONE for every slot — so the next
        // operation's `protect` stores only if the era moved meanwhile.
        self.pop.end_op(tid);
    }

    /// Alg. 5 `read()`: reserve the era locally; no fence on era change,
    /// and no store at all while the slot already holds the current era
    /// (left by this operation or an earlier one).
    #[inline]
    fn protect<T>(&self, tid: usize, slot: usize, src: &AtomicPtr<T>) -> ReadResult<T> {
        let mut prev_era = self.pop.local_at(tid, slot);
        loop {
            let p = src.load(Ordering::Acquire);
            let e = self.era.load(Ordering::Acquire);
            if e == prev_era {
                return Ok(p);
            }
            self.pop.set_local(tid, slot, e);
            compiler_fence(Ordering::SeqCst);
            prev_era = e;
        }
    }

    unsafe fn retire(&self, tid: usize, retired: Retired) {
        // SAFETY: tid ownership.
        let list = unsafe { self.threads[tid].retire.get() };
        if push_retired(&self.base, tid, list, retired) {
            self.pop_reclaim(tid);
            // Ladder rung 2: nudge suspects (whose conservatively-kept
            // reservations inflate the keep set), then bounded synchronous
            // retries while the hard watermark stays breached.
            let mut tries = 0u32;
            while tries < HARD_RETRY_LIMIT
                && self.base.stats.pressure().rung() >= PressureRung::Hard
            {
                self.pop.reping_suspects(tid);
                for _ in 0..(64u32 << tries) {
                    core::hint::spin_loop();
                }
                self.pop_reclaim(tid);
                tries += 1;
            }
        }
    }

    fn current_era(&self) -> u64 {
        self.era.load(Ordering::Acquire)
    }

    fn flush(&self, tid: usize) {
        self.pop_reclaim(tid);
    }
}

impl Drop for HazardEraPop {
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

    fn alloc(smr: &HazardEraPop, v: u64) -> *mut N {
        smr.note_alloc(0, core::mem::size_of::<N>());
        Box::into_raw(Box::new(N {
            hdr: Header::new(smr.current_era(), core::mem::size_of::<N>()),
            v,
        }))
    }

    #[test]
    fn local_era_reservation_is_private() {
        let smr = HazardEraPop::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        let node = alloc(&smr, 1);
        let src = AtomicPtr::new(node);
        let _ = smr.protect(0, 0, &src).unwrap();
        assert_eq!(smr.pop.local_at(0, 0), smr.current_era());
        assert!(smr.pop.collect_reserved().is_empty(), "nothing shared yet");
        unsafe { drop(Box::from_raw(node)) };
        drop(reg);
    }

    #[test]
    fn pinged_reader_era_blocks_freeing() {
        // Signal path pinned — this test asserts an actual ping landed.
        let smr = HazardEraPop::new(
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
                while hold.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                assert_eq!(unsafe { (*p).v }, 7, "node alive under reserved era");
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
        assert!(s.pings_sent >= 1);
        assert!(
            s.unreclaimed_nodes() >= 1,
            "hot node's lifespan intersects the reader's published era"
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
        pinged_mid_op_keeps_node_then_idle_ping_publishes_nothing(|smr: &HazardEraPop| smr.pop);
    }

    #[test]
    fn unchanged_era_costs_the_next_operation_no_store_yet_is_published_on_ping() {
        // The era word survives end_op in the private row, so a second
        // operation in the same era takes `protect`'s no-store fast path;
        // a ping in the middle of that operation still publishes the era
        // (the row is copied whole) and blocks the free.
        let smr = HazardEraPop::new(
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
                let _ = smr.protect(1, 0, &src).unwrap();
                smr.end_op(1);
                let era = smr.current_era();
                assert_eq!(smr.pop.local_at(1, 0), era, "end_op kept the word");
                // Slot == era going in, so `protect` returns from its
                // first comparison without reaching `set_local`.
                smr.begin_op(1);
                let p = smr.protect(1, 0, &src).unwrap();
                assert_eq!(smr.current_era(), era, "no pass ran in between");
                assert_eq!(smr.pop.local_at(1, 0), era);
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
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
        smr.flush(0);
        let s = smr.stats().snapshot();
        assert!(s.pings_sent >= 1);
        assert_eq!(smr.pop.collect_reserved(), vec![era], "era published");
        assert!(s.unreclaimed_nodes() >= 1, "hot node pinned by that era");
        hold.store(false, Ordering::Release);
        reader.join().unwrap();
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg0);
    }

    #[test]
    fn era_advances_before_ping() {
        let smr = HazardEraPop::new(SmrConfig::for_tests(1).with_reclaim_freq(2));
        let reg = smr.register(0);
        let e0 = smr.current_era();
        for i in 0..4 {
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
        assert!(smr.current_era() > e0, "reclaim must advance the era");
        drop(reg);
    }
}
