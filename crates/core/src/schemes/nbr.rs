//! `NBR+` — neutralization-based reclamation (Singh, Brown & Mashtizadeh
//! 2021/2024), in a *cooperative* variant: a neutralized reader restarts at
//! its next checkpoint instead of being `siglongjmp`ed out.
//!
//! NBR readers hold **no reservations at all** during read phases — the
//! fastest possible read path. Before writing, a thread publishes the few
//! pointers its write will touch (`begin_write`), with one fence. A
//! reclaimer *neutralizes* all other threads: in the original, the signal
//! handler `siglongjmp`s read-phase threads back to their operation entry;
//! here (longjmp across Rust frames is UB) the handler raises a per-thread
//! flag that readers consume at the next [`NbrPlus::protect`] /
//! [`NbrPlus::check_restart`], returning `Restart` so the operation unwinds
//! to its entry point and acknowledges via a restart counter.
//!
//! The reclaimer frees only after every other thread is (a) quiescent,
//! (b) began a fresh operation, (c) in a write phase (its reservations are
//! honored), or (d) acknowledged a restart — so no thread can still hold a
//! read-phase pointer obtained before the retirees were unlinked. This
//! preserves NBR's observable costs: reservation-free reads, and frequent
//! restarts of long-running read operations under reclamation pressure
//! (the paper's Figure 4 effect).
//!
//! **Not robust** (`ROBUST = false`). Neutralization bounds garbage only
//! if the signal can actually interrupt the reader (Brown, arXiv
//! 1712.01044). The original's handler jumps the reader out of whatever
//! it is doing; here the flag waits for the reader's next checkpoint. A
//! reader blocked inside an operation (parked in a syscall, descheduled
//! for good) never reaches one, so passes free nothing until it leaves:
//! the domain's garbage grows without bound. The first pass that meets
//! such a reader waits out `publish_deadline_ns`, and the peer table
//! records the reader's `(op_seq, restart_seq)` (POP keys the same record
//! by the publish counter); later passes that find both unchanged still
//! neutralize and ping it but skip the wait, freeing nothing as the
//! deadline would have, so a stuck episode costs one deadline, not one per
//! pass. A reader that keeps reading restarts at its next `protect` and
//! unpins.
//!
//! Registration, ping dispatch, the phase-2 wait and the reaper are
//! publish-on-ping's peer table (`pop_shared::Peers`): NBR+ differs from
//! POP only in what a ping asks for (a restart instead of a publish) and
//! in what ends the wait (the predicate above instead of a
//! publish-counter bump).

use core::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use pop_runtime::signal::register_publisher;
use pop_runtime::{PingOutcome, Publisher, PublisherHandle};

use crate::base::{free_unreserved, DomainBase};
use crate::config::SmrConfig;
use crate::header::{unmark_word, Header, Retired};
use crate::pass::{self, Cause, Engine, Pass};
use crate::pop_shared::{zeroed, Peers, Waited};
use crate::smr::{ReadResult, Restart, Smr};
use crate::stats::DomainStats;

/// Signal-handler-visible shared state (leaked, like `PopShared`).
struct NbrShared {
    /// Registration, dispatch, phase-2 wait and reap.
    peers: Peers,
    slots: usize,
    /// Write-phase reservations, published in `begin_write`.
    wres: Box<[AtomicU64]>,
    /// Restart requested; consumed by the owner at the next checkpoint.
    neutralized: Box<[CachePadded<AtomicBool>]>,
    /// Owner is inside an operation.
    in_op: Box<[CachePadded<AtomicBool>]>,
    /// Owner is inside a write phase (reservations published).
    in_write: Box<[CachePadded<AtomicBool>]>,
    /// Restart acknowledgements.
    restart_seq: Box<[CachePadded<AtomicU64>]>,
    /// Operation sequence numbers (bumped each `begin_op`): a change proves
    /// the thread went quiescent — equivalent to a restart for safety.
    op_seq: Box<[CachePadded<AtomicU64>]>,
    stats: Arc<DomainStats>,
}

impl NbrShared {
    fn leak(base: &DomainBase) -> &'static Self {
        let (n, slots) = (base.cfg.max_threads, base.cfg.slots);
        Box::leak(Box::new(NbrShared {
            peers: Peers::new(&base.cfg),
            slots,
            wres: zeroed(n * slots),
            neutralized: zeroed(n),
            in_op: zeroed(n),
            in_write: zeroed(n),
            restart_seq: zeroed(n),
            op_seq: zeroed(n),
            stats: Arc::clone(&base.stats),
        }))
    }

    fn clear_wres(&self, tid: usize) {
        for s in 0..self.slots {
            self.wres[tid * self.slots + s].store(0, Ordering::Release);
        }
    }

    /// Phase 2's exit predicate for registered peer `t`: true once `t`
    /// provably holds no read-phase pointer predating the reclaimer's
    /// unlinks (see the cases in the module docs).
    fn phase2_satisfied(&self, t: usize, seq0: u64, ops0: u64) -> bool {
        !self.in_op[t].load(Ordering::Acquire) // quiescent
            || self.in_write[t].load(Ordering::Acquire) // reservations honored
            || self.restart_seq[t].load(Ordering::Acquire) > seq0 // acked restart
            || self.op_seq[t].load(Ordering::Acquire) != ops0 // fresh operation
    }

    /// Reaper-side `unregister` for a participant whose thread died inside
    /// an operation: clears every signal-handler-visible trace of the slot,
    /// then evicts it from the peer table. Caller must hold the reap
    /// exclusivity ([`Peers::reap_one_dead`]).
    fn force_unregister(&self, tid: usize) {
        self.in_write[tid].store(false, Ordering::Release);
        self.in_op[tid].store(false, Ordering::Release);
        self.neutralized[tid].store(false, Ordering::Release);
        self.clear_wres(tid);
        self.peers.evict(tid);
    }
}

impl Publisher for NbrShared {
    /// Signal-handler side of neutralization: request a restart unless the
    /// pinged thread is in a write phase. Atomics + fence only. A stale
    /// generation is skipped ([`Peers::dispatch`]); here that only keeps
    /// stats and neutralization flags honest, since the ack a reclaimer
    /// waits for must come from the bound thread itself.
    fn publish(&self, gtid: usize) {
        self.peers.dispatch(gtid, |t| {
            if !self.in_write[t].load(Ordering::Acquire) {
                self.neutralized[t].store(true, Ordering::Release);
            }
            fence(Ordering::SeqCst);
            self.stats
                .shard(t)
                .publishes
                .fetch_add(1, Ordering::Relaxed);
        });
    }
}

/// Cooperative neutralization-based reclamation.
pub struct NbrPlus {
    base: DomainBase,
    shared: &'static NbrShared,
    publisher: PublisherHandle,
}

impl NbrPlus {
    /// Consumes a pending neutralization, acknowledging the restart.
    #[inline]
    fn consume_neutralization(&self, tid: usize) -> bool {
        let sh = self.shared;
        if sh.neutralized[tid].load(Ordering::Relaxed)
            && sh.neutralized[tid].swap(false, Ordering::AcqRel)
        {
            sh.restart_seq[tid].fetch_add(1, Ordering::Release);
            self.base
                .stats
                .shard(tid)
                .restarts
                .fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }
}

/// The pass's hooks: phases 1–2 of NBR+ make every reader's pointers
/// visible (or provably stale), phase 3 scans the write-phase reservations
/// and frees the rest.
impl Engine for NbrPlus {
    fn make_visible(&self, p: &mut Pass) -> bool {
        let sh = self.shared;
        let tid = p.tid;
        debug_assert!(
            sh.in_write[tid].load(Ordering::Relaxed),
            "NBR retire must be called inside a begin_write bracket"
        );
        let shard = p.base.stats.shard(tid);
        shard.pop_passes.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        // Phase 1: snapshot progress counters, then request neutralization.
        // All buffers come from this thread's reusable scratch — the pass
        // allocates nothing in steady state.
        const SKIP: u64 = u64::MAX;
        let seq0 = &mut p.scratch.counters;
        let ops0 = &mut p.scratch.op_counters;
        seq0.clear();
        seq0.resize(sh.peers.len(), SKIP);
        ops0.clear();
        ops0.resize(sh.peers.len(), 0);
        for t in sh.peers.others(tid) {
            seq0[t] = sh.restart_seq[t].load(Ordering::Acquire);
            ops0[t] = sh.op_seq[t].load(Ordering::Acquire);
        }
        let mut pings = 0u64;
        let mut skipped = 0u64;
        let mut failed = 0u64;
        for (t, &s0) in seq0.iter().enumerate() {
            if s0 != SKIP {
                sh.neutralized[t].store(true, Ordering::SeqCst);
            }
        }
        fence(Ordering::SeqCst);
        for (t, s0) in seq0.iter_mut().enumerate() {
            if *s0 == SKIP {
                continue;
            }
            // Signal elision (NBR+'s optimization): a thread outside any
            // operation holds no read-phase pointers, and any operation it
            // begins concurrently observes our unlinks (its `begin_op`
            // ends in a SeqCst fence pairing with ours above) — no need to
            // interrupt it. Its write-phase reservations, if any appear,
            // are honored by the phase-3 scan regardless.
            if !sh.in_op[t].load(Ordering::SeqCst) {
                *s0 = SKIP;
                skipped += 1;
                continue;
            }
            match sh.peers.ping(t) {
                PingOutcome::Sent => pings += 1,
                PingOutcome::Inactive => {}
                // The peer never saw the neutralization request. Phase 2
                // still waits on it (bounded by the pass deadline), and a
                // confirmed death arms the reaper.
                PingOutcome::Dead | PingOutcome::Failed(_) => failed += 1,
            }
        }
        shard.pings_sent.fetch_add(pings, Ordering::Relaxed);
        shard.pings_skipped.fetch_add(skipped, Ordering::Relaxed);
        if failed > 0 {
            shard.pings_failed.fetch_add(failed, Ordering::Relaxed);
        }

        // Phase 2: wait until every peer provably holds no read-phase
        // pointer predating our unlinks, or has deregistered. On the pass
        // deadline the laggard could not be neutralized; the pass degrades
        // conservatively — phase 3 frees nothing and every retiree is kept
        // for a later pass (correct-by-keep) — and a registry probe arms
        // the reaper if the laggard's thread is actually dead. A peer some
        // pass already timed out on, unmoved since, is not waited for
        // again: the pass frees nothing, as the deadline would have.
        let mut deadline = None;
        let mut timeouts = 0u64;
        let mut stuck = false;
        for (t, (&s0, &o0)) in seq0.iter().zip(ops0.iter()).enumerate() {
            if s0 == SKIP {
                continue;
            }
            match sh.peers.wait(t, [o0, s0], &mut deadline, || {
                sh.phase2_satisfied(t, s0, o0)
            }) {
                Waited::Answered => {}
                Waited::TimedOut => timeouts += 1,
                Waited::Stuck => stuck = true,
            }
        }
        if timeouts > 0 {
            shard
                .publish_wait_timeouts
                .fetch_add(timeouts, Ordering::Relaxed);
        }
        fence(Ordering::SeqCst);

        // Reap at most one confirmed-dead participant per pass (cold path).
        sh.peers
            .reap_one_dead(p.base, tid, |t| sh.force_unregister(t));
        timeouts == 0 && !stuck
    }

    /// Phase 3: honor write-phase reservations.
    fn scan(&self, p: &mut Pass) {
        let sh = self.shared;
        let reserved = &mut p.scratch.reserved;
        reserved.clear();
        for t in 0..sh.peers.len() {
            if sh.peers.is_registered(t) {
                let row = &sh.wres[t * sh.slots..(t + 1) * sh.slots];
                reserved.extend(
                    row.iter()
                        .map(|w| w.load(Ordering::Acquire))
                        .filter(|&w| w != 0),
                );
            }
        }
        reserved.sort_unstable();
        reserved.dedup();
    }

    unsafe fn sweep(&self, p: &mut Pass) {
        let taken = &mut p.scratch.taken;
        // SAFETY: phase 2 established no peer holds an unreserved pointer
        // to the (already unlinked) retirees this pass took.
        unsafe { free_unreserved(p.base, p.tid, p.list, taken, &p.scratch.reserved) };
    }
}

impl Smr for NbrPlus {
    const NAME: &'static str = "NBR+";
    const ROBUST: bool = false;
    const NEEDS_SIGNALS: bool = true;

    fn new(cfg: SmrConfig) -> Arc<Self> {
        let base = DomainBase::new(cfg);
        let shared = NbrShared::leak(&base);
        Arc::new(NbrPlus {
            base,
            shared,
            publisher: register_publisher(shared),
        })
    }

    fn config(&self) -> &SmrConfig {
        &self.base.cfg
    }

    fn stats(&self) -> &DomainStats {
        &self.base.stats
    }

    fn bind_gtid(&self, tid: usize, gtid: usize) {
        let sh = self.shared;
        sh.clear_wres(tid);
        sh.neutralized[tid].store(false, Ordering::Relaxed);
        sh.in_op[tid].store(false, Ordering::Relaxed);
        sh.in_write[tid].store(false, Ordering::Relaxed);
        // Publishes the clears before the thread is pingable.
        sh.peers.bind(tid, gtid);
    }

    fn register_raw(&self, tid: usize) {
        self.base.claim(tid);
    }

    fn unregister(&self, tid: usize) {
        let sh = self.shared;
        sh.in_write[tid].store(false, Ordering::Release);
        sh.in_op[tid].store(false, Ordering::Release);
        sh.clear_wres(tid);
        self.flush(tid);
        sh.peers.leave(tid);
        self.base.release(tid);
    }

    #[inline]
    fn begin_op(&self, tid: usize) {
        let sh = self.shared;
        // A fresh operation implicitly acknowledges any pending restart
        // request — we hold no pointers yet.
        sh.neutralized[tid].store(false, Ordering::Relaxed);
        sh.op_seq[tid].fetch_add(1, Ordering::Release);
        sh.in_op[tid].store(true, Ordering::SeqCst);
        // Two-SC-fence pairing with the reclaimer's fence before it reads
        // `in_op` (signal elision) or breaks its phase-2 wait: either the
        // reclaimer sees us in-op, or this operation's reads observe its
        // unlinks. A bare SeqCst store does not order our subsequent plain
        // loads on non-TSO targets.
        fence(Ordering::SeqCst);
    }

    #[inline]
    fn end_op(&self, tid: usize) {
        let sh = self.shared;
        sh.in_write[tid].store(false, Ordering::Release);
        sh.in_op[tid].store(false, Ordering::Release);
    }

    /// NBR's defining property: a read is a plain load plus one relaxed
    /// flag poll — no reservation, no fence. (The quarantine oracle runs at
    /// the data structure's deref points via `check_live`, not here.)
    #[inline]
    fn protect<T>(&self, tid: usize, _slot: usize, src: &AtomicPtr<T>) -> ReadResult<T> {
        if self.consume_neutralization(tid) {
            return Err(Restart);
        }
        Ok(src.load(Ordering::Acquire))
    }

    #[inline]
    fn check_restart(&self, tid: usize) -> Result<(), Restart> {
        if self.consume_neutralization(tid) {
            Err(Restart)
        } else {
            Ok(())
        }
    }

    /// Publish the write set with one fence and verify no neutralization
    /// raced in (Dekker with the reclaimer's flag-store/fence/scan).
    fn begin_write(&self, tid: usize, ptrs: &[*mut Header]) -> Result<(), Restart> {
        let sh = self.shared;
        assert!(
            ptrs.len() <= sh.slots,
            "write set of {} exceeds {} reservation slots",
            ptrs.len(),
            sh.slots
        );
        let base_idx = tid * sh.slots;
        for (i, &p) in ptrs.iter().enumerate() {
            sh.wres[base_idx + i].store(unmark_word(p as u64), Ordering::Release);
        }
        for s in ptrs.len()..sh.slots {
            sh.wres[base_idx + s].store(0, Ordering::Release);
        }
        sh.in_write[tid].store(true, Ordering::Release);
        fence(Ordering::SeqCst);
        if self.consume_neutralization(tid) {
            sh.in_write[tid].store(false, Ordering::Release);
            sh.clear_wres(tid);
            return Err(Restart);
        }
        Ok(())
    }

    fn end_write(&self, tid: usize) {
        let sh = self.shared;
        sh.in_write[tid].store(false, Ordering::Release);
        sh.clear_wres(tid);
    }

    #[inline]
    unsafe fn retire(&self, tid: usize, retired: Retired) {
        pass::retire(self, &self.base, tid, retired);
    }

    fn flush(&self, tid: usize) {
        // Flush runs at shutdown/test boundaries, outside operations; mark
        // the write phase so concurrent reclaimers skip waiting on us.
        let sh = self.shared;
        let was = sh.in_write[tid].swap(true, Ordering::SeqCst);
        pass::run(self, &self.base, tid, Cause::Flush);
        sh.in_write[tid].store(was, Ordering::Release);
    }
}

impl Drop for NbrPlus {
    fn drop(&mut self) {
        self.publisher.deactivate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{HasHeader, Header};
    use crate::pass::testing::{phases_of, Phase::*, PASS};
    use crate::smr::{as_header, retire_node};
    use std::sync::atomic::AtomicBool as StdBool;

    #[repr(C)]
    struct N {
        hdr: Header,
        v: u64,
    }
    unsafe impl HasHeader for N {}

    fn alloc(smr: &NbrPlus, v: u64) -> *mut N {
        smr.note_alloc(0, core::mem::size_of::<N>());
        Box::into_raw(Box::new(N {
            hdr: Header::new(0, core::mem::size_of::<N>()),
            v,
        }))
    }

    #[test]
    fn reads_carry_no_reservations() {
        let smr = NbrPlus::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        smr.begin_op(0);
        let node = alloc(&smr, 1);
        let src = AtomicPtr::new(node);
        let p = smr.protect(0, 0, &src).unwrap();
        assert_eq!(p, node);
        let any_res =
            (0..smr.shared.slots).any(|s| smr.shared.wres[s].load(Ordering::Acquire) != 0);
        assert!(!any_res, "read phase must not reserve");
        smr.end_op(0);
        unsafe { drop(Box::from_raw(node)) };
        drop(reg);
    }

    #[test]
    fn neutralization_restarts_reader_and_reclaims() {
        let smr = NbrPlus::new(SmrConfig::for_tests(2).with_reclaim_freq(8));
        let reg0 = smr.register(0);
        let stop = Arc::new(StdBool::new(false));
        let restarted = Arc::new(StdBool::new(false));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn({
            let smr = Arc::clone(&smr);
            let stop = Arc::clone(&stop);
            let restarted = Arc::clone(&restarted);
            move || {
                let reg1 = smr.register(1);
                ready_tx.send(()).unwrap();
                let dummy = AtomicPtr::new(core::ptr::null_mut::<N>());
                while !stop.load(Ordering::Acquire) {
                    smr.begin_op(1);
                    // Long-running read: poll protect in a loop.
                    for _ in 0..64 {
                        if smr.protect(1, 0, &dummy).is_err() {
                            restarted.store(true, Ordering::Release);
                            break;
                        }
                    }
                    smr.end_op(1);
                }
                drop(reg1);
            }
        });
        ready_rx.recv().unwrap();
        // Writer retires enough to trip multiple neutralization rounds.
        smr.begin_op(0);
        smr.begin_write(0, &[]).unwrap();
        for i in 0..256 {
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
        smr.end_write(0);
        smr.end_op(0);
        let s = smr.stats().snapshot();
        // Signal elision may skip a reader caught between operations; every
        // neutralization round either pings it or proves it quiescent.
        assert!(
            s.pings_sent + s.pings_skipped >= 1,
            "reclaimer must ping or elide: {s:?}"
        );
        assert!(s.freed_nodes > 0, "reclaimer must free");
        stop.store(true, Ordering::Release);
        reader.join().unwrap();
        drop(reg0);
        let s = smr.stats().snapshot();
        assert!(
            s.restarts >= 1 || !restarted.load(Ordering::Acquire),
            "if the reader observed a restart, the counter must agree"
        );
    }

    #[test]
    fn write_reservations_are_honored() {
        let smr = NbrPlus::new(SmrConfig::for_tests(2).with_reclaim_freq(4));
        let reg0 = smr.register(0);
        let reg1 = smr.register(1);
        // Thread 1 enters a write phase holding a reservation on `hot`.
        let hot = alloc(&smr, 7);
        smr.begin_op(1);
        smr.begin_write(1, &[as_header(hot)]).unwrap();
        // Thread 0 retires hot + filler; reclamation must keep `hot`.
        smr.begin_op(0);
        smr.begin_write(0, &[]).unwrap();
        unsafe { retire_node(&*smr, 0, hot) };
        for i in 0..8 {
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
        smr.end_write(0);
        smr.end_op(0);
        assert_eq!(phases_of(|| smr.flush(0)), PASS, "the driver's phases");
        assert_eq!(
            smr.stats().snapshot().unreclaimed_nodes(),
            1,
            "write-reserved node must survive"
        );
        // Thread 1 leaves its write phase; now it frees.
        smr.end_write(1);
        smr.end_op(1);
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg1);
        drop(reg0);
    }

    #[test]
    fn begin_write_detects_racing_neutralization() {
        let smr = NbrPlus::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        smr.begin_op(0);
        // Simulate a reclaimer's flag arriving before the write phase.
        smr.shared.neutralized[0].store(true, Ordering::SeqCst);
        let r = smr.begin_write(0, &[]);
        assert_eq!(r, Err(Restart), "racing neutralization must abort");
        assert!(
            !smr.shared.in_write[0].load(Ordering::Acquire),
            "aborted write phase must roll back"
        );
        smr.end_op(0);
        drop(reg);
    }

    #[test]
    fn phase2_deadline_unwedges_stuck_peer_and_keeps_everything() {
        // A peer wedged in a read phase (never checkpointing, never
        // acking) must not hang the reclaimer forever: the pass deadline
        // expires, the pass frees NOTHING (correct-by-keep), and — the
        // peer's thread being alive — nothing is reaped. Once the peer
        // goes quiescent, the next pass frees normally.
        let smr = NbrPlus::new(SmrConfig::for_tests(2).with_publish_deadline_ns(30_000_000));
        let reg0 = smr.register(0);
        let reg1 = smr.register(1);
        // Wedge slot 1: in-op, never consuming its neutralization flag.
        // (Both slots are owned by this test thread, which is alive, so
        // the timeout's registry probe must NOT arm the reaper.)
        smr.shared.op_seq[1].fetch_add(1, Ordering::Release);
        smr.shared.in_op[1].store(true, Ordering::SeqCst);
        smr.begin_op(0);
        smr.begin_write(0, &[]).unwrap();
        for i in 0..8 {
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
        smr.end_write(0);
        smr.end_op(0);
        let phases = phases_of(|| smr.flush(0));
        assert_eq!(phases, [Take, Advance, Visible, AfterSweep, PutBack]);
        let s = smr.stats().snapshot();
        assert!(
            s.publish_wait_timeouts >= 1,
            "wedged peer must trip the pass deadline: {s:?}"
        );
        assert_eq!(
            s.unreclaimed_nodes(),
            8,
            "a timed-out pass must free nothing"
        );
        assert_eq!(s.participants_reaped, 0, "live peer must not be reaped");
        // Neutralization raised a restart request on the wedged slot;
        // consume it the cooperative way, then go quiescent.
        smr.shared.neutralized[1].store(false, Ordering::SeqCst);
        smr.shared.in_op[1].store(false, Ordering::SeqCst);
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg1);
        drop(reg0);
    }

    #[test]
    fn blocked_reader_pins_everything_within_the_deadline() {
        // A real reader blocked in `recv()` inside an operation: the
        // neutralize signal lands, but nothing consumes the flag, so no
        // pass frees anything. The first pass waits out the deadline; the
        // other 39 find the reader unmoved and skip the wait, so the 40
        // take well under two deadlines in all. Once the reader leaves,
        // one flush drains everything.
        const DEADLINE_NS: u64 = 50_000_000;
        const PASSES: u64 = 40;
        let smr = NbrPlus::new(
            SmrConfig::for_tests(2)
                .with_reclaim_freq(16)
                .with_retire_batch(1)
                .with_publish_deadline_ns(DEADLINE_NS),
        );
        let reg0 = smr.register(0);
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let reader = std::thread::spawn({
            let smr = Arc::clone(&smr);
            move || {
                let reg1 = smr.register(1);
                let src = AtomicPtr::<N>::new(core::ptr::null_mut());
                smr.begin_op(1);
                smr.protect(1, 0, &src).unwrap();
                ready_tx.send(()).unwrap();
                go_rx.recv().unwrap(); // blocked: no checkpoint runs
                smr.end_op(1);
                drop(reg1);
            }
        });
        ready_rx.recv().unwrap();
        let retires = PASSES * smr.config().reclaim_freq as u64;
        let deadline = std::time::Duration::from_nanos(DEADLINE_NS);
        let slack = std::time::Duration::from_millis(250);
        let mut slowest = std::time::Duration::ZERO;
        let start = std::time::Instant::now();
        for i in 0..retires {
            smr.begin_op(0);
            smr.begin_write(0, &[]).unwrap();
            let p = alloc(&smr, i);
            let t0 = std::time::Instant::now();
            unsafe { retire_node(&*smr, 0, p) };
            slowest = slowest.max(t0.elapsed());
            smr.end_write(0);
            smr.end_op(0);
        }
        let total = start.elapsed();
        let s = smr.stats().snapshot();
        assert_eq!(s.pop_passes, PASSES, "one pass per reclaim_freq retires");
        assert_eq!(
            s.publish_wait_timeouts, 1,
            "one timeout per stuck episode: {s:?}"
        );
        assert!(s.pings_sent >= PASSES, "every pass still pings: {s:?}");
        assert_eq!(
            s.freed_nodes, 0,
            "nothing freed past the blocked reader: {s:?}"
        );
        assert!(
            total < 2 * deadline,
            "{PASSES} passes took {total:?}, not under two {deadline:?} deadlines"
        );
        assert!(
            slowest <= deadline + slack,
            "a pass took {slowest:?}, over the {DEADLINE_NS} ns deadline plus slack"
        );
        go_tx.send(()).unwrap();
        reader.join().unwrap();
        smr.flush(0);
        let s = smr.stats().snapshot();
        assert_eq!(s.freed_nodes, retires, "one flush drains everything");
        assert_eq!(s.unreclaimed_nodes(), 0);
        drop(reg0);
    }

    #[test]
    fn check_restart_consumes_flag_once() {
        let smr = NbrPlus::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        smr.begin_op(0);
        smr.shared.neutralized[0].store(true, Ordering::SeqCst);
        assert_eq!(smr.check_restart(0), Err(Restart));
        assert_eq!(smr.check_restart(0), Ok(()), "flag consumed");
        smr.end_op(0);
        drop(reg);
    }
}
