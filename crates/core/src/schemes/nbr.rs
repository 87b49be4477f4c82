//! `NBR+` — neutralization-based reclamation (Singh, Brown & Mashtizadeh
//! 2021/2024), in the *cooperative* variant described in DESIGN.md (S2).
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

use core::sync::atomic::{
    fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_utils::CachePadded;
use pop_runtime::signal::{ping_gtid, register_publisher};
use pop_runtime::{futex, PingOutcome, Publisher, PublisherHandle, Registry};

use crate::base::{free_unreserved, push_retired, DomainBase, RetireSlot, ScratchSlot};
use crate::config::SmrConfig;
use crate::header::{unmark_word, Header, Retired};
use crate::smr::{ReadResult, Restart, Smr};
use crate::stats::DomainStats;

/// Phase-2 park timeout. Every exit condition now wakes the progress word
/// (restart acks since PR 3; going-quiescent, write-phase entry and
/// deregistration since PR 4's waiter-flag checks in `end_op` /
/// `begin_write` / `unregister`), so the timeout is a pure liveness
/// backstop — long enough not to matter, short enough to bound a lost
/// wake.
const NBR_WAIT_TIMEOUT_NS: u64 = 1_000_000;

struct ThreadState {
    retire: RetireSlot,
    scratch: ScratchSlot,
}

/// Signal-handler-visible shared state (leaked, like `PopShared`).
struct NbrShared {
    nthreads: usize,
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
    /// 32-bit futex key; phase-2 waiters park on it after their spin
    /// budget. Bumped on every restart acknowledgement, and — when a
    /// waiter has announced itself — by the going-quiescent, write-phase
    /// and deregistration exits ([`NbrShared::wake_phase2_waiters`]), so
    /// every exit wakes promptly and the wait's timeout is only a
    /// lost-signal backstop.
    progress: Box<[CachePadded<AtomicU32>]>,
    /// Waiters parked (or about to park) on `progress[t]`; the
    /// acknowledging thread skips the wake syscall when zero.
    wait_flag: Box<[CachePadded<AtomicU32>]>,
    /// Operation sequence numbers (bumped each `begin_op`): a change proves
    /// the thread went quiescent — equivalent to a restart for safety.
    op_seq: Box<[CachePadded<AtomicU64>]>,
    registered: Box<[AtomicBool]>,
    gtid_of: Box<[AtomicUsize]>,
    /// Registry generation captured at `bind_gtid`; `(gtid, generation)`
    /// names that registration forever, so liveness probes after the slot
    /// is recycled resolve to `Vacated`, never a false `Dead`.
    gtid_gen: Box<[AtomicU64]>,
    /// Set when a liveness probe confirms the owner's kernel thread is
    /// gone; consumed (CAS) by the reclaim path's reaper.
    peer_dead: Box<[AtomicBool]>,
    /// Whether the bound gtid was the calling thread's real registry slot
    /// at `bind_gtid` time ([`crate::base::registration_backed`]) — the
    /// license to read a later `Vacated` probe as death.
    gtid_backed: Box<[AtomicBool]>,
    stats: Arc<DomainStats>,
}

impl NbrShared {
    fn leak(nthreads: usize, slots: usize, stats: Arc<DomainStats>) -> &'static Self {
        fn padded_u64(n: usize) -> Box<[CachePadded<AtomicU64>]> {
            let mut v = Vec::with_capacity(n);
            v.resize_with(n, || CachePadded::new(AtomicU64::new(0)));
            v.into_boxed_slice()
        }
        fn padded_u32(n: usize) -> Box<[CachePadded<AtomicU32>]> {
            let mut v = Vec::with_capacity(n);
            v.resize_with(n, || CachePadded::new(AtomicU32::new(0)));
            v.into_boxed_slice()
        }
        fn padded_bool(n: usize) -> Box<[CachePadded<AtomicBool>]> {
            let mut v = Vec::with_capacity(n);
            v.resize_with(n, || CachePadded::new(AtomicBool::new(false)));
            v.into_boxed_slice()
        }
        let mut wres = Vec::with_capacity(nthreads * slots);
        wres.resize_with(nthreads * slots, || AtomicU64::new(0));
        let mut registered = Vec::with_capacity(nthreads);
        registered.resize_with(nthreads, || AtomicBool::new(false));
        let mut gtid_of = Vec::with_capacity(nthreads);
        gtid_of.resize_with(nthreads, || AtomicUsize::new(0));
        let mut gtid_gen = Vec::with_capacity(nthreads);
        gtid_gen.resize_with(nthreads, || AtomicU64::new(0));
        let mut peer_dead = Vec::with_capacity(nthreads);
        peer_dead.resize_with(nthreads, || AtomicBool::new(false));
        let mut gtid_backed = Vec::with_capacity(nthreads);
        gtid_backed.resize_with(nthreads, || AtomicBool::new(false));
        Box::leak(Box::new(NbrShared {
            nthreads,
            slots,
            wres: wres.into_boxed_slice(),
            neutralized: padded_bool(nthreads),
            in_op: padded_bool(nthreads),
            in_write: padded_bool(nthreads),
            restart_seq: padded_u64(nthreads),
            progress: padded_u32(nthreads),
            wait_flag: padded_u32(nthreads),
            op_seq: padded_u64(nthreads),
            registered: registered.into_boxed_slice(),
            gtid_of: gtid_of.into_boxed_slice(),
            gtid_gen: gtid_gen.into_boxed_slice(),
            peer_dead: peer_dead.into_boxed_slice(),
            gtid_backed: gtid_backed.into_boxed_slice(),
            stats,
        }))
    }

    fn clear_wres(&self, tid: usize) {
        for s in 0..self.slots {
            self.wres[tid * self.slots + s].store(0, Ordering::Release);
        }
    }

    /// Wakes phase-2 waiters parked on `tid`'s progress word, for the exit
    /// conditions that do not bump the word on their own: going quiescent
    /// (`end_op`), entering a write phase (`begin_write`) and
    /// deregistration (`unregister`). Costs **one shared load** when
    /// nobody waits (the common case — this is the ROADMAP's "waiter-flag
    /// check").
    ///
    /// Ordering: the caller must order its state change before this
    /// flag load with a `SeqCst` fence (Dekker). Pairing with the waiter's
    /// announce-then-recheck-then-park sequence: if this load misses the
    /// waiter's flag bump, the waiter's fence follows ours, so its
    /// pre-park re-check observes the state change and it never parks; if
    /// the load sees the flag, the word bump + wake either precede the
    /// park (kernel re-checks the word: `EAGAIN`) or hit a parked waiter.
    fn wake_phase2_waiters(&self, tid: usize) {
        if self.wait_flag[tid].load(Ordering::SeqCst) > 0 {
            self.progress[tid].fetch_add(1, Ordering::SeqCst);
            futex::wake_all(&self.progress[tid]);
        }
    }

    /// Phase 2's exit predicate for peer `t`: true once `t` provably holds
    /// no read-phase pointer predating the reclaimer's unlinks (see the
    /// five cases in the module docs).
    fn phase2_satisfied(&self, t: usize, seq0: u64, ops0: u64) -> bool {
        !self.registered[t].load(Ordering::Acquire) // deregistered
            || !self.in_op[t].load(Ordering::Acquire) // quiescent
            || self.in_write[t].load(Ordering::Acquire) // reservations honored
            || self.restart_seq[t].load(Ordering::Acquire) > seq0 // acked restart
            || self.op_seq[t].load(Ordering::Acquire) != ops0 // fresh operation
    }

    /// The `(gtid, generation)` pair naming slot `t`'s registration, if
    /// the slot is registered and bound.
    fn registration_of(&self, t: usize) -> Option<(usize, u64)> {
        if !self.registered[t].load(Ordering::Acquire) {
            return None;
        }
        match self.gtid_of[t].load(Ordering::Acquire) {
            0 => None,
            g => Some((g - 1, self.gtid_gen[t].load(Ordering::Acquire))),
        }
    }

    /// Probes slot `t`'s owner in the global registry; flags the slot for
    /// reaping only on a confirmed death of the *same* registration
    /// generation — a dead kernel tid, or a backed registration vacated by
    /// the dead thread's TLS teardown
    /// ([`crate::base::registration_confirmed_dead`]). Ambiguity leaves
    /// the flag alone — no reap is always correct (correct-by-keep).
    fn note_dead_if_confirmed(&self, t: usize) {
        if let Some((gtid, generation)) = self.registration_of(t) {
            let backed = self.gtid_backed[t].load(Ordering::Relaxed);
            if crate::base::registration_confirmed_dead(gtid, generation, backed) {
                self.peer_dead[t].store(true, Ordering::Release);
            }
        }
    }

    /// Consumes one dead-peer flag (CAS), handing its slot index to the
    /// caller's reap attempt.
    fn take_dead(&self) -> Option<usize> {
        (0..self.nthreads).find(|&t| {
            self.peer_dead[t]
                .compare_exchange(true, false, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        })
    }

    /// Reaper-side `unregister` for a participant whose thread died inside
    /// an operation: clears every signal-handler-visible trace of the slot
    /// and wakes phase-2 waiters parked on it. Caller must hold the reap
    /// exclusivity (`DomainBase::try_begin_reap` + a won `Registry::reap`).
    fn force_unregister(&self, tid: usize) {
        self.in_write[tid].store(false, Ordering::Release);
        self.in_op[tid].store(false, Ordering::Release);
        self.neutralized[tid].store(false, Ordering::Release);
        self.clear_wres(tid);
        self.registered[tid].store(false, Ordering::Release);
        fence(Ordering::SeqCst);
        // Cold path: wake unconditionally so any reclaimer parked on the
        // dead slot's progress word re-checks `registered` now.
        self.progress[tid].fetch_add(1, Ordering::SeqCst);
        futex::wake_all(&self.progress[tid]);
        self.gtid_of[tid].store(0, Ordering::Release);
        self.gtid_backed[tid].store(false, Ordering::Relaxed);
    }
}

impl Publisher for NbrShared {
    /// Signal-handler side of neutralization: request a restart unless the
    /// pinged thread is in a write phase. Atomics + fence only.
    ///
    /// Registry slots recycle, so the gtid may still be bound by a dead
    /// thread's domain tid alongside the live claimant's; the claim
    /// generation captured at `bind_gtid` keeps this handler from acting
    /// on the corpse's binding (same guard as the POP publisher, where it
    /// is load-bearing — here it only keeps stats and neutralization
    /// flags honest, since the ack a reclaimer waits for must come from
    /// the bound thread itself).
    fn publish(&self, gtid: usize) {
        let current = Registry::global().generation_of(gtid);
        for t in 0..self.nthreads {
            if self.registered[t].load(Ordering::Acquire)
                && self.gtid_of[t].load(Ordering::Acquire) == gtid + 1
            {
                let stale = self.gtid_backed[t].load(Ordering::Relaxed)
                    && self.gtid_gen[t].load(Ordering::Relaxed) != current;
                if stale {
                    continue;
                }
                if !self.in_write[t].load(Ordering::Acquire) {
                    self.neutralized[t].store(true, Ordering::Release);
                }
                fence(Ordering::SeqCst);
                self.stats
                    .shard(t)
                    .publishes
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Cooperative neutralization-based reclamation.
pub struct NbrPlus {
    base: DomainBase,
    shared: &'static NbrShared,
    publisher: PublisherHandle,
    threads: Box<[CachePadded<ThreadState>]>,
}

impl NbrPlus {
    /// Consumes a pending neutralization, acknowledging the restart (and
    /// waking any reclaimer parked on this thread's progress word).
    #[inline]
    fn consume_neutralization(&self, tid: usize) -> bool {
        let sh = self.shared;
        if sh.neutralized[tid].load(Ordering::Relaxed)
            && sh.neutralized[tid].swap(false, Ordering::AcqRel)
        {
            sh.restart_seq[tid].fetch_add(1, Ordering::Release);
            // Dekker with the phase-2 waiter: SeqCst bump before the
            // wait-flag load, so a parked reclaimer is always woken.
            sh.progress[tid].fetch_add(1, Ordering::SeqCst);
            if sh.wait_flag[tid].load(Ordering::SeqCst) > 0 {
                futex::wake_all(&sh.progress[tid]);
            }
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

    fn reclaim(&self, tid: usize) {
        let sh = self.shared;
        let shard = self.base.stats.shard(tid);
        shard.pop_passes.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);

        // Phase 1: snapshot progress counters, then request neutralization.
        // All buffers come from this thread's reusable scratch — the pass
        // allocates nothing in steady state.
        const SKIP: u64 = u64::MAX;
        // SAFETY: tid ownership per the registration contract.
        let scratch = unsafe { self.threads[tid].scratch.get() };
        let seq0 = &mut scratch.counters;
        let ops0 = &mut scratch.op_counters;
        seq0.clear();
        seq0.resize(sh.nthreads, SKIP);
        ops0.clear();
        ops0.resize(sh.nthreads, 0);
        for t in 0..sh.nthreads {
            if t != tid && sh.registered[t].load(Ordering::Acquire) {
                seq0[t] = sh.restart_seq[t].load(Ordering::Acquire);
                ops0[t] = sh.op_seq[t].load(Ordering::Acquire);
            }
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
            if let Some(g) = match sh.gtid_of[t].load(Ordering::Acquire) {
                0 => None,
                g => Some(g - 1),
            } {
                match ping_gtid(g) {
                    PingOutcome::Sent => pings += 1,
                    PingOutcome::Inactive => {}
                    PingOutcome::Dead | PingOutcome::Failed(_) => {
                        // The peer never saw the neutralization request.
                        // Phase 2 still waits on it (bounded by the pass
                        // deadline below), and a confirmed kernel-level
                        // death arms the reaper.
                        failed += 1;
                        sh.note_dead_if_confirmed(t);
                    }
                }
            }
        }
        shard.pings_sent.fetch_add(pings, Ordering::Relaxed);
        shard.pings_skipped.fetch_add(skipped, Ordering::Relaxed);
        if failed > 0 {
            shard.pings_failed.fetch_add(failed, Ordering::Relaxed);
        }

        // Phase 2: wait until every peer provably holds no read-phase
        // pointer predating our unlinks (see module docs for the cases).
        // Bounded spin (SmrConfig::publish_spin) then park on the peer's
        // progress word: every exit wakes it — restart acks bump it
        // directly, and `end_op` / `begin_write` / `unregister` run the
        // waiter-flag check — so the park's timeout is only the backstop
        // for lost signals, not any exit's detection latency.
        let spin_limit = self.base.cfg.publish_spin;
        // Watchdog: bounded total wall clock for the whole phase-2 wait
        // (SmrConfig::publish_deadline_ns; 0 disables). Armed lazily on
        // the first spin-budget exhaustion so uncontended passes never
        // read the clock. On expiry the laggard could not be neutralized;
        // the pass degrades conservatively — phase 3 frees nothing and
        // every retiree is kept for a later pass (correct-by-keep) — and
        // a registry probe arms the reaper if the laggard's thread is
        // actually dead.
        let deadline_ns = self.base.cfg.publish_deadline_ns;
        let mut pass_deadline: Option<Instant> = None;
        let mut timeouts = 0u64;
        let mut timed_out = false;
        for t in 0..sh.nthreads {
            if seq0[t] == SKIP {
                continue;
            }
            let mut spins = 0u32;
            while !sh.phase2_satisfied(t, seq0[t], ops0[t]) {
                spins = spins.saturating_add(1);
                if spins <= spin_limit {
                    core::hint::spin_loop();
                    continue;
                }
                if deadline_ns > 0 {
                    let deadline = *pass_deadline
                        .get_or_insert_with(|| Instant::now() + Duration::from_nanos(deadline_ns));
                    if Instant::now() >= deadline {
                        timeouts += 1;
                        timed_out = true;
                        sh.note_dead_if_confirmed(t);
                        break;
                    }
                }
                // Announce, read the word, re-check, park. A peer exit
                // between the announce and the FUTEX_WAIT either lands in
                // the re-check (its SeqCst fence follows our announce),
                // changes the word (EAGAIN), or sees our flag and wakes us.
                // The wait result is deliberately ignored: wall clock above
                // decides expiry, so a spurious wake or a timed-out park
                // are indistinguishable here — both just re-check.
                sh.wait_flag[t].fetch_add(1, Ordering::SeqCst);
                let w = sh.progress[t].load(Ordering::SeqCst);
                if !sh.phase2_satisfied(t, seq0[t], ops0[t]) {
                    let _ = futex::wait_timeout(&sh.progress[t], w, NBR_WAIT_TIMEOUT_NS);
                }
                sh.wait_flag[t].fetch_sub(1, Ordering::SeqCst);
            }
        }
        if timeouts > 0 {
            shard
                .publish_wait_timeouts
                .fetch_add(timeouts, Ordering::Relaxed);
        }
        fence(Ordering::SeqCst);

        // Reap at most one confirmed-dead participant per pass (cold
        // path; the CAS pair makes the reaper the slot's unique accessor).
        self.maybe_reap(tid);

        // Phase 3: honor write-phase reservations, free the rest. A
        // timed-out phase 2 proves nothing about the laggard's read-phase
        // pointers, so the pass frees NOTHING — the retire list simply
        // rides to the next pass (by which point the reaper has removed a
        // dead laggard, or a live one has caught up).
        if timed_out {
            // SAFETY: tid ownership per the registration contract.
            let list = unsafe { self.threads[tid].retire.get() };
            // Keep the retired-node accounting truthful: a normal pass
            // seals partial batches inside its sweep; a timed-out pass
            // must seal explicitly or everything kept this round would be
            // invisible to `unreclaimed_nodes`.
            crate::base::seal_and_account(&self.base, tid, list);
            shard.observe_retire_len(list.len());
            return;
        }
        let reserved = &mut scratch.reserved;
        reserved.clear();
        for t in 0..sh.nthreads {
            if !sh.registered[t].load(Ordering::Acquire) {
                continue;
            }
            for s in 0..sh.slots {
                let w = sh.wres[t * sh.slots + s].load(Ordering::Acquire);
                if w != 0 {
                    reserved.push(w);
                }
            }
        }
        reserved.sort_unstable();
        reserved.dedup();
        // SAFETY: tid ownership per the registration contract.
        let list = unsafe { self.threads[tid].retire.get() };
        shard.observe_retire_len(list.len());
        // SAFETY: phase 2 established no peer holds an unreserved pointer
        // to our (already unlinked) retirees.
        unsafe { free_unreserved(&self.base, tid, list, reserved) };
    }

    /// Reaps one participant whose kernel thread was confirmed dead: parks
    /// its remaining retires as orphans, releases its slot, and erases it
    /// from the signal-handler-visible state so phase 2 stops waiting on
    /// it. Exclusivity comes from the per-slot reap CAS plus re-confirming
    /// the death ([`crate::base::reap_registration`]) for that
    /// `(gtid, generation)`.
    fn maybe_reap(&self, tid: usize) {
        let sh = self.shared;
        let Some(t) = sh.take_dead() else { return };
        if t == tid || !self.base.try_begin_reap(t) {
            return;
        }
        let confirmed = match sh.registration_of(t) {
            Some((gtid, generation)) => {
                let backed = sh.gtid_backed[t].load(Ordering::Relaxed);
                crate::base::reap_registration(gtid, generation, backed)
            }
            None => false,
        };
        if confirmed {
            // Erase the handler-visible state first: `reap_participant`
            // ends by releasing the domain tid for reuse, and a new
            // claimant's registration must not race our teardown.
            sh.force_unregister(t);
            // SAFETY: the reap CAS plus the won registry reap make this
            // thread the unique accessor of the dead slot's single-owner
            // state; the owner's kernel task no longer exists.
            let list = unsafe { self.threads[t].retire.get() };
            self.base.reap_participant(tid, t, list);
        }
        self.base.end_reap(t);
    }
}

impl Smr for NbrPlus {
    const NAME: &'static str = "NBR+";
    const ROBUST: bool = true;
    const NEEDS_SIGNALS: bool = true;

    fn new(cfg: SmrConfig) -> Arc<Self> {
        let n = cfg.max_threads;
        let base = DomainBase::new(cfg);
        let shared = NbrShared::leak(n, base.cfg.slots, Arc::clone(&base.stats));
        let publisher = register_publisher(shared);
        let mut threads = Vec::with_capacity(n);
        threads.resize_with(n, || {
            CachePadded::new(ThreadState {
                retire: RetireSlot::for_cfg(&base.cfg),
                scratch: ScratchSlot::new(),
            })
        });
        Arc::new(NbrPlus {
            base,
            shared,
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
        let sh = self.shared;
        sh.clear_wres(tid);
        sh.neutralized[tid].store(false, Ordering::Relaxed);
        sh.in_op[tid].store(false, Ordering::Relaxed);
        sh.in_write[tid].store(false, Ordering::Relaxed);
        sh.peer_dead[tid].store(false, Ordering::Relaxed);
        let generation = if gtid < pop_runtime::MAX_THREADS {
            Registry::global().generation_of(gtid)
        } else {
            0
        };
        sh.gtid_gen[tid].store(generation, Ordering::Relaxed);
        sh.gtid_backed[tid].store(crate::base::registration_backed(gtid), Ordering::Relaxed);
        sh.gtid_of[tid].store(gtid + 1, Ordering::Relaxed);
        sh.registered[tid].store(true, Ordering::Release);
    }

    fn register_raw(&self, tid: usize) {
        self.base.claim(tid);
        // SAFETY: tid was just claimed; this thread owns the slot.
        let list = unsafe { self.threads[tid].retire.get() };
        self.base.adopt_orphan_chunk(tid, list);
    }

    fn unregister(&self, tid: usize) {
        let sh = self.shared;
        sh.in_write[tid].store(false, Ordering::Release);
        sh.in_op[tid].store(false, Ordering::Release);
        sh.clear_wres(tid);
        self.flush(tid);
        // SAFETY: tid ownership until release.
        let list = unsafe { self.threads[tid].retire.get() };
        self.base.orphan_remaining(tid, list);
        sh.registered[tid].store(false, Ordering::Release);
        // Wake coverage for the deregistered exit (cold path: fence +
        // flag check unconditionally).
        fence(Ordering::SeqCst);
        sh.wake_phase2_waiters(tid);
        sh.gtid_of[tid].store(0, Ordering::Relaxed);
        self.base.clear_gtid(tid);
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
        // Wake coverage for the going-quiescent exit: the fence orders the
        // in_op clear before the waiter-flag load (Dekker, see
        // `wake_phase2_waiters`); a parked reclaimer stops waiting on us
        // now instead of riding the timeout.
        fence(Ordering::SeqCst);
        sh.wake_phase2_waiters(tid);
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
        // Wake coverage for the entered-write-phase exit: the fence above
        // already orders the in_write store before the flag load; a parked
        // reclaimer proceeds to honor our published reservations instead of
        // riding the timeout.
        sh.wake_phase2_waiters(tid);
        Ok(())
    }

    fn end_write(&self, tid: usize) {
        let sh = self.shared;
        sh.in_write[tid].store(false, Ordering::Release);
        sh.clear_wres(tid);
    }

    unsafe fn retire(&self, tid: usize, retired: Retired) {
        // SAFETY: tid ownership.
        let list = unsafe { self.threads[tid].retire.get() };
        if push_retired(&self.base, tid, list, retired) {
            debug_assert!(
                self.shared.in_write[tid].load(Ordering::Relaxed),
                "NBR retire must be called inside a begin_write bracket"
            );
            self.reclaim(tid);
        }
    }

    fn flush(&self, tid: usize) {
        // Flush runs at shutdown/test boundaries, outside operations; mark
        // the write phase so concurrent reclaimers skip waiting on us.
        let sh = self.shared;
        let was = sh.in_write[tid].swap(true, Ordering::SeqCst);
        self.reclaim(tid);
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
        smr.flush(0);
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
    fn quiescent_exit_wakes_parked_phase2_waiter_promptly() {
        // The PR-4 wake-coverage fix: a reclaimer parked in phase 2
        // (publish_spin 0 → immediate park) must be FUTEX_WAKEd by the
        // peer's going-quiescent `end_op`, not left to ride the 1 ms
        // timeout backstop. The reader waits until the waiter has
        // announced itself before ending its op and timestamps that
        // moment; the median park-to-return latency must sit well under
        // the timeout (a missing wake pays the full 1 ms every round).
        if !futex::supported() {
            return; // nothing ever parks off Linux
        }
        let smr = NbrPlus::new(SmrConfig::for_tests(2).with_publish_spin(0));
        let reg0 = smr.register(0);
        const ROUNDS: usize = 9;
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let (inop_tx, inop_rx) = std::sync::mpsc::channel::<()>();
        let (t0_tx, t0_rx) = std::sync::mpsc::channel::<std::time::Instant>();
        let reader = std::thread::spawn({
            let smr = Arc::clone(&smr);
            move || {
                let reg1 = smr.register(1);
                for _ in 0..ROUNDS {
                    go_rx.recv().unwrap();
                    smr.begin_op(1);
                    inop_tx.send(()).unwrap();
                    // Hold the read phase until the reclaimer's phase-2
                    // waiter has announced itself on our progress word
                    // (it parks right after, or its pre-park re-check
                    // sees the end_op — prompt either way).
                    while smr.shared.wait_flag[1].load(Ordering::SeqCst) == 0 {
                        std::hint::spin_loop();
                    }
                    let t0 = std::time::Instant::now();
                    smr.end_op(1);
                    t0_tx.send(t0).unwrap();
                }
                drop(reg1);
            }
        });
        let mut lat_ns: Vec<u64> = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            go_tx.send(()).unwrap();
            inop_rx.recv().unwrap();
            // flush runs a full reclamation pass: phase 1 pings the
            // in-op reader (which never checkpoints, so never acks) and
            // phase 2 blocks on it until its end_op.
            smr.flush(0);
            let done = std::time::Instant::now();
            let t0 = t0_rx.recv().unwrap();
            lat_ns.push(done.duration_since(t0).as_nanos() as u64);
        }
        reader.join().unwrap();
        drop(reg0);
        lat_ns.sort_unstable();
        let median = lat_ns[ROUNDS / 2];
        assert!(
            median < NBR_WAIT_TIMEOUT_NS / 2,
            "going-quiescent exit must wake the parked waiter well under \
             the {NBR_WAIT_TIMEOUT_NS} ns timeout backstop; median {median} ns \
             (all: {lat_ns:?})"
        );
    }

    #[test]
    fn phase2_deadline_unwedges_stuck_peer_and_keeps_everything() {
        // A peer wedged in a read phase (never checkpointing, never
        // acking) must not hang the reclaimer forever: the pass deadline
        // expires, the pass frees NOTHING (correct-by-keep), and — the
        // peer's thread being alive — nothing is reaped. Once the peer
        // goes quiescent, the next pass frees normally.
        let smr = NbrPlus::new(
            SmrConfig::for_tests(2)
                .with_publish_spin(8)
                .with_publish_deadline_ns(30_000_000),
        );
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
        smr.flush(0);
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
